"""Binary quadratic forms: reduction, rho-cycles, composition, class groups.

For positive discriminants the narrow class group is materialized by
enumerating all primitive reduced forms and partitioning them into
rho-cycles; the wide group is the quotient by the class of the negative
principal form.  Group structure is read p-primary part by p-primary part
from the kernel sizes of iterated p-th-power maps, O(h log h) compositions
in all.

The enumeration loops over the smaller outer coefficient d <= sqrt(delta)/2
and solves b**2 = delta (mod 4d), building the square roots by CRT from
roots modulo prime powers (Hensel lifting; Cohen, GTM 138, 1.5), so its
cost follows the number of forms rather than the divisors of (delta - b**2)/4.

`class_witness` needs no enumeration: one split prime form that reduces
outside the principal (and tau) cycle proves the class group nontrivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import cfrac
from .intarith import factor, spf_table, sqrt_mod_prime, xgcd

NARROW = "narrow"
WIDE = "wide"


class BQF(NamedTuple):
    """Integral binary quadratic form a*x**2 + b*x*y + c*y**2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(self.a, self.b, self.c) == 1


@dataclass(frozen=True)
class ClassGroupStructure:
    """Elementary divisor chain d1 | d2 | ... | dk with product = order."""

    order: int
    divisors: tuple[int, ...]
    flavor: str

    def __post_init__(self):
        prod = 1
        for d in self.divisors:
            prod *= d
        if prod != self.order:
            raise ValueError("divisors must multiply to the group order")
        for x, y in zip(self.divisors, self.divisors[1:]):
            if y % x != 0:
                raise ValueError("divisors must form a divisibility chain")

    def is_two_torsion(self) -> bool:
        return all(d == 2 for d in self.divisors)

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.divisors) if self.divisors else "1"


def _check_discriminant(delta: int) -> None:
    if delta == 0 or delta % 4 not in (0, 1) or (
        delta > 0 and math.isqrt(delta) ** 2 == delta
    ):
        raise ValueError(f"{delta} is not a quadratic discriminant")


def principal_form(delta: int) -> BQF:
    """The identity class representative (1, delta mod 2, ...)."""
    _check_discriminant(delta)
    b0 = delta % 2
    return BQF(1, b0, (b0 * b0 - delta) // 4)


def is_reduced(form: BQF, delta: int) -> bool:
    """Reduction test; exact integer comparisons only."""
    a, b, c = form
    if b * b - 4 * a * c != delta:
        raise ValueError("form does not have the stated discriminant")
    if delta > 0:
        w = math.isqrt(delta)
        if not 0 < b <= w:
            return False
        d1 = 2 * abs(a)
        return (d1 + b) ** 2 > delta and (d1 <= b or (d1 - b) ** 2 < delta)
    if a <= 0 or not -a < b <= a or a > c:
        return False
    return b >= 0 or (abs(b) != a and a != c)


def _rho_step(delta: int, w: int, b: int, c: int) -> tuple[int, int]:
    # New (b', c') for the successor form (c, b', c') of a reduced form.
    ca = c if c >= 0 else -c
    m2 = ca << 1
    nb = w - ((w + b) % m2)
    return nb, (nb * nb - delta) // (4 * c)


def rho(form: BQF, delta: int) -> BQF:
    """Cycle successor of a reduced indefinite form."""
    if delta <= 0:
        raise ValueError("rho is defined for positive discriminants")
    if not is_reduced(form, delta):
        raise ValueError(f"rho requires a reduced form, got {form}")
    w = math.isqrt(delta)
    nb, nc = _rho_step(delta, w, form.b, form.c)
    return BQF(form.c, nb, nc)


def _reduce_indefinite(delta: int, w: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    for _ in range(100000):
        aa = a if a >= 0 else -a
        d1 = aa + aa
        if 0 < b <= w and (d1 + b) ** 2 > delta and (d1 <= b or (d1 - b) ** 2 < delta):
            return a, b, c
        ca = c if c >= 0 else -c
        m2 = ca << 1
        if ca > w:
            nb = (-b) % m2
            if nb > ca:
                nb -= m2
        else:
            nb = w - ((w + b) % m2)
        a, b, c = c, nb, (nb * nb - delta) // (4 * c)
    raise ArithmeticError(f"reduction did not terminate for discriminant {delta}")


def _reduce_definite(a: int, b: int, c: int) -> tuple[int, int, int]:
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def reduce(form: BQF, delta: int) -> BQF:
    """A reduced form properly equivalent to the given primitive form."""
    a, b, c = form
    if b * b - 4 * a * c != delta:
        raise ValueError("form does not have the stated discriminant")
    if math.gcd(a, b, c) != 1:
        raise ValueError(f"{form} is imprimitive; only invertible classes form the group")
    if delta > 0:
        w = math.isqrt(delta)
        return BQF(*_reduce_indefinite(delta, w, a, b, c))
    if a <= 0:
        raise ValueError("negative definite form; class groups use a > 0")
    return BQF(*_reduce_definite(a, b, c))


def _solve_linear(a: int, b: int, m: int) -> tuple[int, int]:
    # x with a*x = b (mod m), m > 0; returns (x0, step) describing x0 + step*Z.
    g, inv, _ = xgcd(a, m)
    if b % g:
        raise ArithmeticError("linear congruence has no solution")
    step = m // g
    return (b // g * inv) % step, step


def _compose_raw(f1: tuple[int, int, int], f2: tuple[int, int, int]) -> tuple[int, int, int]:
    # Gauss/Dirichlet composition; requires positive leading coefficients.
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) >> 1
    h = (b2 - b1) >> 1
    w = math.gcd(a1, a2, g)
    s = a1 // w
    t = a2 // w
    u = g // w
    st = s * t
    k0, step = _solve_linear(t * u, h * u + s * c1, st)
    n0, _ = _solve_linear(t * step, h - t * k0, s)
    k = k0 + step * n0
    l = (t * k - h) // s
    m = (t * u * k - h * u - s * c1) // st
    return st, w * u - (k * t + l * s), k * l - w * m


# The primes below 100, tried in order by class_witness.  On the n**2 -+ 4
# families with n <= 10**5 they certify every real order with h > 1.
_WITNESS_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def class_witness(delta: int, *, square: bool, wide: bool) -> bool:
    """True when a small split prime form proves the class group nontrivial.

    For delta > 0, the prime form P = (p, b, (b*b - delta)/4p) of a split
    prime p not dividing delta is primitive.  Two reduced forms are properly
    equivalent exactly when they lie on one rho-cycle, so if P reduces
    outside the principal cycle, the narrow class group is not trivial; with
    `square`, P*P is reduced instead and the group is not 2-torsion.  With
    `wide`, the cycle of the negative principal form tau is excluded as
    well, and the certificate holds for the wide group, the narrow group
    modulo tau.  False means no certificate was found, not that the group is
    trivial (or 2-torsion).
    """
    w = math.isqrt(delta)
    b1 = w if ((w ^ delta) & 1) == 0 else w - 1
    c1 = (b1 * b1 - delta) >> 2
    starts = [(1, b1, c1), (-1, b1, -c1)] if wide else [(1, b1, c1)]
    seen: set[tuple[int, int]] = set()
    for a, b, c in starts:
        while (a, b) not in seen:
            seen.add((a, b))
            a, (b, c) = c, _rho_step(delta, w, b, c)
    for p in _WITNESS_PRIMES:
        if p == 2:
            if delta & 7 != 1:
                continue
            b = 1
        else:
            b = sqrt_mod_prime(delta % p, p)
            if not b:
                continue
            if (b ^ delta) & 1:
                b = p - b
        form = (p, b, (b * b - delta) // (4 * p))
        if square:
            form = _compose_raw(form, form)
        a, b, _ = _reduce_indefinite(delta, w, *form)
        if (a, b) not in seen:
            return True
    return False


class _ClassData:
    """All reduced-form cycle data for one discriminant."""

    __slots__ = (
        "delta",
        "w",
        "h_plus",
        "h",
        "index",
        "stride",
        "forms_a",
        "forms_b",
        "forms_c",
        "orbit",
        "pos_rep",
        "canon",
        "principal",
        "tau",
        "ratio_one",
        "_compose_memo",
        "_square_ids",
    )

    def __init__(self, delta: int):
        self.delta = delta
        self._compose_memo: dict[tuple[int, int], int] = {}
        self._square_ids: list[int] | None = None
        if delta > 0:
            self._build_real()
        else:
            self._build_imaginary()

    # -- enumeration -----------------------------------------------------

    def _positive_forms(self):
        # Loop over the smaller outer coefficient d (Buchmann & Vollmer 2007,
        # ch. 6).  With e = (delta - b*b) / (4d), the form (d, b, -e) is
        # reduced with d <= e exactly when b*b = delta (mod 4d) and b lies in
        # [max(1, w + 1 - 2d), isqrt(delta - 4d*d)].  That window holds at
        # most 2d integers and the solutions b repeat mod 2d, so each root
        # mod 2d gives at most one b.  d runs over odd parts m (roots mod m
        # by CRT over prime powers, read off the SPF table) times 2**k.
        delta = self.delta
        w = self.w
        support = [p for p, e in factor(delta).pairs if e >= 2]
        dmax = math.isqrt((delta - (2 - (delta & 1)) ** 2) >> 2)
        spf = spf_table(dmax)[: dmax + 1].tolist()
        # two[k]: the roots mod 2**(k+1) of x*x = delta (mod 2**(k+2)).
        two = [(delta & 1,)]
        while 1 << len(two) <= dmax:
            step = 1 << len(two)
            lifts = (x for r in two[-1] for x in (r, r + step))
            two.append(tuple(x for x in lifts if (x * x - delta) % (step << 2) == 0))
        big2 = 2 << (len(two) - 1)
        # odd[m]: the roots mod m of x*x = delta (mod m), for odd m.
        odd: list[tuple[int, ...]] = [()] * (dmax + 1)
        A: list[int] = []
        B: list[int] = []
        C: list[int] = []
        add_a = A.append
        add_b = B.append
        add_c = C.append
        for m in range(1, dmax + 1, 2):
            if m == 1:
                roots: tuple[int, ...] = (0,)
            else:
                p = spf[m]
                pe = p
                while m // pe % p == 0:
                    pe *= p
                rest = m // pe
                if rest > 1:
                    ra = odd[rest]
                    rb = odd[pe]
                    if not ra or not rb:
                        continue
                    inv = pow(rest, -1, pe)
                    roots = tuple(u + rest * ((v - u) * inv % pe) for u in ra for v in rb)
                elif pe == p:
                    r = sqrt_mod_prime(delta % p, p)
                    if r is None:
                        continue
                    roots = (r, p - r) if r else (0,)
                else:
                    low = pe // p
                    if delta % p:
                        # Hensel: each root mod p**(e-1) has one lift.
                        roots = tuple(
                            (r - (r * r - delta) * pow(2 * r, -1, pe)) % pe for r in odd[low]
                        )
                    else:
                        # p | delta and p*p <= dmax: try all p lifts.
                        lifts = (x for r in odd[low] for x in range(r, pe, low))
                        roots = tuple(x for x in lifts if (x * x - delta) % pe == 0)
                    if not roots:
                        continue
                odd[m] = roots
            inv = pow(m, -1, big2)
            for k, rk in enumerate(two):
                d = m << k
                if d > dmax or not rk:
                    break
                m2 = 2 << k
                two_d = d << 1
                lo = w + 1 - two_d
                if lo < 1:
                    lo = 1
                for t in rk:
                    for u in roots:
                        x = u + m * ((t - u) * inv % m2)
                        b = lo + (x - lo) % two_d
                        e = ((delta - b * b) >> 2) // d
                        if e < d:
                            continue
                        if support:
                            ok = True
                            for q in support:
                                if b % q == 0 and d % q == 0 and e % q == 0:
                                    ok = False
                                    break
                            if not ok:
                                continue
                        add_a(d)
                        add_b(b)
                        add_c(-e)
                        if d != e:
                            add_a(e)
                            add_b(b)
                            add_c(-d)
        return A, B, C

    # -- cycle partition -------------------------------------------------

    def _build_real(self):
        delta = self.delta
        w = self.w = math.isqrt(delta)
        A, B, C = self._positive_forms()
        nf = len(A)
        stride = self.stride = w + 3
        index = self.index = {}
        for i in range(nf):
            index[A[i] * stride + B[i]] = i
        orbit = self.orbit = [-1] * nf
        pos_rep: list[tuple[int, int, int]] = []
        canon: list[tuple[int, int, int]] = []
        n_orbits = 0
        for i in range(nf):
            if orbit[i] >= 0:
                continue
            oid = n_orbits
            n_orbits += 1
            pos_rep.append((A[i], B[i], C[i]))
            ma = mb = mc = None
            j = i
            while True:
                orbit[j] = oid
                b1 = B[j]
                c1 = C[j]
                ca = -c1
                nb = w - ((w + b1) % (ca + ca))
                nc = (nb * nb - delta) // (4 * c1)
                if ma is None or c1 < ma or (c1 == ma and (nb, nc) < (mb, mc)):
                    ma, mb, mc = c1, nb, nc
                nb2 = w - ((w + nb) % (nc + nc))
                j = index[nc * stride + nb2]
                if j == i:
                    break
            canon.append((ma, mb, mc))
        self.forms_a, self.forms_b, self.forms_c = A, B, C
        self.pos_rep = pos_rep
        self.canon = canon
        self.h_plus = n_orbits
        b1 = w if ((w ^ delta) & 1) == 0 else w - 1
        self.principal = orbit[index[stride + b1]]
        c_tau = (delta - b1 * b1) >> 2
        nb = w - ((w + b1) % (c_tau + c_tau))
        self.tau = orbit[index[c_tau * stride + nb]]
        self.ratio_one = self.tau == self.principal
        if self.ratio_one:
            self.h = self.h_plus
        else:
            if self.h_plus % 2:
                raise ArithmeticError(
                    f"odd narrow class number with nontrivial negative class at {delta}"
                )
            self.h = self.h_plus // 2

    def _build_imaginary(self):
        delta = self.delta
        self.w = 0
        A: list[int] = []
        B: list[int] = []
        C: list[int] = []
        amax = math.isqrt(-delta // 3)
        for a in range(1, amax + 1):
            for b in range(-a + 1, a + 1):
                if (b - delta) % 2:
                    continue
                num = b * b - delta
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                if b < 0 and (a == c or -b == a):
                    continue
                if math.gcd(a, b, c) != 1:
                    continue
                A.append(a)
                B.append(b)
                C.append(c)
        nf = len(A)
        self.stride = 4 * (amax + 2)
        self.index = {}
        forms = sorted((A[i], B[i], C[i]) for i in range(nf))
        self.forms_a = [f[0] for f in forms]
        self.forms_b = [f[1] for f in forms]
        self.forms_c = [f[2] for f in forms]
        for i, f in enumerate(forms):
            self.index[self._neg_key(f[0], f[1])] = i
        self.orbit = list(range(nf))
        self.pos_rep = forms
        self.canon = forms
        self.h_plus = self.h = nf
        p = principal_form(delta)
        self.principal = self.index[self._neg_key(p.a, p.b)]
        self.tau = self.principal
        self.ratio_one = True

    def _neg_key(self, a: int, b: int) -> int:
        return a * self.stride + (b + 2 * self.stride)

    # -- class arithmetic ------------------------------------------------

    def orbit_of(self, form: BQF) -> int:
        a, b, c = form
        if b * b - 4 * a * c != self.delta:
            raise ValueError("form does not have this discriminant")
        if math.gcd(a, b, c) != 1:
            raise ValueError(f"{form} is imprimitive")
        if self.delta > 0:
            a, b, c = _reduce_indefinite(self.delta, self.w, a, b, c)
            if a < 0:
                nb, nc = _rho_step(self.delta, self.w, b, c)
                a, b, c = c, nb, nc
            return self.orbit[self.index[a * self.stride + b]]
        a, b, c = _reduce_definite(a, b, c)
        return self.orbit[self.index[self._neg_key(a, b)]]

    def compose_ids(self, i: int, j: int) -> int:
        if j < i:
            i, j = j, i
        memo = self._compose_memo
        key = (i, j)
        got = memo.get(key)
        if got is None:
            raw = _compose_raw(self.pos_rep[i], self.pos_rep[j])
            got = self.orbit_of(BQF(*raw))
            memo[key] = got
        return got

    def square_ids(self) -> list[int]:
        if self._square_ids is None:
            self._square_ids = [self.compose_ids(i, i) for i in range(self.h_plus)]
        return self._square_ids

    def two_torsion_narrow_count(self) -> int:
        return sum(1 for s in self.square_ids() if s == self.principal)

    def is_two_torsion_narrow(self) -> bool:
        return all(s == self.principal for s in self.square_ids())

    def is_two_torsion_wide(self) -> bool:
        ok = {self.principal, self.tau}
        return all(s in ok for s in self.square_ids())

    def _power(self, x: int, e: int, project) -> int:
        # Left-to-right square-and-multiply on (projected) class ids.
        y = x
        for bit in bin(e)[3:]:
            y = project(self.compose_ids(y, y))
            if bit == "1":
                y = project(self.compose_ids(y, x))
        return y

    def _invariant_factors(self, project) -> tuple[int, ...]:
        # p-primary structure (Teske 1998; Cohen, GTM 138, 2.4): for p | |G|,
        # |G[p^k]| = p^(r_1 + ... + r_k) where r_k counts the cyclic p-factors
        # of order >= p^k, so iterating the p-th-power map and counting its
        # kernels gives the p-part.  The map costs O(log p) compositions per
        # class, O(h log h) in all; a Sylow subgroup of order p is cyclic and
        # needs none.  `project` folds narrow ids to wide.
        elements = sorted({project(i) for i in range(self.h_plus)})
        ident = project(self.principal)
        divisors: list[int] = []  # largest first
        for p, v in factor(len(elements)).pairs:
            ranks = [1]
            if v > 1:
                if p == 2:
                    sq = self.square_ids()
                    power = {x: project(sq[x]) for x in elements}
                else:
                    power = {x: self._power(x, p, project) for x in elements}
                ranks, seen, images = [], 1, elements
                while seen < p**v:
                    images = [power[x] for x in images]
                    kernel = images.count(ident)
                    rest, jump = kernel // seen, 0
                    while rest > 1 and rest % p == 0:
                        rest //= p
                        jump += 1
                    if kernel != seen * p**jump or jump == 0 or ranks and jump > ranks[-1]:
                        break
                    ranks.append(jump)
                    seen = kernel
                if seen != p**v:
                    raise ArithmeticError(f"{p}-power kernels inconsistent at {self.delta}")
            divisors += [1] * (ranks[0] - len(divisors))
            for j in range(ranks[0]):
                divisors[j] *= p ** sum(1 for r in ranks if r > j)
        return tuple(reversed(divisors))

    def narrow_divisors(self) -> tuple[int, ...]:
        return self._invariant_factors(lambda i: i)

    def wide_divisors(self) -> tuple[int, ...]:
        if self.ratio_one:
            return self.narrow_divisors()
        tau = self.tau
        fold = {}
        for i in range(self.h_plus):
            fold[i] = min(i, self.compose_ids(i, tau))
        return self._invariant_factors(lambda i: fold[i])

    def cycle_of(self, oid: int) -> list[BQF]:
        if self.delta < 0:
            return [BQF(*self.pos_rep[oid])]
        delta, w = self.delta, self.w
        start = BQF(*self.canon[oid])
        out = [start]
        _, b, c = start
        while True:
            a = c
            b, c = _rho_step(delta, w, b, c)
            if a == start.a and b == start.b:
                return out
            out.append(BQF(a, b, c))


@lru_cache(maxsize=64)
def _class_data(delta: int) -> _ClassData:
    _check_discriminant(delta)
    return _ClassData(delta)


def enumerate_reduced(delta: int) -> list[BQF]:
    """All primitive reduced forms of the discriminant, sorted."""
    cd = _class_data(delta)
    forms = [
        BQF(cd.forms_a[i], cd.forms_b[i], cd.forms_c[i]) for i in range(len(cd.forms_a))
    ]
    if delta > 0:
        forms += [BQF(-f.a, f.b, -f.c) for f in forms]
    return sorted(forms)


def narrow_classes(delta: int) -> list[list[BQF]]:
    """Partition of the reduced forms into rho-cycles (singletons if delta<0).

    Each part starts at its canonical (lexicographically least) member and
    follows rho order; parts are sorted by canonical representative.
    """
    cd = _class_data(delta)
    parts = [cd.cycle_of(oid) for oid in range(cd.h_plus)]
    parts.sort(key=lambda part: part[0])
    return parts


def narrow_class_number(delta: int) -> int:
    return _class_data(delta).h_plus


def class_number(delta: int) -> int:
    return _class_data(delta).h


def compose(f: BQF, g: BQF, delta: int) -> BQF:
    """Gauss composition on classes; returns the canonical representative."""
    cd = _class_data(delta)
    i = cd.orbit_of(BQF(*f))
    j = cd.orbit_of(BQF(*g))
    return BQF(*cd.canon[cd.compose_ids(i, j)])


def narrow_class_group(delta: int) -> ClassGroupStructure:
    cd = _class_data(delta)
    return ClassGroupStructure(cd.h_plus, cd.narrow_divisors(), NARROW)


def wide_class_group(delta: int) -> ClassGroupStructure:
    """Structure of the wide class group, cross-checked against the unit norm.

    For delta > 0 the narrow-to-wide index must be 1 exactly when the
    fundamental unit has norm -1; disagreement between the form-cycle route
    and the continued-fraction route raises, since it would mean a bug.
    """
    cd = _class_data(delta)
    if delta > 0:
        expected_ratio = 1 if cfrac.fundamental_unit(delta).norm == -1 else 2
        if cd.h_plus != expected_ratio * cd.h:
            raise ArithmeticError(
                f"narrow/wide ratio disagrees with unit norm at delta={delta}"
            )
    return ClassGroupStructure(cd.h, cd.wide_divisors(), WIDE)

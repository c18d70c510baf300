"""Binary quadratic forms: reduction, rho-cycles, composition, class groups.

For positive discriminants the narrow class group is materialized by
enumerating all primitive reduced forms and partitioning them into
rho-cycles; the wide group is the quotient by the class tau of the negative
principal form.  Group structure is read p-primary part by p-primary part
from the kernel sizes of iterated p-th-power maps, O(h log h) compositions
in all.  Most of them are squares, which take the duplication formula
(`_square_raw`: one gcd and one modular inverse).  The quotient by tau needs
none: [f][tau] is the class of the negation (-a, b, -c), which one rho step
and one index lookup place on its cycle.

The enumeration loops over the smaller outer coefficient d and solves
b**2 = delta (mod 4d), building the square roots by CRT from roots modulo
prime powers (Cohen, GTM 138, 1.5; a root mod p**e is found by trying the
p lifts of each root mod p**(e-1)), so its cost follows the number of forms
rather than the divisors of (delta - b**2)/4.  Both signs share it:
d <= sqrt(delta)/2 for delta > 0, d <= sqrt(|delta|/3) for delta < 0.

`class_witness` needs no enumeration: one split prime form that reduces
outside the principal (and tau) cycle proves the class group nontrivial.
The class data carries the discriminant record (`orders.decompose`, which
validates delta and factors it once), records each rho-cycle as its one walk
meets it, so `iter_narrow_classes` yields the classes without a second walk
(one sort of one key per cycle orders them, and each cycle is listed only
when it is asked for), and holds its cross-checks: the cycle count against
the unit norm (`check_unit_norm`), and in `checked_chains`, which every
caller reads both divisor chains from, the cycle count against the genus
order and each chain's even factors against the 2-rank of Gauss's genus
theory.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import cfrac
from .cfrac import _principal_cycle, _rho_step
from .intarith import factor, is_discriminant, spf_table, sqrt_mod_prime
from .orders import _mu, decompose

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
        if math.prod(self.divisors) != self.order:
            raise ValueError("divisors must multiply to the group order")
        for x, y in zip(self.divisors, self.divisors[1:]):
            if y % x != 0:
                raise ValueError("divisors must form a divisibility chain")

    def is_two_torsion(self) -> bool:
        return all(d == 2 for d in self.divisors)

    def __str__(self) -> str:
        return divisor_chain(self.divisors)


def divisor_chain(divisors: tuple[int, ...]) -> str:
    """The chain as text, d1xd2x...; "1" for the trivial group."""
    return "x".join(map(str, divisors)) if divisors else "1"


def principal_form(delta: int) -> BQF:
    """The identity class representative (1, delta mod 2, ...)."""
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
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


def rho(form: BQF, delta: int) -> BQF:
    """Cycle successor of a reduced indefinite form."""
    if delta <= 0:
        raise ValueError("rho is defined for positive discriminants")
    if not is_reduced(form, delta):
        raise ValueError(f"rho requires a reduced form, got {form}")
    w = math.isqrt(delta)
    _, nb, nc = _rho_step(delta, w, form.b, form.c)
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


def _check_class_form(form: BQF, delta: int) -> None:
    a, b, c = form
    if b * b - 4 * a * c != delta:
        raise ValueError("form does not have the stated discriminant")
    if math.gcd(a, b, c) != 1:
        raise ValueError(f"{form} is imprimitive; only invertible classes form the group")
    if delta < 0 and a <= 0:
        raise ValueError("negative definite form; class groups use a > 0")


def reduce(form: BQF, delta: int) -> BQF:
    """A reduced form properly equivalent to the given primitive form."""
    _check_class_form(form, delta)
    if delta > 0:
        return BQF(*_reduce_indefinite(delta, math.isqrt(delta), *form))
    return BQF(*_reduce_definite(*form))


def _solve_linear(a: int, b: int, m: int) -> tuple[int, int]:
    # x with a*x = b (mod m), m > 0; returns (x0, step) describing x0 + step*Z.
    g = math.gcd(a, m)
    if b % g:
        raise ArithmeticError("linear congruence has no solution")
    step = m // g
    return (b // g * pow(a // g, -1, step)) % step, step


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


def _square_raw(a: int, b: int, c: int) -> tuple[int, int, int]:
    # _compose_raw(f, f) with f = (a, b, c), a > 0 (Cohen, GTM 138, 5.4).
    # With w = gcd(a, b), s = a/w and u = b/w coprime, the two congruences
    # collapse to u*k = c (mod s), and l = k (k = 0 when s = 1).
    w = math.gcd(a, b)
    s = a // w
    u = b // w
    k = c * pow(u, -1, s) % s
    m = (u * k - c) // s
    return s * s, b - 2 * k * s, k * k - w * m


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
    trivial (or 2-torsion).  Negation (a, b, c) -> (-a, b, -c) commutes with
    rho and maps the principal form to tau, so the cycles come from one walk
    to the first |a| = 1 (`cfrac._principal_cycle`) and its negation.
    """
    w = math.isqrt(delta)
    seen = {(a, b) for a, b, _ in _principal_cycle(delta)}
    if wide or len(seen) & 1:
        seen.update([(-a, b) for a, b in seen])
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
            form = _square_raw(*form)
        a, b, _ = _reduce_indefinite(delta, w, *form)
        if (a, b) not in seen:
            return True
    return False


def unit_norm_agrees(h_plus: int, h: int, norm: int) -> bool:
    """h+ = h exactly when the fundamental unit has norm -1."""
    return (h_plus == h) == (norm == -1)


class _ClassData:
    """All reduced-form cycle data for one discriminant.

    `forms_a`, `forms_b`, `forms_c` hold the reduced forms (a, b, c) with
    a > 0: 0 < b <= sqrt(delta) and c < 0 for delta > 0, a <= sqrt(|delta|/3)
    and -a < b <= a for delta < 0.  `index` finds one by its key
    a * stride + b (one key for both signs of delta).
    Cycle k is walk[starts[k]:starts[k + 1]], its forms' positions in walk
    order: rho**2 steps for delta > 0, a single form for delta < 0.  `orbit`
    maps a position to its cycle; `rep(k)`, the first walked form, is the
    representative compositions start from.
    """

    __slots__ = (
        "delta",
        "desc",
        "w",
        "h_plus",
        "h",
        "index",
        "stride",
        "forms_a",
        "forms_b",
        "forms_c",
        "orbit",
        "walk",
        "starts",
        "principal",
        "tau",
        "_compose_memo",
        "_square_ids",
    )

    def __init__(self, delta: int):
        self.delta = delta
        self.desc = decompose(delta)
        self._compose_memo: dict[tuple[int, int], int] = {}
        self._square_ids: list[int] | None = None
        self.w = math.isqrt(delta) if delta > 0 else 0
        A, B, C = self._positive_forms()
        self.forms_a, self.forms_b, self.forms_c = A, B, C
        nf = len(A)
        # Keys of distinct forms differ: 0 < b <= w for delta > 0, and
        # -amax < b <= amax for delta < 0.
        stride = self.stride = self.w + 3 if delta > 0 else 2 * math.isqrt(-delta // 3) + 3
        self.index = {A[i] * stride + B[i]: i for i in range(nf)}
        if delta > 0:
            self._build_real()
        else:
            # Each reduced form is its own class; the principal form
            # (1, delta % 2, ...) comes first, from d = 1.
            self.orbit = self.walk = list(range(nf))
            self.starts = list(range(nf + 1))
            self.h_plus = self.h = nf
            self.principal = self.tau = 0

    # -- enumeration -----------------------------------------------------

    def _positive_forms(self):
        # Loop over the smaller outer coefficient d (Buchmann & Vollmer 2007,
        # ch. 6).  With e = (delta - b*b) / (4d), the form (d, b, -e) is
        # reduced exactly when b*b = delta (mod 4d) and, for delta > 0, b lies
        # in [max(1, w + 1 - 2d), isqrt(delta - 4d*d)] (d <= e, and the twin
        # (e, b, -d) is reduced too); for delta < 0, b lies in (-d, d] and
        # -e >= d, with b >= 0 if -e = d (no twin).  Each window holds at most
        # 2d integers and the solutions b repeat mod 2d, so each root mod 2d
        # gives at most one b.  d runs over odd parts m (roots mod m by CRT
        # over prime powers, read off the SPF table) times 2**k.
        delta = self.delta
        w = self.w
        support = [p for p, e in self.desc.pairs if e >= 2]
        dmax = math.isqrt(-delta // 3 if delta < 0 else (delta - (2 - (delta & 1)) ** 2) >> 2)
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
                    # Try the p lifts of each root mod p**(e-1); for p not
                    # dividing delta exactly one survives.
                    low = pe // p
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
                lo = 1 - d if delta < 0 else max(1, w + 1 - two_d)
                for t in rk:
                    for u in roots:
                        x = u + m * ((t - u) * inv % m2)
                        b = lo + (x - lo) % two_d
                        e = ((delta - b * b) >> 2) // d
                        if e < d:
                            # e >= 0 for delta > 0; for delta < 0, -e = c.
                            if e > -d or e == -d and b < 0:
                                continue
                        if support and math.gcd(d, b, e) != 1:
                            continue
                        add_a(d)
                        add_b(b)
                        add_c(-e)
                        if e > d:
                            add_a(e)
                            add_b(b)
                            add_c(-d)
        return A, B, C

    # -- cycle partition -------------------------------------------------

    def _build_real(self):
        delta, w, stride, index = self.delta, self.w, self.stride, self.index
        B, C = self.forms_b, self.forms_c
        nf = len(B)
        orbit = self.orbit = [-1] * nf
        walk = self.walk = []
        starts = self.starts = []
        for i in range(nf):
            if orbit[i] >= 0:
                continue
            oid = len(starts)
            starts.append(len(walk))
            j = i
            while True:
                orbit[j] = oid
                walk.append(j)
                c1 = C[j]
                nb = w - ((w + B[j]) % (-c1 - c1))
                nc = (nb * nb - delta) // (4 * c1)
                nb2 = w - ((w + nb) % (nc + nc))
                j = index[nc * stride + nb2]
                if j == i:
                    break
        self.h_plus = len(starts)
        starts.append(nf)
        b1 = w if ((w ^ delta) & 1) == 0 else w - 1
        self.principal = orbit[index[stride + b1]]
        self.tau = self.times_tau(self.principal)
        if self.tau != self.principal and self.h_plus % 2:
            raise ArithmeticError(
                f"odd narrow class number with nontrivial negative class at {delta}"
            )
        self.h = self.h_plus if self.tau == self.principal else self.h_plus // 2

    # -- cross-checks ----------------------------------------------------

    def check_unit_norm(self, norm: int) -> None:
        if not unit_norm_agrees(self.h_plus, self.h, norm):
            raise ArithmeticError(
                f"narrow/wide ratio disagrees with unit norm at delta={self.delta}"
            )

    def checked_chains(self, mu: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (narrow, wide) divisor chains, checked against Gauss's genus
        theory: the narrow group is 2-torsion (every square principal)
        exactly when h+ = 2**(mu-1), and |Cl+/(Cl+)**2| = 2**(mu-1), so the
        narrow chain has mu - 1 even factors.  The wide group Cl+/<tau> has
        as many when tau is a square (the principal class is its own square)
        and one fewer otherwise."""
        if self.is_two_torsion_narrow() != (self.h_plus == 1 << (mu - 1)):
            raise ArithmeticError(
                f"genus order and 2-torsion test disagree at delta={self.delta}"
            )
        narrow = self.narrow_divisors()
        wide = narrow if self.h == self.h_plus else self.wide_divisors()
        wide_rank = mu - 1 - (self.tau not in self.square_ids())
        for flavor, chain, rank in ((NARROW, narrow, mu - 1), (WIDE, wide, wide_rank)):
            if sum(1 for d in chain if d % 2 == 0) != rank:
                raise ArithmeticError(
                    f"{flavor} 2-rank disagrees with the genus count at delta={self.delta}"
                )
        return narrow, wide

    # -- class arithmetic ------------------------------------------------

    def _place(self, a: int, b: int, c: int) -> int:
        # The class of a primitive form of this discriminant: reduce it, take
        # one rho step from a < 0 to a > 0, and look it up.
        delta = self.delta
        if delta > 0:
            a, b, c = _reduce_indefinite(delta, self.w, a, b, c)
            if a < 0:
                _, b, _ = _rho_step(delta, self.w, b, c)
                a = c
        else:
            a, b, c = _reduce_definite(a, b, c)
        return self.orbit[self.index[a * self.stride + b]]

    def orbit_of(self, form: BQF) -> int:
        _check_class_form(form, self.delta)
        return self._place(*form)

    def rep(self, oid: int) -> tuple[int, int, int]:
        j = self.walk[self.starts[oid]]
        return self.forms_a[j], self.forms_b[j], self.forms_c[j]

    def compose_ids(self, i: int, j: int) -> int:
        if j < i:
            i, j = j, i
        memo = self._compose_memo
        key = (i, j)
        got = memo.get(key)
        if got is None:
            if i == j:
                raw = _square_raw(*self.rep(i))
            else:
                raw = _compose_raw(self.rep(i), self.rep(j))
            got = self._place(*raw)
            memo[key] = got
        return got

    def square_ids(self) -> list[int]:
        if self._square_ids is None:
            self._square_ids = [self.compose_ids(i, i) for i in range(self.h_plus)]
        return self._square_ids

    def is_two_torsion_narrow(self) -> bool:
        return all(s == self.principal for s in self.square_ids())

    def is_two_torsion_wide(self) -> bool:
        ok = {self.principal, self.tau}
        return all(s in ok for s in self.square_ids())

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
        for p, v in factor(len(elements)):
            ranks = [1]
            if v > 1:
                # x**p by square-and-multiply; squares are read off square_ids().
                sq = self.square_ids()
                power = {}
                for x in elements:
                    y = x
                    for bit in bin(p)[3:]:
                        y = project(sq[y])
                        if bit == "1":
                            y = project(self.compose_ids(y, x))
                    power[x] = y
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

    def times_tau(self, oid: int) -> int:
        # [f][tau] is the class of the negation (-a, b, -c) of f (see
        # class_witness), a reduced form.
        a, b, c = self.rep(oid)
        return self._place(-a, b, -c)

    def wide_divisors(self) -> tuple[int, ...]:
        # For h < h+; checked_chains reads the narrow chain when h = h+.
        fold = [min(i, self.times_tau(i)) for i in range(self.h_plus)]
        return self._invariant_factors(fold.__getitem__)

    def cycle_of(self, oid: int) -> list[BQF]:
        """The forms of cycle oid in rho order, from its least member."""
        A, B, C = self.forms_a, self.forms_b, self.forms_c
        make = BQF._make
        run = self.walk[self.starts[oid] : self.starts[oid + 1]]
        if self.delta < 0:
            return [make((A[j], B[j], C[j])) for j in run]
        # Between walked forms j and k sits rho(j) = (C[j], nb, A[k]).
        w = self.w
        out = []
        for j, k in zip(run, run[1:] + run[:1]):
            c = C[j]
            out.append(make((A[j], B[j], c)))
            out.append(make((c, w - (w + B[j]) % (-c - c), A[k])))
        least = out.index(min(out))
        return out[least:] + out[:least]

    def ids_by_least(self) -> list[int]:
        """The cycle ids in the order of their least members.

        One integer key per cycle orders them as the forms do.  For delta < 0
        a cycle is its form, and a * stride + b orders (a, b) since
        |b| <= a < stride / 2.  For delta > 0 the least member is the least
        rho(j) = (c, nb, A[k]) with c = C[j] < 0, and c * stride + nb orders
        (c, nb) since 0 < nb <= w < stride; c and nb fix the third
        coefficient.
        """
        A, B, C = self.forms_a, self.forms_b, self.forms_c
        stride = self.stride
        if self.delta < 0:
            keys = [A[j] * stride + B[j] for j in self.walk]
        else:
            w = self.w
            walk, starts = self.walk, self.starts
            keys = [
                min(C[j] * stride + w - (w + B[j]) % (-2 * C[j]) for j in walk[s:e])
                for s, e in zip(starts, starts[1:])
            ]
        return sorted(range(self.h_plus), key=keys.__getitem__)


# One entry: the callers that reuse class data ask for the same delta back to
# back (inspect_report, then iter_narrow_classes), while sweeps such as
# relations.hua_trend never come back to a delta and would only pin memory.
@lru_cache(maxsize=1)
def _class_data(delta: int) -> _ClassData:
    return _ClassData(delta)


def enumerate_reduced(delta: int) -> list[BQF]:
    """All primitive reduced forms of the discriminant, sorted."""
    cd = _class_data(delta)
    forms = list(map(BQF._make, zip(cd.forms_a, cd.forms_b, cd.forms_c)))
    if delta > 0:
        forms += [BQF._make((-a, b, -c)) for a, b, c in forms]
    return sorted(forms)


def iter_narrow_classes(delta: int) -> Iterator[list[BQF]]:
    """The rho-cycles of the reduced forms (singletons if delta<0), one at a
    time, so a caller that writes them out never holds them all.

    Each part starts at its canonical (lexicographically least) member and
    follows rho order; parts come in the order of their canonical members.
    """
    cd = _class_data(delta)
    return map(cd.cycle_of, cd.ids_by_least())


def narrow_classes(delta: int) -> list[list[BQF]]:
    """The list of `iter_narrow_classes`."""
    return list(iter_narrow_classes(delta))


def narrow_class_number(delta: int) -> int:
    return _class_data(delta).h_plus


def class_number(delta: int) -> int:
    return _class_data(delta).h


def compose(f: BQF, g: BQF, delta: int) -> BQF:
    """Gauss composition on classes; returns the canonical representative."""
    cd = _class_data(delta)
    i = cd.orbit_of(BQF(*f))
    j = cd.orbit_of(BQF(*g))
    return cd.cycle_of(cd.compose_ids(i, j))[0]


def narrow_class_group(delta: int) -> ClassGroupStructure:
    cd = _class_data(delta)
    narrow, _ = cd.checked_chains(_mu(delta, cd.desc.pairs))
    return ClassGroupStructure(cd.h_plus, narrow, NARROW)


def wide_class_group(delta: int) -> ClassGroupStructure:
    """Structure of the wide class group, cross-checked against the unit norm
    and the genus count.

    For delta > 0 the narrow-to-wide index must be 1 exactly when the
    fundamental unit has norm -1; disagreement between the form-cycle route
    and the continued-fraction route raises, since it would mean a bug.
    """
    cd = _class_data(delta)
    if delta > 0:
        cd.check_unit_norm(cfrac.fundamental_unit(delta).norm)
    _, wide = cd.checked_chains(_mu(delta, cd.desc.pairs))
    return ClassGroupStructure(cd.h, wide, WIDE)

"""Periodic continued fractions of quadratic irrationals and fundamental units.

Expansions come in two flavors: regular (floor steps) and minus /
Hirzebruch-Jung (ceiling steps, x = a0 - 1/(a1 - 1/...)).  All state
arithmetic is exact; periods are detected by the first repetition of the
(P, Q) state and are therefore minimal.  Fundamental units come from one
walk of the principal rho-cycle of reduced forms, the regular continued
fraction of (b1 + sqrt(delta))/2 (Jacobson & Williams, *Solving the Pell
Equation*, 2009, ch. 5), in memory linear in the size of the unit; its step
`_rho_step` is the one that `forms` uses.  Discriminants are validated, and
split into conductor and fundamental part, by `intarith`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, cycle, islice

from .intarith import conductor_split, factor, is_discriminant


def _check_positive_discriminant(delta: int) -> None:
    if delta <= 0 or not is_discriminant(delta):
        raise ValueError(f"{delta} is not a positive quadratic discriminant")


@dataclass(frozen=True)
class QuadIrrational:
    """The real number (p + sqrt(d))/q with d > 0 nonsquare and q | d - p**2.

    Construction re-normalizes by scaling when q does not divide d - p**2, so
    every instance is in the canonical form the expansion loop relies on.
    """

    p: int
    q: int
    d: int

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if self.d <= 0 or math.isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be positive and not a perfect square")
        if (self.d - self.p * self.p) % self.q != 0:
            s = abs(self.q)
            object.__setattr__(self, "p", self.p * s)
            object.__setattr__(self, "d", self.d * s * s)
            object.__setattr__(self, "q", self.q * s)

    def value(self) -> float:
        return (self.p + math.sqrt(self.d)) / self.q


@dataclass(frozen=True)
class CFExpansion:
    """Eventually periodic continued fraction with a minimal period."""

    kind: str  # "regular" or "minus"
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def terms(self, count: int) -> list[int]:
        return list(islice(chain(self.preperiod, cycle(self.period)), count))

    def evaluate(self, count: int = 50) -> float:
        # Backward float evaluation; stable since tail terms are >= 1 (>= 2
        # for the minus flavor), so intermediate values stay in (1, inf).
        ts = self.terms(count)
        sign = 1.0 if self.kind == "regular" else -1.0
        x = float(ts[-1])
        for a in reversed(ts[:-1]):
            x = a + sign / x
        return x


@dataclass(frozen=True)
class QuadUnit:
    """A unit (t + u*sqrt(delta))/2 of the order of discriminant delta."""

    t: int
    u: int
    delta: int
    norm: int
    regulator: float

    def __post_init__(self):
        if (self.t * self.t - self.u * self.u * self.delta) != 4 * self.norm:
            raise ValueError("t**2 - u**2*delta must equal 4*norm")


def log_embedding(t: int, u: int, delta: int) -> float:
    """log((t + u*sqrt(delta))/2) for t, u > 0, accurate to ~1e-15 relative.

    Small units need the fractional part of sqrt(u*u*delta), so they stay
    in floats; for the others t >= 2**47, so the integer square root is off
    by less than 2**-47 relative, and `math.log` takes an int of any size.
    """
    if t.bit_length() < 48 and u * u * delta < 1 << 100:
        return math.log((t + math.sqrt(u * u * delta)) / 2)
    return math.log(t + math.isqrt(u * u * delta)) - math.log(2)


def _canonical_cf(pre: tuple[int, ...], per: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Minimal cyclic period, then pull the period boundary as far left as it goes.
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    pre = list(pre)
    per = list(per)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return tuple(pre), tuple(per)


def _expand(x: QuadIrrational, minus: bool) -> CFExpansion:
    p, q, d = x.p, x.q, x.d
    r = math.isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while True:
        state = (p, q)
        if state in seen:
            # Tails of quotients agree exactly when their complete quotients
            # (p + sqrt(d))/q do, so the first repeat gives the minimal
            # preperiod and period.
            j = seen[state]
            kind = "minus" if minus else "regular"
            return CFExpansion(kind, tuple(quotients[:j]), tuple(quotients[j:]))
        seen[state] = len(quotients)
        if q > 0:
            a = (p + r) // q
        else:
            a = -((p + r) // (-q)) - 1
        if minus:
            a += 1
        quotients.append(a)
        p1 = a * q - p
        q1 = (p1 * p1 - d) // q if minus else (d - p1 * p1) // q
        p, q = p1, q1


def cf_expand(x: QuadIrrational) -> CFExpansion:
    """Regular continued fraction of x, with minimal preperiod and period."""
    return _expand(x, minus=False)


def hj_cf_expand(x: QuadIrrational) -> CFExpansion:
    """Minus (Hirzebruch-Jung) continued fraction of x."""
    return _expand(x, minus=True)


def _rho_step(delta: int, w: int, b: int, c: int) -> tuple[int, int, int]:
    # Partial quotient s and new (b', c') for the successor form (c, b', c')
    # of a reduced form with middle coefficient b; w = isqrt(delta).
    m2 = abs(c) << 1
    s = (w + b) // m2
    nb = s * m2 - b
    return s, nb, (nb * nb - delta) // (4 * c)


def _principal_cycle(delta: int):
    # Yield (a, b, s) for each form of the rho-cycle of (1, b1, ...), b1 the
    # largest b <= sqrt(delta) with b = delta (mod 2), until the first form
    # with |a| = 1: the principal form or, after an odd number of steps
    # exactly when the unit has norm -1, tau = (-1, b1, ...).
    w = math.isqrt(delta)
    b = w if ((w ^ delta) & 1) == 0 else w - 1
    a, c = 1, (b * b - delta) >> 2
    while True:
        s, nb, nc = _rho_step(delta, w, b, c)
        yield a, b, s
        a, b, c = c, nb, nc
        if a == 1 or a == -1:
            return


def unit_norm(delta: int) -> int:
    """Norm of the fundamental unit: (-1)**(length of the principal period)."""
    _check_positive_discriminant(delta)
    return -1 if sum(1 for _ in _principal_cycle(delta)) & 1 else 1


@lru_cache(maxsize=4096)
def fundamental_unit(delta: int) -> QuadUnit:
    """The smallest unit > 1 of the real quadratic order of discriminant delta.

    The k partial quotients of the principal-cycle walk are one period of
    w1 = (b1 + sqrt(delta))/2 after its leading b1, ending in b1 again.  With
    Q_j the convergent denominators, the unit is Q_(k-1)*w1 + Q_(k-2) =
    (2*Q_k - b1*Q_(k-1) + Q_(k-1)*sqrt(delta))/2, of norm (-1)**k; only two
    denominators are kept.
    """
    _check_positive_discriminant(delta)
    q1, q0 = 1, 0
    steps = 0
    for _, _, s in _principal_cycle(delta):
        q1, q0 = s * q1 + q0, q1
        steps += 1
    t, u = 2 * q1 - s * q0, q0  # s = b1, the last partial quotient
    return QuadUnit(t, u, delta, -1 if steps & 1 else 1, log_embedding(t, u, delta))


def _unit_pow(t1: int, u1: int, delta0: int, j: int) -> tuple[int, int]:
    # Exact binary powering of (t + u*sqrt(delta0))/2 coordinates.
    rt, ru = 2, 0
    bt, bu = t1, u1
    while j:
        if j & 1:
            rt, ru = (rt * bt + ru * bu * delta0) // 2, (rt * bu + ru * bt) // 2
        j >>= 1
        if j:
            bt, bu = (bt * bt + bu * bu * delta0) // 2, bt * bu
    return rt, ru


def unit_index(delta0: int, delta: int) -> int:
    """Exact index j with eps_delta = eps_delta0 ** j, for delta = f**2*delta0.

    The search runs the Lucas-style recurrence for the sqrt coefficients
    modulo the conductor; the winning exponent is then certified by exact
    integer powering.
    """
    _check_positive_discriminant(delta0)
    _check_positive_discriminant(delta)
    if conductor_split(delta0, factor(delta0))[1] != 1:
        raise ValueError(f"{delta0} is not a fundamental discriminant")
    f = math.isqrt(delta // delta0)
    if f * f * delta0 != delta:
        raise ValueError(f"{delta} is not of the form f**2*{delta0}")
    return _unit_index(delta0, f)


def _unit_index(delta0: int, f: int) -> int:
    # unit_index for a fundamental delta0 > 0 and f >= 1, unchecked.
    if f == 1:
        return 1
    eps = fundamental_unit(delta0)
    t1, nu = eps.t % f, eps.norm
    # u_{j+1} = t1*u_j - norm*u_{j-1}; find the first j with f | u_j.
    prev, cur = 0, eps.u % f
    j = 1
    limit = 8 * f * f + 16
    while cur != 0:
        prev, cur = cur, (t1 * cur - nu * prev) % f
        j += 1
        if j > limit:  # pragma: no cover - rank of apparition always <= limit
            raise ArithmeticError(f"unit index search overran for {delta0}, f={f}")
    _, uj = _unit_pow(eps.t, eps.u, delta0, j)
    if uj % f != 0:  # pragma: no cover - certification of the modular search
        raise ArithmeticError(f"unit index certification failed for {delta0}, f={f}")
    return j


def _parametric_forms(family: str, n: int) -> tuple[tuple, tuple, tuple, tuple]:
    # (regular pre, regular per, minus pre, minus per) for the generating unit.
    if family == "plus":
        reg = ((n - 1,), (1, n - 2))
        mnu = ((), (n,))
    else:
        reg = ((), (n,))
        mnu = ((n + 1,), tuple([2] * (n - 1)) + (n + 2,))
    return reg + mnu


def verify_parametric_cf(param) -> bool:
    """Check both expansions of a generating unit against their closed forms.

    Both sides are put in canonical form (minimal period, earliest period
    start) before comparison, which absorbs the period collapse at small n.
    """
    if not param.is_real:
        raise ValueError("parametric expansions apply to real parameters only")
    n = param.n
    x = QuadIrrational(n, 2, param.delta)
    rp, rq, mp_, mq = _parametric_forms(param.family, n)
    want_reg = _canonical_cf(rp, rq)
    want_mnu = _canonical_cf(mp_, mq)
    got_reg = cf_expand(x)
    got_mnu = hj_cf_expand(x)
    return (got_reg.preperiod, got_reg.period) == want_reg and (
        got_mnu.preperiod,
        got_mnu.period,
    ) == want_mnu

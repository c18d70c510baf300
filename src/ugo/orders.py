"""Discriminant bookkeeping for quadratic orders.

Covers validity, conductor decomposition delta = f**2 * delta0, the
unit-generated families n**2 -+ 4, orders generated by powers of the
fundamental unit, and the narrow Richaud-Degert classification of
fundamental radicands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cfrac
from .intarith import squarefree_decomposition
from .cfrac import QuadUnit, log_embedding

REAL = "real"
IMAGINARY = "imaginary"

PLUS = "plus"
MINUS = "minus"

# Narrow Richaud-Degert rows, in table order.  The third row is the only one
# whose unit-generated order has conductor 2.
RD_ROWS = (
    ("m^2-4 (m odd)", 1),
    ("m^2-1 (m even)", 1),
    ("m^2+1 (m even)", 2),
    ("m^2+1 (m odd)", 1),
    ("m^2+4 (m odd)", 1),
)


def is_discriminant(delta: int) -> bool:
    """True iff delta is a quadratic discriminant: 0,1 mod 4 and nonsquare."""
    if delta == 0 or delta % 4 not in (0, 1):
        return False
    if delta > 0 and math.isqrt(delta) ** 2 == delta:
        return False
    return True


@dataclass(frozen=True)
class OrderDescriptor:
    """A discriminant with its fundamental part and conductor."""

    delta: int
    delta0: int
    conductor: int
    sign: str

    def __post_init__(self):
        if self.conductor**2 * self.delta0 != self.delta:
            raise ValueError("delta must equal conductor**2 * delta0")


def decompose(delta: int) -> OrderDescriptor:
    """Split a discriminant into fundamental discriminant and conductor."""
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
    s, k = squarefree_decomposition(abs(delta))
    if delta < 0:
        s = -s
    if s % 4 == 1:
        delta0, f = s, k
    else:
        delta0, f = 4 * s, k // 2
    return OrderDescriptor(delta, delta0, f, REAL if delta > 0 else IMAGINARY)


def is_fundamental_discriminant(delta: int) -> bool:
    return is_discriminant(delta) and decompose(delta).conductor == 1


@dataclass(frozen=True)
class UnitGeneratedParam:
    """Parameter (family, n) of a unit-generated order.

    The plus family has discriminant n**2 - 4 (n >= 3 real, n in {0, 1}
    imaginary); the minus family has n**2 + 4 (n >= 1).  n = 2 (plus) and
    n = 0 (minus) do not give discriminants and are rejected.
    """

    family: str
    n: int

    def __post_init__(self):
        if self.family not in (PLUS, MINUS):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == PLUS and (self.n < 0 or self.n == 2):
            raise ValueError(f"n = {self.n} is not valid for the plus family")
        if self.family == MINUS and self.n < 1:
            raise ValueError(f"n = {self.n} is not valid for the minus family")

    @property
    def is_real(self) -> bool:
        return self.family == MINUS or self.n >= 3

    @property
    def delta(self) -> int:
        return self.n * self.n - 4 if self.family == PLUS else self.n * self.n + 4


def classify_unit_generated(delta: int) -> tuple[UnitGeneratedParam, ...]:
    """All (family, n) whose discriminant equals delta; plus family first."""
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
    found = []
    if delta + 4 >= 0:
        n = math.isqrt(delta + 4)
        if n * n == delta + 4 and n != 2:
            found.append(UnitGeneratedParam(PLUS, n))
    if delta - 4 >= 0:
        n = math.isqrt(delta - 4)
        if n * n == delta - 4 and n >= 1:
            found.append(UnitGeneratedParam(MINUS, n))
    return tuple(found)


def generating_unit(param: UnitGeneratedParam) -> QuadUnit:
    """The unit (n + sqrt(delta))/2 generating a real unit-generated order."""
    if not param.is_real:
        raise ValueError("imaginary parameters have no generating unit > 1")
    delta = param.delta
    norm = 1 if param.family == PLUS else -1
    return QuadUnit(param.n, 1, delta, norm, log_embedding(param.n, 1, delta))


def power_order(delta0: int, j: int) -> int:
    """Discriminant of Z[eps_delta0**j], the j-th unit-generated suborder."""
    if delta0 <= 0 or not is_fundamental_discriminant(delta0):
        raise ValueError(f"{delta0} is not a positive fundamental discriminant")
    if j < 1:
        raise ValueError("power must be >= 1")
    eps = cfrac.fundamental_unit(delta0)
    t, u = eps.t, eps.u
    tj, uj = 2, 0
    for _ in range(j):
        tj, uj = (t * tj + delta0 * u * uj) // 2, (t * uj + u * tj) // 2
    return uj * uj * delta0


@dataclass(frozen=True)
class RDClass:
    """A narrow Richaud-Degert row match for a fundamental radicand."""

    row: str
    m: int
    conductor_of_ug_order: int


def fundamental_radicand(delta0: int) -> int:
    """The squarefree D0 with delta0 = D0 or 4*D0."""
    if not is_fundamental_discriminant(delta0):
        raise ValueError(f"{delta0} is not a fundamental discriminant")
    return delta0 if delta0 % 4 == 1 else delta0 // 4


def _rd_matches(d0: int) -> list[RDClass]:
    matches = []
    candidates = (
        (d0 + 4, 1, 0),  # m**2 - 4, m odd
        (d0 + 1, 0, 1),  # m**2 - 1, m even
        (d0 - 1, 0, 2),  # m**2 + 1, m even
        (d0 - 1, 1, 3),  # m**2 + 1, m odd
        (d0 - 4, 1, 4),  # m**2 + 4, m odd
    )
    for sq, parity, idx in candidates:
        if sq <= 0:
            continue
        m = math.isqrt(sq)
        if m * m == sq and m % 2 == parity and m >= 1:
            row, cond = RD_ROWS[idx]
            matches.append(RDClass(row, m, cond))
    return matches


def richaud_degert_classify(delta0: int) -> RDClass | None:
    """The Table-0 row of a fundamental discriminant, if it is of narrow
    Richaud-Degert type.

    D0 = 5 matches three rows (the usual sqrt(5) degeneracy); the first row
    in table order wins, making the answer deterministic.
    """
    if delta0 <= 0:
        raise ValueError("narrow Richaud-Degert classification is for real fields")
    d0 = fundamental_radicand(delta0)
    matches = _rd_matches(d0)
    return matches[0] if matches else None

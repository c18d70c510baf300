"""Discriminant bookkeeping for quadratic orders.

Covers the discriminant record (`decompose` validates delta once and keeps
the factor pairs of |delta| with the conductor decomposition delta =
f**2 * delta0, computed in `intarith`), the scanned families, orders
generated by powers of the fundamental unit, and the narrow Richaud-Degert
classification of fundamental radicands.  `family_discriminant` alone
decides which n the families n**2 -+ 4 and 4n**2 + 1 (Chowla) admit and
which discriminant each gives; scans, stats and the cf suite read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import cfrac
from .intarith import MAX_INPUT, conductor_split, factor, is_discriminant
from .cfrac import QuadUnit, log_embedding

REAL = "real"
IMAGINARY = "imaginary"

PLUS = "plus"
MINUS = "minus"
CHOWLA = "chowla"
# The scanned families, in scan order.
FAMILY_ORDER = {PLUS: 0, MINUS: 1, CHOWLA: 2}

# Narrow Richaud-Degert rows, in table order.  The third row is the only one
# whose unit-generated order has conductor 2.
RD_ROWS = (
    ("m^2-4 (m odd)", 1),
    ("m^2-1 (m even)", 1),
    ("m^2+1 (m even)", 2),
    ("m^2+1 (m odd)", 1),
    ("m^2+4 (m odd)", 1),
)


@dataclass(frozen=True)
class OrderDescriptor:
    """A discriminant with its fundamental part, conductor and |delta|'s factor pairs."""

    delta: int
    delta0: int
    conductor: int
    sign: str
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.conductor**2 * self.delta0 != self.delta:
            raise ValueError("delta must equal conductor**2 * delta0")

    @property
    def radicand(self) -> int:
        return self.delta0 if self.delta0 % 4 == 1 else self.delta0 // 4

    def rd_class(self) -> RDClass | None:
        """`richaud_degert_classify` of delta0, for a real order."""
        matches = _rd_matches(self.radicand)
        return matches[0] if matches else None


# One entry: a row's filter or squarefree test and then its class data ask
# for the same delta back to back, so they share one factorization.
@lru_cache(maxsize=1)
def decompose(delta: int) -> OrderDescriptor:
    """Validate and factor a discriminant once, and split off its conductor."""
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
    pairs = factor(abs(delta))
    delta0, f = conductor_split(delta, pairs)
    return OrderDescriptor(delta, delta0, f, REAL if delta > 0 else IMAGINARY, pairs)


def _mu(delta: int, pairs) -> int:
    # The genus count of delta from the factor pairs of |delta|.
    r = sum(1 for p, _ in pairs if p != 2)
    if delta % 4 == 1 or delta % 16 == 4:
        return r
    if delta % 16 in (8, 12) or delta % 32 == 16:
        return r + 1
    return r + 2


def is_fundamental_discriminant(delta: int) -> bool:
    return is_discriminant(delta) and decompose(delta).conductor == 1


def _fundamental(delta0: int) -> OrderDescriptor:
    if not is_discriminant(delta0) or (desc := decompose(delta0)).conductor != 1:
        raise ValueError(f"{delta0} is not a fundamental discriminant")
    return desc


def family_discriminant(family: str, n: int) -> int | None:
    """The discriminant of (family, n), or None when n gives none.

    plus: n**2 - 4 for n >= 0 and n != 2 (real from n = 3 on); minus:
    n**2 + 4 for n >= 1; chowla: 4n**2 + 1 for n >= 1 when squarefree, or
    unchecked past 2**62, for the caller to report as out of range.
    """
    if family == PLUS:
        return n * n - 4 if n >= 0 and n != 2 else None
    if family == MINUS:
        return n * n + 4 if n >= 1 else None
    if family != CHOWLA:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        return None
    delta = 4 * n * n + 1
    return delta if delta > MAX_INPUT or decompose(delta).conductor == 1 else None


@dataclass(frozen=True)
class UnitGeneratedParam:
    """Parameter (family, n) of a unit-generated order: a plus or minus
    family member that `family_discriminant` admits."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in (PLUS, MINUS):
            raise ValueError(f"unknown family {self.family!r}")
        if family_discriminant(self.family, self.n) is None:
            raise ValueError(f"n = {self.n} is not valid for the {self.family} family")

    @property
    def delta(self) -> int:
        return family_discriminant(self.family, self.n)

    @property
    def is_real(self) -> bool:
        return self.delta > 0


def classify_unit_generated(delta: int) -> tuple[UnitGeneratedParam, ...]:
    """All (family, n) whose discriminant equals delta; plus family first."""
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
    found = []
    for family, square in ((PLUS, delta + 4), (MINUS, delta - 4)):
        n = math.isqrt(max(square, 0))
        if family_discriminant(family, n) == delta:
            found.append(UnitGeneratedParam(family, n))
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
    _, uj = cfrac._unit_pow(eps.t, eps.u, delta0, j)
    return uj * uj * delta0


@dataclass(frozen=True)
class RDClass:
    """A narrow Richaud-Degert row match for a fundamental radicand."""

    row: str
    m: int
    conductor_of_ug_order: int


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
    return _fundamental(delta0).rd_class()

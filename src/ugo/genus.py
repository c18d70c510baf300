"""Genus-theoretic invariants and class-number parity predicates.

The genus count mu(delta) depends only on the odd primes dividing the
discriminant and its 2-adic congruence class; the parity predicates are pure
pattern matches on the factorization.  The `verify parity` suite checks them
against enumerated class numbers, and `inspect` reports them.
"""

from __future__ import annotations

from .forms import ClassGroupStructure, _class_data
from .intarith import factor
from .orders import is_discriminant

ODD = "odd"
EVEN = "even"
MUST_BE_EVEN = "must_be_even"


def mu(delta: int) -> int:
    """Number of genus characters of the order of discriminant delta."""
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
    r = sum(1 for p, _ in factor(abs(delta)).pairs if p != 2)
    if delta % 4 == 1 or delta % 16 == 4:
        return r
    if delta % 16 in (8, 12) or delta % 32 == 16:
        return r + 1
    return r + 2


def genus_group_order(delta: int) -> int:
    """Order 2**(mu-1) of the genus group Cl+/(Cl+)^2."""
    return 1 << (mu(delta) - 1)


def is_two_torsion(group: ClassGroupStructure) -> bool:
    """True iff every elementary divisor is 2 (trivial group included)."""
    return group.is_two_torsion()


def one_class_per_genus(delta: int) -> bool:
    """True iff the narrow class group is 2-torsion.

    Computed from the squares of all classes; the equivalent count
    h+ == 2**(mu-1) is checked at the same time and a mismatch raises,
    since the two routes must agree.
    """
    cd = _class_data(delta)
    by_squares = cd.is_two_torsion_narrow()
    by_counts = cd.h_plus == genus_group_order(delta)
    if by_squares != by_counts:
        raise ArithmeticError(
            f"genus order and 2-torsion test disagree at delta={delta}"
        )
    return by_squares


def _check_positive(delta: int) -> None:
    if delta <= 0 or not is_discriminant(delta):
        raise ValueError(f"{delta} is not a positive quadratic discriminant")


def _narrow_odd(delta: int, pairs) -> bool:
    # The narrow-odd shapes, read off the factor pairs of delta.
    if delta == 8:
        return True
    odd_part = [(p, e) for p, e in pairs if p != 2]
    two_exp = next((e for p, e in pairs if p == 2), 0)
    if len(odd_part) == 1 and two_exp in (0, 2):
        p, r = odd_part[0]
        return p % 4 == 1 and r % 2 == 1
    return False


def narrow_parity_predicate(delta: int) -> str:
    """Parity of the narrow class number, from the factorization alone.

    Odd exactly for delta in {p**r, 4*p**r} with p = 1 mod 4 and r odd, and
    for delta = 8.
    """
    _check_positive(delta)
    return ODD if _narrow_odd(delta, factor(delta).pairs) else EVEN


def wide_parity_predicate(delta: int) -> str:
    """Parity of the wide class number, from the factorization alone.

    Beyond the narrow-odd shapes: two odd prime powers with a 3 mod 4 prime
    and odd part 1 mod 4; 4*p**r = 12 mod 16; 8*p**r with p = 3 mod 4;
    16*p**r for any odd p; and the pure powers 2**(2k+1) >= 32 (whose class
    number is always one).
    """
    _check_positive(delta)
    pairs = factor(delta).pairs
    if _narrow_odd(delta, pairs):
        return ODD
    odd_part = [(p, e) for p, e in pairs if p != 2]
    two_exp = next((e for p, e in pairs if p == 2), 0)
    if not odd_part:
        # delta = 2**k; discriminants require k odd, and k >= 5 here
        return ODD if two_exp >= 5 else EVEN
    if len(odd_part) == 2 and two_exp in (0, 2):
        m = 1
        for p, e in odd_part:
            m *= p**e
        if m % 4 == 1:
            for (p, r), (q, s) in (
                (odd_part[0], odd_part[1]),
                (odd_part[1], odd_part[0]),
            ):
                if p % 4 == 3 and not (r % 2 == 0 and s % 2 == 0):
                    return ODD
    if len(odd_part) == 1:
        p, r = odd_part[0]
        if two_exp == 2 and delta % 16 == 12 and r % 2 == 1:
            return ODD
        if two_exp == 3 and p % 4 == 3:
            return ODD
        if two_exp == 4:
            return ODD
    return EVEN


def theorem_parity_checks(n: int, family: str) -> str | None:
    """Forced class-number parity for a unit-generated parameter, if any.

    Orders with n = 2 mod 4 have even class number once past the two small
    exceptions (delta = 8 at n = 2 and delta = 32 at n = 6 in the plus
    family, both with class number one).
    """
    if family == "plus":
        if n % 4 == 2 and n // 2 > 3:
            return MUST_BE_EVEN
    elif family == "minus":
        if n % 4 == 2 and n // 2 > 1:
            return MUST_BE_EVEN
    else:
        raise ValueError(f"unknown family {family!r}")
    return None


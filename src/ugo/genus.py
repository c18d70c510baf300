"""Genus-theoretic invariants and class-number parity predicates.

The genus count mu(delta) depends only on the odd primes dividing the
discriminant and its 2-adic congruence class (`orders._mu`, which `forms`
also reads for its 2-rank check); the genus group Cl+/(Cl+)^2 has order
2**(mu-1), and `one_class_per_genus` tests whether Cl+ is 2-torsion.  The
parity predicates are pure pattern matches on the factorization, and
`theorem_parity_checks` states the parity forced on the unit-generated
families.  `mu` and the parity predicates read factor pairs: `mu` builds the
discriminant record (`orders.decompose`), the parity predicates factor
delta, scan rows and `inspect` pass the pairs their class data already
carries, and the verify suites factor each delta once.  One function,
`_odd_parities`, reads both parity shapes, narrow and wide, in one pass.
"""

from __future__ import annotations

from .cfrac import _check_positive_discriminant
from .forms import _class_data
from .intarith import factor
from .orders import _mu, decompose

ODD = "odd"
EVEN = "even"
MUST_BE_EVEN = "must_be_even"


def mu(delta: int) -> int:
    """Number of genus characters of the order of discriminant delta."""
    return _mu(delta, decompose(delta).pairs)


def one_class_per_genus(delta: int) -> bool:
    """True iff the narrow class group is 2-torsion.

    Computed from the squares of all classes, after the class data's
    cross-checks (`_ClassData.checked_chains`): the equivalent count
    h+ == 2**(mu-1) and the 2-rank of both divisor chains; a mismatch
    raises, since the routes must agree.
    """
    cd = _class_data(delta)
    cd.checked_chains(_mu(delta, cd.desc.pairs))
    return cd.is_two_torsion_narrow()


def _odd_parities(delta: int, pairs) -> tuple[bool, bool]:
    # (narrow_odd, wide_odd), read off the factor pairs of delta in one
    # pass.  Every narrow-odd shape is also wide-odd.  A discriminant is not
    # a square, so the shapes below need no test that an exponent is odd.
    odd_primes = [p for p, _ in pairs if p != 2]
    two_exp = next((e for p, e in pairs if p == 2), 0)
    if not odd_primes:
        # delta = 2**k with k odd: 8, and the pure powers from 32 on.
        return delta == 8, delta == 8 or two_exp >= 5
    if len(odd_primes) == 1:
        p = odd_primes[0]
        if two_exp in (0, 2) and p % 4 == 1:
            return True, True
        if two_exp == 2:
            return False, delta % 16 == 12
        if two_exp == 3:
            return False, p % 4 == 3
        return False, two_exp == 4
    if len(odd_primes) == 2 and two_exp in (0, 2):
        # Odd part 1 mod 4, with a prime 3 mod 4.
        return False, (delta >> two_exp) % 4 == 1 and 3 in (p % 4 for p in odd_primes)
    return False, False


def narrow_parity_predicate(delta: int) -> str:
    """Parity of the narrow class number, from the factorization alone.

    Odd exactly for delta in {p**r, 4*p**r} with p = 1 mod 4 and r odd, and
    for delta = 8.
    """
    _check_positive_discriminant(delta)
    return ODD if _odd_parities(delta, factor(delta))[0] else EVEN


def wide_parity_predicate(delta: int) -> str:
    """Parity of the wide class number, from the factorization alone.

    Beyond the narrow-odd shapes: two odd prime powers with a 3 mod 4 prime
    and odd part 1 mod 4; 4*p**r = 12 mod 16; 8*p**r with p = 3 mod 4;
    16*p**r for any odd p; and the pure powers 2**(2k+1) >= 32 (whose class
    number is always one).
    """
    _check_positive_discriminant(delta)
    return ODD if _odd_parities(delta, factor(delta))[1] else EVEN


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


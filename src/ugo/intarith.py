"""Exact integer utilities: factorization, primality, Kronecker symbols.

It also holds the discriminant test and the split delta = f**2 * delta0 into
conductor and fundamental discriminant, which `cfrac` and `orders` both need.

Everything here is deterministic.  A factorization is the ascending tuple of
its prime-power pairs ((p, e), ...).  `factor` combines trial division by
the primes below 2**16, read off the one smallest-prime-factor sieve
(`spf_table`), a strong-pseudoprime test with a witness set that is
provably correct for the full supported input range, and Brent's cycle-finding
split (applied recursively, so cofactors with three or more large prime
factors are handled).  Inputs are capped at 2**62.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_INPUT = 1 << 62

# Euler-Mascheroni constant (math module has no named constant for it).
EULER_GAMMA = 0.5772156649015329

# Strong-pseudoprime witnesses: deterministic for n < 3.3e24, far above 2**62.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 1 << 16


class RangeError(ValueError):
    """Input outside the supported integer range."""


_spf_array: np.ndarray | None = None


def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table covering 0..limit (spf[1] = 1).

    Grown on demand; indexing with an integer n in range gives its smallest
    prime factor, which lets callers factor many small integers quickly.
    The first build has the size asked for (at least 2**16 + 1 entries, so
    it covers the trial primes); a regrowth at least doubles it, so callers
    whose limit climbs step by step rebuild it O(log limit) times.
    """
    global _spf_array
    old = 0 if _spf_array is None else len(_spf_array)
    if old <= limit:
        size = max(limit + 1, _TRIAL_BOUND + 1, 2 * old)
        spf = np.zeros(size, dtype=np.int32)
        for p in range(2, math.isqrt(size - 1) + 1):
            if spf[p] == 0:
                sl = spf[p * p :: p]
                sl[sl == 0] = p
        rest = np.nonzero(spf == 0)[0]
        spf[rest] = rest
        spf[0] = 0
        spf[1] = 1
        _spf_array = spf
    return _spf_array


def primes_up_to(limit: int) -> list[int]:
    """Sorted primes <= limit: the p >= 2 with spf_table(limit)[p] == p."""
    if limit < 2:
        return []
    spf = spf_table(limit)[2 : limit + 1]
    return (np.flatnonzero(spf == np.arange(2, limit + 1, dtype=spf.dtype)) + 2).tolist()


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(_TRIAL_BOUND))


def is_prime(m: int) -> bool:
    """Deterministic primality test for 1 <= m <= 2**62."""
    if not 1 <= m <= MAX_INPUT:
        raise RangeError(f"is_prime: input {m} outside [1, 2**62]")
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d = m - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # Brent's variant of Pollard rho; deterministic parameter schedule.
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _factor_into(m: int, out: dict[int, int]) -> None:
    if m == 1:
        return
    if is_prime(m):
        out[m] = out.get(m, 0) + 1
        return
    d = _brent_rho(m)
    _factor_into(d, out)
    _factor_into(m // d, out)


def factor(m: int) -> tuple[tuple[int, int], ...]:
    """The prime-power pairs ((p, e), ...) of 1 <= m <= 2**62, ascending in p."""
    if not 1 <= m <= MAX_INPUT:
        raise RangeError(f"factor: input {m} outside [1, 2**62]")
    out: dict[int, int] = {}
    if m > 1:
        for p in _trial_primes():
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                out[p] = e
        if m > 1:
            if m <= _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                _factor_into(m, out)
    return tuple(sorted(out.items()))


def rosser_schoenfeld_ell(n: int) -> float:
    """The totient lower-bound scale e^gamma*loglog n + 5/(2 loglog n)."""
    if n < 3:
        raise ValueError("rosser_schoenfeld_ell requires n >= 3")
    ll = math.log(math.log(n))
    return math.exp(EULER_GAMMA) * ll + 5.0 / (2.0 * ll)


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) with the standard conventions at 2 and -1."""
    if n == 0:
        raise ValueError("kronecker_symbol undefined for n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        if t % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_discriminant(delta: int) -> bool:
    """True iff delta is a quadratic discriminant: 0 or 1 mod 4, not a square."""
    return delta % 4 in (0, 1) and not (delta >= 0 and math.isqrt(delta) ** 2 == delta)


def conductor_split(delta: int, pairs) -> tuple[int, int]:
    """(delta0, f) with delta = f**2 * delta0 and delta0 fundamental, for a
    discriminant delta; `pairs` are the factor pairs of |delta|."""
    s = math.prod(p for p, e in pairs if e % 2) * (1 if delta > 0 else -1)
    f = math.isqrt(delta // s)
    return (s, f) if s % 4 == 1 else (4 * s, f // 2)


@lru_cache(maxsize=1024)
def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None if a is a non-residue."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks with p - 1 = q * 2**s, q odd: r = a**((q+1)/2) is a
    # root once t = a**q is 1, as always for p = 3 (mod 4); otherwise a
    # non-residue z corrects it.
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    if t == 1:
        return r
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r

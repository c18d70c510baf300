import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugo import intarith
from ugo.intarith import (
    EULER_GAMMA,
    RangeError,
    factor,
    is_prime,
    kronecker_symbol,
    rosser_schoenfeld_ell,
    sqrt_mod_prime,
)


def trial_factor(m):
    """Independent oracle: plain trial division up to sqrt(m)."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_factor_examples():
    assert factor(1) == ()
    assert factor(32) == ((2, 5),)
    assert dict(factor(437)) == trial_factor(437) == {19: 1, 23: 1}


def test_factor_range_errors():
    with pytest.raises(RangeError):
        factor(0)
    with pytest.raises(RangeError):
        factor(-6)
    with pytest.raises(RangeError):
        factor((1 << 62) + 1)


def test_factorization_invariants_small():
    for m in range(1, 5000):
        fac = factor(m)
        assert math.prod(p**e for p, e in fac) == m
        assert dict(fac) == trial_factor(m)
        ps = [p for p, _ in fac]
        assert ps == sorted(ps)
        assert all(is_prime(p) for p in ps)


def test_smallest_sieve_covers_the_trial_primes(monkeypatch):
    # The first factor() reads the trial primes below 2**16 off the sieve;
    # the smallest table already covers them, so it is built once.
    monkeypatch.setattr(intarith, "_spf_array", None)
    intarith.spf_table(10)
    table = intarith._spf_array
    intarith.primes_up_to(intarith._TRIAL_BOUND)
    assert intarith._spf_array is table


def test_sieve_regrowth_at_least_doubles(monkeypatch):
    # A first build has the size asked for; a regrowth at least doubles, so
    # a limit that climbs by one each time rebuilds the table rarely.
    monkeypatch.setattr(intarith, "_spf_array", None)
    assert len(intarith.spf_table(10**5)) == 10**5 + 1
    spf = intarith.spf_table(10**5 + 1)
    assert len(spf) == 2 * (10**5 + 1)
    assert all(spf[m] == min(trial_factor(m)) for m in range(len(spf) - 2000, len(spf)))
    assert len(intarith.spf_table(10**6)) == 10**6 + 1


def test_factor_reconstructs_exhaustive_10e6():
    # Reconstruction against the smallest-prime-factor sieve, all m <= 10**6.
    spf = intarith.spf_table(10**6)
    for m in range(1, 10**6 + 1):
        fac = factor(m)
        assert math.prod(p**e for p, e in fac) == m
        n, ps = m, []
        while n > 1:
            p = int(spf[n])
            ps.append(p)
            while n % p == 0:
                n //= p
        assert [p for p, _ in fac] == ps


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=(1 << 62)))
def test_factor_roundtrip_62bit(m):
    fac = factor(m)
    assert math.prod(p**e for p, e in fac) == m
    for p, e in fac:
        assert e >= 1
        assert is_prime(p)


def test_factor_hard_semiprimes():
    rng = random.Random(7)
    for _ in range(12):
        p = q = 4
        while not is_prime(p):
            p = rng.randrange(1 << 30, 1 << 31) | 1
        while not is_prime(q):
            q = rng.randrange(1 << 30, 1 << 31) | 1
        fac = factor(p * q)
        assert math.prod(r**e for r, e in fac) == p * q
        assert [r for r, _ in fac] == sorted(set([p, q]))


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(293)  # 293 = 17**2 + 4, a prime = 1 mod 4
    assert not is_prime(437)
    assert not is_prime(1)


def test_is_prime_agrees_with_trial_division_to_10e6():
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    for m in range(1, limit + 1):
        assert is_prime(m) == bool(sieve[m])


def test_rosser_schoenfeld_ell():
    ll3 = math.log(math.log(3))
    expected = math.exp(EULER_GAMMA) * ll3 + 5 / (2 * ll3)
    assert rosser_schoenfeld_ell(3) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        rosser_schoenfeld_ell(2)
    assert sum(math.gcd(k, 10) == 1 for k in range(1, 11)) == 4 > 10 / rosser_schoenfeld_ell(10)


def test_phi_lower_bound_to_10e5():
    # phi(f) > f / ell(f) for all 3 <= f <= 10**5, via a phi sieve.
    limit = 10**5
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    for f in range(3, limit + 1):
        assert phi[f] > f / rosser_schoenfeld_ell(f)


def legendre_oracle(a, p):
    """Euler criterion for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_kronecker_examples():
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(17, 2) == 1
    for a in (-7, -1, 0, 1, 2, 10**9):
        assert kronecker_symbol(a, 1) == 1
    with pytest.raises(ValueError):
        kronecker_symbol(3, 0)


def test_kronecker_against_legendre_and_multiplicativity():
    for p in (3, 5, 7, 11, 13, 101, 997):
        for a in range(-30, 30):
            assert kronecker_symbol(a, p) == legendre_oracle(a, p)
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(-500, 500)
        m = rng.randrange(1, 300)
        n = rng.randrange(1, 300)
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)
        if a and m:
            b = rng.randrange(-500, 500)
            assert kronecker_symbol(a * b, m) == kronecker_symbol(a, m) * kronecker_symbol(b, m)
    # supplement at 2: period 8
    for a in range(1, 100, 2):
        assert kronecker_symbol(a, 2) == (1 if a % 8 in (1, 7) else -1)


def test_sqrt_mod_prime():
    for p in (2, 3, 5, 7, 11, 13, 17, 97, 193, 769, 12289):
        squares = {(x * x) % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and (r * r) % p == a % p
            else:
                assert r is None

import math

import pytest

from ugo.cfrac import fundamental_unit
from ugo.intarith import squarefree_decomposition
from ugo.orders import (
    RDClass,
    UnitGeneratedParam,
    classify_unit_generated,
    decompose,
    fundamental_radicand,
    generating_unit,
    is_discriminant,
    is_fundamental_discriminant,
    power_order,
    richaud_degert_classify,
)


def test_is_discriminant():
    assert is_discriminant(5)
    assert is_discriminant(-3)
    assert is_discriminant(-4)
    assert is_discriminant(12)
    assert not is_discriminant(0)
    assert not is_discriminant(4)  # perfect square
    assert not is_discriminant(16)
    assert not is_discriminant(7)  # 3 mod 4
    assert not is_discriminant(-5)  # 3 mod 4
    assert not is_discriminant(25)


def test_decompose_examples():
    d = decompose(68)
    assert (d.delta0, d.conductor, d.sign) == (17, 2, "real")
    assert (decompose(45).delta0, decompose(45).conductor) == (5, 3)
    assert (decompose(5).delta0, decompose(5).conductor) == (5, 1)
    assert (decompose(-12).delta0, decompose(-12).conductor) == (-3, 2)
    assert decompose(-4).sign == "imaginary"
    with pytest.raises(ValueError):
        decompose(0)
    with pytest.raises(ValueError):
        decompose(36)


def test_decompose_roundtrip_exhaustive():
    fundamentals = [d for d in range(2, 10**4 + 1) if is_fundamental_discriminant(d)]
    for delta0 in fundamentals:
        for f in range(1, 101):
            desc = decompose(f * f * delta0)
            assert (desc.delta0, desc.conductor) == (delta0, f)


def test_unit_generated_discriminant():
    assert UnitGeneratedParam("plus", 21).delta == 437
    assert UnitGeneratedParam("minus", 8).delta == 68
    assert UnitGeneratedParam("plus", 0).delta == -4
    assert UnitGeneratedParam("plus", 1).delta == -3
    with pytest.raises(ValueError):
        UnitGeneratedParam("plus", 2)
    with pytest.raises(ValueError):
        UnitGeneratedParam("minus", 0)
    with pytest.raises(ValueError):
        UnitGeneratedParam("both", 3)


def test_classify_unit_generated():
    assert classify_unit_generated(5) == (
        UnitGeneratedParam("plus", 3),
        UnitGeneratedParam("minus", 1),
    )
    assert classify_unit_generated(12) == (UnitGeneratedParam("plus", 4),)
    assert classify_unit_generated(17) == ()
    assert classify_unit_generated(-4) == (UnitGeneratedParam("plus", 0),)
    assert classify_unit_generated(-3) == (UnitGeneratedParam("plus", 1),)


def test_classify_roundtrip():
    for n in range(0, 10**4 + 1):
        for family in ("plus", "minus"):
            if (family == "plus" and n == 2) or (family == "minus" and n == 0):
                continue
            p = UnitGeneratedParam(family, n)
            assert p in classify_unit_generated(p.delta)


def test_generating_unit():
    u = generating_unit(UnitGeneratedParam("minus", 1))
    assert (u.t, u.u, u.delta, u.norm) == (1, 1, 5, -1)
    u = generating_unit(UnitGeneratedParam("plus", 3))
    assert (u.t, u.u, u.delta, u.norm) == (3, 1, 5, 1)
    u = generating_unit(UnitGeneratedParam("minus", 2))
    assert (u.t, u.u, u.delta, u.norm) == (2, 1, 8, -1)
    with pytest.raises(ValueError):
        generating_unit(UnitGeneratedParam("plus", 0))


def test_conductor_matches_unit_coefficient():
    # The conductor of O_{n^2 -+ 4} equals the sqrt(delta0)-coefficient of the
    # generating unit, i.e. f = sqrt(delta/delta0) with delta = f**2 delta0.
    for n in range(3, 10**4 + 1):
        delta = n * n - 4
        desc = decompose(delta)
        assert desc.conductor**2 * desc.delta0 == delta
    for n in range(1, 10**4 + 1):
        delta = n * n + 4
        desc = decompose(delta)
        assert desc.conductor**2 * desc.delta0 == delta


def test_power_order_examples():
    assert power_order(5, 1) == 5
    assert power_order(5, 2) == 5
    assert power_order(5, 3) == 20
    assert power_order(8, 2) == 32
    with pytest.raises(ValueError):
        power_order(20, 1)  # 20 = 4*5 is not fundamental
    with pytest.raises(ValueError):
        power_order(-4, 1)


def test_power_order_monotone():
    for delta0 in range(6, 501):
        if is_fundamental_discriminant(delta0):
            values = [power_order(delta0, j) for j in range(1, 21)]
            assert values == sorted(set(values)), delta0


def test_power_order_divisibility_containment():
    # j | k implies O(delta0, k) inside O(delta0, j): f_j | f_k.
    for delta0 in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 40, 44, 53, 56, 61, 65, 69, 76, 85, 88, 92, 93, 97):
        f = {}
        for j in range(1, 13):
            delta = power_order(delta0, j)
            f[j] = math.isqrt(delta // delta0)
            assert f[j] ** 2 * delta0 == delta
        for j in range(1, 13):
            for k in range(j, 13, j):
                assert f[k] % f[j] == 0, (delta0, j, k)
    # the single containment exception collapses to equal orders
    assert power_order(5, 1) == power_order(5, 2)


def test_fundamental_radicand():
    assert fundamental_radicand(17) == 17
    assert fundamental_radicand(8) == 2
    assert fundamental_radicand(12) == 3
    with pytest.raises(ValueError):
        fundamental_radicand(20)


def test_richaud_degert_examples():
    rd = richaud_degert_classify(17)
    assert rd == RDClass("m^2+1 (m even)", 4, 2)
    rd = richaud_degert_classify(437)
    assert rd == RDClass("m^2-4 (m odd)", 21, 1)
    # oracle: 97 is not m^2 + r for r in {+-1, +-4} for any m <= 10
    for m in range(1, 11):
        assert 97 not in (m * m - 4, m * m - 1, m * m + 1, m * m + 4)
    assert richaud_degert_classify(97) is None


def test_richaud_degert_exhaustive_uniqueness():
    # Every narrow RD radicand <= 10^4 matches exactly one row, except the
    # sqrt(5) degeneracy where three parametrizations meet.
    from ugo.orders import _rd_matches

    for d0 in range(2, 10**4 + 1):
        s, k = squarefree_decomposition(d0)
        if k != 1:
            continue
        matches = _rd_matches(d0)
        if d0 == 5:
            assert len(matches) == 3
        else:
            assert len(matches) <= 1
        delta0 = d0 if d0 % 4 == 1 else 4 * d0
        got = richaud_degert_classify(delta0)
        assert (got is not None) == bool(matches)


def test_rd_conductor_two_row_gives_unit_generated_order():
    # For D0 = m^2+1 with m even, the conductor-2 order 4*delta0 = (2m)^2 + 4
    # is unit-generated; check the discriminant identity for a range of m.
    for m in range(2, 101, 2):
        d0 = m * m + 1
        s, k = squarefree_decomposition(d0)
        if k != 1:
            continue
        delta0 = d0 if d0 % 4 == 1 else 4 * d0
        assert d0 % 4 == 1 or d0 % 2 == 0
        rd = richaud_degert_classify(delta0)
        if d0 == 5:
            continue
        assert rd is not None and rd.conductor_of_ug_order == 2
        assert 4 * delta0 == (2 * m) ** 2 + 4


def test_generating_unit_is_unit_of_its_order():
    for n in (3, 4, 5, 9, 21):
        p = UnitGeneratedParam("plus", n)
        u = generating_unit(p)
        assert u.t * u.t - u.u * u.u * u.delta == 4
    eps = fundamental_unit(437)
    assert (eps.t, eps.u) == (21, 1)

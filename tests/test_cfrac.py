import hashlib
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugo.cfrac import (
    CFExpansion,
    QuadIrrational,
    QuadUnit,
    _canonical_cf,
    cf_expand,
    fundamental_unit,
    hj_cf_expand,
    log_embedding,
    unit_index,
    unit_norm,
    verify_parametric_cf,
)
from ugo.orders import UnitGeneratedParam, power_order


def brute_fundamental_unit(delta, u_limit=10**6):
    """Oracle: smallest u >= 1 with delta*u**2 +- 4 a perfect square."""
    for u in range(1, u_limit):
        for s in (-4, 4):
            tt = delta * u * u + s
            if tt >= 0:
                t = math.isqrt(tt)
                if t * t == tt:
                    return t, u, s // 4
    raise AssertionError("oracle exhausted")


def assert_unit_is_fundamental(delta, t, u):
    """Certificate oracle: (t, u) solves the Pell equation and no unit with
    regulator R/k (k >= 2) exists.

    Any proper root eta of the unit would have trace eta + nu/eta within
    rounding distance of exp(R/k) + nu*exp(-R/k); each candidate trace is
    checked exactly, so the certificate is rigorous.
    """
    nrm4 = t * t - u * u * delta
    assert nrm4 in (4, -4)
    reg = math.log((t + math.sqrt(u * u * delta)) / 2)
    k = 2
    while reg / k >= 0.48:
        x = math.exp(reg / k)
        for nu in (1, -1):
            tc = round(x + nu / x)
            for t2 in (tc - 1, tc, tc + 1):
                v = t2 * t2 - 4 * nu
                if t2 >= 1 and v > 0 and v % delta == 0:
                    u2 = math.isqrt(v // delta)
                    assert not (
                        u2 >= 1 and u2 * u2 * delta == v
                    ), f"smaller unit ({t2},{u2}) below ({t},{u}) for {delta}"
        k += 1


def test_cf_expand_examples():
    assert cf_expand(QuadIrrational(1, 2, 5)) == CFExpansion("regular", (), (1,))
    assert cf_expand(QuadIrrational(2, 2, 8)) == CFExpansion("regular", (), (2,))
    # the period of (3+sqrt(5))/2 collapses to the minimal [2; 1,1,1,...]
    assert cf_expand(QuadIrrational(3, 2, 5)) == CFExpansion("regular", (2,), (1,))


def test_hj_cf_expand_examples():
    assert hj_cf_expand(QuadIrrational(3, 2, 5)) == CFExpansion("minus", (), (3,))
    assert hj_cf_expand(QuadIrrational(1, 2, 5)) == CFExpansion("minus", (2,), (3,))
    assert hj_cf_expand(QuadIrrational(2, 2, 8)) == CFExpansion("minus", (3,), (2, 4))


def test_cf_classic_sqrt_expansions():
    # sqrt(2) = [1; 2, 2, ...], sqrt(3) = [1; 1, 2, ...], sqrt(19) has period 6
    assert cf_expand(QuadIrrational(0, 1, 2)) == CFExpansion("regular", (1,), (2,))
    assert cf_expand(QuadIrrational(0, 1, 3)) == CFExpansion("regular", (1,), (1, 2))
    assert cf_expand(QuadIrrational(0, 1, 19)) == CFExpansion(
        "regular", (4,), (2, 1, 3, 1, 2, 8)
    )


def test_quad_irrational_normalization():
    x = QuadIrrational(1, 3, 7)  # 3 does not divide 7 - 1
    assert (x.d - x.p * x.p) % x.q == 0
    assert x.value() == pytest.approx((1 + math.sqrt(7)) / 3, rel=1e-14)
    with pytest.raises(ValueError):
        QuadIrrational(1, 0, 5)
    with pytest.raises(ValueError):
        QuadIrrational(1, 2, 9)
    with pytest.raises(ValueError):
        QuadIrrational(1, 2, -4)


@pytest.fixture(scope="module")
def roundtrip_samples():
    # 1,000 seeded quadratic irrationals x, each with its regular and minus
    # expansions, expanded once for both round-trip tests.
    rng = random.Random(20)
    samples = []
    while len(samples) < 1000:
        d = rng.randrange(2, 10**6)
        if math.isqrt(d) ** 2 == d:
            continue
        p = rng.randrange(-50, 50)
        q = rng.randrange(-30, 30)
        if q == 0:
            continue
        x = QuadIrrational(p, q, d)
        samples.append((x, (cf_expand(x), hj_cf_expand(x))))
    return samples


def test_cf_roundtrip_random(roundtrip_samples):
    for x, expansions in roundtrip_samples:
        val = x.value()
        for cf in expansions:
            # Runs of 2s make minus expansions converge one full period at a
            # time, so give those enough terms to cover 25 periods.
            count = 50 if cf.kind == "regular" else max(
                50, len(cf.preperiod) + 25 * len(cf.period)
            )
            assert cf.evaluate(count) == pytest.approx(val, rel=1e-12)
            if cf.kind == "regular":
                assert all(a >= 1 for a in cf.preperiod[1:] + cf.period)
            else:
                assert all(a >= 2 for a in cf.period)


def test_cf_expansions_are_canonical(roundtrip_samples):
    # The expansion stops at the first repeated complete quotient, which
    # already gives the minimal period and the earliest period start.
    for _, expansions in roundtrip_samples:
        for cf in expansions:
            assert _canonical_cf(cf.preperiod, cf.period) == (cf.preperiod, cf.period), cf


def moebius(m, x):
    """(alpha*x + beta)/(gamma*x + delta) for m = ((alpha, beta), (gamma,
    delta)) of x = (p + sqrt(d))/q, exactly, as the QuadIrrational
    (p' + sqrt(d))/q'; the sqrt(d) coefficient fixes p' and q'."""
    (al, be), (ga, de) = m
    num, den = al * x.p + be * x.q, ga * x.p + de * x.q
    r = x.q * (al * de - be * ga)
    p, p_rem = divmod(num * den - al * ga * x.d, r)
    q, q_rem = divmod(den * den - ga * ga * x.d, r)
    assert p_rem == q_rem == 0, (m, x)
    return QuadIrrational(p, q, x.d)


def mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def mat_pow(m, k):
    # m**k for k >= 1, by squaring.
    out = m if k & 1 else ((1, 0), (0, 1))
    k >>= 1
    while k:
        m = mat_mul(m, m)
        if k & 1:
            out = mat_mul(out, m)
        k >>= 1
    return out


def cf_matrix(terms, kind):
    # x = a + 1/y (regular) or a - 1/y (minus) is the Moebius map
    # ((a, +-1), (1, 0)).  A run of k equal terms (minus periods hold long
    # runs of 2s) is its k-th power, and the runs multiply pairwise, so the
    # large entries meet in few products.
    sign = 1 if kind == "regular" else -1
    ms = [mat_pow(((a, sign), (1, 0)), len(list(run))) for a, run in groupby(terms)]
    while len(ms) > 1:
        ms = [mat_mul(*ms[i : i + 2]) if i + 1 < len(ms) else ms[i] for i in range(0, len(ms), 2)]
    return ms[0] if ms else ((1, 0), (0, 1))


def exceeds_one(y):
    # (p + sqrt(d))/q > 1, in integers.
    t = y.q - y.p
    return t < 0 or t * t < y.d if y.q > 0 else t > 0 and t * t > y.d


def test_cf_roundtrip_exact(roundtrip_samples):
    # The inverse of the preperiod's matrix maps x to its purely periodic
    # tail y > 1, and the period's matrix fixes y, both in exact Q(sqrt(d))
    # arithmetic.
    for x, expansions in roundtrip_samples:
        for cf in expansions:
            (m00, m01), (m10, m11) = cf_matrix(cf.preperiod, cf.kind)
            y = moebius(((m11, -m01), (-m10, m00)), x)
            assert exceeds_one(y), (x, cf)
            assert moebius(cf_matrix(cf.period, cf.kind), y) == y, (x, cf)


def test_cf_minimality_of_period():
    for x in (QuadIrrational(0, 1, 2), QuadIrrational(3, 2, 5), QuadIrrational(0, 1, 13)):
        cf = cf_expand(x)
        per = cf.period
        for d in range(1, len(per)):
            if len(per) % d == 0:
                assert per != per[:d] * (len(per) // d)


def test_fundamental_unit_examples():
    assert fundamental_unit(5) == QuadUnit(1, 1, 5, -1, fundamental_unit(5).regulator)
    e12 = fundamental_unit(12)
    assert (e12.t, e12.u, e12.norm) == (4, 1, 1)
    e8 = fundamental_unit(8)
    assert (e8.t, e8.u, e8.norm) == (2, 1, -1)


def test_fundamental_unit_against_brute_force():
    for delta in range(5, 200):
        if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
            t, u, norm = brute_fundamental_unit(delta)
            eps = fundamental_unit(delta)
            assert (eps.t, eps.u, eps.norm) == (t, u, norm), delta


def test_fundamental_unit_minimality_certificate():
    # Large-unit discriminants defeat a u-search; certify minimality instead.
    for delta in range(5, 3000):
        if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
            eps = fundamental_unit(delta)
            assert_unit_is_fundamental(delta, eps.t, eps.u)


def test_fundamental_unit_digest_to_2e4():
    # One sha256 over "delta,t,u,norm,regulator" lines for all 9,859
    # discriminants in [5, 2*10**4].  The digest was taken from a
    # state-repetition implementation that shares no code with the walk.
    lines = [
        f"{d},{e.t},{e.u},{e.norm},{e.regulator:.12g}"
        for d in range(5, 2 * 10**4 + 1)
        if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d
        for e in [fundamental_unit(d)]
    ]
    assert len(lines) == 9859
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "894cda4f844a74ac49c5625cdd46062c7b24e17a83d55032729f606f72fdccce"


def test_fundamental_unit_large_pins():
    eps = fundamental_unit(10**11 + 1)
    assert (eps.u.bit_length(), eps.norm, f"{eps.regulator:.12g}") == (89647, 1, "62150.6048374")
    digest = hashlib.sha256(f"{eps.t:x},{eps.u:x}".encode()).hexdigest()
    assert digest.startswith("9be2f45fc172ebbc")
    eps = fundamental_unit(50004529)
    assert (eps.norm, f"{eps.regulator:.12g}") == (-1, "20047.8932271")


def test_fundamental_unit_memory_is_linear():
    # The walk keeps two convergent denominators, so its peak is a few copies
    # of the 89,647-bit unit (about 0.2 MB), not convergents for every state.
    tracemalloc.start()
    try:
        fundamental_unit.__wrapped__(10**11 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fundamental_unit_invalid():
    for bad in (0, -4, 9, 7, 100):
        with pytest.raises(ValueError):
            fundamental_unit(bad)
        with pytest.raises(ValueError):
            unit_norm(bad)


def test_unit_norm_is_period_parity():
    for delta in range(5, 200):
        if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
            assert unit_norm(delta) == brute_fundamental_unit(delta)[2], delta
    for delta in range(200, 5000):
        if delta % 4 in (0, 1) and math.isqrt(delta) ** 2 != delta:
            assert unit_norm(delta) == fundamental_unit(delta).norm, delta
    assert (unit_norm(10**11 + 1), unit_norm(50004529)) == (1, -1)


def test_unit_generated_units_are_fundamental():
    # n = 3 is the lone exception: delta = 5 is also the minus order at n = 1,
    # and there the smaller unit (1 + sqrt(5))/2 is fundamental.
    eps5 = fundamental_unit(5)
    assert (eps5.t, eps5.u, eps5.norm) == (1, 1, -1)
    for n in range(4, 2001):
        eps = fundamental_unit(n * n - 4)
        assert (eps.t, eps.u, eps.norm) == (n, 1, 1)
    for n in range(1, 2001):
        eps = fundamental_unit(n * n + 4)
        assert (eps.t, eps.u, eps.norm) == (n, 1, -1)


def test_pell_relation_sampled():
    rng = random.Random(11)
    for _ in range(200):
        delta = rng.randrange(5, 10**6)
        if delta % 4 not in (0, 1) or math.isqrt(delta) ** 2 == delta:
            continue
        eps = fundamental_unit(delta)
        assert eps.t * eps.t - eps.u * eps.u * delta == 4 * eps.norm


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(10**8, (1 << 31) - 1), st.sampled_from((4, -4)))
def test_unit_generated_units_at_62_bits(n, s):
    # The unit of the order of discriminant n**2 + s is (n + sqrt(delta))/2,
    # of norm -1 for n**2 + 4 and +1 for n**2 - 4.
    eps = fundamental_unit(n * n + s)
    assert (eps.t, eps.u, eps.norm) == (n, 1, -s // 4)


def test_regulator_values():
    reg = {d: fundamental_unit(d).regulator for d in (5, 8, 20)}
    assert reg[5] == pytest.approx(math.log((1 + math.sqrt(5)) / 2), rel=1e-12)
    assert reg[8] == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-12)
    assert reg[20] == pytest.approx(3 * reg[5], rel=1e-12)


def test_regulator_large_coefficients():
    # Delta = 4*1621 has a huge fundamental unit; the big-int log path must
    # agree with log(t) computed by bit shifting (the conjugate term is
    # far below float resolution here).
    eps = fundamental_unit(6484)
    assert eps.t * eps.t - eps.u * eps.u * 6484 == 4 * eps.norm
    assert eps.t.bit_length() > 60
    # eps = t/2 * (1 + sqrt(1 - 4 nu/t**2)), so log(eps) = log(t) + O(1/t**2)
    t = eps.t
    shift = max(0, t.bit_length() - 53)
    direct = math.log(t >> shift) + shift * math.log(2)
    assert eps.regulator == pytest.approx(direct, rel=1e-12)


def _decimal_log_embedding(t, u, delta):
    # Oracle: log((t + u*sqrt(delta))/2) at 40 significant digits.
    with localcontext() as ctx:
        ctx.prec = 40
        return ((Decimal(t) + Decimal(u * u * delta).sqrt()) / 2).ln()


def test_log_embedding_against_decimal():
    # Float path: units with t < 2**47; integer path: the rest, up to the
    # 28,923-bit t of 50004529 and the 102,105-bit t of 10**9 + 9.  The
    # plus-family units (n, 1) of n = 2**47 - 1 and 2**47 sit on either side
    # of the switch.
    units = [fundamental_unit(d) for d in (5, 13, 6484, 4000013, 50004529, 10**9 + 9)]
    units += [fundamental_unit(10**12 + 1)]
    cases = [(e.t, e.u, e.delta) for e in units]
    cases += [(n, 1, n * n - 4) for n in (3, 2**47 - 1, 2**47)]
    assert {t.bit_length() < 48 for t, _, _ in cases} == {True, False}
    for t, u, delta in cases:
        want = _decimal_log_embedding(t, u, delta)
        got = log_embedding(t, u, delta)
        assert abs((Decimal(got) - want) / want) <= Decimal("1e-14"), delta


def test_unit_index_examples():
    assert unit_index(5, 5) == 1
    assert unit_index(5, 20) == 3
    assert unit_index(8, 32) == 2


def test_unit_index_matches_power_order():
    for delta0 in range(5, 201):
        if delta0 % 4 in (0, 1) and math.isqrt(delta0) ** 2 != delta0:
            from ugo.orders import is_fundamental_discriminant

            if not is_fundamental_discriminant(delta0):
                continue
            for j in range(1, 13):
                delta = power_order(delta0, j)
                expect = 1 if (delta0, j) == (5, 2) else j
                assert unit_index(delta0, delta) == expect


def test_unit_index_validation():
    with pytest.raises(ValueError):
        unit_index(5, 45 * 5)  # 225 is a perfect square, not a discriminant
    with pytest.raises(ValueError):
        unit_index(20, 80)  # 20 is not fundamental
    with pytest.raises(ValueError):
        unit_index(5, 12)


def test_verify_parametric_cf_examples():
    assert verify_parametric_cf(UnitGeneratedParam("plus", 3))
    assert verify_parametric_cf(UnitGeneratedParam("minus", 1))
    assert verify_parametric_cf(UnitGeneratedParam("plus", 7))
    with pytest.raises(ValueError):
        verify_parametric_cf(UnitGeneratedParam("plus", 1))


def test_verify_parametric_cf_to_50():
    for n in range(3, 51):
        assert verify_parametric_cf(UnitGeneratedParam("plus", n)), n
    for n in range(1, 51):
        assert verify_parametric_cf(UnitGeneratedParam("minus", n)), n

import math
import tracemalloc

import pytest

from ugo import forms, relations
from ugo.relations import (
    ConductorFormulaReport,
    bounded_family_statistic,
    class_number_via_conductor,
    hua_trend,
    local_unit_group_factor,
    predicted_class_number,
    verify_conductor_formula,
)


def test_conductor_formula_examples():
    r = class_number_via_conductor(5, 2)
    assert r == ConductorFormulaReport(5, 2, 1, 3, 3, 1)
    r = class_number_via_conductor(17, 2)
    assert r == ConductorFormulaReport(17, 2, 1, 1, 1, 1)
    r = class_number_via_conductor(5, 1)
    assert (r.h_predicted, r.local_factor, r.unit_index) == (1, 1, 1)


def test_conductor_formula_validation():
    with pytest.raises(ValueError):
        class_number_via_conductor(20, 2)
    with pytest.raises(ValueError):
        class_number_via_conductor(-4, 2)
    with pytest.raises(OverflowError):
        class_number_via_conductor(5, 1 << 31)


def test_predicted_class_number(monkeypatch):
    assert predicted_class_number(5, 2, 1) == 1
    assert predicted_class_number(5, 10, 1) == class_number_via_conductor(5, 10).h_predicted
    # The unit index always divides the local factor; a wrong one must raise.
    monkeypatch.setattr(relations.cfrac, "_unit_index", lambda delta0, f: 4)
    with pytest.raises(ArithmeticError, match="non-integer"):
        predicted_class_number(5, 2, 1)


def test_local_factor():
    # chi_5(2) = -1: factor 2 - (-1) = 3; chi_17(2) = +1: factor 2 - 1 = 1
    assert local_unit_group_factor(5, 2) == 3
    assert local_unit_group_factor(17, 2) == 1
    assert local_unit_group_factor(5, 4) == 6
    assert local_unit_group_factor(5, 10) == 3 * 5  # 5 ramifies: 5 - 0


def test_verify_conductor_formula_table_rows():
    assert verify_conductor_formula(45)
    assert verify_conductor_formula(125)
    assert verify_conductor_formula(96)
    assert verify_conductor_formula(68)
    assert verify_conductor_formula(80)
    assert verify_conductor_formula(2048)


def test_verify_conductor_formula_sweep():
    from ugo.orders import decompose, is_discriminant

    for delta in range(5, 20001):
        if is_discriminant(delta) and decompose(delta).conductor > 1:
            assert verify_conductor_formula(delta), delta


def test_hua_trend():
    rows, summary = hua_trend([("plus", 21), ("plus", 3), ("minus", 5)])
    by_key = {(r.family, r.n): r for r in rows}
    assert by_key[("plus", 21)].h == 1
    assert by_key[("plus", 21)].log_h_over_log_n == 0.0
    assert by_key[("plus", 3)].h == 1
    assert by_key[("minus", 5)].h == 1
    assert summary["count"] == 3


# Unsorted, with the imaginary plus members n = 0 and 1.
MIXED_SAMPLES = [("minus", 11), ("plus", 7), ("plus", 1), ("minus", 1), ("plus", 0), ("plus", 3)]


def test_hua_trend_sorts_and_skips_imaginary_samples():
    rows, summary = hua_trend(MIXED_SAMPLES)
    assert [(r.family, r.n, r.delta) for r in rows] == [
        ("plus", 3, 5), ("plus", 7, 45), ("minus", 1, 5), ("minus", 11, 125)
    ]
    assert summary["count"] == 4


def test_bounded_family_sorts_and_skips_imaginary_samples():
    rows, summary = bounded_family_statistic(5, MIXED_SAMPLES)
    assert [(r["family"], r["n"], r["delta"], r["f"]) for r in rows] == [
        ("plus", 3, 5, 1), ("plus", 7, 45, 3), ("minus", 1, 5, 1), ("minus", 11, 125, 5)
    ]
    assert summary["count"] == 4


# Samples that give no discriminant at all: plus n = 2 and n < 0, minus n = 0.
NO_DELTA_SAMPLES = [("plus", 2), ("minus", 0), ("plus", -1)]


def test_stats_skip_samples_without_a_discriminant():
    rows, summary = hua_trend(MIXED_SAMPLES + NO_DELTA_SAMPLES)
    want = hua_trend(MIXED_SAMPLES)[0]
    assert [(r.family, r.n, r.h) for r in rows] == [(r.family, r.n, r.h) for r in want]
    assert summary["count"] == 4
    rows, summary = bounded_family_statistic(5, NO_DELTA_SAMPLES + MIXED_SAMPLES)
    assert rows == bounded_family_statistic(5, MIXED_SAMPLES)[0]
    assert summary["count"] == 4


def test_bounded_family_lucas_conductors():
    # Over delta0 = 5, the minus-family members with delta = 5 f**2 have
    # n in the Lucas sequence 1, 4, 11, 29, ... (brute-forced oracle).
    lucas_n = [n for n in range(1, 10**4) if _is_5f2(n * n + 4)]
    assert lucas_n[:7] == [1, 4, 11, 29, 76, 199, 521]
    rows, summary = bounded_family_statistic(
        5, [("minus", n) for n in range(1, 600)]
    )
    assert [r["n"] for r in rows] == [n for n in lucas_n if n < 600]
    assert all(r["delta0"] == 5 for r in rows)
    assert summary["count"] == len(rows)
    assert summary["max"] < 10  # bounded ratios; reported, not asserted tightly


def _is_5f2(delta):
    if delta % 5:
        return False
    f2 = delta // 5
    f = math.isqrt(f2)
    return f * f == f2


def test_bounded_family_validation():
    with pytest.raises(ValueError):
        bounded_family_statistic(4, [("minus", 1)])


def test_hua_trend_memory_stays_flat():
    # A sweep never returns to a delta, so the class data of one sample must
    # not outlive the next.  With one kept at a time the sweep peaks at about
    # 2.6 times the build of its largest class group (n = 1000, h = 108);
    # keeping all 30 peaks past 15 times.
    samples = [("plus", n) for n in range(1000, 1030)]
    rows, _ = hua_trend(samples)  # fills the caches that outlive a sweep, untraced
    assert len(rows) == 30

    def peak(fn, *args):
        forms._class_data.cache_clear()
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep = peak(hua_trend, samples)
    build = peak(forms._ClassData, max(rows, key=lambda r: r.h).delta)
    assert sweep < 5 * build, (sweep, build)

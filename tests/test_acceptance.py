"""Acceptance gate: every criterion at its stated bound, one line per result.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy sweeps use up
to four worker processes; on a two-core machine the module takes under a
minute (51 s on a 2-vCPU VM), about half of it in criterion 5 (24 s), where
the range sweep of `ugo.sweep` supplies every class number.  Every run lists
its ten slowest tests.
"""

import functools
import os
from dataclasses import replace

from ugo import relations, search
from ugo.forms import _ClassData
from ugo.search import ScanConfig, classify_maximal, scan, scan_to_file

JOBS = min(4, os.cpu_count() or 1)

# -- expected data, transcribed row for row from the published tables -------

# (family, n, delta, conductor) of every class-number-one unit-generated order
TABLE_1 = {
    ("plus", 0, -4, 1), ("plus", 1, -3, 1), ("plus", 3, 5, 1),
    ("plus", 4, 12, 1), ("plus", 5, 21, 1), ("plus", 6, 32, 2),
    ("plus", 7, 45, 3), ("plus", 9, 77, 1), ("plus", 11, 117, 3),
    ("plus", 21, 437, 1),
    ("minus", 1, 5, 1), ("minus", 2, 8, 1), ("minus", 3, 13, 1),
    ("minus", 4, 20, 2), ("minus", 5, 29, 1), ("minus", 7, 53, 1),
    ("minus", 8, 68, 2), ("minus", 11, 125, 5), ("minus", 13, 173, 1),
    ("minus", 17, 293, 1),
}

# delta -> (wide divisors, narrow divisors, conductor), plus-family table
TABLE_2A = {}
for _cl, _clp, _f, _deltas in [
    ((), (), 1, (-4, -3, 5)),
    ((), (2,), 1, (12, 21, 77, 437)),
    ((), (2,), 2, (32,)),
    ((), (2,), 3, (45, 117)),
    ((2,), (2, 2), 1, (60, 140, 165, 285, 357, 572, 957, 1085, 2397)),
    ((2,), (2, 2), 2, (96,)),
    ((2,), (2, 2), 3, (252,)),
    ((2,), (2, 2), 4, (192,)),
    ((2,), (2, 2), 5, (525,)),
    ((2,), (2, 2), 8, (320,)),
    ((2,), (4,), 1, (221, 1517)),
    ((2,), (4,), 5, (725,)),
    ((2, 2), (2, 2, 2), 1, (780, 1020, 1365, 1932, 2805, 4485, 5180, 7917, 8645)),
    ((2, 2), (2, 2, 2), 2, (480, 672, 1760, 2912)),
    ((2, 2), (2, 2, 2), 6, (1440,)),
    ((2, 2), (2, 2, 2), 8, (2112,)),
    ((2, 2), (2, 4), 1, (3965, 7565)),
    ((2, 2, 2), (2, 2, 2, 2), 1, (4620, 12540, 26565)),
    ((2, 2, 2), (2, 2, 2, 2), 2, (3360, 7392, 14880, 19040, 23712, 27552)),
    ((2, 2, 2), (2, 2, 2, 2), 8, (6720,)),
    ((2, 2, 2, 2), (2, 2, 2, 2, 2), 2, (68640,)),
]:
    for _d in _deltas:
        TABLE_2A[_d] = (_cl, _clp, _f)

# delta -> (divisors, conductor); wide = narrow throughout the minus family
TABLE_2B = {}
for _cl, _f, _deltas in [
    ((), 1, (5, 8, 13, 29, 53, 173, 293)),
    ((), 2, (20, 68)),
    ((), 5, (125,)),
    ((2,), 1, (40, 85, 104, 365, 488, 533, 629, 965, 1448, 1685, 1853, 2813)),
    ((2,), 2, (260,)),
    ((2,), 5, (200,)),
    ((2,), 13, (845,)),
    ((2, 2), 1, (680, 1160, 2120, 2405, 3485, 3848, 5480, 10205, 16133)),
    ((2, 2, 2), 1, (8840, 21320, 32045)),
]:
    for _d in _deltas:
        TABLE_2B[_d] = (_cl, _cl, _f)

MAXIMAL_H1_PLUS = {-4, -3, 5, 12, 21, 77, 437}
MAXIMAL_H1_MINUS = {5, 8, 13, 29, 53, 173, 293}
CHOWLA_H1 = [5, 17, 37, 101, 197, 677]


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {text}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {text}")

        return wrapper

    return deco


@criterion(1, "Table 1: class-number-one scan over n <= 10^4 (exact rows)")
def test_criterion_1_class_number_one_table():
    cfg = ScanConfig(
        families=("plus", "minus"), n_min=0, n_max=10**4,
        filter="class-number-one", jobs=JOBS,
    )
    rows = scan(cfg)
    got = {(r.family, r.n, r.delta, r.f) for r in rows}
    assert got == TABLE_1
    assert len({r.delta for r in rows}) == 19
    assert all(r.h == 1 for r in rows)


@criterion(2, "Tables 2A+2B: two-torsion-wide scan over n <= 3163, structures exact")
def test_criterion_2_two_torsion_tables():
    cfg = ScanConfig(
        families=("plus", "minus"), n_min=0, n_max=3163,
        filter="two-torsion-wide", jobs=JOBS,
    )
    rows = scan(cfg)
    got = {
        (r.family, r.delta): (r.cl, r.cl_plus, r.f)
        for r in rows
    }
    want = {("plus", d): v for d, v in TABLE_2A.items()}
    want |= {("minus", d): v for d, v in TABLE_2B.items()}
    assert got == want
    assert len(rows) == len(TABLE_2A) + len(TABLE_2B) == 92
    # spot checks called out explicitly: 221 and 68640
    assert got[("plus", 221)] == ((2,), (4,), 1)
    assert got[("plus", 68640)] == ((2, 2, 2, 2), (2, 2, 2, 2, 2), 2)


@criterion(3, "maximal class-number-one classification over n <= 10^4")
def test_criterion_3_maximal_classification():
    cfg = ScanConfig(families=("plus", "minus"), n_min=0, n_max=10**4, jobs=JOBS)
    rows = classify_maximal(cfg)
    assert {r.delta for r in rows if r.family == "plus"} == MAXIMAL_H1_PLUS
    assert {r.delta for r in rows if r.family == "minus"} == MAXIMAL_H1_MINUS


@criterion(4, "Chowla family: squarefree 4n^2+1 with h = 1 for n <= 10^3")
def test_criterion_4_chowla_family():
    cfg = ScanConfig(
        families=("chowla",), n_min=1, n_max=10**3,
        filter="class-number-one", jobs=JOBS,
    )
    rows = scan(cfg)
    assert [r.delta for r in rows] == CHOWLA_H1


@criterion(5, "conductor formula = range sweep for every non-maximal delta <= 10^6")
def test_criterion_5_conductor_formula_exhaustive():
    report = search.verify_conductor(10**6, jobs=JOBS)
    assert report.passed, report.failures
    assert report.checked == 195043


@criterion(6, "parity predicates and |Cl+[2]| = 2^(mu-1) match the sweep, delta <= 10^5")
def test_criterion_6_parity_and_genus_exhaustive():
    parity = search.verify_parity(10**5, jobs=JOBS)
    assert parity.passed, parity.failures
    genus_rep = search.verify_genus(10**5, jobs=JOBS)
    assert genus_rep.passed, genus_rep.failures


@criterion(7, "family unit-norm law: h+ = 2h (plus), h+ = h (minus), n <= 2000")
def test_criterion_7_family_law():
    for n in range(4, 2001):
        cd = _ClassData(n * n - 4)
        assert cd.h_plus == 2 * cd.h, f"plus n={n}"
    for n in range(1, 2001):
        cd = _ClassData(n * n + 4)
        assert cd.h_plus == cd.h, f"minus n={n}"


@criterion(8, "parametric continued fractions match for all real n <= 500")
def test_criterion_8_parametric_cf():
    report = search.verify_cf(500)
    assert report.passed, report.failures
    assert report.checked == 998


@criterion(9, "Brauer-Siegel trend: mean log h/log n over n in [5000, 5100]")
def test_criterion_9_hua_trend():
    samples = [(f, n) for f in ("plus", "minus") for n in range(5000, 5101)]
    rows, summary = relations.hua_trend(samples)
    assert summary["count"] == 202
    assert 0.55 <= summary["mean"] <= 0.95, summary


@criterion(10, "determinism and resume: byte-identical two-torsion scans")
def test_criterion_10_determinism_and_resume(tmp_path, crash_scan_after_rows):
    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"scan-j{jobs}.csv"
        cfg = ScanConfig(
            families=("plus", "minus"), n_min=0, n_max=3163,
            filter="two-torsion-wide", jobs=jobs, output=str(out),
        )
        scan_to_file(cfg)
        outputs[jobs] = out.read_bytes()
    assert outputs[1] == outputs[8]

    out = tmp_path / "scan-resumed.csv"
    ckpt = tmp_path / "ckpt.txt"
    cfg = ScanConfig(
        families=("plus", "minus"), n_min=0, n_max=3163,
        filter="two-torsion-wide", jobs=JOBS,
        output=str(out), checkpoint_path=str(ckpt),
    )
    # Row 55 is plus n = 262, past the first checkpoint (task 256), so the
    # resumed scan starts from a journal that is behind the output.
    with crash_scan_after_rows(55):
        scan_to_file(cfg)
    assert search._read_journal(str(ckpt))["bytes"] < out.stat().st_size
    scan_to_file(cfg)
    assert out.read_bytes() == outputs[1]


@criterion(11, "Tables 1, 2A+2B and the narrow list at the paper's bound n <= 10^5")
def test_criterion_11_lists_at_paper_bound():
    cfg = ScanConfig(
        families=("plus", "minus"), n_min=0, n_max=10**5,
        filter="class-number-one", jobs=JOBS,
    )
    assert {(r.family, r.n, r.delta, r.f) for r in scan(cfg)} == TABLE_1

    want = {("plus", d): v for d, v in TABLE_2A.items()}
    want |= {("minus", d): v for d, v in TABLE_2B.items()}
    for flt, keep in (
        ("two-torsion-wide", lambda v: True),
        ("two-torsion-narrow", lambda v: all(d == 2 for d in v[1])),
    ):
        rows = scan(replace(cfg, filter=flt))
        got = {(r.family, r.delta): (r.cl, r.cl_plus, r.f) for r in rows}
        assert len(rows) == len(got)
        assert got == {k: v for k, v in want.items() if keep(v)}, flt
    assert sum(all(d == 2 for d in v[1]) for v in want.values()) == 87

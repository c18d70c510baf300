import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from ugo import cli, relations, search
from ugo.forms import _ClassData, class_witness
from ugo.orders import decompose, is_discriminant
from ugo.search import (
    CSV_HEADER,
    RowError,
    ScanConfig,
    classify_maximal,
    evaluate_task,
    family_discriminant,
    inspect_report,
    scan,
    scan_to_file,
)


# The CLI subprocess imports the same ugo as the tests, installed or not.
_CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(search.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ugo.cli", *args], capture_output=True, text=True, env=_CLI_ENV
    )


def test_family_discriminant():
    assert family_discriminant("plus", 21) == 437
    assert family_discriminant("plus", 2) is None
    assert family_discriminant("minus", 0) is None
    assert family_discriminant("chowla", 1) == 5
    assert family_discriminant("chowla", 3) == 37
    assert family_discriminant("chowla", 9) is None  # 325 = 5^2 * 13


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(families=("plus",), n_min=5, n_max=4)
    with pytest.raises(ValueError):
        ScanConfig(families=("plus",), n_min=0, n_max=4, jobs=0)
    with pytest.raises(ValueError):
        ScanConfig(families=("mars",), n_min=0, n_max=4)
    with pytest.raises(ValueError):
        ScanConfig(families=("plus",), n_min=0, n_max=4, filter="nope")
    cfg = ScanConfig(families=("minus", "plus"), n_min=0, n_max=4)
    assert cfg.families == ("plus", "minus")


def test_scan_rows_match_direct_computation():
    cfg = ScanConfig(families=("plus", "minus"), n_min=0, n_max=40)
    rows = scan(cfg)
    from ugo.forms import class_number, narrow_class_number
    from ugo.orders import decompose

    for row in rows:
        assert row.h == class_number(row.delta)
        assert row.h_plus == narrow_class_number(row.delta)
        desc = decompose(row.delta)
        assert (row.f, row.delta0) == (desc.conductor, desc.delta0)
        assert row.maximal == (row.f == 1)
    ns = [(r.family, r.n) for r in rows]
    assert ns == sorted(ns, key=lambda t: (search.FAMILY_ORDER[t[0]], t[1]))


def test_filters_small():
    h1 = scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=50, filter="class-number-one"))
    assert all(r.h == 1 for r in h1)
    assert {r.delta for r in h1} <= {-4, -3, 5, 12, 21, 32, 45, 77, 117, 437, 8, 13, 20, 29, 53, 68, 125, 173, 293}
    ttw = scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=50, filter="two-torsion-wide"))
    assert all(all(d == 2 for d in r.cl) for r in ttw)
    ttn = scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=50, filter="two-torsion-narrow"))
    assert all(all(d == 2 for d in r.cl_plus) for r in ttn)
    assert {r.delta for r in ttn} <= {r.delta for r in ttw}
    mx = scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=50, filter="maximal-only"))
    assert all(r.f == 1 for r in mx)


def test_filter_soundness_recomputed_from_scratch():
    # every emitted row must satisfy its filter when rebuilt independently
    from ugo.forms import _ClassData
    from ugo.orders import decompose

    for flt, rows in (
        ("class-number-one", scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=80, filter="class-number-one"))),
        ("two-torsion-wide", scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=80, filter="two-torsion-wide"))),
        ("maximal-only", scan(ScanConfig(families=("plus", "minus"), n_min=0, n_max=80, filter="maximal-only"))),
    ):
        for r in rows:
            cd = _ClassData(r.delta)
            if flt == "class-number-one":
                assert cd.h == 1
            elif flt == "two-torsion-wide":
                assert cd.is_two_torsion_wide()
            else:
                assert decompose(r.delta).conductor == 1


def test_filtered_scans_equal_filtered_all_scan():
    # The witness prune only rejects: every filtered scan must equal the
    # `all` scan filtered by its property, row for row.
    both = ScanConfig(families=("plus", "minus"), n_min=0, n_max=300)
    rows = scan(both)
    for flt, keep in (
        ("class-number-one", lambda r: r.h == 1),
        ("two-torsion-wide", lambda r: all(d == 2 for d in r.cl)),
        ("two-torsion-narrow", lambda r: all(d == 2 for d in r.cl_plus)),
    ):
        assert scan(replace(both, filter=flt)) == [r for r in rows if keep(r)], flt
    chowla = ScanConfig(families=("chowla",), n_min=0, n_max=200)
    rows = scan(chowla)
    assert scan(replace(chowla, filter="class-number-one")) == [r for r in rows if r.h == 1]


# The real orders of class number one in both families, n <= 10**5.
TABLE_1_REAL = {("plus", n) for n in (3, 4, 5, 6, 7, 9, 11, 21)} | {
    ("minus", n) for n in (1, 2, 3, 4, 5, 7, 8, 11, 13, 17)
}


def test_class_witness_leaves_only_table_1():
    survivors = {
        (family, n)
        for family in ("plus", "minus")
        for n in range(10**5 + 1)
        if (delta := family_discriminant(family, n)) is not None
        and delta > 0
        and not class_witness(delta, square=False, wide=True)
    }
    assert survivors == TABLE_1_REAL


def test_classify_maximal_small():
    cfg = ScanConfig(families=("plus", "minus"), n_min=0, n_max=100)
    rows = classify_maximal(cfg)
    plus = {r.delta for r in rows if r.family == "plus"}
    minus = {r.delta for r in rows if r.family == "minus"}
    assert plus == {-4, -3, 5, 12, 21, 77, 437}
    assert minus == {5, 8, 13, 29, 53, 173, 293}


def test_chowla_scan():
    rows = scan(ScanConfig(families=("chowla",), n_min=1, n_max=40, filter="class-number-one"))
    assert [r.delta for r in rows] == [5, 17, 37, 101, 197, 677]
    assert all(r.f == 1 for r in rows)


def test_overflow_row_error():
    r = evaluate_task("minus", 1 << 33, "all")
    assert isinstance(r, RowError)
    assert "2**62" in r.message


def test_determinism_across_jobs(tmp_path):
    outs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"scan{jobs}.csv"
        cfg = ScanConfig(
            families=("plus", "minus"), n_min=0, n_max=120, filter="all",
            jobs=jobs, output=str(out),
        )
        scan_to_file(cfg)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_resume_produces_identical_output(tmp_path, monkeypatch, crash_scan_after_rows):
    monkeypatch.setattr(search, "_CHECKPOINT_EVERY", 8)
    ref = tmp_path / "ref.csv"
    cfg_ref = ScanConfig(families=("plus", "minus"), n_min=0, n_max=150, output=str(ref))
    scan_to_file(cfg_ref)

    out = tmp_path / "resumable.csv"
    ckpt = tmp_path / "ckpt.txt"
    cfg = ScanConfig(
        families=("plus", "minus"), n_min=0, n_max=150,
        output=str(out), checkpoint_path=str(ckpt),
    )
    with crash_scan_after_rows(97):
        scan_to_file(cfg)
    assert ckpt.exists()
    assert search._read_journal(str(ckpt))["bytes"] < out.stat().st_size
    assert out.read_bytes() != ref.read_bytes()
    scan_to_file(cfg)
    assert out.read_bytes() == ref.read_bytes()


def test_resume_rejects_config_change(tmp_path, monkeypatch, crash_scan_after_rows):
    monkeypatch.setattr(search, "_CHECKPOINT_EVERY", 4)
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "ckpt.txt"
    cfg = ScanConfig(families=("plus",), n_min=0, n_max=60, output=str(out), checkpoint_path=str(ckpt))
    with crash_scan_after_rows(10):
        scan_to_file(cfg)
    assert ckpt.exists()
    with pytest.raises(ValueError):
        scan_to_file(
            ScanConfig(families=("plus",), n_min=0, n_max=80, output=str(out), checkpoint_path=str(ckpt))
        )


def test_jsonl_format(tmp_path):
    out = tmp_path / "scan.jsonl"
    cfg = ScanConfig(families=("minus",), n_min=1, n_max=12, output=str(out), format="jsonl")
    scan_to_file(cfg)
    lines = out.read_text().strip().splitlines()
    for line in lines:
        obj = json.loads(line)
        assert list(obj) == CSV_HEADER.split(",")
    n8 = next(json.loads(l) for l in lines if json.loads(l)["n"] == 8)
    assert n8["delta"] == 68 and n8["f"] == 2 and n8["h"] == 1
    assert n8["rd_row"] == "m^2+1 (m even)"


def test_inspect_report():
    rep = inspect_report(68)
    assert rep["f"] == 2 and rep["delta0"] == 17 and rep["h"] == 1
    assert rep["unit"]["norm"] == -1
    assert rep["unit_generated"] == [{"family": "minus", "n": 8}]
    rep = inspect_report(725)
    assert rep["cl"] == "2" and rep["cl_plus"] == "4" and rep["f"] == 5
    rep = inspect_report(-4)
    assert rep["h"] == 1 and rep["unit"] is None
    with pytest.raises(ValueError):
        inspect_report(0)
    with pytest.raises(OverflowError):
        inspect_report((1 << 63) + 1)


def test_cli_inspect_exit_codes():
    assert run_cli("inspect", "68").returncode == 0
    assert run_cli("inspect", "0").returncode == 2
    assert run_cli("inspect", str(1 << 63)).returncode == 3
    out = run_cli("inspect", "725", "--json")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["cl_plus"] == "4"


def _parse_int(text):
    # int() of a decimal string past the interpreter's int-from-str limit.
    if len(text) <= 4000:
        return int(text)
    return _parse_int(text[:-4000]) * 10**4000 + int(text[-4000:])


def test_cli_inspect_prints_large_units(capsys):
    # u has 8,703 decimal digits here, past the default int-to-str limit,
    # which inspect lifts only while it prints.
    delta = 50004529
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert cli.main(["inspect", str(delta), "--json"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    capsys.readouterr()
    out = run_cli("inspect", str(delta), "--json")
    assert out.returncode == 0, out.stderr
    unit = json.loads(out.stdout, parse_int=_parse_int)["unit"]
    t, u = unit["t"], unit["u"]
    assert t * t - u * u * delta == -4
    out = run_cli("inspect", str(delta))
    assert out.returncode == 0, out.stderr
    t, u = re.search(r"fund\. unit +\((\d+) \+ (\d+)\*sqrt", out.stdout).groups()
    t, u = _parse_int(t), _parse_int(u)
    assert t * t - u * u * delta == -4


def test_cli_usage_error_exit_code(tmp_path):
    assert run_cli("scan", "--family", "pluto", "--n-max", "5", "--out", "/tmp/x").returncode == 1
    assert run_cli("nonsense").returncode == 1
    out = str(tmp_path / "scan.csv")
    ckpt = str(tmp_path / "ckpt.txt")
    assert run_cli("scan", "--n-max", "5", "--out", out, "--checkpoint", ckpt).returncode == 0
    missing = str(tmp_path / "missing" / "scan.csv")
    missing_ckpt = tmp_path / "missing-ckpt.txt"
    for args in (
        ("scan", "--n-max", "5", "--jobs", "0", "--out", out),
        ("scan", "--n-min", "6", "--n-max", "5", "--out", out),
        ("scan", "--n-max", "6", "--checkpoint", ckpt, "--out", out),  # written for --n-max 5
        ("scan", "--n-max", "5", "--checkpoint", str(missing_ckpt), "--out", missing),
        ("verify", "conductor", "--max-delta", "200", "--jobs", "-3"),
        ("verify", "conductor", "--max-delta", "200", "--jobs", "0"),
        ("verify", "cf", "--max-n", "0"),
        ("verify", "cf", "--max-n", "-5"),
    ):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert "Traceback" not in r.stderr and "error" in r.stderr, args
    assert not missing_ckpt.exists()


def test_cli_verify_max_delta_is_used(capsys):
    assert cli.main(["verify", "parity", "--max-delta", "5"]) == 0
    assert "(1 checks)" in capsys.readouterr().out
    for suite in ("parity", "genus", "conductor", "group-axioms"):
        for bound in ("0", "4"):
            assert cli.main(["verify", suite, "--max-delta", bound]) == 1, (suite, bound)
            assert "below 5" in capsys.readouterr().err


# Every non-maximal delta <= 5000, by its definition.
NON_MAXIMAL_TO_5000 = [
    d for d in range(5, 5001) if is_discriminant(d) and decompose(d).conductor > 1
]


def test_verify_conductor_builds_each_delta0_once(monkeypatch):
    built = []
    real_init = _ClassData.__init__

    def spy(self, delta):
        built.append(delta)
        real_init(self, delta)

    monkeypatch.setattr(_ClassData, "__init__", spy)
    report = search.verify_conductor(5000)
    assert report.passed, report.failures
    assert len(NON_MAXIMAL_TO_5000) == report.checked == 914
    counts = Counter(built)
    assert max(counts.values()) == 1
    checked = {d for d in counts if decompose(d).conductor > 1}
    fundamental = {d for d in counts if decompose(d).conductor == 1}
    assert checked == set(NON_MAXIMAL_TO_5000)
    assert fundamental == {decompose(d).delta0 for d in NON_MAXIMAL_TO_5000}


def test_verify_conductor_reports_smallest_failures(monkeypatch, capsys):
    real = relations.predicted_class_number

    def wrong_at_f_2_and_3(delta0, f, h0):
        return real(delta0, f, h0) + (f in (2, 3))

    monkeypatch.setattr(relations, "predicted_class_number", wrong_at_f_2_and_3)
    wrong = sorted(d for d in NON_MAXIMAL_TO_5000 if decompose(d).conductor in (2, 3))
    expected = [f"conductor formula mismatch at delta={d}" for d in wrong[:20]]
    for jobs in (1, 2):
        report = search.verify_conductor(5000, jobs=jobs)
        assert report.checked == 914
        assert report.failures == expected, jobs
    assert cli.main(["verify", "conductor", "--max-delta", "5000", "--jobs", "2"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "conductor: FAIL (914 checks)"
    assert out[1:] == [f"  counterexample: {e}" for e in expected]


def test_cli_scan_overflow_exit_code(tmp_path):
    out = tmp_path / "overflow.csv"
    n = 1 << 33  # delta = n^2 + 4 > 2^62
    r = run_cli(
        "scan", "--family", "minus", "--n-min", str(n), "--n-max", str(n),
        "--out", str(out),
    )
    assert r.returncode == 3
    assert "row error" in r.stderr


def test_cli_scan_and_verify(tmp_path):
    out = tmp_path / "cli.csv"
    r = run_cli(
        "scan", "--family", "both", "--n-min", "0", "--n-max", "60",
        "--filter", "class-number-one", "--out", str(out),
    )
    assert r.returncode == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert "plus,21,437,1,437,1,2,1,2," in text
    r = run_cli("verify", "cf", "--max-n", "40")
    assert r.returncode == 0
    assert "pass" in r.stdout


def test_cli_verify_suites_small():
    for suite, bound in (("parity", "3000"), ("genus", "3000"), ("conductor", "5000")):
        r = run_cli("verify", suite, "--max-delta", bound)
        assert r.returncode == 0, (suite, r.stdout, r.stderr)
        assert "pass" in r.stdout
    r = run_cli("verify", "group-axioms", "--max-delta", "3000")
    assert r.returncode == 0


def test_cli_stats():
    r = run_cli("stats", "hua", "--n-min", "3", "--n-max", "30")
    assert r.returncode == 0
    assert "# count=" in r.stdout
    r = run_cli("stats", "bounded", "--delta0-max", "5", "--n-min", "1", "--n-max", "200", "--family", "minus")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if not l.startswith(("#", "family"))]
    assert [int(l.split(",")[1]) for l in lines] == [1, 4, 11, 29, 76, 199]

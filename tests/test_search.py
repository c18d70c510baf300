import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ugo import cfrac, cli, forms, genus, intarith, relations, search, sweep
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


def test_overflow_scan_builds_no_sieve(tmp_path, monkeypatch):
    # Both rows are range errors, found before any form is enumerated, so
    # the scan builds no smallest-prime-factor table.
    monkeypatch.setattr(intarith, "_spf_array", None)
    n = 1 << 33
    cfg = ScanConfig(families=("minus",), n_min=n, n_max=n + 1, output=str(tmp_path / "o.csv"))
    assert len(scan_to_file(cfg).errors) == 2
    assert intarith._spf_array is None


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


# Both families for n in [3, 32] give 60 tasks, each a row, so with a
# checkpoint every 8 tasks the journal is written after rows 8, 16, ..., 56.
RESUME_EVERY = 8
RESUME_CRASHES = (
    [pytest.param("csv", 5, id="before-first-flush")]
    + [pytest.param("csv", k, id=f"after-flush-{k // RESUME_EVERY}") for k in range(8, 57, 8)]
    + [pytest.param("csv", 57, id="past-last-flush"), pytest.param("jsonl", 30, id="jsonl")]
)


@pytest.mark.parametrize("fmt, rows", RESUME_CRASHES)
def test_resume_produces_identical_output(tmp_path, monkeypatch, crash_scan_after_rows, fmt, rows):
    monkeypatch.setattr(search, "_CHECKPOINT_EVERY", RESUME_EVERY)
    ref = tmp_path / f"ref.{fmt}"
    cfg_ref = ScanConfig(
        families=("plus", "minus"), n_min=3, n_max=32, output=str(ref), format=fmt
    )
    assert scan_to_file(cfg_ref).rows_written == 60

    out = tmp_path / f"resumable.{fmt}"
    ckpt = tmp_path / "ckpt.txt"
    cfg = replace(cfg_ref, output=str(out), checkpoint_path=str(ckpt))
    with crash_scan_after_rows(rows):
        scan_to_file(cfg)
    flushed = rows - rows % RESUME_EVERY
    if flushed:
        journal = search._read_journal(str(ckpt))
        assert journal["rows"] == flushed
        assert (journal["bytes"] < out.stat().st_size) == (rows > flushed)
    else:
        assert not ckpt.exists()
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


def test_resume_rejects_a_journal_of_other_code(tmp_path, monkeypatch, crash_scan_after_rows, capsys):
    # The fingerprint keys on the package version and the row columns too,
    # so a journal keyed on the scan settings alone is refused, by the API
    # and by the CLI, and the output file is left as it is.
    monkeypatch.setattr(search, "_CHECKPOINT_EVERY", 4)
    out = tmp_path / "scan.csv"
    ckpt = tmp_path / "ckpt.txt"
    cfg = ScanConfig(families=("plus",), n_min=0, n_max=60, output=str(out), checkpoint_path=str(ckpt))
    with crash_scan_after_rows(10):
        scan_to_file(cfg)
    settings = repr((cfg.families, cfg.n_min, cfg.n_max, cfg.filter, cfg.format))
    old = hashlib.sha256(settings.encode()).hexdigest()[:16]
    ckpt.write_text(ckpt.read_text().replace(cfg.fingerprint(), old))
    written = out.read_bytes()
    with pytest.raises(search.CheckpointError):
        scan_to_file(cfg)
    args = ["scan", "--family", "plus", "--n-max", "60", "--out", str(out), "--checkpoint", str(ckpt)]
    assert cli.main(args) == 1
    assert "checkpoint does not match" in capsys.readouterr().err
    assert out.read_bytes() == written
    fingerprint = cfg.fingerprint()
    monkeypatch.setattr(search, "__version__", "0.0.0")
    assert cfg.fingerprint() != fingerprint
    monkeypatch.undo()
    monkeypatch.setattr(search, "_ROW_FIELDS", search._ROW_FIELDS[:-1])
    assert cfg.fingerprint() != fingerprint


def test_scan_streams_its_tasks():
    # A million tasks as a list would take about 92 MB before the first row.
    cfg = ScanConfig(families=("plus",), n_min=0, n_max=10**6)
    tracemalloc.start()
    try:
        results = list(islice(search.iter_task_results(cfg), 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(f, n) for f, n, _ in results] == [("plus", n) for n in range(100)]
    assert peak < 10 * 2**20, peak


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


def test_inspect_and_rows_cross_check_unit_norm_and_mu(monkeypatch):
    # 725 = 27**2 - 4 has h = 2, h+ = 4 (norm +1 unit) and mu = 2.
    real_unit = cfrac.fundamental_unit
    real_mu = genus._mu

    def flipped_norm(delta):
        eps = real_unit(delta)
        return SimpleNamespace(t=eps.t, u=eps.u, norm=-eps.norm, regulator=eps.regulator)

    for name, wrong in (
        ("fundamental_unit", flipped_norm),
        ("_mu", lambda delta, pairs: real_mu(delta, pairs) + 1),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(genus if name == "_mu" else cfrac, name, wrong)
            with pytest.raises(ArithmeticError):
                inspect_report(725)
            with pytest.raises(ArithmeticError):
                evaluate_task("plus", 27, "all")
    assert inspect_report(725)["cl_plus"] == "4"


@pytest.fixture
def factor_calls(monkeypatch):
    """A Counter of the arguments passed to `intarith.factor`, through
    every binding of it in the ugo modules."""
    calls = Counter()
    real = intarith.factor

    def spy(m):
        calls[m] += 1
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ugo" and getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", spy)
    return calls


def test_delta_factored_once(factor_calls):
    # The discriminant record of the class data is the one factorization of
    # delta behind a scan row, an inspect report and a verify-suite check;
    # a maximal-only filter and a chowla squarefree test reuse it.
    for flt in ("all", "maximal-only"):
        for family in ("plus", "minus"):
            for n in (4901, 4902, 4903):
                decompose.cache_clear()
                factor_calls.clear()
                evaluate_task(family, n, flt)
                assert factor_calls[family_discriminant(family, n)] == 1, (flt, family, n)
    for delta in (725, 68640, 100000001):
        forms._class_data.cache_clear()
        decompose.cache_clear()
        factor_calls.clear()
        inspect_report(delta)
        assert factor_calls[delta] == 1, delta
    for chunk in (search._parity_chunk, search._genus_chunk):
        for delta in (1000, 1001, 1004, 1005):
            factor_calls.clear()
            assert chunk(range(delta, delta + 1)) == (1, [])
            assert factor_calls[delta] == 1, (chunk.__name__, delta)
    for n in (4901, 4903, 4905):
        decompose.cache_clear()
        factor_calls.clear()
        row = evaluate_task("chowla", n, "all")
        assert factor_calls[row.delta] == 1, n


def test_narrow_chain_computed_once_per_row(monkeypatch):
    # A minus row has h = h+ (its unit has norm -1), so its wide chain is
    # its narrow chain; a plus row folds the narrow group by tau.
    calls = []
    real = _ClassData._invariant_factors

    def spy(self, project):
        calls.append(self.delta)
        return real(self, project)

    monkeypatch.setattr(_ClassData, "_invariant_factors", spy)
    for family, expected in (("minus", 1), ("plus", 2)):
        for n in (4901, 4902, 4903):
            calls.clear()
            row = evaluate_task(family, n, "all")
            assert (row.h == row.h_plus) == (family == "minus")
            assert calls == [row.delta] * expected, (family, n)


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


def _old_inspect_output(delta, as_json):
    # The output as it was built before the listing was streamed: the whole
    # report, classes included, as one string.
    report = inspect_report(delta)
    classes = forms.narrow_classes(delta)
    if as_json:
        return json.dumps({**report, "classes": classes}) + "\n"
    lines = cli._inspect_head(report)
    lines += ["  " + " -> ".join(str(tuple(f)) for f in cyc) for cyc in classes]
    return "\n".join(lines) + "\n"


def test_cli_inspect_streams_the_same_bytes(capsys):
    deltas = [d for a in range(5, 2001) for d in (a, -a) if is_discriminant(d)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for delta in [*deltas, 68, 725, 50004529, -100000003, 284866885]:
        for flag in ("--json", None):
            assert cli.main(["inspect", str(delta), *([flag] if flag else [])]) == 0
            out = capsys.readouterr().out
            if limit:
                sys.set_int_max_str_digits(0)
            try:
                assert out == _old_inspect_output(delta, flag is not None), (delta, flag)
            finally:
                if limit:
                    sys.set_int_max_str_digits(limit)


def test_cli_inspect_streams_in_bounded_memory(monkeypatch):
    # Holding the list of cycles and the whole output peaked at 6.4 MB,
    # against 1.8 MB for building the class data; streamed, the listing
    # adds less than the build.
    delta = 284866885
    _ClassData(delta)  # the tables the build reads, outside the trace
    tracemalloc.start()
    try:
        _ClassData(delta)
        build_peak = tracemalloc.get_traced_memory()[1]
        forms._class_data.cache_clear()
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as devnull, monkeypatch.context() as mp:
            mp.setattr(sys, "stdout", devnull)
            assert cli.main(["inspect", "--json", str(delta)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * build_peak, (peak, build_peak)


def _main_in_process(capsys, *args):
    # cli.main in this interpreter: (exit code, stderr).  argparse exits by
    # SystemExit; any other exception escapes and fails the test.
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_cli_usage_error_exit_code(tmp_path, capsys):
    # One case runs the real entry point; the rest call cli.main directly.
    r = run_cli("nonsense")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr and "error" in r.stderr
    out = str(tmp_path / "scan.csv")
    ckpt = str(tmp_path / "ckpt.txt")
    code, _ = _main_in_process(capsys, "scan", "--n-max", "5", "--out", out, "--checkpoint", ckpt)
    assert code == 0
    missing = str(tmp_path / "missing" / "scan.csv")
    missing_ckpt = tmp_path / "missing-ckpt.txt"
    # Journals whose config line matches this scan but whose bytes line is
    # absent or not an integer.
    config_line = Path(ckpt).read_text().splitlines()[1]
    assert config_line.startswith("config=")
    no_bytes = tmp_path / "no-bytes.txt"
    no_bytes.write_text(f"{config_line}\nrows=3\n")
    bad_bytes = tmp_path / "bad-bytes.txt"
    bad_bytes.write_text(f"{config_line}\nbytes=abc\nrows=3\n")
    # A journal from before task counts: a done line per family, no tasks line.
    scanned = Path(out).read_bytes()
    old_format = tmp_path / "old-format.txt"
    old_format.write_text(
        f"# ugo scan checkpoint\n{config_line}\nbytes={len(scanned)}\nrows=3\ndone_plus=5\n"
    )
    for args in (
        ("scan", "--family", "pluto", "--n-max", "5", "--out", out),
        ("scan", "--n-max", "5", "--jobs", "0", "--out", out),
        ("scan", "--n-min", "6", "--n-max", "5", "--out", out),
        ("scan", "--n-max", "6", "--checkpoint", ckpt, "--out", out),  # written for --n-max 5
        ("scan", "--n-max", "5", "--checkpoint", str(missing_ckpt), "--out", missing),
        ("scan", "--n-max", "5", "--checkpoint", str(no_bytes), "--out", out),
        ("scan", "--n-max", "5", "--checkpoint", str(bad_bytes), "--out", out),
        ("scan", "--n-max", "5", "--checkpoint", str(old_format), "--out", out),
        ("verify", "conductor", "--max-delta", "200", "--jobs", "-3"),
        ("verify", "conductor", "--max-delta", "200", "--jobs", "0"),
        ("verify", "conductor", "--max-delta", str(sweep.MAX_DELTA + 1)),
        ("verify", "genus", "--max-delta", str(sweep.MAX_DELTA + 1)),
        ("verify", "parity", "--max-delta", "100000000000"),
        ("verify", "cf", "--max-n", "0"),
        ("verify", "cf", "--max-n", "-5"),
        ("stats", "bounded", "--delta0-max", "4", "--n-min", "1", "--n-max", "10"),
        ("stats", "hua", "--n-min", "6", "--n-max", "5"),
        ("stats", "bounded", "--delta0-max", "5", "--n-min", "6", "--n-max", "5"),
    ):
        code, err = _main_in_process(capsys, *args)
        assert code == 1, args
        assert "Traceback" not in err and "error" in err, args
        if str(old_format) in args:
            assert "remove it" in err
    assert not missing_ckpt.exists()
    assert Path(out).read_bytes() == scanned


def test_each_module_imports_first():
    # An import cycle can show only when a particular module is imported
    # first, so each ugo module is imported on its own into a clean state.
    script = (
        "import importlib, pkgutil, sys, ugo\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(ugo.__path__, 'ugo.'))\n"
        "for name in names:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'ugo']:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module(name)\n"
        "print(*names)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_CLI_ENV)
    assert r.returncode == 0, r.stderr
    modules = (
        "cfrac", "cli", "forms", "genus", "intarith", "orders", "relations", "search", "sweep",
    )
    assert r.stdout.split() == [f"ugo.{m}" for m in modules]


def test_benchmark_selftest():
    # The benchmark wraps program functions by name; a rename or deletion
    # under src/ shows here.  It runs in its own process because the tracer
    # patches the ugo modules for the rest of the process.
    r = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parents[1],
    )
    assert r.returncode == 0, r.stdout + r.stderr


def test_cli_verify_max_delta_is_used(capsys):
    assert cli.main(["verify", "parity", "--max-delta", "5"]) == 0
    assert "(1 checks)" in capsys.readouterr().out
    for suite in ("parity", "genus", "conductor", "group-axioms"):
        for bound in ("0", "4"):
            assert cli.main(["verify", suite, "--max-delta", bound]) == 1, (suite, bound)
            assert "below 5" in capsys.readouterr().err


def test_cli_verify_ignores_the_flag_its_suite_does_not_read(capsys):
    # cf reads --max-n alone and the other suites --max-delta alone, so the
    # other flag is neither used nor checked.
    assert cli.main(["verify", "cf", "--max-delta", "3", "--max-n", "5"]) == 0
    assert capsys.readouterr().out == "cf: pass (8 checks)\n"
    assert cli.main(["verify", "parity", "--max-n", "0", "--max-delta", "100"]) == 0
    assert capsys.readouterr().out == "parity: pass (40 checks)\n"


# Every non-maximal delta <= 5000, by its definition.
NON_MAXIMAL_TO_5000 = [
    d for d in range(5, 5001) if is_discriminant(d) and decompose(d).conductor > 1
]


def test_verify_conductor_builds_each_delta0_once(monkeypatch):
    # h(delta0) comes from the sweep, once per fundamental delta0: the suite
    # builds no class group, and its two sweep passes ask for exactly the
    # 914 non-maximal delta and their delta0, each once.
    built = []
    swept = []
    real_sweep = sweep.class_numbers

    def spy(deltas):
        swept.extend(deltas.tolist())
        return real_sweep(deltas)

    monkeypatch.setattr(_ClassData, "__init__", lambda self, delta: built.append(delta))
    monkeypatch.setattr(sweep, "class_numbers", spy)
    report = search.verify_conductor(5000)
    assert report.passed, report.failures
    assert len(NON_MAXIMAL_TO_5000) == report.checked == 914
    assert built == []
    assert max(Counter(swept).values()) == 1
    delta0s = {decompose(d).delta0 for d in NON_MAXIMAL_TO_5000}
    assert set(swept) == set(NON_MAXIMAL_TO_5000) | delta0s


def test_verify_conductor_checks_every_non_maximal_delta_to_the_bound():
    # Each worker predicts f**2 * delta0 for f >= 2 up to the bound
    # itself: 20 = 2**2 * 5 is the first non-maximal delta, 32 = 2**2 * 8
    # the second.
    non_maximal = [d for d in NON_MAXIMAL_TO_5000 if d <= 300]
    for m in range(5, 301):
        report = search.verify_conductor(m)
        assert report.passed, (m, report.failures)
        assert report.checked == sum(d <= m for d in non_maximal), m
    assert [search.verify_conductor(m).checked for m in (19, 20, 32)] == [0, 1, 2]
    for jobs in (1, 2, 3):
        assert search.verify_conductor(500, jobs=jobs).checked == 75, jobs


def test_verify_conductor_walks_each_principal_cycle_once(monkeypatch):
    # A worker predicts delta0 by delta0, so each fundamental unit is built
    # once (a cache miss) and serves all its f.
    real = relations.predicted_class_number
    calls = []

    def formula_spy(delta0, f, h0):
        calls.append((delta0, f))
        return real(delta0, f, h0)

    monkeypatch.setattr(relations, "predicted_class_number", formula_spy)
    cfrac.fundamental_unit.cache_clear()
    report = search.verify_conductor(5000)
    assert report.passed, report.failures
    assert report.checked == len(calls) == 914
    delta0s = {decompose(d).delta0 for d in NON_MAXIMAL_TO_5000}
    assert cfrac.fundamental_unit.cache_info().misses == len(delta0s)


def test_verify_conductor_reports_smallest_failures(monkeypatch, capsys):
    real = relations.predicted_class_number

    def wrong_at_f_2_and_3(delta0, f, h0):
        return real(delta0, f, h0) + (f in (2, 3))

    monkeypatch.setattr(relations, "predicted_class_number", wrong_at_f_2_and_3)
    wrong = sorted(d for d in NON_MAXIMAL_TO_5000 if decompose(d).conductor in (2, 3))
    expected = [f"conductor formula mismatch at delta={d}" for d in wrong[:20]]
    for jobs in (1, 2, 3):
        report = search.verify_conductor(5000, jobs=jobs)
        assert report.checked == 914
        assert report.failures == expected, jobs
    assert cli.main(["verify", "conductor", "--max-delta", "5000", "--jobs", "2"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "conductor: FAIL (914 checks)"
    assert out[1:] == [f"  counterexample: {e}" for e in expected]


# The discriminants 5 <= delta <= 5000.
DISCRIMINANTS_TO_5000 = 2430


def test_verify_genus_builds_no_class_data(monkeypatch):
    # |Cl+[2]| comes from the sweep, like h+ and h for parity and conductor.
    built = []
    monkeypatch.setattr(_ClassData, "__init__", lambda self, delta: built.append(delta))
    report = search.verify_genus(5000)
    assert report.passed, report.failures
    assert report.checked == DISCRIMINANTS_TO_5000
    assert built == []


def test_verify_genus_reports_smallest_failures(monkeypatch, capsys):
    real = sweep.class_numbers

    def one_more_at_3_mod_7(deltas):
        h_plus, h, two = real(deltas)
        return h_plus, h, two + (np.asarray(deltas) % 7 == 3)

    monkeypatch.setattr(sweep, "class_numbers", one_more_at_3_mod_7)
    wrong = [d for d in range(5, 5001) if is_discriminant(d) and d % 7 == 3]
    expected = [
        f"|Cl+[2]| != 2^(mu-1) at delta={d}: {g + 1} vs {g}"
        for d, g in zip(wrong[:20], map(genus.genus_group_order, wrong))
    ]
    for jobs in (1, 2, 3):
        report = search.verify_genus(5000, jobs=jobs)
        assert report.checked == DISCRIMINANTS_TO_5000
        assert report.failures == expected, jobs
    assert cli.main(["verify", "genus", "--max-delta", "5000", "--jobs", "2"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"genus: FAIL ({DISCRIMINANTS_TO_5000} checks)"
    assert out[1:] == [f"  counterexample: {e}" for e in expected]


@pytest.mark.parametrize("delta", [8840, 68640, -420])
def test_merged_even_factors_break_the_two_rank(monkeypatch, delta):
    # Folding the least even factor into the largest (2x2x2 -> 2x4) keeps
    # the order and the divisor chain, but not the 2-rank 2**(mu-1) fixes.
    real = _ClassData._invariant_factors

    def merged(self, project):
        chain = real(self, project)
        i = next(k for k, d in enumerate(chain) if d % 2 == 0)
        return chain[:i] + chain[i + 1 : -1] + (chain[i] * chain[-1],)

    monkeypatch.setattr(_ClassData, "_invariant_factors", merged)
    builds = (
        forms.narrow_class_group, forms.wide_class_group, genus.one_class_per_genus,
        inspect_report,
    )
    for build in builds:
        with pytest.raises(ArithmeticError, match="2-rank"):
            build(delta)


@pytest.mark.parametrize(
    "items", [range(5, 1000), list(range(3, 700, 7)), np.arange(40, 900, dtype=np.int64)]
)
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_chunks_take_every_item_once(items, jobs):
    chunks = search._chunks(items, jobs)
    assert len(chunks) == 16 * jobs + 1
    assert sorted(x for chunk in chunks for x in chunk) == list(items)


def test_chunks_of_few_items_and_of_none():
    assert [list(c) for c in search._chunks(range(5, 10), 2)] == [[5], [6], [7], [8], [9]]
    assert search._chunks([], 2) == []
    assert search._chunks(range(5, 5), 1) == []


def test_chunks_of_deltas_meet_both_residues():
    # k = 16*jobs + 1 is odd, so each chunk meets every residue mod 4, the
    # discriminants' 0 and 1 among them.
    for jobs in (1, 2, 3):
        for chunk in search._chunks(range(5, 10**4), jobs):
            assert {d % 4 for d in chunk} == {0, 1, 2, 3}, jobs


def test_verify_forks_no_pool_for_one_chunk_or_none(monkeypatch):
    # No fundamental delta0 lies below 19 // 4, and only 5 below 20 // 4.
    opened = []
    monkeypatch.setattr(search, "Pool", lambda *args, **kwargs: opened.append(args))
    assert [search.verify_conductor(m, jobs=3).checked for m in (19, 20)] == [0, 1]
    assert opened == []


def test_verify_cf_and_group_axioms_honour_jobs(capsys):
    for argv, line in (
        (["verify", "cf", "--max-n", "500"], "cf: pass (998 checks)"),
        (["verify", "group-axioms", "--max-delta", "3000"], None),
    ):
        outs = []
        for jobs in ("1", "2", "3"):
            assert cli.main([*argv, "--jobs", jobs]) == 0, argv
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2], argv
        assert line is None or outs[0] == line + "\n"


def test_verify_cf_reports_smallest_failures(monkeypatch, capsys):
    real = cfrac.verify_parametric_cf
    monkeypatch.setattr(
        cfrac, "verify_parametric_cf", lambda param: param.n % 20 != 7 and real(param)
    )
    wrong = [(n, f) for n in range(7, 501, 20) for f in ("plus", "minus")]
    expected = [f"{f}-family expansion mismatch at n={n}" for n, f in wrong[:20]]
    for jobs in (1, 2, 3):
        report = search.verify_cf(500, jobs=jobs)
        assert report.checked == 998
        assert report.failures == expected, jobs
    assert cli.main(["verify", "cf", "--max-n", "500", "--jobs", "2"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "cf: FAIL (998 checks)"
    assert out[1:] == [f"  counterexample: {e}" for e in expected]


def test_verify_group_axioms_reports_smallest_failures(monkeypatch, capsys):
    # Composing with the identity goes wrong at 25 small delta with h+ >= 2.
    bad = [d for d in range(5, 2001) if is_discriminant(d) and _ClassData(d).h_plus > 1][:25]
    real = _ClassData.compose_ids

    def corrupt(self, i, j):
        if self.delta in bad and i == self.principal != j:
            return i
        return real(self, i, j)

    monkeypatch.setattr(_ClassData, "compose_ids", corrupt)
    # Which law fails first, and after how many checks, depends on the
    # class triples drawn; they depend on delta only, not on the chunking.
    report = search.verify_group_axioms(10**4)
    assert [m.partition(" fails at delta=")[2] for m in report.failures] == [
        str(d) for d in bad[:20]
    ]
    assert report.checked < 20580
    assert search.verify_group_axioms(10**4, jobs=2) == report
    assert cli.main(["verify", "group-axioms", "--jobs", "2"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"group-axioms: FAIL ({report.checked} checks)"
    assert out[1:] == [f"  counterexample: {e}" for e in report.failures]


def test_verify_group_axioms_checks_each_delta_once(monkeypatch, capsys):
    # Each delta seeds its own class triples, so a repeat would add nothing:
    # the random draws are distinct and lie above the exhaustive range.
    seen = []
    real = search._axioms_chunk

    def spy(deltas):
        seen.extend(deltas)
        return real(deltas)

    monkeypatch.setattr(search, "_axioms_chunk", spy)
    report = search.verify_group_axioms(10**4)
    assert report.passed, report.failures
    assert max(Counter(seen).values()) == 1
    seen.sort()
    small = [d for d in range(5, 2001) if is_discriminant(d)]
    assert seen[: len(small)] == small
    assert all(2000 < d <= 10**4 for d in seen[len(small) :])
    assert report.checked == 21 * len(seen)
    assert cli.main(["verify", "group-axioms", "--max-delta", "5"]) == 0
    assert capsys.readouterr().out == "group-axioms: pass (21 checks)\n"


def test_cli_scan_overflow_exit_code(tmp_path):
    out = tmp_path / "overflow.csv"
    n = 1 << 33  # delta = n^2 + 4 > 2^62
    r = run_cli(
        "scan", "--family", "minus", "--n-min", str(n), "--n-max", str(n + 1),
        "--out", str(out),
    )
    assert r.returncode == 3
    # Each row error is reported once, by the log, and then counted.
    assert sum("row error" in line for line in r.stderr.splitlines()) == 2, r.stderr
    assert "2 row-level errors" in r.stderr


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


def test_cli_stats(capsys):
    # n that give no real discriminant are skipped, so --n-min -5 and 0
    # print the rows of --n-min 1.
    for command in (("hua",), ("bounded", "--delta0-max", "5")):
        for family in ("minus", "both"):
            outs = []
            for n_min in ("-5", "0", "1"):
                argv = ["stats", *command, "--family", family, "--n-min", n_min, "--n-max", "40"]
                assert cli.main(argv) == 0, argv
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] == outs[2], (command, family)
    # Floats print with six decimals, everything else as str.
    for argv, want in (
        (("hua", "--family", "minus", "--n-min", "1", "--n-max", "3"),
         "family,n,delta,h,log_h_over_log_n\nminus,1,5,1,nan\nminus,2,8,1,0.000000\n"
         "minus,3,13,1,0.000000\n# count=3 mean=0.000000 min=0.000000 max=0.000000\n"),
        (("hua", "--family", "plus", "--n-min", "1", "--n-max", "2"),
         "family,n,delta,h,log_h_over_log_n\n# count=0 mean=nan min=nan max=nan\n"),
        (("bounded", "--delta0-max", "5", "--family", "plus", "--n-min", "1", "--n-max", "3"),
         "family,n,delta,delta0,f,h,deviation\nplus,3,5,5,1,1,0.961345\n"
         "# count=1 mean=0.961345 max=0.961345\n"),
    ):
        assert cli.main(["stats", *argv]) == 0, argv
        assert capsys.readouterr().out == want, argv
    r = run_cli("stats", "hua", "--n-min", "3", "--n-max", "30")
    assert r.returncode == 0
    assert "# count=" in r.stdout
    r = run_cli("stats", "bounded", "--delta0-max", "5", "--n-min", "1", "--n-max", "200", "--family", "minus")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if not l.startswith(("#", "family"))]
    assert [int(l.split(",")[1]) for l in lines] == [1, 4, 11, 29, 76, 199]

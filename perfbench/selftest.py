"""Self-test of the benchmark's own arithmetic and checks (a few seconds).

    python3 perfbench/selftest.py

1. Self times on a synthetic span tree are exact, and the layer self
   times add up to the root's duration.
2. The traced run wraps every module binding of a target, including names
   bound with `from ... import`, and the spans of a real call nest.
3. A corrupted output counts as a failure and raises error_ratio.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer as tr
from workloads import (
    ROOT, Invocation, _file_check, check_table1_csv, load_reference,
)


def test_self_time_arithmetic() -> None:
    t = tr.Tracer()
    root = t.record(tr.ROOT_SPAN, -1, 1_000, 2_000)
    a = t.record("forms.build", root, 1_100, 1_400, 77)
    t.record("intarith.factor", a, 1_150, 1_250)
    c = t.record("search.task", root, 1_500, 1_900, 1)
    t.record("forms.build", c, 1_600, 1_650, 77)
    assert t.self_times() == [300, 200, 100, 350, 50], t.self_times()
    got = tr.derive_metrics(t, {"fundamental_unit": (3, 1), "sqrt_mod_prime": 0})
    assert got["wall_ns"] == 1_000 and got["layer_ns_total"] == 1_000
    sec = got["seconds"]
    assert sec["forms.self_s"] == 250e-9 and sec["intarith.self_s"] == 100e-9
    assert sec["search.self_s"] == 350e-9 and sec["trace.root.self_s"] == 300e-9
    m = {k: v for k, (v, _unit) in got["metrics"].items()}
    assert m["forms.self_share"] == 0.25 and m["relations.self_share"] == 0.0
    assert m["forms.build.calls"] == 2 and m["forms.build.unique_ratio"] == 0.5
    assert m["search.tasks"] == 1 and m["search.pruned_ratio"] == 0.0
    assert m["search.rows_per_build"] == 0.5
    assert m["cfrac.fundamental_unit.hit_ratio"] == 0.75


def test_bindings_wrapped() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from ugo import cli, forms, genus, intarith, orders, relations, search  # noqa: F401

    originals = {
        "factor": intarith.factor, "decompose": orders.decompose,
        "class_number": forms.class_number, "spf_table": intarith.spf_table,
        "verify_conductor": search.verify_conductor,
    }
    init = forms._ClassData.__init__
    t = tr.Tracer()
    assert tr.install(t) == []
    for module, name in [(intarith, "factor"), (genus, "factor"), (forms, "factor"),
                         (relations, "factor"), (orders, "decompose"),
                         (search, "decompose"), (relations, "decompose"),
                         (forms, "class_number"), (search, "spf_table"),
                         (forms, "spf_table")]:
        bound = getattr(module, name)
        assert bound.__wrapped__ is originals[name], f"{module.__name__}.{name}"
    assert search._ClassData.__init__.__wrapped__ is init
    assert search.VERIFY_SUITES["conductor"].__wrapped__ is originals["verify_conductor"]
    with t.span(tr.ROOT_SPAN):
        assert relations.verify_conductor_formula(45)
    names = [t.names[i] for i in t.name]
    for want in ("relations.verify_conductor_formula", "relations.class_number_via_conductor",
                 "forms.class_number", "forms.build", "forms.enumerate",
                 "orders.decompose", "intarith.factor", "cfrac.unit_index"):
        assert want in names, want
    h0 = names.index("relations.class_number_via_conductor")
    build = names.index("forms.build", h0)
    assert tr._ancestor(t, build, t.name[h0]) == h0
    got = tr.derive_metrics(t, {"fundamental_unit": (0, 0), "sqrt_mod_prime": 0})
    assert got["layer_ns_total"] == got["wall_ns"]


def test_corrupted_output_counts() -> None:
    ref = load_reference()
    csv = ref["table1-h1"]["csv"]
    assert check_table1_csv(csv, ref) is None
    assert check_table1_csv(csv.replace(",true,true\n", ",true,false\n", 1), ref)
    assert "row set differs" in check_table1_csv(csv.replace("\nplus,21,", "\nplus,22,"), ref)

    # Table 1 ends at n = 21, so a scan to n = 30 writes the pinned CSV.
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
    try:
        out = workdir / "h1.csv"
        argv = ("scan", "--family", "both", "--n-min", "0", "--n-max", "30",
                "--filter", "class-number-one", "--out", str(out))
        good = _file_check(out, check_table1_csv)

        def corrupt_then_check(stdout, ref):
            out.write_text(out.read_text().replace(",437,", ",438,"))
            return good(stdout, ref)

        samples = [run.run_checked(Invocation(argv, 1, check), workdir, ref)
                   for check in (good, corrupt_then_check)]
    finally:
        shutil.rmtree(workdir)
    result = run.summarize(samples, 1, 0.0)
    assert result["failed"] == 1 and run.error_ratio(result) == 0.5, result["errors"]
    assert "row set differs" in result["errors"][0]


def main() -> int:
    for test in (test_self_time_arithmetic, test_bindings_wrapped,
                 test_corrupted_output_counts):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

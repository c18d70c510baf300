"""In-process traced run of one workload, and the span arithmetic behind it.

    python3 perfbench/tracer.py --workload NAME --seed N --workdir DIR \
        --mode traced|plain

Runs the workload's invocations serially (`--jobs 1`) through `ugo.cli.main`
in this fresh interpreter.  In `traced` mode the layer functions listed in
TARGETS are wrapped at every module binding the program calls them through,
so names imported with `from ... import` are covered; methods are wrapped
on their class.  Each call records a span (name, start, end, parent, value)
in memory; they are written to perfbench/out/spans-NAME.csv when the run
has ended.  A target that no longer exists in the program fails the run,
since its metrics would read 0 and look like a gain.  Hot
inner calls (compositions, square roots mod p) are counted from the
program's own memo and cache sizes instead of per-call wrappers.  `plain`
mode runs the same code without wrappers, for the overhead ratio.

The last stdout line is JSON: wall_ns, attempted, failed, errors, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from workloads import OUT_DIR, ROOT, WORKLOADS, load_reference

ROOT_SPAN = "trace.root"
LAYERS = ("cli", "search", "relations", "genus", "forms", "cfrac", "orders", "intarith")


class Tracer:
    """Spans kept in flat arrays; parent -1 marks the root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self.value.append(0)
        self._stack.append(i)
        return i

    def record(self, name, parent, start, end, value=0) -> int:
        """Append a finished span (used for synthetic trees)."""
        i = self._open(name)
        self._stack.pop()
        self.parent[i], self.start[i], self.end[i], self.value[i] = parent, start, end, value
        return i

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        self.start[i] = time.perf_counter_ns()
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` recording a span per call; `after(args, result, before(args))`
        gives the span's value."""
        open_, stack, start, end, value = self._open, self._stack, self.start, self.end, self.value
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(name)
            b = before(args) if before else None
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after:
                value[i] = after(args, result, b)
            return result

        return wrapper

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start_ns,end_ns,value\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.start[i]},{self.end[i]},{self.value[i]}\n")


# -- what is wrapped ----------------------------------------------------------


def _memo_size(cd) -> int:
    return len(getattr(cd, "_compose_memo", ()))


def _memo_growth(args, _result, before):
    return _memo_size(args[0]) - before


def _memo_before(args):
    return _memo_size(args[0])


def _spf_grew():
    last = [0]

    def after(_args, table, _before):
        grew = len(table) > last[0]
        last[0] = max(last[0], len(table))
        return int(grew)

    return after


# (module, attribute or Class.attribute, span name, before, after)
def targets():
    return [
        ("ugo.cli", "main", "cli.main", None, None),
        ("ugo.search", "scan_to_file", "search.writer", None, None),
        ("ugo.search", "evaluate_task", "search.task", None,
         lambda a, r, b: int(type(r).__name__ == "TableRow")),
        ("ugo.search", "_build_row", "search.build_row", None, None),
        ("ugo.search", "TableRow.csv_line", "search.format", None, None),
        ("ugo.search", "TableRow.json_line", "search.format", None, None),
        ("ugo.search", "verify_conductor", "search.verify_conductor", None, None),
        ("ugo.search", "inspect_report", "search.inspect_report", None, None),
        ("ugo.relations", "verify_conductor_formula", "relations.verify_conductor_formula",
         None, None),
        ("ugo.relations", "class_number_via_conductor",
         "relations.class_number_via_conductor", None, None),
        ("ugo.genus", "mu", "genus.mu", None, None),
        ("ugo.genus", "narrow_parity_predicate", "genus.parity", None, None),
        ("ugo.genus", "wide_parity_predicate", "genus.parity", None, None),
        ("ugo.forms", "_ClassData.__init__", "forms.build", None, lambda a, r, b: a[1]),
        ("ugo.forms", "_ClassData._build_real", "forms.cycles", None, None),
        ("ugo.forms", "_ClassData._positive_forms", "forms.enumerate", None,
         lambda a, r, b: len(r[0])),
        ("ugo.forms", "_ClassData.square_ids", "forms.squares", _memo_before, _memo_growth),
        ("ugo.forms", "_ClassData.narrow_divisors", "forms.structure", _memo_before,
         _memo_growth),
        ("ugo.forms", "_ClassData.wide_divisors", "forms.structure", _memo_before,
         _memo_growth),
        ("ugo.forms", "narrow_classes", "forms.narrow_classes", None, None),
        ("ugo.forms", "class_number", "forms.class_number", None, None),
        ("ugo.cfrac", "fundamental_unit", "cfrac.fundamental_unit", None, None),
        ("ugo.cfrac", "unit_index", "cfrac.unit_index", None, None),
        ("ugo.orders", "decompose", "orders.decompose", None, None),
        ("ugo.orders", "classify_unit_generated", "orders.classify_unit_generated",
         None, None),
        ("ugo.orders", "richaud_degert_classify", "orders.richaud_degert_classify",
         None, None),
        ("ugo.intarith", "factor", "intarith.factor", None, None),
        ("ugo.intarith", "primes_up_to", "intarith.primes_up_to", None, None),
        ("ugo.intarith", "spf_table", "intarith.spf_table", None, _spf_grew()),
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target at every binding in the ugo modules, module-level
    dicts (such as search.VERIFY_SUITES) included; returns the targets that
    no longer exist in the program."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "ugo" or n.startswith("ugo.")) and m is not None]
    missing = []
    for module_name, attr, name, before, after in targets():
        owner = sys.modules.get(module_name)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = owner.__dict__.get(method) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(original, name, before, after)
        if cls_name:
            setattr(owner, method, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapped
    return missing


# -- metrics ------------------------------------------------------------------


def _ancestor(tracer: Tracer, i: int, name_id: int | None) -> int:
    """Nearest ancestor of span i with the given name id, or -1."""
    p = tracer.parent[i]
    while p >= 0 and tracer.name[p] != name_id:
        p = tracer.parent[p]
    return p


def derive_metrics(tracer: Tracer, cache_info: dict) -> dict:
    """Per-layer metrics from the spans.  The layer self times plus the
    root's self time add up to the root's duration exactly (integer ns)."""
    own = tracer.self_times()
    names = tracer.names
    ids = {n: k for k, n in enumerate(names)}
    calls = Counter()
    self_ns = Counter()
    layer_ns = Counter()
    values = defaultdict(list)
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_ns[name] += own[i]
        layer_ns[name.split(".")[0]] += own[i]
        values[name].append(tracer.value[i])

    def sec(*span_names):
        return sum(self_ns[n] for n in span_names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    build_id = ids.get("forms.build")
    task_id = ids.get("search.task")
    h0_id = ids.get("relations.class_number_via_conductor")
    structure_id = ids.get("forms.structure")
    built_tasks = set()
    seen, h0_rebuilds = set(), 0
    compositions = 0
    for i, nid in enumerate(tracer.name):
        if nid == build_id:
            if task_id is not None:
                t = _ancestor(tracer, i, task_id)
                if t >= 0:
                    built_tasks.add(t)
            delta = tracer.value[i]
            if delta in seen and h0_id is not None and _ancestor(tracer, i, h0_id) >= 0:
                h0_rebuilds += 1
            seen.add(delta)
        elif nid == structure_id and tracer.name[tracer.parent[i]] != structure_id:
            compositions += tracer.value[i]

    root = tracer.name.index(ids[ROOT_SPAN])
    wall_ns = tracer.end[root] - tracer.start[root]
    forms_made = sum(values["forms.enumerate"])
    builds = calls["forms.build"]
    tasks = calls["search.task"]
    fu = cache_info["fundamental_unit"]
    m = {
        "trace.wall_s": (wall_ns / 1e9, "s"),
        "trace.root.self_s": (layer_ns["trace"] / 1e9, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_ns[layer] / 1e9, "s")
    m.update({
        "forms.enumerate.self_s": (sec("forms.enumerate"), "s"),
        "forms.enumerate.forms": (forms_made, "count"),
        "forms.enumerate.us_per_form": (ratio(sec("forms.enumerate") * 1e6, forms_made), "us"),
        "forms.cycles.self_s": (sec("forms.cycles"), "s"),
        "forms.build.calls": (builds, "count"),
        "forms.build.unique_ratio": (ratio(len(seen), builds), "ratio"),
        "forms.structure.self_s": (sec("forms.structure"), "s"),
        "forms.structure.compositions": (compositions, "count"),
        "forms.squares.self_s": (sec("forms.squares"), "s"),
        "forms.narrow_classes.self_s": (sec("forms.narrow_classes"), "s"),
        "search.inspect_report.self_s": (sec("search.inspect_report"), "s"),
        "genus.parity.calls": (calls["genus.parity"], "count"),
        "genus.parity.self_s": (sec("genus.parity"), "s"),
        "genus.mu.calls": (calls["genus.mu"], "count"),
        "search.tasks": (tasks, "count"),
        "search.pruned_ratio": (ratio(tasks - len(built_tasks), tasks), "ratio"),
        "search.rows_per_build": (ratio(sum(values["search.task"]), builds), "ratio"),
        "relations.conductor.calls": (calls["relations.verify_conductor_formula"], "count"),
        "relations.conductor.self_s": (
            sec("relations.verify_conductor_formula", "relations.class_number_via_conductor"),
            "s"),
        "relations.h0_rebuilds": (h0_rebuilds, "count"),
        "cfrac.fundamental_unit.calls": (calls["cfrac.fundamental_unit"], "count"),
        "cfrac.fundamental_unit.self_s": (sec("cfrac.fundamental_unit"), "s"),
        "cfrac.fundamental_unit.hit_ratio": (ratio(fu[0], fu[0] + fu[1]), "ratio"),
        "cfrac.unit_index.self_s": (sec("cfrac.unit_index"), "s"),
        "intarith.factor.calls": (calls["intarith.factor"], "count"),
        "intarith.factor.self_s": (sec("intarith.factor"), "s"),
        "orders.decompose.calls": (calls["orders.decompose"], "count"),
        "orders.decompose.self_s": (sec("orders.decompose"), "s"),
        "intarith.spf_table.builds": (sum(values["intarith.spf_table"]), "count"),
        "intarith.spf_table.self_s": (sec("intarith.spf_table"), "s"),
        "intarith.sqrt_mod_prime.cache_entries": (cache_info["sqrt_mod_prime"], "count"),
        "search.build_row.self_s": (sec("search.build_row"), "s"),
        "search.format.self_s": (sec("search.format"), "s"),
        "search.writer.self_s": (sec("search.writer"), "s"),
    })
    # A layer a workload never enters has a self time of exactly 0 on every
    # run, so the JSON metrics give each self time as a share of the traced
    # wall time; the seconds are printed beside them.
    seconds = {k: v for k, (v, _unit) in m.items() if k.endswith(".self_s")}
    metrics = {}
    for k, (v, unit) in m.items():
        if k in seconds:
            metrics[k.removesuffix("_s") + "_share"] = (v * 1e9 / wall_ns, "ratio")
        else:
            metrics[k] = (v, unit)
    return {"wall_ns": wall_ns, "layer_ns_total": sum(layer_ns.values()),
            "metrics": metrics, "seconds": seconds}


# -- the child run ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--mode", choices=("traced", "plain"), required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from ugo import cfrac, cli, intarith, relations, search  # noqa: F401  (load all layers)

    workload = WORKLOADS[args.workload]
    invocations = workload.make(args.seed, args.workdir, 1)[: workload.trace_count]
    ref = load_reference()
    unit_cache, sqrt_cache = cfrac.fundamental_unit, intarith.sqrt_mod_prime
    tracer = Tracer()
    missing = install(tracer) if args.mode == "traced" else []
    runs = []
    with tracer.span(ROOT_SPAN):
        for inv in invocations:
            for p in args.workdir.iterdir():
                p.unlink()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(list(inv.argv))
                except SystemExit as exc:
                    code = exc.code
            runs.append((inv, code, buf.getvalue()))
    errors = [f"trace target {m} not found in the program" for m in missing]
    failed = len(missing)
    for inv, code, stdout in runs:
        problem = f"exit {code}" if code != 0 else inv.check(stdout, ref)
        if problem:
            failed += 1
            errors.append(f"{' '.join(inv.argv[:2])}: {problem}")
    cache_info = {
        "fundamental_unit": unit_cache.cache_info(),
        "sqrt_mod_prime": sqrt_cache.cache_info().currsize,
    }
    derived = derive_metrics(tracer, cache_info)
    if derived["layer_ns_total"] != derived["wall_ns"]:
        failed += 1
        errors.append("layer self times do not add up to the traced wall time")
    if args.mode == "traced":
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")
    print(json.dumps({
        "wall_ns": derived["wall_ns"],
        "attempted": len(runs) + len(missing),
        "failed": failed,
        "errors": errors,
        "metrics": derived["metrics"] if args.mode == "traced" else {},
        "seconds": derived["seconds"] if args.mode == "traced" else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

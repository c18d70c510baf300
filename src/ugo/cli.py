"""Command line interface.

Subcommands: scan (tabulate families to CSV/JSONL with checkpointing),
inspect (all invariants of one discriminant), verify (exhaustive and
randomized consistency suites), stats (class-number growth reports).

Exit codes: 0 success, 1 usage error, 2 invalid discriminant, 3 overflow,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import forms, relations, search
from .orders import MINUS, PLUS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_DISCRIMINANT = 2
EXIT_OVERFLOW = 3
EXIT_VERIFY_FAILED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _families(name: str) -> tuple[str, ...]:
    if name == "both":
        return (PLUS, MINUS)
    return (name,)


def build_parser() -> _Parser:
    parser = _Parser(prog="ugo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_scan = sub.add_parser("scan", help="tabulate unit-generated orders")
    p_scan.add_argument(
        "--family", choices=("plus", "minus", "both", "chowla"), default="both"
    )
    p_scan.add_argument("--n-min", type=int, default=0)
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--filter", choices=search.FILTERS, default="all")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--checkpoint", default=None)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_inspect = sub.add_parser("inspect", help="all invariants of one discriminant")
    p_inspect.add_argument("delta", type=int)
    p_inspect.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a consistency suite")
    p_verify.add_argument("suite", choices=sorted(search.VERIFY_SUITES))
    p_verify.add_argument("--max-delta", type=int, default=None)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)

    p_stats = sub.add_parser("stats", help="class-number growth reports")
    stats_sub = p_stats.add_subparsers(dest="stat", required=True, parser_class=_Parser)
    p_hua = stats_sub.add_parser("hua", help="log h / log n trend")
    p_hua.add_argument("--family", choices=("plus", "minus", "both"), default="both")
    p_hua.add_argument("--n-min", type=int, required=True)
    p_hua.add_argument("--n-max", type=int, required=True)
    p_bounded = stats_sub.add_parser(
        "bounded", help="|log h - log n| in bounded-fundamental families"
    )
    p_bounded.add_argument("--family", choices=("plus", "minus", "both"), default="both")
    p_bounded.add_argument("--delta0-max", type=int, required=True)
    p_bounded.add_argument("--n-min", type=int, required=True)
    p_bounded.add_argument("--n-max", type=int, required=True)
    return parser


def _usage_error(command: str, message: object) -> int:
    print(f"ugo {command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_scan(args) -> int:
    try:
        config = search.ScanConfig(
            families=_families(args.family),
            n_min=args.n_min,
            n_max=args.n_max,
            filter=args.filter,
            jobs=args.jobs,
            checkpoint_path=args.checkpoint,
            output=args.out,
            format=args.format,
        )
    except ValueError as exc:
        return _usage_error("scan", exc)
    try:
        result = search.scan_to_file(config)
    except (search.CheckpointError, search.OutputError) as exc:
        # Raised before any row is computed; errors from rows propagate.
        return _usage_error("scan", exc)
    print(f"wrote {result.rows_written} rows to {config.output}")
    if result.errors:
        # Each row error has been logged by search; this is the count.
        print(f"{len(result.errors)} row-level errors", file=sys.stderr)
        return EXIT_OVERFLOW
    return EXIT_OK


def _inspect_head(report: dict) -> list[str]:
    lines = [
        f"delta          {report['delta']}",
        f"delta0         {report['delta0']}",
        f"conductor      {report['f']}",
        f"sign           {report['sign']}",
        f"maximal        {report['maximal']}",
        f"unit-generated {report['unit_generated'] or 'no'}",
        f"h              {report['h']}",
        f"h+             {report['h_plus']}",
        f"Cl             {report['cl']}",
        f"Cl+            {report['cl_plus']}",
        f"mu             {report['mu']}",
        f"genus order    {report['genus_order']}",
        f"one class/genus {report['one_class_per_genus']}",
        f"2-torsion wide {report['two_torsion_wide']}",
        f"RD row         {report['rd_row'] or '-'}",
    ]
    if report["unit"]:
        u = report["unit"]
        lines.append(
            f"fund. unit     ({u['t']} + {u['u']}*sqrt(delta))/2, "
            f"norm {u['norm']}, regulator {u['regulator']}"
        )
        lines.append(f"parity         h+ {report['narrow_parity']}, h {report['wide_parity']}")
    lines.append("classes:")
    return lines


# inspect writes the cycles in runs of about this many forms: one encode and
# one write per run, not per cycle.  An unbuffered stdout (python -u or
# PYTHONUNBUFFERED) makes each write a system call, about 3.5 us, and
# inspect -1000000000003 lists 124,568 one-form cycles; a run stays small
# beside the class data.
_RUN_FORMS = 256


def _runs(classes):
    run, size = [], 0
    for cyc in classes:
        run.append(cyc)
        size += len(cyc)
        if size >= _RUN_FORMS:
            yield run
            run, size = [], 0
    if run:
        yield run


def _write_inspect(report: dict, classes, as_json: bool) -> None:
    # A run of cycles at a time: neither the list of cycles nor the whole
    # output is ever held.  The JSON bytes are those of
    # json.dumps({**report, "classes": [...]}), each BQF an array.
    write = sys.stdout.write
    if as_json:
        write(json.dumps(report)[:-1] + ', "classes": [')
        sep = ""
        for run in _runs(classes):
            write(sep + json.dumps(run)[1:-1])
            sep = ", "
        write("]}\n")
    else:
        write("\n".join(_inspect_head(report)) + "\n")
        for run in _runs(classes):
            write("".join("  " + " -> ".join(str(tuple(f)) for f in cyc) + "\n" for cyc in run))


def _cmd_inspect(args) -> int:
    try:
        report = search.inspect_report(args.delta)
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"invalid discriminant: {exc}", file=sys.stderr)
        return EXIT_BAD_DISCRIMINANT
    # Exact units outgrow the int-to-str digit limit (u has 8,703 digits at
    # delta = 50004529); DELTA itself was parsed under the limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write_inspect(report, forms.iter_narrow_classes(args.delta), args.json)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        return _usage_error("verify", f"--jobs {args.jobs} is below 1")
    # Each suite reads one bound, holds its default and checks its range.
    run = search.VERIFY_SUITES[args.suite]
    bound = args.max_n if args.suite == "cf" else args.max_delta
    try:
        report = run(jobs=args.jobs) if bound is None else run(bound, jobs=args.jobs)
    except search.BoundError as exc:
        return _usage_error("verify", exc)
    status = "pass" if report.passed else "FAIL"
    print(f"{report.suite}: {status} ({report.checked} checks)")
    if not report.passed:
        for failure in report.failures:
            print(f"  counterexample: {failure}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _stat_text(v) -> str:
    return f"{v:.6f}" if isinstance(v, float) else str(v)


def _cmd_stats(args) -> int:
    if args.n_min > args.n_max:
        return _usage_error("stats", f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.stat == "bounded" and args.delta0_max < 5:
        return _usage_error("stats", f"--delta0-max {args.delta0_max} is below 5")
    fams = _families(args.family)
    samples = [
        (f, n) for f in fams for n in range(args.n_min, args.n_max + 1)
        if (search.family_discriminant(f, n) or 0) > 0
    ]
    if args.stat == "hua":
        rows, summary = relations.hua_trend(samples)
        rows = map(vars, rows)
        print("family,n,delta,h,log_h_over_log_n")
    else:
        rows, summary = relations.bounded_family_statistic(args.delta0_max, samples)
        print("family,n,delta,delta0,f,h,deviation")
    for r in rows:
        print(",".join(map(_stat_text, r.values())))
    print("# " + " ".join(f"{k}={_stat_text(v)}" for k, v in summary.items()))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scan":
        code = _cmd_scan(args)
    elif args.command == "inspect":
        code = _cmd_inspect(args)
    elif args.command == "verify":
        code = _cmd_verify(args)
    else:
        code = _cmd_stats(args)
    return code


if __name__ == "__main__":
    sys.exit(main())

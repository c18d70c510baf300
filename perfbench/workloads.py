"""The benchmark's workloads: the `ugo` command lines a seed produces, and
the checks that hold every output against the pinned reference outputs.

Each workload is a list of CLI invocations.  The measured run cycles
through the list, one fresh process per invocation, until its time is up;
the traced run executes the first `trace_count` of them in one process.
Why each workload exists, and which layer metrics it is meant to move, is
recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
# Scratch files of the runs, and the spans of traced runs.
OUT_DIR = HERE / "out"

# Size above which ugo stops pre-building its shared smallest-prime-factor
# table (forms._SPF_CAP); setup builds the table a command uses.
SPF_CAP = 1 << 23

H1_N_MAX = 10_000
CONDUCTOR_MAX_DELTA = 150_000

# scan-all: the seed picks a window of SCAN_ALL_WIDTH consecutive n inside
# the pinned range; the range is narrow so every window costs about the same.
SCAN_ALL_RANGE = (4900, 4999)
SCAN_ALL_WIDTH = 65

# inspect-large: pinned discriminants in [1e8, 5e8] with narrow class number
# 598-816, whose single-query latencies lie within 10% of each other.  The
# seed shuffles them; a run queries them in that order until its time is up.
INSPECT_POOL = (
    100000001, 170302501, 174794837, 284866885, 315204517, 318729605, 399960005,
)
TRACE_INSPECT_QUERIES = 4

# The published class-number-one table (family, n, delta, conductor).
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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Invocation:
    """One `ugo` command line, what it completes, and how to check it."""

    argv: tuple[str, ...]
    items: int
    # (stdout, reference) -> None when correct, else what is wrong
    check: Callable[[str, dict], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    setup_table: int  # spf_table size the command builds; 0 for none
    trace_count: int
    # (seed, workdir, jobs) -> invocations, in the order they are run
    make: Callable[[int, Path, int], list[Invocation]]


# -- checks ------------------------------------------------------------------


def check_table1_csv(text: str, ref: dict) -> str | None:
    if sha256(text) == ref["table1-h1"]["sha256"]:
        return None
    rows = set()
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if len(cells) < 4 or not all(c.lstrip("-").isdigit() for c in cells[1:4]):
            return f"malformed row {line[:80]!r}"
        rows.add((cells[0], int(cells[1]), int(cells[2]), int(cells[3])))
    if rows != TABLE_1:
        return (
            f"Table 1 row set differs: missing {sorted(TABLE_1 - rows)}, "
            f"extra {sorted(rows - TABLE_1)}"
        )
    return "CSV digest differs from the pinned output (row set matches Table 1)"


def check_scan_all_jsonl(text: str, ref: dict, n_min: int, n_max: int) -> str | None:
    expected = [(f, n) for f in ("plus", "minus") for n in range(n_min, n_max + 1)]
    if not text.endswith("\n"):
        return "output does not end with a newline"
    lines = text[:-1].split("\n")
    if len(lines) != len(expected):
        return f"{len(lines)} rows, expected {len(expected)}"
    digests = ref["scan-all"]["rows"]
    for (family, n), line in zip(expected, lines):
        if sha256(line) != digests[f"{family}:{n}"]:
            return f"row ({family}, {n}) differs from the pinned output"
    return None


def check_conductor_stdout(stdout: str, ref: dict) -> str | None:
    want = ref["conductor-sweep"]["stdout"]
    return None if stdout == want else f"stdout {stdout!r}, expected {want!r}"


def check_inspect_stdout(stdout: str, ref: dict, delta: int) -> str | None:
    if sha256(stdout) == ref["inspect-large"][str(delta)]:
        return None
    return f"inspect {delta} JSON differs from the pinned output"


def _file_check(path: Path, check):
    def run(_stdout: str, ref: dict) -> str | None:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            return f"cannot read {path.name}: {exc}"
        return check(text, ref)

    return run


# -- workloads -----------------------------------------------------------------


def _table1_h1(seed: int, workdir: Path, jobs: int) -> list[Invocation]:
    out = workdir / "h1.csv"
    argv = (
        "scan", "--family", "both", "--n-min", "0", "--n-max", str(H1_N_MAX),
        "--filter", "class-number-one", "--jobs", str(jobs), "--out", str(out),
    )
    return [Invocation(argv, 2 * (H1_N_MAX + 1), _file_check(out, check_table1_csv))]


def scan_all_window(seed: int) -> tuple[int, int]:
    lo, hi = SCAN_ALL_RANGE
    start = random.Random(f"scan-all:{seed}").randint(lo, hi - SCAN_ALL_WIDTH + 1)
    return start, start + SCAN_ALL_WIDTH - 1


def _scan_all(seed: int, workdir: Path, jobs: int) -> list[Invocation]:
    n_min, n_max = scan_all_window(seed)
    out = workdir / "all.jsonl"
    argv = (
        "scan", "--family", "both", "--n-min", str(n_min), "--n-max", str(n_max),
        "--filter", "all", "--format", "jsonl", "--checkpoint",
        str(workdir / "all.ckpt"), "--jobs", str(jobs), "--out", str(out),
    )

    def check(text, ref):
        return check_scan_all_jsonl(text, ref, n_min, n_max)

    return [Invocation(argv, 2 * SCAN_ALL_WIDTH, _file_check(out, check))]


def _conductor_sweep(seed: int, workdir: Path, jobs: int) -> list[Invocation]:
    argv = (
        "verify", "conductor", "--max-delta", str(CONDUCTOR_MAX_DELTA),
        "--jobs", str(jobs),
    )
    checks = int(load_reference()["conductor-sweep"]["checks"])
    return [Invocation(argv, checks, check_conductor_stdout)]


def _inspect(delta: int) -> Invocation:
    def check(stdout, ref):
        return check_inspect_stdout(stdout, ref, delta)

    return Invocation(("inspect", str(delta), "--json"), 1, check)


def _inspect_large(seed: int, workdir: Path, jobs: int) -> list[Invocation]:
    pool = list(INSPECT_POOL)
    random.Random(f"inspect-large:{seed}").shuffle(pool)
    return [_inspect(d) for d in pool]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1-h1", 2, SPF_CAP, 1, _table1_h1),
        Workload("scan-all", 2, (SCAN_ALL_RANGE[1] ** 2 + 4) // 4, 1, _scan_all),
        Workload("conductor-sweep", 2, CONDUCTOR_MAX_DELTA // 4, 1, _conductor_sweep),
        Workload("inspect-large", 1, 0, TRACE_INSPECT_QUERIES, _inspect_large),
    )
}

"""Scan harness: tabulate invariants of unit-generated orders in parallel.

Work is partitioned by (family, n), and `orders.family_discriminant` gives
each task its delta or none; each task is pure, so results are
deterministic regardless of worker count.  Every fan-out, scan or verify
suite, goes through one runner, `_run`, which maps in-process for one job
and otherwise feeds a pool lazily, so a scan streams its tasks instead of
listing them.  Tasks run in one fixed order (by family, then n), and a
single writer emits rows in that order and keeps a small human-readable
checkpoint journal: the count of finished tasks whose rows are flushed,
plus the byte offset, rewritten atomically, so interrupted scans resume to
byte-identical output.

Filtered scans of real orders reject most tasks before any form
enumeration.  The class-number-one and two-torsion filters first meet
`forms.class_witness`: a split prime form outside the principal and tau
cycles proves h > 1, and its square outside them proves the group is not
2-torsion.  A witness is a proof, so nothing is sampled or re-checked; only
tasks without one are enumerated, and every emitted row comes from the full
class data.

Scan rows, the 2-torsion filters and `inspect` share one builder,
`_invariants`, fed by the class data, which carries the discriminant record
(`orders.decompose`, which factors delta once), and the fundamental unit;
it checks h+/h against the unit norm and takes both divisor chains from
`_ClassData.checked_chains`, which checks h+ against 2**(mu-1) and the
2-rank of both chains against mu.  The `inspect` report holds only these
invariants; the CLI writes the rho-cycles after it, one at a time from
`forms.iter_narrow_classes`.

The verification suites split their items by one rule, `_chunks`, for the
same runner and one merge; each chunk spans the whole range, so all cost
about the same.  Each suite holds its default bound and raises BoundError
before any check when that bound is out of its range: a max_delta below 5
or a max_n below 1.  The parity, genus and conductor suites read h+, h and
|Cl+[2]| from the range sweep (`sweep.class_numbers`) and build no class
group, so they also refuse a max_delta past `sweep.MAX_DELTA` = 10**7.
The parity and genus suites factor each delta once, for its parity shapes
and for mu and omega.  The conductor suite runs one pass over the
fundamental delta0 <= max_delta/4, found by one sieve over f of the
conductors up to max_delta/4 (5 MB of int16 at 10**7).  Each worker sweeps
h(delta0) for its delta0, predicts h(f**2*delta0) for every f >= 2 in turn
by `relations.predicted_class_number`, so the principal cycle of each
delta0 is walked once, then sweeps those f**2*delta0 and compares.  Each
non-maximal delta is f**2*delta0 for one fundamental delta0 and one f, so
every one is checked once.  The cf suite chunks the n and checks each
family member with a real delta, and the group-axioms suite chunks its
list of distinct sampled delta.
Workers return failures as (delta or n, message), and every suite reports
the 20 smallest in ascending order, whatever the chunking.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
import os
import random
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice
from multiprocessing import Pool
from operator import itemgetter

import numpy as np

from . import __version__, cfrac, forms, genus, relations, sweep
from .forms import _ClassData, _class_data, divisor_chain
from .genus import EVEN, ODD
from .intarith import MAX_INPUT, factor, is_discriminant
# Unused here; perfbench/selftest.py checks that its tracer wraps this binding.
from .intarith import spf_table  # noqa: F401
from .orders import FAMILY_ORDER, MINUS, PLUS, UnitGeneratedParam, classify_unit_generated
from .orders import decompose, family_discriminant

log = logging.getLogger(__name__)

FILTER_ALL = "all"
FILTER_H1 = "class-number-one"
FILTER_TTW = "two-torsion-wide"
FILTER_TTN = "two-torsion-narrow"
FILTER_MAXIMAL = "maximal-only"
FILTERS = (FILTER_ALL, FILTER_H1, FILTER_TTW, FILTER_TTN, FILTER_MAXIMAL)

_CHECKPOINT_EVERY = 256
# verify group-axioms: class triples tried per delta, and the sampling seed.
_AXIOM_TRIALS = 21
_AXIOM_SEED = 1
_MAX_FAILURES = 20


@dataclass(frozen=True)
class ScanConfig:
    families: tuple[str, ...]
    n_min: int
    n_max: int
    filter: str = FILTER_ALL
    jobs: int = 1
    checkpoint_path: str | None = None
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.format not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {self.format!r}")
        for f in self.families:
            if f not in FAMILY_ORDER:
                raise ValueError(f"unknown family {f!r}")
        fams = tuple(sorted(set(self.families), key=lambda f: FAMILY_ORDER[f]))
        object.__setattr__(self, "families", fams)

    def fingerprint(self) -> str:
        # The package version and the row columns are part of the key, so a
        # checkpoint is never resumed by code that writes other rows.
        key = repr(
            (__version__, _ROW_FIELDS, self.families, self.n_min, self.n_max, self.filter, self.format)
        )
        return hashlib.sha256(key.encode()).hexdigest()[:16]


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed by this scan."""


class OutputError(ValueError):
    """An output file that this scan cannot open."""


class BoundError(ValueError):
    """A verify bound past what its suite can run, raised before any check."""


@dataclass(frozen=True)
class TableRow:
    family: str
    n: int
    delta: int
    f: int
    delta0: int
    h: int
    h_plus: int
    cl: tuple[int, ...]
    cl_plus: tuple[int, ...]
    unit_norm: int
    regulator: float
    mu: int
    genus_order: int
    maximal: bool
    rd_row: str | None
    one_class_per_genus: bool
    two_torsion_wide: bool

    def csv_line(self) -> str:
        return ",".join("" if v is None else _text(v) for v in self._values())

    def json_line(self) -> str:
        return "{" + ",".join(
            f'"{k}":{_json(v)}' for k, v in zip(_ROW_FIELDS, self._values())
        ) + "}"

    def _values(self):
        return [getattr(self, k) for k in _ROW_FIELDS]


# The row format, one rule per field type: CSV and JSONL columns follow the
# TableRow fields in order; None is empty in CSV and null in JSON, and text
# and divisor chains are quoted in JSON.
_ROW_FIELDS = tuple(f.name for f in fields(TableRow))
CSV_HEADER = ",".join(_ROW_FIELDS)


def _text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, tuple):
        return divisor_chain(v)
    return str(v)


def _json(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (str, tuple)):
        return f'"{_text(v)}"'
    return _text(v)


@dataclass(frozen=True)
class RowError:
    family: str
    n: int
    delta: int
    message: str


@dataclass
class ScanResult:
    rows_written: int
    errors: list[RowError] = field(default_factory=list)


def _invariants(cd: _ClassData, eps: cfrac.QuadUnit | None) -> dict:
    # The invariants a scan row and an inspect report share, keyed by TableRow
    # field, and every cross-check of the class data; eps is None if delta < 0.
    desc = cd.desc
    delta = desc.delta
    mu = genus._mu(delta, desc.pairs)
    if eps:
        cd.check_unit_norm(eps.norm)
    cl_plus, cl = cd.checked_chains(mu)
    rd = desc.rd_class() if eps else None
    return dict(
        delta=delta,
        f=desc.conductor,
        delta0=desc.delta0,
        h=cd.h,
        h_plus=cd.h_plus,
        cl=cl,
        cl_plus=cl_plus,
        unit_norm=eps.norm if eps else 1,
        regulator=eps.regulator if eps else 0.0,
        mu=mu,
        genus_order=1 << (mu - 1),
        maximal=desc.conductor == 1,
        rd_row=rd.row if rd else None,
        one_class_per_genus=cd.is_two_torsion_narrow(),
        two_torsion_wide=cd.is_two_torsion_wide(),
    )


def _build_row(family: str, n: int, cd: _ClassData) -> TableRow:
    eps = cfrac.fundamental_unit(cd.delta) if cd.delta > 0 else None
    return TableRow(family=family, n=n, **_invariants(cd, eps))


def evaluate_task(family: str, n: int, flt: str):
    """Decide one (family, n): returns a TableRow, a RowError, or None."""
    delta = family_discriminant(family, n)
    if delta is None:
        return None
    if abs(delta) > MAX_INPUT:
        return RowError(family, n, delta, "discriminant exceeds 2**62")
    if flt in (FILTER_H1, FILTER_TTW, FILTER_TTN) and delta > 0:
        if forms.class_witness(delta, square=flt != FILTER_H1, wide=flt != FILTER_TTN):
            return None
    if flt == FILTER_MAXIMAL and decompose(delta).conductor != 1:
        return None
    cd = _ClassData(delta)
    if flt == FILTER_H1 and cd.h != 1:
        return None
    row = _build_row(family, n, cd)
    if flt == FILTER_TTW and not row.two_torsion_wide:
        return None
    if flt == FILTER_TTN and not row.one_class_per_genus:
        return None
    return row


def _task_result(flt: str, task: tuple[str, int]):
    family, n = task
    return family, n, evaluate_task(family, n, flt)


def _run(fn, items, jobs: int, chunksize: int = 1):
    """Yield fn(item) for each item in order: serially when jobs <= 1,
    otherwise from `jobs` forked workers that draw items lazily."""
    if jobs <= 1:
        yield from map(fn, items)
        return
    with Pool(jobs) as pool:
        yield from pool.imap(fn, items, chunksize=chunksize)


def iter_task_results(config: ScanConfig, done: int = 0):
    """Yield (family, n, TableRow | RowError | None) for every task after
    the first `done`, in task order: by family, then by n."""
    tasks = (
        (family, n) for family in config.families for n in range(config.n_min, config.n_max + 1)
    )
    left = len(config.families) * (config.n_max - config.n_min + 1) - done
    # About 8 chunks per worker, so the workers end close together, of at
    # most 1024 tasks: a pool message costs about as much as 10-40 tasks
    # that a witness prunes, so small chunks would cost more to ship than
    # to run.
    chunk = max(1, min(1024, left // (config.jobs * 8)))
    fn = partial(_task_result, config.filter)
    return _run(fn, islice(tasks, done, None), config.jobs, chunk)


def scan(config: ScanConfig) -> list[TableRow]:
    """Run a scan fully in memory: its TableRows only, with each row-level
    error logged and skipped."""
    rows = []
    for _, _, r in iter_task_results(config):
        if isinstance(r, RowError):
            log.error("row error at (%s, %d): %s", r.family, r.n, r.message)
        elif r is not None:
            rows.append(r)
    return rows


def classify_maximal(config: ScanConfig) -> list[TableRow]:
    """Maximal (conductor 1) unit-generated orders with class number one."""
    return [r for r in scan(replace(config, filter=FILTER_H1)) if r.maximal]


# -- checkpointed file output ---------------------------------------------


def _read_journal(path: str) -> dict | None:
    # The journal at path, or None if there is none yet.  Either way the path
    # must take a rewrite, so a bad one fails before any task runs.
    out: dict | None = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                if key == "config":
                    out["config"] = value
                elif key in ("tasks", "bytes", "rows"):
                    if not value.isdecimal():
                        raise CheckpointError(f"checkpoint line {line!r} is not a count; remove it")
                    out[key] = int(value)
    except FileNotFoundError:
        out = None
    except UnicodeDecodeError:
        raise CheckpointError(f"checkpoint {path} is not UTF-8 text; remove it") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    try:
        open(path + ".tmp", "w").close()
        os.remove(path + ".tmp")
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc.strerror}") from exc
    if out is not None and not {"tasks", "bytes", "rows"} <= out.keys():
        raise CheckpointError("checkpoint lacks its tasks, bytes or rows line; remove it")
    return out


def _write_journal(path: str, config: ScanConfig, tasks: int, nbytes: int, rows: int):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("# ugo scan checkpoint\n")
        fh.write(f"config={config.fingerprint()}\n")
        fh.write(f"tasks={tasks}\n")
        fh.write(f"bytes={nbytes}\n")
        fh.write(f"rows={rows}\n")
    os.replace(tmp, path)


def scan_to_file(config: ScanConfig) -> ScanResult:
    """Scan and write delimited output, checkpointing as it goes."""
    if not config.output:
        raise ValueError("scan_to_file requires an output path")
    ckpt = config.checkpoint_path
    if ckpt and os.path.realpath(config.output) in map(os.path.realpath, (ckpt, ckpt + ".tmp")):
        # The journal's rewrite would replace the rows.
        raise CheckpointError(f"checkpoint {ckpt} or its .tmp is the output file; use another path")
    journal = _read_journal(ckpt) if ckpt else None
    if journal is not None and journal.get("config") != config.fingerprint():
        raise CheckpointError(
            "checkpoint does not match this scan configuration; "
            "remove it or change --checkpoint"
        )
    resuming = journal is not None and os.path.exists(config.output)
    done, resume_bytes, rows_written = (
        (journal["tasks"], journal["bytes"], journal["rows"]) if resuming else (0, 0, 0)
    )
    if resuming and os.path.getsize(config.output) < resume_bytes:
        raise CheckpointError("checkpoint is ahead of the output file; remove both")
    try:
        out = open(config.output, "r+" if resuming else "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError(f"cannot open {config.output}: {exc.strerror}") from exc
    result = ScanResult(rows_written=rows_written)
    fmt = TableRow.csv_line if config.format == "csv" else TableRow.json_line

    def checkpoint():
        out.flush()
        os.fsync(out.fileno())
        _write_journal(ckpt, config, done, out.tell(), result.rows_written)

    try:
        if resuming:
            out.truncate(resume_bytes)
            out.seek(resume_bytes)
        elif config.format == "csv":
            out.write(CSV_HEADER + "\n")
        # Tasks run in one fixed order, so a count of finished tasks is the
        # whole resume point.
        for _, _, r in iter_task_results(config, done):
            done += 1
            if isinstance(r, RowError):
                log.error("row error at (%s, %d): %s", r.family, r.n, r.message)
                result.errors.append(r)
            elif r is not None:
                out.write(fmt(r) + "\n")
                result.rows_written += 1
            if done % _CHECKPOINT_EVERY == 0 and ckpt:
                checkpoint()
        if ckpt:
            checkpoint()
    finally:
        out.close()
    return result


# -- verification suites ----------------------------------------------------


@dataclass
class VerifyReport:
    suite: str
    checked: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _smallest_failures(failures):
    # (delta, message) pairs: the _MAX_FAILURES smallest delta, in ascending
    # order; messages at one delta keep the order they were found in.
    return heapq.nsmallest(_MAX_FAILURES, failures, key=itemgetter(0))


def _parity_chunk(candidates: range):
    deltas = list(filter(is_discriminant, candidates))
    h_plus, h, _ = sweep.class_numbers(deltas)
    failures = []
    for delta, hp, hw in zip(deltas, h_plus.tolist(), h.tolist()):
        narrow_odd, wide_odd = genus._odd_parities(delta, factor(delta))
        if (hp % 2 == 1) != narrow_odd:
            failures.append((delta, f"narrow parity wrong at delta={delta} (h+={hp})"))
        if (hw % 2 == 1) != wide_odd:
            failures.append((delta, f"wide parity wrong at delta={delta} (h={hw})"))
        norm = cfrac.unit_norm(delta)
        if not forms.unit_norm_agrees(hp, hw, norm):
            failures.append((delta, f"h+/h ratio disagrees with unit norm at delta={delta}"))
        if narrow_odd and norm != -1:
            failures.append((delta, f"narrow-odd discriminant {delta} has norm +1 unit"))
    return len(deltas), _smallest_failures(failures)


def _genus_chunk(candidates: range):
    deltas = list(filter(is_discriminant, candidates))
    two_torsion = sweep.class_numbers(deltas)[2]
    failures = []
    for delta, count in zip(deltas, two_torsion.tolist()):
        # |-delta| = |delta|, so the factor pairs serve both signs.
        pairs = factor(delta)
        expected = 1 << (genus._mu(delta, pairs) - 1)
        if count != expected:
            failures.append(
                (delta, f"|Cl+[2]| != 2^(mu-1) at delta={delta}: {count} vs {expected}")
            )
        for d in (delta, -delta):
            if is_discriminant(d) and genus._mu(d, pairs) - 1 > len(pairs):
                failures.append((delta, f"mu-1 > omega at delta={d}"))
    return len(deltas), _smallest_failures(failures)


def _conductor_chunk(max_delta: int, delta0s: np.ndarray):
    # h(delta0) of a chunk of fundamental delta0 from the sweep, the
    # conductor-formula prediction for every f**2 * delta0 <= max_delta with
    # f >= 2, and the sweep of those delta to compare.  The f of one delta0
    # follow one another, so its principal cycle is walked once.
    deltas = []
    predicted = []
    for delta0, h0 in zip(delta0s.tolist(), sweep.class_numbers(delta0s)[1].tolist()):
        for f in range(2, math.isqrt(max_delta // delta0) + 1):
            deltas.append(f * f * delta0)
            predicted.append(relations.predicted_class_number(delta0, f, h0))
    order = np.argsort(deltas)
    deltas = np.array(deltas, dtype=np.int64)[order]
    wrong = deltas[sweep.class_numbers(deltas)[1] != np.array(predicted)[order]]
    failures = [(delta, f"conductor formula mismatch at delta={delta}") for delta in wrong.tolist()]
    return len(deltas), _smallest_failures(failures)


def _cf_chunk(ns: range):
    checked = 0
    failures = []
    for n in ns:
        for family in (PLUS, MINUS):
            if (family_discriminant(family, n) or 0) <= 0:
                continue  # no real delta
            checked += 1
            if not cfrac.verify_parametric_cf(UnitGeneratedParam(family, n)):
                failures.append((n, f"{family}-family expansion mismatch at n={n}"))
    return checked, _smallest_failures(failures)


def _axioms_chunk(deltas: list[int]):
    # Each delta draws its class triples from its own seeded generator, so
    # the checks do not depend on how the deltas are chunked.
    checked = 0
    failures = []
    for delta in deltas:
        cd = _ClassData(delta)
        rng = random.Random(f"{_AXIOM_SEED}:{delta}")
        ident = cd.principal
        ids = range(cd.h_plus)
        for _ in range(_AXIOM_TRIALS):
            i = rng.choice(ids)
            j = rng.choice(ids)
            k = rng.choice(ids)
            checked += 1
            a, b, c = cd.rep(i)
            ij = cd.compose_ids(i, j)
            if cd.compose_ids(ident, i) != i:
                law = "identity law"
            elif cd.compose_ids(i, cd.orbit_of(forms.BQF(a, -b, c))) != ident:
                law = "inverse law"
            elif ij != cd.compose_ids(j, i):
                law = "commutativity"
            elif cd.compose_ids(ij, k) != cd.compose_ids(i, cd.compose_ids(j, k)):
                law = "associativity"
            else:
                continue
            failures.append((delta, f"{law} fails at delta={delta}"))
            break
    return checked, _smallest_failures(failures)


def _chunks(items, jobs: int) -> list:
    # k = 16*jobs + 1 chunks, chunk i taking every k-th item from item i on:
    # all span the whole range, so they cost about the same whatever one item
    # costs, and k is odd, so a chunk of range(5, N + 1) meets delta = 0 and
    # 1 (mod 4) alike.  A sliced range pickles in O(1).
    k = 16 * max(jobs, 1) + 1
    return [items[i::k] for i in range(min(k, len(items)))]


def _conductors(max_delta: int) -> np.ndarray:
    # The conductor of every discriminant delta <= max_delta, 0 at the other
    # integers: the largest f with f*f | delta and delta/f**2 = 0, 1 (mod 4),
    # so one sieve over f in ascending order sets it without factoring.
    cond = np.zeros(max_delta + 1, dtype=np.int16)
    cond[0::4] = cond[1::4] = 1
    for f in range(2, math.isqrt(max_delta // 5) + 1):
        ff = f * f
        cond[5 * ff :: 4 * ff] = cond[8 * ff :: 4 * ff] = f
    cond[np.arange(math.isqrt(max_delta) + 1) ** 2] = 0
    return cond


def _verify(suite: str, worker, items, jobs: int) -> VerifyReport:
    # One chunk per dispatch (the default chunksize of _run): the chunks
    # cost about the same, so the workers finish within one chunk of each
    # other.  No more workers than chunks, so one chunk or none forks none.
    chunks = _chunks(items, jobs)
    results = list(_run(worker, chunks, min(jobs, len(chunks))))
    failures = _smallest_failures(f for r in results for f in r[1])
    return VerifyReport(suite, sum(r[0] for r in results), [m for _, m in failures])


def _check_delta_bound(max_delta: int, limit: int | None = None) -> None:
    if max_delta < 5:
        raise BoundError(f"max_delta {max_delta} is below 5, the smallest real discriminant")
    if limit is not None and max_delta > limit:
        raise BoundError(f"max_delta {max_delta} exceeds {limit}, the sweep limit")


def verify_parity(max_delta: int = 10**5, jobs: int = 1) -> VerifyReport:
    """Predicates vs swept parities for all 0 < delta <= max_delta."""
    _check_delta_bound(max_delta, sweep.MAX_DELTA)
    return _verify("parity", _parity_chunk, range(5, max_delta + 1), jobs)


def verify_genus(max_delta: int = 10**5, jobs: int = 1) -> VerifyReport:
    """2**(mu-1) = |Cl+[2]| from the sweep, and mu - 1 <= omega, for all
    0 < delta <= max_delta."""
    _check_delta_bound(max_delta, sweep.MAX_DELTA)
    return _verify("genus", _genus_chunk, range(5, max_delta + 1), jobs)


def verify_conductor(max_delta: int = 10**6, jobs: int = 1) -> VerifyReport:
    """Conductor-formula prediction vs the sweep for all non-maximal orders
    with delta <= max_delta.  Each non-maximal delta is f**2*delta0 for one
    fundamental delta0 <= max_delta/4 and one f >= 2, so one pass over those
    delta0 predicts, sweeps and compares every one of them."""
    _check_delta_bound(max_delta, sweep.MAX_DELTA)
    # The squares 0, 1 and 4 have conductor 0, so every delta0 is >= 5.
    delta0s = np.flatnonzero(_conductors(max_delta // 4) == 1)
    worker = partial(_conductor_chunk, max_delta)
    return _verify("conductor", worker, delta0s, jobs)


def verify_cf(max_n: int = 500, jobs: int = 1) -> VerifyReport:
    """Parametric continued fraction forms for both families up to max_n;
    failures are keyed by n."""
    if max_n < 1:
        raise BoundError(f"max_n {max_n} is below 1")
    return _verify("cf", _cf_chunk, range(1, max_n + 1), jobs)


def verify_group_axioms(max_delta: int = 10**4, jobs: int = 1) -> VerifyReport:
    """Identity, inverses, commutativity, associativity on sampled classes
    of every delta <= 2000 and of 60 distinct random integers in
    (2000, max_delta] that are discriminants."""
    _check_delta_bound(max_delta)
    rng = random.Random(_AXIOM_SEED)
    draws = rng.sample(range(2001, max_delta + 1), min(60, max(max_delta - 2000, 0)))
    small = range(5, min(max_delta, 2000) + 1)
    deltas = list(filter(is_discriminant, [*small, *draws]))
    return _verify("group-axioms", _axioms_chunk, deltas, jobs)


VERIFY_SUITES = {
    "parity": verify_parity,
    "genus": verify_genus,
    "conductor": verify_conductor,
    "cf": verify_cf,
    "group-axioms": verify_group_axioms,
}


def inspect_report(delta: int) -> dict:
    """Every invariant of a single discriminant, as a plain dict.

    The rho-cycles are not in it: `forms.iter_narrow_classes` yields them one
    at a time, so `ugo inspect` writes them out without holding the list."""
    if abs(delta) > MAX_INPUT:
        raise OverflowError(f"|delta| = {abs(delta)} exceeds 2**62")
    cd = _class_data(delta)
    desc = cd.desc
    eps = cfrac.fundamental_unit(delta) if delta > 0 else None
    inv = _invariants(cd, eps)
    params = classify_unit_generated(delta)
    report = {
        "delta": delta,
        "delta0": desc.delta0,
        "f": desc.conductor,
        "sign": desc.sign,
        "unit_generated": [{"family": p.family, "n": p.n} for p in params],
        "maximal": inv["maximal"],
        "h": inv["h"],
        "h_plus": inv["h_plus"],
        "cl": divisor_chain(inv["cl"]),
        "cl_plus": divisor_chain(inv["cl_plus"]),
        "mu": inv["mu"],
        "genus_order": inv["genus_order"],
        "one_class_per_genus": inv["one_class_per_genus"],
        "two_torsion_wide": inv["two_torsion_wide"],
    }
    if eps:
        report["unit"] = {
            "t": eps.t,
            "u": eps.u,
            "norm": eps.norm,
            "regulator": float(f"{eps.regulator:.12g}"),
        }
        narrow_odd, wide_odd = genus._odd_parities(delta, desc.pairs)
        report["narrow_parity"] = ODD if narrow_odd else EVEN
        report["wide_parity"] = ODD if wide_odd else EVEN
    else:
        report["unit"] = None
    report["rd_row"] = inv["rd_row"]
    return report

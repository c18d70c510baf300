"""Scan harness: tabulate invariants of unit-generated orders in parallel.

Work is partitioned by (family, n); each task is pure, so results are
deterministic regardless of worker count.  A single writer emits rows in
task order and maintains a small human-readable checkpoint journal (per
family, the largest n whose prefix is fully flushed, plus the byte offset),
rewritten atomically, so interrupted scans resume to byte-identical output.

Filtered scans of real orders reject most tasks before any form
enumeration.  The class-number-one and two-torsion filters first meet
`forms.class_witness`: a split prime form outside the principal and tau
cycles proves h > 1, and its square outside them proves the group is not
2-torsion.  A witness is a proof, so nothing is sampled or re-checked; only
tasks without one are enumerated, and every emitted row comes from the full
class data.

The verification suites split their range into chunks for one shared pool
and merge path.  The parity and genus suites take equal ranges of delta.
The conductor suite walks fundamental delta0 and then every conductor f >= 2,
so each h(delta0) is built once, in chunks of equal steps of sqrt(delta0).
Workers return failures as (delta, message), and every suite reports the 20
smallest failing delta in ascending order, whatever the chunking.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
import os
import random
from dataclasses import dataclass, field, replace
from multiprocessing import Pool
from operator import itemgetter

from . import cfrac, forms, genus, relations
from .forms import _ClassData, _class_data
from .genus import ODD
from .intarith import MAX_INPUT, omega, spf_table
from .orders import (
    MINUS,
    PLUS,
    UnitGeneratedParam,
    decompose,
    classify_unit_generated,
    is_discriminant,
    is_fundamental_discriminant,
    richaud_degert_classify,
)

log = logging.getLogger(__name__)

CHOWLA = "chowla"
FAMILY_ORDER = {PLUS: 0, MINUS: 1, CHOWLA: 2}

FILTER_ALL = "all"
FILTER_H1 = "class-number-one"
FILTER_TTW = "two-torsion-wide"
FILTER_TTN = "two-torsion-narrow"
FILTER_MAXIMAL = "maximal-only"
FILTERS = (FILTER_ALL, FILTER_H1, FILTER_TTW, FILTER_TTN, FILTER_MAXIMAL)

CSV_HEADER = (
    "family,n,delta,f,delta0,h,h_plus,cl,cl_plus,unit_norm,regulator,"
    "mu,genus_order,maximal,rd_row,one_class_per_genus,two_torsion_wide"
)

_CHECKPOINT_EVERY = 256
_MAX_FAILURES = 20
_PREBUILT_MAX = 1 << 23


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
        key = repr((self.families, self.n_min, self.n_max, self.filter, self.format))
        return hashlib.sha256(key.encode()).hexdigest()[:16]


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed by this scan."""


class OutputError(ValueError):
    """An output file that this scan cannot open."""


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
        return (
            f"{self.family},{self.n},{self.delta},{self.f},{self.delta0},"
            f"{self.h},{self.h_plus},{_chain(self.cl)},{_chain(self.cl_plus)},"
            f"{self.unit_norm},{self.regulator:.12g},{self.mu},{self.genus_order},"
            f"{_b(self.maximal)},{self.rd_row or ''},"
            f"{_b(self.one_class_per_genus)},{_b(self.two_torsion_wide)}"
        )

    def json_line(self) -> str:
        rd = f'"{self.rd_row}"' if self.rd_row else "null"
        return (
            f'{{"family":"{self.family}","n":{self.n},"delta":{self.delta},'
            f'"f":{self.f},"delta0":{self.delta0},"h":{self.h},"h_plus":{self.h_plus},'
            f'"cl":"{_chain(self.cl)}","cl_plus":"{_chain(self.cl_plus)}",'
            f'"unit_norm":{self.unit_norm},"regulator":{self.regulator:.12g},'
            f'"mu":{self.mu},"genus_order":{self.genus_order},'
            f'"maximal":{_b(self.maximal)},"rd_row":{rd},'
            f'"one_class_per_genus":{_b(self.one_class_per_genus)},'
            f'"two_torsion_wide":{_b(self.two_torsion_wide)}}}'
        )


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


def _chain(divisors: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in divisors) if divisors else "1"


def _b(x: bool) -> str:
    return "true" if x else "false"


def family_discriminant(family: str, n: int) -> int | None:
    """The discriminant scanned at (family, n), or None when none exists.

    The chowla family ranges over squarefree 4n**2+1 only.
    """
    if family in (PLUS, MINUS):
        try:
            return UnitGeneratedParam(family, n).delta
        except ValueError:  # n = 2 (plus) or n < 1 (minus)
            return None
    if family != CHOWLA:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        return None
    delta = 4 * n * n + 1
    if delta > MAX_INPUT:
        return delta  # range error reported downstream
    return delta if decompose(delta).conductor == 1 else None


def _build_row(family: str, n: int, delta: int, cd: _ClassData) -> TableRow:
    desc = decompose(delta)
    mu_val = genus.mu(delta)
    if delta > 0:
        eps = cfrac.fundamental_unit(delta)
        unit_norm, reg = eps.norm, eps.regulator
        if (cd.h_plus == cd.h) != (unit_norm == -1):
            raise ArithmeticError(
                f"narrow/wide ratio disagrees with unit norm at delta={delta}"
            )
        rd = richaud_degert_classify(desc.delta0)
        rd_row = rd.row if rd else None
    else:
        unit_norm, reg, rd_row = 1, 0.0, None
    ocpg = cd.is_two_torsion_narrow()
    if ocpg != (cd.h_plus == (1 << (mu_val - 1))):
        raise ArithmeticError(f"genus order inconsistency at delta={delta}")
    return TableRow(
        family=family,
        n=n,
        delta=delta,
        f=desc.conductor,
        delta0=desc.delta0,
        h=cd.h,
        h_plus=cd.h_plus,
        cl=cd.wide_divisors(),
        cl_plus=cd.narrow_divisors(),
        unit_norm=unit_norm,
        regulator=reg,
        mu=mu_val,
        genus_order=1 << (mu_val - 1),
        maximal=desc.conductor == 1,
        rd_row=rd_row,
        one_class_per_genus=ocpg,
        two_torsion_wide=cd.is_two_torsion_wide(),
    )


def evaluate_task(family: str, n: int, flt: str):
    """Decide one (family, n): returns a TableRow, a RowError, or None."""
    delta = family_discriminant(family, n)
    if delta is None:
        return None
    if abs(delta) > MAX_INPUT:
        return RowError(family, n, delta, "discriminant exceeds 2**62")
    if flt == FILTER_MAXIMAL and decompose(delta).conductor != 1:
        return None
    if flt in (FILTER_H1, FILTER_TTW, FILTER_TTN) and delta > 0:
        if forms.class_witness(delta, square=flt != FILTER_H1, wide=flt != FILTER_TTN):
            return None
    cd = _ClassData(delta)
    if flt == FILTER_H1:
        return _build_row(family, n, delta, cd) if cd.h == 1 else None
    if flt == FILTER_TTW:
        if cd.h_plus > (2 << genus.mu(delta)) or not cd.is_two_torsion_wide():
            return None
    if flt == FILTER_TTN:
        if cd.h_plus != (1 << (genus.mu(delta) - 1)) or not cd.is_two_torsion_narrow():
            return None
    return _build_row(family, n, delta, cd)


_WORKER_FILTER = FILTER_ALL


def _init_worker(flt: str):
    global _WORKER_FILTER
    _WORKER_FILTER = flt


def _worker(task: tuple[str, int]):
    family, n = task
    return family, n, evaluate_task(family, n, _WORKER_FILTER)


def _tasks(config: ScanConfig, done: dict[str, int] | None = None):
    for family in config.families:
        start = config.n_min
        if done and family in done:
            start = max(start, done[family] + 1)
        for n in range(start, config.n_max + 1):
            yield (family, n)


def _prepare_tables(max_delta: int) -> None:
    # Pre-build the smallest-prime-factor table that form enumeration reads
    # (it covers outer coefficients up to sqrt(delta)/2) once: forked workers
    # inherit it, and a serial run does not grow it by repeated rebuilds.
    # The up-front build stops at _PREBUILT_MAX entries (32 MB): a scan whose
    # top delta lies past 2**62, or past what enumeration can finish, must
    # not allocate gigabytes before its first row.
    spf_table(min(max(math.isqrt(max_delta) // 2, 1), _PREBUILT_MAX))


def iter_task_results(config: ScanConfig, done: dict[str, int] | None = None):
    """Yield (family, n, TableRow | RowError | None) in deterministic order."""
    tasks = list(_tasks(config, done))
    nn = config.n_max * config.n_max
    _prepare_tables(4 * nn + 1 if CHOWLA in config.families else nn + 4)
    if config.jobs == 1:
        for family, n in tasks:
            yield family, n, evaluate_task(family, n, config.filter)
        return
    chunk = max(1, min(64, len(tasks) // (config.jobs * 8) or 1))
    with Pool(config.jobs, initializer=_init_worker, initargs=(config.filter,)) as pool:
        yield from pool.imap(_worker, tasks, chunksize=chunk)


def iter_rows(config: ScanConfig):
    """Yield TableRows only; row-level errors are logged and skipped."""
    for _, _, r in iter_task_results(config):
        if r is None:
            continue
        if isinstance(r, RowError):
            log.error("row error at (%s, %d): %s", r.family, r.n, r.message)
            continue
        yield r


def scan(config: ScanConfig) -> list[TableRow]:
    """Run a scan fully in memory."""
    return list(iter_rows(config))


def classify_maximal(config: ScanConfig) -> list[TableRow]:
    """Maximal (conductor 1) unit-generated orders with class number one."""
    cfg = replace(config, filter=FILTER_H1)
    return [r for r in iter_rows(cfg) if r.maximal]


# -- checkpointed file output ---------------------------------------------


def _read_journal(path: str) -> dict:
    out: dict = {"done": {}}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if key == "config":
                out["config"] = value
            elif key == "bytes":
                out["bytes"] = int(value)
            elif key == "rows":
                out["rows"] = int(value)
            elif key.startswith("done_"):
                out["done"][key[5:]] = int(value)
    return out


def _write_journal(path: str, config: ScanConfig, done: dict, nbytes: int, rows: int):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("# ugo scan checkpoint\n")
        fh.write(f"config={config.fingerprint()}\n")
        fh.write(f"bytes={nbytes}\n")
        fh.write(f"rows={rows}\n")
        for family in config.families:
            if family in done:
                fh.write(f"done_{family}={done[family]}\n")
    os.replace(tmp, path)


def scan_to_file(config: ScanConfig) -> ScanResult:
    """Scan and write delimited output, checkpointing as it goes."""
    if not config.output:
        raise ValueError("scan_to_file requires an output path")
    done: dict[str, int] = {}
    rows_written = 0
    resume_bytes = None
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        journal = _read_journal(config.checkpoint_path)
        if journal.get("config") != config.fingerprint():
            raise CheckpointError(
                "checkpoint does not match this scan configuration; "
                "remove it or change --checkpoint"
            )
        done = dict(journal["done"])
        resume_bytes = journal["bytes"]
        rows_written = journal.get("rows", 0)

    resuming = resume_bytes is not None and os.path.exists(config.output)
    if not resuming:
        done, rows_written = {}, 0
    elif os.path.getsize(config.output) < resume_bytes:
        raise CheckpointError("checkpoint is ahead of the output file; remove both")
    try:
        out = open(config.output, "r+" if resuming else "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError(f"cannot open {config.output}: {exc.strerror}") from exc
    result = ScanResult(rows_written=rows_written)
    fmt = TableRow.csv_line if config.format == "csv" else TableRow.json_line
    pending = 0
    try:
        if resuming:
            out.truncate(resume_bytes)
            out.seek(resume_bytes)
        elif config.format == "csv":
            out.write(CSV_HEADER + "\n")
        last_task: tuple[str, int] | None = None
        for family, n, r in iter_task_results(config, done):
            last_task = (family, n)
            pending += 1
            if isinstance(r, RowError):
                log.error("row error at (%s, %d): %s", r.family, r.n, r.message)
                result.errors.append(r)
            elif r is not None:
                out.write(fmt(r) + "\n")
                result.rows_written += 1
            if pending >= _CHECKPOINT_EVERY and config.checkpoint_path:
                _advance_done(config, done, last_task)
                out.flush()
                os.fsync(out.fileno())
                _write_journal(
                    config.checkpoint_path, config, done, out.tell(), result.rows_written
                )
                pending = 0
        out.flush()
        if config.checkpoint_path:
            for family in config.families:
                done[family] = config.n_max
            os.fsync(out.fileno())
            _write_journal(
                config.checkpoint_path, config, done, out.tell(), result.rows_written
            )
    finally:
        out.close()
    return result


def _advance_done(config: ScanConfig, done: dict, last_task: tuple[str, int] | None):
    if last_task is None:
        return
    family, n = last_task
    for f in config.families:
        if f == family:
            done[f] = n
            break
        done[f] = config.n_max


# -- verification suites ----------------------------------------------------


@dataclass
class VerifyReport:
    suite: str
    checked: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _valid_deltas(lo: int, hi: int):
    for delta in range(lo, hi + 1):
        if delta % 4 in (0, 1) and delta >= 5 and math.isqrt(delta) ** 2 != delta:
            yield delta


def _smallest_failures(failures):
    # (delta, message) pairs: the _MAX_FAILURES smallest delta, in ascending
    # order; messages at one delta keep the order they were found in.
    return heapq.nsmallest(_MAX_FAILURES, failures, key=itemgetter(0))


def _parity_chunk(bounds: tuple[int, int]):
    checked = 0
    failures = []
    for delta in _valid_deltas(*bounds):
        cd = _ClassData(delta)
        checked += 1
        narrow_pred = genus.narrow_parity_predicate(delta)
        wide_pred = genus.wide_parity_predicate(delta)
        if (cd.h_plus % 2 == 1) != (narrow_pred == ODD):
            failures.append((delta, f"narrow parity wrong at delta={delta} (h+={cd.h_plus})"))
        if (cd.h % 2 == 1) != (wide_pred == ODD):
            failures.append((delta, f"wide parity wrong at delta={delta} (h={cd.h})"))
        norm = cfrac.fundamental_unit(delta).norm
        if (cd.h_plus == cd.h) != (norm == -1):
            failures.append((delta, f"h+/h ratio disagrees with unit norm at delta={delta}"))
        if narrow_pred == ODD and norm != -1:
            failures.append((delta, f"narrow-odd discriminant {delta} has norm +1 unit"))
    return checked, _smallest_failures(failures)


def _genus_chunk(bounds: tuple[int, int]):
    checked = 0
    failures = []
    for delta in _valid_deltas(*bounds):
        cd = _ClassData(delta)
        checked += 1
        expected = 1 << (genus.mu(delta) - 1)
        if cd.two_torsion_narrow_count() != expected:
            failures.append(
                (
                    delta,
                    f"|Cl+[2]| != 2^(mu-1) at delta={delta}: "
                    f"{cd.two_torsion_narrow_count()} vs {expected}",
                )
            )
        for d in (delta, -delta):
            if is_discriminant(d) and genus.mu(d) - 1 > omega(abs(d)):
                failures.append((delta, f"mu-1 > omega at delta={d}"))
    return checked, _smallest_failures(failures)


def _conductor_chunk(bounds: tuple[int, int, int]):
    # Every non-maximal delta <= max_delta is f**2 * delta0 for exactly one
    # fundamental delta0 <= max_delta / 4 and conductor f >= 2, so walking
    # delta0 and then f checks the same set as walking delta, building each
    # h(delta0) once instead of once per conductor.
    lo, hi, max_delta = bounds
    checked = 0
    failures = []
    for delta0 in range(lo, hi + 1):
        if not is_fundamental_discriminant(delta0):
            continue
        h0 = _ClassData(delta0).h
        for f in range(2, math.isqrt(max_delta // delta0) + 1):
            delta = f * f * delta0
            checked += 1
            if relations.predicted_class_number(delta0, f, h0) != _ClassData(delta).h:
                failures.append((delta, f"conductor formula mismatch at delta={delta}"))
    return checked, _smallest_failures(failures)


def _delta_chunks(max_delta: int, jobs: int) -> list[tuple[int, int]]:
    step = max(1000, (max_delta - 4) // (max(jobs, 1) * 16) + 1)
    return [(a, min(a + step - 1, max_delta)) for a in range(5, max_delta + 1, step)]


def _delta0_chunks(max_delta: int, jobs: int) -> list[tuple[int, int, int]]:
    # Equal steps of sqrt(delta0): one delta0 costs about sum over f of
    # sqrt(f**2 * delta0), that is max_delta / sqrt(delta0), so each step
    # carries about the same work.  The top steps also build the largest
    # h(delta0) and cost up to twice as much, so the chunks are returned
    # from the top down: a pool ends on its lightest chunks, and the time
    # one worker waits for the other at the end stays short whichever
    # worker draws which chunk.
    top = max_delta // 4
    n = max(jobs, 1) * 16
    edges = sorted({top * k * k // (n * n) for k in range(n + 1)})
    chunks = [(max(a + 1, 5), b, max_delta) for a, b in zip(edges, edges[1:]) if b >= 5]
    return chunks[::-1]


def _run_chunks(worker, chunks: list[tuple], max_delta: int, jobs: int):
    _prepare_tables(max_delta)
    if jobs <= 1:
        results = [worker(c) for c in chunks]
    else:
        with Pool(jobs) as pool:
            # One chunk per dispatch: batching chunks leaves the heaviest
            # batch to run last.
            results = pool.map(worker, chunks, chunksize=1)
    checked = sum(r[0] for r in results)
    failures = _smallest_failures(f for r in results for f in r[1])
    return checked, [message for _, message in failures]


def verify_parity(max_delta: int, jobs: int = 1) -> VerifyReport:
    """Predicates vs enumerated parities for all 0 < delta <= max_delta."""
    checked, failures = _run_chunks(
        _parity_chunk, _delta_chunks(max_delta, jobs), max_delta, jobs
    )
    return VerifyReport("parity", checked, failures)


def verify_genus(max_delta: int, jobs: int = 1) -> VerifyReport:
    """2**(mu-1) = |Cl+[2]| by enumeration, and mu - 1 <= omega."""
    checked, failures = _run_chunks(
        _genus_chunk, _delta_chunks(max_delta, jobs), max_delta, jobs
    )
    return VerifyReport("genus", checked, failures)


def verify_conductor(max_delta: int, jobs: int = 1) -> VerifyReport:
    """Conductor-formula prediction vs enumeration for all non-maximal
    orders with delta <= max_delta, building each h(delta0) once."""
    checked, failures = _run_chunks(
        _conductor_chunk, _delta0_chunks(max_delta, jobs), max_delta, jobs
    )
    return VerifyReport("conductor", checked, failures)


def verify_cf(max_n: int) -> VerifyReport:
    """Parametric continued fraction forms for both families up to max_n."""
    checked = 0
    failures = []
    for n in range(3, max_n + 1):
        checked += 1
        if not cfrac.verify_parametric_cf(UnitGeneratedParam(PLUS, n)):
            failures.append(f"plus-family expansion mismatch at n={n}")
    for n in range(1, max_n + 1):
        checked += 1
        if not cfrac.verify_parametric_cf(UnitGeneratedParam(MINUS, n)):
            failures.append(f"minus-family expansion mismatch at n={n}")
    return VerifyReport("cf", checked, failures[:_MAX_FAILURES])


def verify_group_axioms(max_delta: int, samples: int = 200, seed: int = 1) -> VerifyReport:
    """Identity, inverses, commutativity, associativity on sampled classes."""
    rng = random.Random(seed)
    deltas = [d for d in _valid_deltas(5, min(max_delta, 2000))]
    deltas += [
        d
        for d in (rng.randrange(5, max_delta + 1) for _ in range(60))
        if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d
    ]
    checked = 0
    failures = []
    for delta in deltas:
        cd = _ClassData(delta)
        ident = cd.principal
        ids = list(range(cd.h_plus))
        for _ in range(min(samples // 10 + 1, 30)):
            i = rng.choice(ids)
            j = rng.choice(ids)
            k = rng.choice(ids)
            checked += 1
            if cd.compose_ids(ident, i) != i:
                failures.append(f"identity law fails at delta={delta}")
                break
            a, b, c = cd.pos_rep[i]
            inv = cd.orbit_of(forms.BQF(a, -b, c))
            if cd.compose_ids(i, inv) != ident:
                failures.append(f"inverse law fails at delta={delta}")
                break
            if cd.compose_ids(i, j) != cd.compose_ids(j, i):
                failures.append(f"commutativity fails at delta={delta}")
                break
            if cd.compose_ids(cd.compose_ids(i, j), k) != cd.compose_ids(
                i, cd.compose_ids(j, k)
            ):
                failures.append(f"associativity fails at delta={delta}")
                break
    return VerifyReport("group-axioms", checked, failures[:_MAX_FAILURES])


VERIFY_SUITES = {
    "parity": verify_parity,
    "genus": verify_genus,
    "conductor": verify_conductor,
    "cf": verify_cf,
    "group-axioms": verify_group_axioms,
}


def inspect_report(delta: int) -> dict:
    """Every invariant of a single discriminant, as a plain dict."""
    if abs(delta) > MAX_INPUT:
        raise OverflowError(f"|delta| = {abs(delta)} exceeds 2**62")
    if not is_discriminant(delta):
        raise ValueError(f"{delta} is not a quadratic discriminant")
    desc = decompose(delta)
    cd = _class_data(delta)
    params = classify_unit_generated(delta)
    report = {
        "delta": delta,
        "delta0": desc.delta0,
        "f": desc.conductor,
        "sign": desc.sign,
        "unit_generated": [{"family": p.family, "n": p.n} for p in params],
        "maximal": desc.conductor == 1,
        "h": cd.h,
        "h_plus": cd.h_plus,
        "cl": _chain(cd.wide_divisors()),
        "cl_plus": _chain(cd.narrow_divisors()),
        "mu": genus.mu(delta),
        "genus_order": genus.genus_group_order(delta),
        "one_class_per_genus": cd.is_two_torsion_narrow(),
        "two_torsion_wide": cd.is_two_torsion_wide(),
    }
    if delta > 0:
        eps = cfrac.fundamental_unit(delta)
        report["unit"] = {
            "t": eps.t,
            "u": eps.u,
            "norm": eps.norm,
            "regulator": float(f"{eps.regulator:.12g}"),
        }
        report["narrow_parity"] = genus.narrow_parity_predicate(delta)
        report["wide_parity"] = genus.wide_parity_predicate(delta)
        rd = richaud_degert_classify(desc.delta0)
        report["rd_row"] = rd.row if rd else None
    else:
        report["unit"] = None
        report["rd_row"] = None
    report["classes"] = [
        [list(f) for f in cyc] for cyc in forms.narrow_classes(delta)
    ]
    return report

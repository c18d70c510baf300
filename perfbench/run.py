"""Benchmark for the `ugo` command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/ugo` is put on PYTHONPATH, so
nothing has to be installed.  With `--trace 0` the workload runs as a user
runs it: each invocation is a fresh `python -m ugo.cli` process, and the
end-to-end metrics are printed.  With `--trace 1` the workload runs
serially inside one fresh process twice, at the same time, once with
spans around the layer functions and once without; the per-layer metrics
and the tracing overhead are printed.  Every output is checked against
reference.json.  The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from itertools import cycle
from pathlib import Path

from workloads import HERE, OUT_DIR, ROOT, WORKLOADS, load_reference

SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(OUT_DIR)  # keep temporary files inside the checkout
    return env


def start(cmd: list[str], stdout, stderr=None) -> subprocess.Popen:
    # A session of its own, so that kill_tree also reaches pool workers.
    return subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env(),
                            start_new_session=True)


def kill_tree(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_process(cmd: list[str], workdir: Path) -> dict:
    """Run a fresh process; wall time, cpu time and peak RSS of the largest
    process in its tree (pool workers included, via wait4)."""
    stdout_path = workdir / "stdout"
    with open(stdout_path, "w") as out, open(workdir / "stderr", "w") as err:
        t0 = time.perf_counter()
        proc = start(cmd, out, err)
        # a hung invocation is killed and then fails on its exit status
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_tree(proc)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": (workdir / "stderr").read_text(encoding="utf-8", errors="replace"),
    }


def clear(workdir: Path) -> None:
    for p in workdir.iterdir():
        p.unlink()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def conditions(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            got = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            commit = got.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def measure_setup(workload, workdir: Path) -> float:
    code = "import ugo.cli"
    if workload.setup_table:
        code += f"; from ugo.intarith import spf_table; spf_table({workload.setup_table})"
    times = []
    for _ in range(SETUP_REPEATS):
        got = run_process([sys.executable, "-c", code], workdir)
        if got["returncode"] != 0:
            raise RuntimeError(f"setup failed: {got['stderr'][-500:]}")
        times.append(got["wall_s"])
    return statistics.median(times)


def run_checked(inv, workdir: Path, ref: dict) -> dict:
    """Run one invocation in a fresh process and check its output; the
    sample's "error" is None when the output matches the reference."""
    clear(workdir)
    got = run_process([sys.executable, "-m", "ugo.cli", *inv.argv], workdir)
    if got["returncode"] != 0:
        got["error"] = f"exit {got['returncode']}: {got['stderr'][-300:]}"
    else:
        got["error"] = inv.check(got["stdout"], ref)
    got["label"] = " ".join(inv.argv[:2])
    got["items"] = inv.items
    return got


def summarize(samples: list[dict], jobs: int, setup_s: float) -> dict:
    walls = [s["wall_s"] for s in samples]
    errors = [f"{s['label']}: {s['error']}" for s in samples if s["error"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (sum(s["items"] for s in samples) / sum(walls), "1/s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
        "cpu_util": (
            statistics.median(s["cpu_s"] / (jobs * s["wall_s"]) for s in samples), "ratio"),
        "peak_rss_mb": (max(s["rss_mb"] for s in samples), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {"attempted": len(samples), "failed": len(errors), "errors": errors,
            "metrics": metrics}


def error_ratio(result: dict) -> float:
    return result["failed"] / result["attempted"]


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics: fresh CLI processes until `seconds` have passed."""
    ref = load_reference()
    setup_s = measure_setup(workload, workdir)
    samples = []
    t0 = time.perf_counter()
    for inv in cycle(workload.make(seed, workdir, workload.jobs)):
        samples.append(run_checked(inv, workdir, ref))
        elapsed = time.perf_counter() - t0
        # start another invocation only if it is expected to end in time
        if elapsed + statistics.median(s["wall_s"] for s in samples) > seconds:
            break
    clear(workdir)
    return summarize(samples, workload.jobs, setup_s)


def trace(workload, seed: int, workdir: Path) -> dict:
    """Per-layer metrics: one traced and one plain serial in-process run,
    each in a fresh interpreter, started together."""
    procs, timed_out = {}, set()
    try:
        for mode in ("traced", "plain"):
            sub = workdir / mode
            sub.mkdir()
            cmd = [
                sys.executable, str(HERE / "tracer.py"), "--workload", workload.name,
                "--seed", str(seed), "--workdir", str(sub), "--mode", mode,
            ]
            with open(workdir / f"{mode}.out", "w") as log:
                procs[mode] = start(cmd, log)
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        for mode, proc in procs.items():
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                kill_tree(proc)
                timed_out.add(mode)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                kill_tree(proc)
    results = {}
    for mode, proc in procs.items():
        lines = (workdir / f"{mode}.out").read_text(encoding="utf-8").splitlines()
        results[mode] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    errors, attempted, failed = [], 0, 0
    for mode in ("traced", "plain"):
        got = results[mode]
        if got is None:
            attempted += 1
            failed += 1
            errors.append(f"{mode} run killed after {PROCESS_TIMEOUT_S} s" if mode in timed_out
                          else f"{mode} run exited {procs[mode].returncode}")
            continue
        attempted += got["attempted"]
        failed += got["failed"]
        errors += [f"{mode}: {e}" for e in got["errors"]]
    metrics, seconds = {}, {}
    if results["traced"] and results["plain"]:
        metrics = {k: tuple(v) for k, v in results["traced"]["metrics"].items()}
        metrics["trace.overhead_ratio"] = (
            results["traced"]["wall_ns"] / results["plain"]["wall_ns"], "ratio")
        seconds = {k: (v, "s") for k, v in results["traced"]["seconds"].items()}
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "printed": seconds}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        load_before = os.getloadavg()
        result = trace(workload, seed, workdir) if traced else measure(
            workload, seed, seconds, workdir)
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["load_before"] = [round(x, 2) for x in load_before]
    result["load_after"] = [round(x, 2) for x in load_after]
    result["loaded"] = load_before[0] > nproc()
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}: load {result['load_before']} -> {result['load_after']}"
          + ("  (started with load above nproc)" if result["loaded"] else ""))
    for err in result["errors"]:
        print(f"FAILED {err}")
    for metric, (value, unit) in {**result["metrics"], **result.get("printed", {})}.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    print(f"{name} error_ratio {error_ratio(result):.6g} ratio "
          f"({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that running children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "ugo" / "cli.py").is_file():
        print(f"no ugo sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# conditions " + json.dumps(conditions(args.seed)), flush=True)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
        sys.stdout.flush()
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

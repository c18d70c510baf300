"""Pin reference outputs from the code in this checkout.

    python3 perfbench/pin.py

Writes perfbench/reference.json, which every benchmark run checks its
outputs against.  Run it only on code whose outputs are known good; the
pinned files in the repository come from the first benchmarked version.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from run import child_env
from workloads import (
    INSPECT_POOL, OUT_DIR, REFERENCE_PATH, ROOT, SCAN_ALL_RANGE, WORKLOADS, sha256,
)


def ugo(*argv: str) -> str:
    got = subprocess.run([sys.executable, "-m", "ugo.cli", *argv], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, check=True)
    return got.stdout


def main() -> int:
    ref: dict = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ugo(*WORKLOADS["table1-h1"].make(0, Path(tmp), 2)[0].argv)
        csv = (Path(tmp) / "h1.csv").read_text(encoding="utf-8")
        ref["table1-h1"] = {"sha256": sha256(csv), "csv": csv}

        # the whole range, so that every window a seed picks is pinned
        out = Path(tmp) / "all.jsonl"
        lo, hi = SCAN_ALL_RANGE
        ugo("scan", "--family", "both", "--n-min", str(lo), "--n-max", str(hi),
            "--filter", "all", "--format", "jsonl", "--jobs", "2", "--out", str(out))
        rows = {}
        for line in out.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            rows[f"{row['family']}:{row['n']}"] = sha256(line)
        ref["scan-all"] = {"n_min": lo, "n_max": hi, "rows": rows}

        stdout = ugo(*WORKLOADS["conductor-sweep"].make(0, Path(tmp), 2)[0].argv)
    checks = int(re.fullmatch(r"conductor: pass \((\d+) checks\)\n", stdout).group(1))
    ref["conductor-sweep"] = {"stdout": stdout, "checks": checks}

    ref["inspect-large"] = {str(d): sha256(ugo("inspect", str(d), "--json"))
                            for d in INSPECT_POOL}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

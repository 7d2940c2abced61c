"""Benchmark entry point: one workload, one seed, end-to-end or per-layer.

    python3 bench/run.py --workload capacity --seed 1 --seconds 56 --trace 0

Run from the repository root.  The workload runs in a fresh process
(bench/worker.py), with genmi imported from src/ and BLAS/OpenMP pinned
to one thread; it starts its own set-up-only copies for setup_s.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the same object is kept under bench/out/.  Uses
only the standard library; the worker needs numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("capacity", "evaluate")

#: Wall-clock limit on the worker process.
WORKER_TIMEOUT_S = 150


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "genmi" / "__init__.py").is_file():
        print(f"error: no genmi sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    result = _worker(cmd, env)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in result["errors"]:
        print(f"operation failed: {error}", file=sys.stderr)
    line = json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def _worker(cmd: list[str], env: dict) -> dict:
    """Run one worker to completion and return its JSON line."""
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, run for a fixed time, check, report.

Started by run.py.  While it measures, it also starts copies of itself
with --setup-only, which stop after set-up and print only their set-up
time.  Prints one JSON line.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: OpenBLAS and OpenMP otherwise start one
# thread per core, and the benchmark is one caller on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

import numpy  # noqa: E402,F401

# Set-up time starts here: it covers importing genmi, building the inputs
# and the warm-up.  numpy's own import (~0.1 s of reading files, which no
# change to genmi moves) is left out, being the noisiest part.
T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import genmi  # noqa: E402
import genmi.io  # noqa: E402,F401  (not loaded by the package itself)

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-up-only processes per untraced run, started at even steps of the
#: measured time.  setup_s is the median of their set-ups and the run's own.
SETUP_PROBES = 8


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.BUILDERS[args.workload](genmi, args.seed)
    wl.warm_up()
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t_loop = perf_counter()
    runs, wall, setups = _run(wl, args.seconds, tracer, None if tracer else _probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_check = perf_counter()
    failed, checked = _check(runs)
    print(f"set-up {setup_s:.2f} s, measured {wall:.1f} s, paused {t_check - t_loop - wall:.1f} s, "
          f"checks {perf_counter() - t_check:.1f} s", file=sys.stderr)

    ok_ms = sorted(r["dt"] * 1e3 for r in runs if r["ok"] and not r["traced"])
    result = {
        "correct": not checked,
        "problems": checked[:5],
        "attempted": len(runs),
        "failed": failed,
        "errors": sorted({r["error"] for r in runs if r["error"]}),
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups + [setup_s]), "unit": "s"},
            "ops_per_s": {"value": len(ok_ms) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": _percentile(ok_ms, 50), "unit": "ms"},
            "op_tail_ms": {"value": _percentile(ok_ms, workloads.TAIL_PERCENTILE), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced = [r for r in runs if r["traced"]]
        plain = [r for r in runs if not r["traced"]]
        metrics = tracer.metrics(len(traced))
        overhead = sum(t["dt"] - u["dt"] for t, u in zip(traced, plain)) / len(traced)
        metrics[tracing.OVERHEAD_METRIC] = {"value": overhead * 1e3, "unit": "ms"}
        result["metrics"] = metrics
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


def _run(wl, seconds: float, tracer, probe) -> tuple[list[dict], float, list[float]]:
    """Closed loop, one caller: whole rounds, as many as fit in `seconds`.

    A round starts only if it would end within `seconds` at the mean pace
    of the rounds so far (the first always runs, and more run until
    MIN_OPS operations were attempted).  Returns the operation records,
    the loop's measured time and the set-up samples of `probe`.

    Paused time is left out of the measured time: the set-up probes,
    spread over the run between operations, and a full garbage collection
    between rounds, so that garbage left for the cycle collector (the
    oracle leaves ~25 MB a call) piles up over one round at most, however
    many rounds fit in a run.  In a traced run every operation runs twice,
    untraced and then traced, so that the difference gives the tracing
    overhead.
    """
    if tracer is not None:
        tracer.uninstall()
    runs: list[dict] = []
    setups: list[float] = []
    n_probes = SETUP_PROBES if probe is not None else 0
    paused = 0.0
    start = perf_counter()

    def measured() -> float:
        return perf_counter() - start - paused

    def pause(fn):
        nonlocal paused
        t = perf_counter()
        out = fn()
        paused += perf_counter() - t
        return out

    r = 0
    min_runs = workloads.MIN_OPS * (2 if tracer is not None else 1)
    while r == 0 or len(runs) < min_runs or measured() * (r + 1) / r <= seconds:
        for op in wl.round(r):
            for traced in ((False, True) if tracer is not None else (False,)):
                if traced:
                    tracer.op = len(runs)
                    tracer.install()
                error = None
                out = None
                t = perf_counter()
                try:
                    out = op.run()
                except genmi.GenmiError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                dt = perf_counter() - t
                if traced:
                    tracer.uninstall()
                if error is None:
                    out = op.keep(out)
                runs.append({"op": op, "out": out, "error": error, "dt": dt,
                             "traced": traced, "ok": error is None})
            if len(setups) < n_probes and measured() >= seconds * len(setups) / n_probes:
                setups.append(pause(probe))
        r += 1
        pause(gc.collect)
    wall = measured()
    while len(setups) < n_probes:
        setups.append(probe())
    return runs, wall, setups


def _probe() -> float:
    """Set up once more in a fresh copy of this process; return its set-up time."""
    proc = subprocess.run([sys.executable] + sys.argv + ["--setup-only"],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def _check(runs) -> tuple[int, list[str]]:
    """Check every output that was returned; count raised errors as failed."""
    failed = 0
    problems: list[str] = []
    for r in runs:
        if r["error"] is not None:
            failed += 1
            continue
        try:
            r["op"].check(r["op"], r["out"])
        except workloads.CheckFailed as exc:
            r["ok"] = False
            problems.append(str(exc))
    return failed, problems


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_ms:
        return float("nan")
    pos = (len(sorted_ms) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_ms) - 1)
    return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * (pos - lo)


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this process and write its result file.

``bench/run.py`` starts one of these per workload, with the BLAS thread
pins set and ``src/`` on ``PYTHONPATH``; run that instead.  The result file
holds the metric values, operation counts and the host stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the repository this benchmark sits in, if it is one."""
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # no dict form before numpy 1.25
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def host_stamp(seed: int, seconds: float) -> dict:
    """Facts about the host and the run's conditions; ``bench/compare.py``
    refuses to compare runs whose facts differ (git sha and seed aside)."""
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "kernel_backend": os.environ.get("REPRO_KERNEL_BACKEND", "auto"),
        "threads": {v: os.environ.get(v) for v in PINS},
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, required=True, help="result file to write")
    args = ap.parse_args(argv)

    from repro import ExecContext

    started = time.time()
    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = workloads.smoke(wl)
    tm = workloads.Timing.of(args.seconds, smoke=args.smoke)
    ctx = ExecContext(executor="threads", n_workers=nproc())
    if args.trace:
        trace_path = args.out.parent / f"trace-{args.workload}-seed{args.seed}.json"
        outcome = workloads.trace(wl, args.seed, tm, ctx, trace_path)
    else:
        outcome = workloads.run(wl, args.seed, tm, ctx)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "started": started,
        "stamp": host_stamp(args.seed, args.seconds),
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.wrong + outcome.timeouts,
        "values": outcome.metrics,
        "info": outcome.info,
    }
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

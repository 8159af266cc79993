"""The repository benchmark: run workloads and print every metric.

Usage, from the repository root::

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat R] [--smoke] [--out DIR]

Each workload runs in its own subprocess (``bench/worker.py``) with
``OMP/OPENBLAS/MKL_NUM_THREADS=1`` and ``src/`` on ``PYTHONPATH``, so the
program's ``threads`` executor is the only parallelism.  Every run writes a
stamped result file to ``--out`` (default ``bench/out/results``); compare
two sets of them with ``bench/compare.py``.

The output is one line per workload and metric (the end-to-end metrics, or
with ``--trace`` the per-layer ones), and last a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--repeat R`` each workload runs R times; the lines and the JSON give
medians, and each metric's spread (interquartile range over median) is
checked against its bound in ``BENCHMARK.json``.  The exit code is
non-zero if a verified exact answer was wrong or a spread exceeded its
bound.

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, which is
what the benchmark is run with; every result file records it, and
``bench/compare.py`` refuses to compare runs of different lengths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: one workload's subprocess must finish within this many seconds
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0


class RunError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, out_dir: Path) -> dict:
    """Run one workload in a subprocess and return its result file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the autotuner persists plans; keep any such write inside the checkout
    env["REPRO_AUTOTUNE_CACHE"] = str(out_dir / "autotune.json")
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(path),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{name}: no result within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RunError(f"{name}: worker exited with code {code}")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default {spec['run_seconds']})")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="run the traced per-layer ledger instead")
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload (default 1)")
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for the self-tests")
    ap.add_argument("--out", type=Path, default=BENCH / "out" / "results",
                    help="directory for result files")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = [args.workload] if args.workload else names

    try:
        runs = {
            name: [run_workload(name, args.seed, seconds, args.trace, args.smoke, args.out)
                   for _ in range(args.repeat)]
            for name in chosen
        }
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    metrics, bad = {}, []
    correct, attempted, failed = True, 0, 0
    for name, results in runs.items():
        correct &= all(r["correct"] for r in results)
        attempted += sum(r["attempted"] for r in results)
        failed += sum(r["failed"] for r in results)
        for m in metric_specs:
            values = [r["values"][m["name"]] for r in results]
            if not all(math.isfinite(v) for v in values):
                print(f"error: {name} {m['name']} is not finite: {values}", file=sys.stderr)
                return 2
            med = statistics.median(values)
            key = m["name"] if len(chosen) == 1 else f"{name}/{m['name']}"
            metrics[key] = {"value": med, "unit": m["unit"]}
            line = f"{name:<20} {m['name']:<30} {med:>14.6g} {m['unit']}"
            if args.repeat > 1:
                s = spread(values)
                line += f"   spread {s:.4f}"
                if "bound" in m:
                    wide = s > m["bound"]
                    line += f" bound {m['bound']} {'WIDE' if wide else 'ok'}"
                    if wide:
                        bad.append(f"{name} {m['name']}")
            print(line)
        print(f"{name:<20} {'#ops':<30} attempted={sum(r['attempted'] for r in results)} "
              f"failed={sum(r['failed'] for r in results)} "
              f"correct={all(r['correct'] for r in results)}")
    if bad:
        print(f"error: spread wider than bound: {', '.join(bad)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and not bad else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark result files: parent against change.

Usage, from the repository root::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR [--min-pairs 10]

Each directory holds result files written by ``bench/run.py --out DIR``.
Runs pair up per workload by seed and start order; run at least ten pairs,
alternating which side goes first, with the same seeds on both sides.
For every workload and end-to-end metric this prints each side's median
and quartiles, the change's win fraction over the pairs, and a verdict
using the bounds in ``BENCHMARK.json``:

* **improved**: the change wins at least nine tenths of the pairs (ties
  count for neither), its median is better, the medians differ by more
  than the parent's interquartile range, and no more operations failed
  than at the parent;
* **regressed**: the change's median is worse by more than the bound;
* **unresolved**: neither, and the parent's own spread (interquartile
  range over median) is wider than the bound, unless every change run
  reads better than every parent run; also any metric with fewer pairs
  than ``--min-pairs``;
* **unchanged**: otherwise.

``oneshot_recall`` repeats exactly for a seed, so it is judged on the
paired differences instead, against an absolute bound of 0.005: regressed
when their median is lower by more than that, improved when the change
wins nine tenths of the pairs.

Files whose stamps disagree (CPU, core count, Python, numpy, BLAS, kernel
backend, thread pins, run length) are refused.  The exit code is 1 if any
metric regressed and 2 if the files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: stamp fields that must agree across every compared file (git sha and
#: seed are expected to differ)
MATCH = ("nproc", "cpu", "python", "numpy", "blas", "kernel_backend", "threads", "seconds")
#: metrics that repeat exactly for a seed, with the absolute worsening of
#: their paired differences that counts as a regression.  BENCHMARK.json's
#: relative bound for them must cover the spread across seeds, which is
#: far wider than a loss that matters.
ABS_BOUNDS = {"oneshot_recall": 0.005}


def load(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return [r for r in runs if "stamp" in r and not r.get("trace") and not r.get("smoke")]


def stamp_mismatches(runs: list[dict]) -> list[str]:
    out = []
    for key in MATCH:
        seen = {json.dumps(r["stamp"].get(key), sort_keys=True) for r in runs}
        if len(seen) > 1:
            out.append(f"{key}: {sorted(seen)}")
    return out


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs of one workload: the i-th run of a seed on each side."""
    def order(runs):
        return sorted(runs, key=lambda r: (r["seed"], r["started"]))

    out, p_runs, c_runs = [], order(parent), order(change)
    for seed in sorted({r["seed"] for r in p_runs} & {r["seed"] for r in c_runs}):
        ps = [r for r in p_runs if r["seed"] == seed]
        cs = [r for r in c_runs if r["seed"] == seed]
        out.extend(zip(ps, cs))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(p: list[float], c: list[float], better: str, bound: float, *,
            min_pairs: int, more_failures: bool,
            abs_bound: float | None = None) -> tuple[str, float]:
    """Verdict for one metric over paired values; returns it with the
    change's win fraction.  With ``abs_bound`` the metric is judged on
    its paired differences."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (ci - pi) > 0 for pi, ci in zip(p, c))
    win_frac = wins / len(p)
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    gain = sign * (cm - pm)
    if len(p) < min_pairs:
        return "unresolved", win_frac
    if abs_bound is not None:
        paired_gain = statistics.median(sign * (ci - pi) for pi, ci in zip(p, c))
        if -paired_gain > abs_bound:
            return "regressed", win_frac
        if win_frac >= 0.9 and not more_failures:
            return "improved", win_frac
        return "unchanged", win_frac
    if win_frac >= 0.9 and gain > (p3 - p1) and not more_failures:
        return "improved", win_frac
    if -gain > bound * abs(pm):
        return "regressed", win_frac
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    separated = min(sign * v for v in c) > max(sign * v for v in p)
    if spread > bound and not separated:
        return "unresolved", win_frac
    return "unchanged", win_frac


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--min-pairs", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: no untraced result files on one side", file=sys.stderr)
        return 2
    bad = stamp_mismatches(parent + change)
    if bad:
        print("error: stamps differ, refusing to compare:\n  " + "\n  ".join(bad),
              file=sys.stderr)
        return 2

    regressed = False
    print(f"{'workload':<20} {'metric':<15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>5}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        matched = pairs([r for r in parent if r["workload"] == w],
                        [r for r in change if r["workload"] == w])
        if not matched:
            continue
        more_failures = sum(c["failed"] for _, c in matched) > sum(p["failed"] for p, _ in matched)
        for m in spec["end_to_end"]:
            p = [pr["values"][m["name"]] for pr, _ in matched]
            c = [cr["values"][m["name"]] for _, cr in matched]
            v, win_frac = verdict(p, c, m["better"], m["bound"], min_pairs=args.min_pairs,
                                  more_failures=more_failures,
                                  abs_bound=ABS_BOUNDS.get(m["name"]))
            regressed |= v == "regressed"
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            delta = (cm - pm) / abs(pm) if pm else float("nan")
            print(f"{w:<20} {m['name']:<15} {pm:>12.5g} [{p1:>9.5g}, {p3:>9.5g}] "
                  f"{cm:>12.5g} [{c1:>9.5g}, {c3:>9.5g}] {delta:>+8.2%} {win_frac:>5.2f}  {v}")
        print(f"{w:<20} {'pairs':<15} {len(matched)}; failed ops parent "
              f"{sum(p['failed'] for p, _ in matched)}, change {sum(c['failed'] for _, c in matched)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

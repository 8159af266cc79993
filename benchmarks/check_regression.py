"""CI bench-regression gate: fresh BENCH json vs the committed baseline.

The smoke benchmarks rewrite ``BENCH_kernels.json`` / ``BENCH_serving.json``
at the repo root on every run.  CI snapshots the committed copies before
the benchmark steps, reruns them, and then invokes::

    python benchmarks/check_regression.py \
        --baseline baseline/BENCH_kernels.json --fresh BENCH_kernels.json \
        --baseline baseline/BENCH_serving.json --fresh BENCH_serving.json

Each tracked metric is a throughput-like ratio (higher is better); the
gate fails (exit 1) when a fresh value falls below ``1 - tolerance`` of
its baseline — by default a >25% regression, loose enough for shared-
runner noise but tight enough to catch a kernel walking backwards.
Metrics present in the baseline but missing fresh fail too (a deleted
benchmark silently dropping perf coverage); metrics only in the fresh
file are reported and skipped, so new benchmarks can land one PR before
their baseline does.

Implausible wins fail as well, in the baseline or the fresh file: a
speedup above the ceiling that the measured configuration allows (see
``CEILINGS``) comes from a broken measurement, and passing it would hide
the breakage as a win.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from pathlib import Path

#: metric name -> dotted path into the BENCH payload; ``[]`` fans out over
#: a list, labeling each element by the named config key beside it
TRACKED = {
    "BENCH_kernels.json": {
        "exact engine speedup": "kernel_engine.exact.speedup",
        "oneshot engine speedup": "kernel_engine.oneshot.speedup",
        "stage2 wall speedup (dim={dim})": "stage2_batched.cases[].wall_x",
    },
    "BENCH_serving.json": {
        "serving batched speedup": "speedup",
        "serving batched throughput qps": "batched.throughput_qps",
    },
    "BENCH_cluster.json": {
        "cluster serving scaling 1->4 shards": "scaling",
        "cluster throughput qps (shards={n_shards})": "nodes[].throughput_qps",
    },
    # labels stay backend-neutral: the CI matrix regenerates the fresh file
    # on both the numpy and numba legs against one committed baseline
    "BENCH_quant.json": {
        "quant kernel speedup": "quant_kernels.speedup",
        "quant recall before re-rank": "quant_kernels.recall_before_rerank",
    },
    # mixed-workload routing: p99 kept far under the exact backend while
    # the SLO stays met and the quality ladder's per-rung recall holds
    "BENCH_router.json": {
        "router p99 speedup vs exact": "mixed.p99_speedup_vs_exact",
        "router mixed slo compliance": "mixed.slo_compliance",
        "router exact recall": "exact.recall",
        "router degraded recall (rung={rung})": "rungs[].recall",
    },
    # skewed-traffic serving: the semantic cache must keep paying on the
    # hot-key scenario (p99_speedup is pre-capped by the bench for
    # cross-machine stability; a broken cache still collapses it to ~1)
    # quality observability must stay cheap: p99_headroom is the capped
    # off/on p99 ratio (1.0 = free, floor caught by the tolerance), and
    # mem_headroom the capped flight-ring ceiling/footprint ratio
    "BENCH_obs.json": {
        "obs p99 headroom at 1% sampling": "overhead.p99_headroom",
        "obs flight memory headroom": "flight.mem_headroom",
    },
    "BENCH_scenarios.json": {
        "zipfian p99 cache speedup": "zipfian.p99_speedup",
        "zipfian cache hit rate": "zipfian.hit_rate",
        "scenario cached throughput qps ({name})": (
            "scenarios[].cached_throughput_qps"
        ),
    },
}


#: BENCH file -> (metric path, ceiling path, why): the metric may not
#: exceed the largest value at the ceiling path
CEILINGS = {
    "BENCH_cluster.json": (
        "scaling",
        "nodes[].n_shards",
        "n shards cannot serve more than n times one shard's throughput",
    ),
    "BENCH_serving.json": (
        "speedup",
        "batched.mean_batch",
        "a batch of b queries costs at least a batch of one, so batching "
        "cannot buy more than b",
    ),
}


def _walk(payload, dotted: str):
    """Yield (label_suffix, value) for a dotted path, fanning out lists."""
    head, _, rest = dotted.partition(".")
    if head.endswith("[]"):
        seq = payload.get(head[:-2])
        if seq is None:
            return
        for elem in seq:
            yield from _walk(elem, rest)
        return
    node = payload.get(head)
    if node is None:
        return
    if rest:
        yield from _walk(node, rest)
    else:
        yield payload, node


def _schema_for(*paths: Path) -> dict[str, str]:
    """The tracked-metric schema matching any of the given filenames."""
    for name, schema in TRACKED.items():
        if any(p.name.endswith(name) for p in paths):
            return schema
    raise SystemExit(
        f"no tracked metrics for {', '.join(p.name for p in paths)}; "
        f"known files: {', '.join(TRACKED)}"
    )


def extract(path: Path, tracked: dict[str, str]) -> dict[str, float]:
    """Flatten one BENCH file into ``{metric label: value}``."""
    payload = json.loads(path.read_text())
    out: dict[str, float] = {}
    for label, dotted in tracked.items():
        for holder, value in _walk(payload, dotted):
            name = label
            if "{" in label:
                keys = [
                    field
                    for _, field, _, _ in string.Formatter().parse(label)
                    if field
                ]
                name = label.format(**{k: holder.get(k) for k in keys})
            out[name] = float(value)
    return out


def implausible(path: Path) -> list[str]:
    """Failure lines for a win the file's own configuration rules out."""
    rule = next(
        (r for name, r in CEILINGS.items() if path.name.endswith(name)), None
    )
    if rule is None:
        return []
    metric, ceiling, why = rule
    payload = json.loads(path.read_text())
    values = [float(v) for _, v in _walk(payload, metric)]
    caps = [float(v) for _, v in _walk(payload, ceiling)]
    if not values or not caps or values[0] <= max(caps):
        return []
    return [
        f"{path}: {metric} {values[0]:.3f} exceeds {ceiling} "
        f"{max(caps):.3f}, an implausible win ({why})"
    ]


def compare(
    baseline: dict[str, float],
    fresh: dict[str, float],
    *,
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Return (report lines, failure lines)."""
    lines, failures = [], []
    width = max((len(n) for n in baseline | fresh), default=0)
    for name in sorted(baseline):
        base = baseline[name]
        if name not in fresh:
            failures.append(f"{name}: present in baseline, missing fresh")
            lines.append(f"  {name:<{width}}  {base:10.3f}  ->    MISSING")
            continue
        new = fresh[name]
        ratio = new / base if base else float("inf")
        ok = ratio >= 1.0 - tolerance
        mark = "ok" if ok else "REGRESSION"
        lines.append(
            f"  {name:<{width}}  {base:10.3f}  ->  {new:10.3f}  "
            f"({ratio:6.2%})  {mark}"
        )
        if not ok:
            failures.append(
                f"{name}: {base:.3f} -> {new:.3f} "
                f"({ratio:.1%} of baseline, floor {1 - tolerance:.0%})"
            )
    for name in sorted(set(fresh) - set(baseline)):
        lines.append(
            f"  {name:<{width}}  {'(new)':>10}  ->  {fresh[name]:10.3f}  "
            f"        no baseline, skipped"
        )
    return lines, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline",
        action="append",
        required=True,
        type=Path,
        help="committed BENCH json (repeatable, pairs with --fresh in order)",
    )
    ap.add_argument(
        "--fresh",
        action="append",
        required=True,
        type=Path,
        help="just-regenerated BENCH json (repeatable)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop before failing (default 0.25)",
    )
    args = ap.parse_args(argv)
    if len(args.baseline) != len(args.fresh):
        ap.error("need one --fresh per --baseline")

    all_failures: list[str] = []
    for base_path, fresh_path in zip(args.baseline, args.fresh):
        print(f"{fresh_path.name}: {base_path} vs {fresh_path}")
        if not base_path.exists():
            print("  no baseline file; skipping (first run?)")
            continue
        if not fresh_path.exists():
            all_failures.append(f"{fresh_path}: fresh results missing")
            print("  FRESH FILE MISSING")
            continue
        schema = _schema_for(base_path, fresh_path)
        lines, failures = compare(
            extract(base_path, schema),
            extract(fresh_path, schema),
            tolerance=args.tolerance,
        )
        print("\n".join(lines))
        all_failures.extend(failures)
        for line in implausible(base_path) + implausible(fresh_path):
            print(f"  IMPLAUSIBLE {line}")
            all_failures.append(line)

    if all_failures:
        print(f"\n{len(all_failures)} regression(s) past the "
              f"{args.tolerance:.0%} floor or implausible win(s):",
              file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench-regression gate: all tracked metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

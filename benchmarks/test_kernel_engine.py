"""Kernel engine — warm-cache query throughput vs the pre-engine paths.

The engine makes repeated ``BF`` calls against a fixed database
zero-recompute: prepared operands (contiguous data + hoisted norms) are
cached per dataset, stage-2 candidates are contiguous slices of a packed
pre-gathered matrix, ``squared_ok`` metrics rank in the squared domain,
the uniform one-shot lists collapse to batched block-diagonal matmuls,
and the exact stage 2 filters candidates against the gamma bound instead
of running a selection per representative.  Both sides compute in
float64, the one compute precision.

This benchmark measures the acceptance configuration (d=16 Gaussian,
n=20k, m=1k, k=5): with warm caches both index classes must answer
query batches >= 1.5x faster than with the engine disabled
(``engine=False`` reproduces the pre-engine code path), at identical
answers.  Timing interleaves the contenders round by round and compares
medians of per-round ratios, so drifting load on a shared runner hits
both sides equally.

Results are written to ``BENCH_kernels.json`` at the repo root so the
perf trajectory is trackable across PRs.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
from conftest import bench_once

from repro.core import ExactRBC, OneShotRBC
from repro.eval import format_table

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

#: the acceptance config: d=16 Gaussian, n=20k database, m=1k queries
N, M, DIM, K = 20_000, 1_000, 16, 5
SPEEDUP_BAR = 1.5


def _interleaved_times(fns: dict, rounds: int) -> dict:
    """Per-round wall-clock for each contender, measured back to back."""
    times = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return times


def _median_ratio(base: list, other: list) -> float:
    """Median of per-round base/other ratios (load-drift robust)."""
    return float(np.median([b / o for b, o in zip(base, other)]))


def run_class(cls, X, Q, rounds: int = 7):
    indexes = {
        "base": cls(seed=0, engine=False).build(X),
        "f64": cls(seed=0).build(X),
    }

    # ---- answers first (also warms every cache)
    d0, i0 = indexes["base"].query(Q, k=K)
    d64, i64 = indexes["f64"].query(Q, k=K)
    # default engine path: bit-identical to the pre-engine formulation
    assert np.array_equal(i0, i64), f"{cls.__name__}: f64 engine changed ids"
    assert np.array_equal(d0, d64), f"{cls.__name__}: f64 engine changed dists"

    times = _interleaved_times(
        {name: (lambda ix=ix: ix.query(Q, k=K)) for name, ix in indexes.items()},
        rounds,
    )
    evals = indexes["f64"].last_stats.total_evals
    return {
        "base_s": min(times["base"]),
        "engine_f64_s": min(times["f64"]),
        # the gated headline (check_regression.py tracks this key)
        "speedup": _median_ratio(times["base"], times["f64"]),
        "evals_per_query": evals / M,
    }


def test_kernel_engine_speedup(benchmark, report):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(N, DIM))
    Q = rng.normal(size=(M, DIM))

    def experiment():
        results = {
            "exact": run_class(ExactRBC, X, Q),
            "oneshot": run_class(OneShotRBC, X, Q),
        }
        # flaky-runner guard: re-measure once with more rounds before failing
        if min(r["speedup"] for r in results.values()) < SPEEDUP_BAR:
            results = {
                "exact": run_class(ExactRBC, X, Q, rounds=15),
                "oneshot": run_class(OneShotRBC, X, Q, rounds=15),
            }
        return results

    results = bench_once(benchmark, experiment)

    rows = [
        [name, r["base_s"], r["engine_f64_s"], r["speedup"],
         r["evals_per_query"]]
        for name, r in results.items()
    ]
    text = format_table(
        ["index", "base s", "engine s", "speedup", "evals/q"],
        rows,
        title=f"Kernel engine, warm caches (n={N}, m={M}, d={DIM}, k={K})",
    )
    report("kernel_engine", text)

    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload["kernel_engine"] = {
        "config": {"n": N, "m": M, "dim": DIM, "k": K, "metric": "euclidean"},
        **{name: r for name, r in results.items()},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    for name, r in results.items():
        assert r["speedup"] >= SPEEDUP_BAR, (
            f"{name}: warm-cache engine speedup {r['speedup']:.2f}x "
            f"below the {SPEEDUP_BAR}x acceptance bar"
        )

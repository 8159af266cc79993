"""Quantized kernel tier — warm-path throughput vs the float64 engine.

The quantized tier attacks the regime the pruning rules cannot: at d=32
on Gaussian data the exact RBC's triangle-inequality rules retain nearly
the whole database, so stage 2 is a full scan in disguise and the win
left on the table is *bytes per scanned dimension*.  int8 codes move 8x
less than float64; the certified frontier scan over-fetches ``k' = ck``
candidates against a triangle-inequality bound and re-ranks them in
float64, so answers stay id-identical to the exact engine — compression
accelerates candidate generation, never ranking.

This benchmark measures the acceptance configuration (d=32 Gaussian,
n=20k, m=1k, k=5): the int8 flat plan must answer warm query batches
>= 2.3x faster than the float64 engine path at bit-identical result ids.
The bar was 2x against a float32 engine path, since deleted, whose
median speedup over float64 measured 1.01-1.13x on this config (2-vCPU
Intel Xeon, OpenBLAS); 2.0 x 1.13 rounds up to 2.3, so the gate is no
looser against float64, the one compute precision.

The scan backend (numpy decode-cache vs numba codes-direct) is whatever
:func:`repro.metrics.jit.kernel_backend` resolves — the CI matrix runs
both legs; answers are backend-independent by construction because both
feed the same float64 re-rank.

Timing interleaves the contenders round by round and compares medians of
per-round ratios, so drifting load on a shared runner hits both sides
equally.  Results are written to ``BENCH_quant.json`` at the repo root
so the perf trajectory is trackable across PRs.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
from conftest import bench_once

from repro.core import ExactRBC
from repro.eval import format_table
from repro.metrics.jit import kernel_backend

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_quant.json"

#: the acceptance config: d=32 Gaussian — pruning is ineffective here, so
#: the autotuner's plan is the flat certified scan (asserted below, so the
#: gate never times the float64 search against itself)
N, M, DIM, K = 20_000, 1_000, 32, 5
SPEEDUP_BAR = 2.3


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


def run_quant(X, Q, rounds: int = 7):
    indexes = {
        "f64": ExactRBC(seed=0).build(X),
        "quant": ExactRBC(seed=0, quantizer="int8").build(X),
    }
    for ix in indexes.values():
        ix.warm()

    # ---- answers first (also warms the code caches)
    d64, i64 = indexes["f64"].query(Q, k=K)
    dq, iq = indexes["quant"].query(Q, k=K)
    assert np.array_equal(i64, iq), "quantized path changed result ids"
    np.testing.assert_allclose(d64, dq, rtol=1e-9, atol=1e-12)

    times = _interleaved_times(
        {name: (lambda ix=ix: ix.query(Q, k=K)) for name, ix in indexes.items()},
        rounds,
    )
    quant_info = dict(indexes["quant"].last_stats.quant or {})
    assert quant_info.get("strategy") == "flat", (
        f"autotuned plan is {indexes['quant']._quant_plan().strategy!r}, "
        "not the flat quantized scan"
    )
    return {
        "f64_s": min(times["f64"]),
        "quant_s": min(times["quant"]),
        "speedup": _median_ratio(times["f64"], times["quant"]),
        "backend": quant_info.get("backend", kernel_backend("int8")),
        "quantizer": quant_info.get("quantizer", "int8"),
        "strategy": quant_info["strategy"],
        "k_prime": quant_info.get("k_prime", 0),
        "recall_before_rerank": quant_info.get("recall_before_rerank", 0.0),
        "code_bytes": quant_info.get("code_bytes", 0),
        "f64_bytes": int(N * DIM * 8),
    }


def test_quant_kernel_speedup(benchmark, report):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(N, DIM))
    Q = rng.normal(size=(M, DIM))

    def experiment():
        r = run_quant(X, Q)
        # flaky-runner guard: re-measure once with more rounds before failing
        if r["speedup"] < SPEEDUP_BAR:
            r = run_quant(X, Q, rounds=15)
        return r

    r = bench_once(benchmark, experiment)

    text = format_table(
        ["contender", "s/batch", "speedup", "bytes/scan"],
        [
            ["f64 engine", r["f64_s"], 1.0, r["f64_bytes"]],
            [f"int8 flat ({r['backend']})", r["quant_s"], r["speedup"],
             r["code_bytes"]],
        ],
        title=(
            f"Quantized kernel tier, warm caches "
            f"(n={N}, m={M}, d={DIM}, k={K}, k'={r['k_prime']}, "
            f"recall@rerank={r['recall_before_rerank']:.3f})"
        ),
    )
    report("quant_kernels", text)

    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload["quant_kernels"] = {
        "config": {"n": N, "m": M, "dim": DIM, "k": K, "metric": "euclidean"},
        **r,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    assert r["speedup"] >= SPEEDUP_BAR, (
        f"quantized warm-path speedup {r['speedup']:.2f}x below the "
        f"{SPEEDUP_BAR}x acceptance bar ({r['backend']} backend, "
        f"f64 {r['f64_s']*1e3:.1f}ms vs quant {r['quant_s']*1e3:.1f}ms)"
    )

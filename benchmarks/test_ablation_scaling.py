"""Ablation — strong scaling and the divergence penalty.

Two claims from paper §3 that motivate the whole design:

1. brute force and the RBC (being brute-force-structured) *scale* with
   core count, because their traces are wide phases of independent dense
   tiles.  We replay the same traces across 1..64 cores of the AMD model.
2. conditional tree search is hostile to SIMT hardware: on the GPU model a
   Cover Tree query trace collapses to scalar divergent execution, while
   the one-shot RBC trace runs at throughput.  The paper uses this to
   justify not even attempting tree search on the GPU.
"""

from __future__ import annotations

from conftest import bench_once

from repro.baselines import BruteForceIndex, CoverTree
from repro.core import ExactRBC, OneShotRBC
from repro.data import load
from repro.eval import format_table, traced_query
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE, TESLA_C2050, strong_scaling
from repro.simulator.trace import TraceRecorder

CORES = [1, 2, 4, 8, 16, 32, 48, 64]
#: brute-force blocking: one pass over the database per query block
BF_GRAIN = ExecContext(tile_cols=2048, row_chunk=512)


def scaling_rows():
    X, Q = load("bio", scale=0.1, n_queries=500, max_n=20_000)
    rows = []
    for label, index, grain in [
        ("brute force", BruteForceIndex().build(X), BF_GRAIN),
        ("exact RBC", ExactRBC(seed=0).build(X, n_reps=500), ExecContext()),
    ]:
        rec = TraceRecorder()
        index.query(Q, 1, ctx=grain.with_recorder(rec))
        base = None
        for cores, res in strong_scaling(rec.trace, AMD_48CORE, CORES):
            if base is None:
                base = res.time_s
            rows.append([label, cores, res.time_s * 1e3, base / res.time_s,
                         res.utilization])
    return rows


def divergence_rows():
    X, Q = load("tiny8", scale=0.05, n_queries=100, max_n=8_000)
    rows = []
    ct = CoverTree().build(X)
    run_ct = traced_query(ct, Q, [TESLA_C2050], k=1)
    rbc = OneShotRBC(seed=0, rep_scheme="exact").build(
        X, n_reps=300, s=300
    )
    run_rbc = traced_query(rbc, Q, [TESLA_C2050], k=1)
    brute = BruteForceIndex().build(X)
    run_bf = traced_query(brute, Q, [TESLA_C2050], k=1, ctx=BF_GRAIN)
    for label, run in [
        ("cover tree", run_ct), ("brute force", run_bf), ("one-shot RBC", run_rbc)
    ]:
        rows.append(
            [label, run.evals / 100, run.sim_time(TESLA_C2050) * 1e3]
        )
    return rows


def test_ablation_scaling_and_divergence(benchmark, report):
    scal, div = bench_once(
        benchmark, lambda: (scaling_rows(), divergence_rows())
    )
    text = "\n\n".join(
        [
            format_table(
                ["algorithm", "cores", "time ms", "speedup vs 1 core",
                 "utilization"],
                scal,
                title="Strong scaling of the recorded traces (AMD model)",
            ),
            format_table(
                ["algorithm", "evals/query", "GPU-model time ms"],
                div,
                title=(
                    "SIMT divergence: tree search vs BF-structured search "
                    "on the Tesla c2050 model"
                ),
            ),
        ]
    )
    report("ablation_scaling", text)

    # both BF-structured algorithms scale: >= 10x at 48 cores
    by = {}
    for label, cores, _, speedup, _ in scal:
        by[(label, cores)] = speedup
    assert by[("brute force", 48)] > 10.0
    assert by[("exact RBC", 48)] > 10.0
    # scaling is monotone in cores
    for label in ("brute force", "exact RBC"):
        seq = [by[(label, c)] for c in CORES]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:])), (label, seq)

    # the cover tree evaluates far fewer distances than brute force, yet
    # the GPU model runs it SLOWER than brute force: divergence erases a
    # >10x work advantage (the paper's argument for BF-structured search)
    d = {row[0]: row for row in div}
    assert d["cover tree"][1] < d["brute force"][1] / 5
    assert d["cover tree"][2] > d["one-shot RBC"][2]

"""Table 2 — GPU: speedup of one-shot RBC over brute force, both on GPU.

The paper runs one-shot search and brute force on an NVIDIA Tesla c2050
with the parameter set for a rank error around 1e-1, reporting speedups of
19x-188x (Bio 38.1, Covertype 94.6, Physics 19.0, Robot 53.2, TinyIm4
188.4).  GPUs reward exactly the structure the RBC has: both stages are
dense distance blocks with no divergent branching.

Reproduction: both algorithms' traces are replayed on the Tesla c2050
SIMT model (DESIGN.md §1).  The parameter is chosen per dataset as the
smallest sweep point whose measured mean rank is below 1.0 (the paper's
"roughly 1e-1" regime at our scale).  The error column is reported so the
quality claim is auditable.
"""

from __future__ import annotations

from conftest import bench_once

from repro.baselines import BruteForceIndex
from repro.core import OneShotRBC
from repro.data import load
from repro.eval import format_table, mean_rank, traced_query
from repro.runtime import ExecContext
from repro.simulator import TESLA_C2050

#: Table 2 uses these five datasets
WORKLOADS = [
    ("bio", 20_000, 38.1),
    ("cov", 20_000, 94.6),
    ("phy", 10_000, 19.0),
    ("robot", 20_000, 53.2),
    ("tiny4", 20_000, 188.4),
]

N_QUERIES = 500
MACHINES = [TESLA_C2050]
BF_GRAIN = ExecContext(tile_cols=2048, row_chunk=512)


def run_dataset(name: str, max_n: int, paper_x: float):
    X, Q = load(name, scale=0.1, n_queries=N_QUERIES, max_n=max_n)
    n = X.shape[0]
    brute = BruteForceIndex().build(X)
    brute_run = traced_query(brute, Q, MACHINES, k=1, ctx=BF_GRAIN)

    # smallest parameter achieving the paper's error regime (rank < 1)
    for frac in (1.0, 2.0, 3.0, 4.0, 8.0):
        p = int(frac * n**0.5)
        rbc = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=p, s=p)
        run = traced_query(rbc, Q, MACHINES, k=1)
        rank = mean_rank(Q, X, run.idx)
        if rank < 1.0:
            break
    return {
        "name": name,
        "n": n,
        "param": p,
        "rank": rank,
        "paper_x": paper_x,
        "gpu_x": brute_run.sim_time(TESLA_C2050) / run.sim_time(TESLA_C2050),
        "work_x": brute_run.evals / run.evals,
    }


def test_table2_gpu_oneshot_speedup(benchmark, report):
    results = bench_once(
        benchmark, lambda: [run_dataset(*w) for w in WORKLOADS]
    )
    rows = [
        [r["name"], r["n"], r["param"], r["rank"], r["work_x"], r["gpu_x"],
         r["paper_x"]]
        for r in results
    ]
    report(
        "table2_gpu",
        format_table(
            ["dataset", "n", "n_r = s", "mean rank", "work x",
             "GPU-model x", "paper x"],
            rows,
            title=(
                "Table 2: one-shot RBC speedup over brute force, both on the"
                " Tesla c2050 model\n(paper n is 10x-500x larger, so paper"
                " speedups are proportionally larger)"
            ),
        ),
    )
    for r in results:
        assert r["gpu_x"] > 3.0, f"{r['name']}: GPU speedup too small"
        assert r["rank"] < 1.0
    by = {r["name"]: r for r in results}
    # tiny4 is the paper's best case; phy its worst — ordering must hold
    assert by["tiny4"]["gpu_x"] > by["phy"]["gpu_x"]

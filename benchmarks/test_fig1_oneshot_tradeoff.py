"""Figure 1 — one-shot speedup as a function of rank error (log-log).

The paper sweeps the one-shot parameter (n_r = s, per the theory section)
and plots, per dataset, the speedup over brute force against the average
rank of the returned neighbor.  Expected shape: a monotone trade-off
running from near-exact (rank << 1) at ~10x speedup to rank ~10-100 at
100x-10000x speedup; even at rank ~0.1 the worst dataset keeps an order of
magnitude.

Here the speedup axis is the 48-core machine-model time ratio (same
substitution as Figure 2) and the error axis is the paper's rank measure
computed against exhaustive ground truth.
"""

from __future__ import annotations

from conftest import bench_once

from repro.baselines import BruteForceIndex
from repro.core import OneShotRBC
from repro.data import load
from repro.eval import ascii_plot, format_table, mean_rank, traced_query
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE

WORKLOADS = [
    ("bio", 20_000),
    ("cov", 20_000),
    ("phy", 10_000),
    ("robot", 20_000),
    ("tiny4", 20_000),
    ("tiny8", 20_000),
    ("tiny16", 20_000),
    ("tiny32", 20_000),
]

N_QUERIES = 500
#: sweep of n_r = s, as fractions of sqrt(n)
SWEEP = (0.5, 1.0, 2.0, 4.0, 8.0)
MACHINES = [AMD_48CORE]
BF_GRAIN = ExecContext(tile_cols=2048, row_chunk=512)


def run_dataset(name: str, max_n: int):
    X, Q = load(name, scale=0.1, n_queries=N_QUERIES, max_n=max_n)
    n = X.shape[0]
    brute = BruteForceIndex().build(X)
    brute_run = traced_query(brute, Q, MACHINES, k=1, ctx=BF_GRAIN)

    series = []
    for frac in SWEEP:
        p = max(1, int(frac * n**0.5))
        rbc = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=p, s=p)
        run = traced_query(rbc, Q, MACHINES, k=1)
        series.append(
            {
                "param": p,
                "rank": mean_rank(Q, X, run.idx),
                "speedup": brute_run.sim_time(AMD_48CORE)
                / run.sim_time(AMD_48CORE),
                "work_x": brute_run.evals / run.evals,
            }
        )
    return name, n, series


def test_fig1_oneshot_tradeoff(benchmark, report):
    results = bench_once(
        benchmark, lambda: [run_dataset(*w) for w in WORKLOADS]
    )
    rows = []
    for name, n, series in results:
        for pt in series:
            rows.append(
                [name, n, pt["param"], pt["rank"], pt["work_x"], pt["speedup"]]
            )
    # the paper's log-log panels, one curve per dataset (rank 0 points are
    # clamped to the smallest positive measurable rank, 1/n_queries)
    curves = {
        name: [
            (max(pt["rank"], 1.0 / N_QUERIES / 2), pt["speedup"])
            for pt in series
        ]
        for name, n, series in results
    }
    figure = ascii_plot(
        curves,
        logx=True,
        logy=True,
        xlabel="mean rank",
        ylabel="speedup",
        title="Figure 1 (reproduced): one-shot speedup vs rank error",
        width=68,
        height=20,
    )
    report(
        "fig1_oneshot_tradeoff",
        figure
        + "\n\n"
        + format_table(
            ["dataset", "n", "n_r = s", "mean rank", "work x", "48-core x"],
            rows,
            title=(
                "Figure 1: one-shot speedup vs rank error (log-log in the "
                "paper)\nEach dataset block sweeps n_r = s from 0.5 sqrt(n) "
                "to 8 sqrt(n)."
            ),
        ),
    )
    for name, n, series in results:
        ranks = [pt["rank"] for pt in series]
        works = [pt["work_x"] for pt in series]
        # growing s improves quality...
        assert ranks[-1] <= ranks[0] + 1e-9, f"{name}: rank not improving"
        # ...and shrinks the work advantage: a genuine trade-off
        assert works[-1] < works[0], f"{name}: no trade-off"
        # small parameters reach large speedups somewhere on the curve
        assert max(pt["speedup"] for pt in series) > 5.0, name
        # the high-quality end of the curve is genuinely accurate
        assert ranks[-1] < 5.0, f"{name}: rank too poor at s=8 sqrt(n)"

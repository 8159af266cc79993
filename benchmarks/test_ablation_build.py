"""Ablation — construction cost of every structure.

The paper's §4 point: RBC construction is itself one brute-force call, so
it parallelizes exactly like queries do.  Tree structures build by
sequential insertion/partitioning.  This benchmark measures build cost
three ways per structure — distance evaluations, host wall time, and the
48-core machine-model time of the recorded build trace — and checks the
RBC's build is model-parallel while the trees' are not.
"""

from __future__ import annotations

import time

from conftest import bench_once

from repro.baselines import BallTree, CoverTree, KDTree
from repro.core import ExactRBC, OneShotRBC
from repro.data import load
from repro.eval import format_table
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE, TraceRecorder, simulate, with_cores

N = 8_000


def run_builds():
    X, _ = load("tiny8", scale=0.1, n_queries=1, max_n=N)
    rows = []
    results = {}
    for label, factory, build_kwargs in [
        ("exact RBC", lambda: ExactRBC(seed=0), dict(n_reps=300)),
        ("one-shot RBC", lambda: OneShotRBC(seed=0), dict(n_reps=300, s=300)),
        ("cover tree", CoverTree, {}),
        ("kd-tree", KDTree, {}),
        ("ball tree", BallTree, {}),
    ]:
        index = factory()
        rec = TraceRecorder()
        t0 = time.perf_counter()
        index.build(X, ctx=ExecContext(recorder=rec), **build_kwargs)
        wall = time.perf_counter() - t0
        evals = index.metric.counter.n_evals
        t48 = simulate(rec.trace, AMD_48CORE).time_s
        t1 = simulate(rec.trace, with_cores(AMD_48CORE, 1)).time_s
        scaling = t1 / t48 if t48 > 0 else 1.0
        rows.append([label, evals, wall, t48 * 1e3, scaling])
        results[label] = dict(evals=evals, scaling=scaling, wall=wall)
    return rows, results


def test_ablation_build_costs(benchmark, report):
    rows, results = bench_once(benchmark, run_builds)
    report(
        "ablation_build",
        format_table(
            ["structure", "distance evals", "host wall s",
             "48-core model ms", "model scaling 1→48"],
            rows,
            title=(
                f"Ablation: construction cost on tiny8 analog (n={N})\n"
                "(RBC builds are single BF calls and scale on the model;"
                " tree builds are sequential)"
            ),
        ),
    )
    # RBC builds parallelize on the model; the sequential-chain builds
    # (cover tree insertion, ball tree recursion) do not
    assert results["exact RBC"]["scaling"] > 4.0
    assert results["one-shot RBC"]["scaling"] > 4.0
    assert results["cover tree"]["scaling"] < 1.5
    assert results["ball tree"]["scaling"] < 1.5
    # the kd-tree build computes no distances at all (coordinate splits)
    assert results["kd-tree"]["evals"] == 0
    # RBC build work is exactly n * |R| (one BF call each way); |R| is
    # Bernoulli-sampled with mean 300, so check the n-divisibility and
    # the expected magnitude
    for name in ("exact RBC", "one-shot RBC"):
        evals = results[name]["evals"]
        assert evals % N == 0
        assert 0.8 * 300 <= evals / N <= 1.2 * 300

"""End-to-end flows across subsystem boundaries."""

import numpy as np
import pytest

from repro import (
    BallTree,
    BruteForceIndex,
    CoverTree,
    ExactRBC,
    KDTree,
    OneShotRBC,
    bf_knn,
)
from repro.baselines import AESA, GNAT, VPTree
from repro.data import load
from repro.dimension import estimate_expansion_rate
from repro.eval import results_match_exactly, traced_query
from repro.simulator import AMD_48CORE, DESKTOP_QUAD, TESLA_C2050


@pytest.fixture(scope="module")
def workload():
    # small: AESA is O(n^2) memory and the cover tree build is Python-speed
    X, Q = load("tiny8", scale=0.0002, n_queries=40)
    return X, Q


ALL_EXACT_INDEXES = [
    lambda: BruteForceIndex(),
    lambda: ExactRBC(seed=0),
    lambda: CoverTree(),
    lambda: KDTree(),
    lambda: BallTree(),
    lambda: VPTree(),
    lambda: GNAT(),
    lambda: AESA(),
]


def test_every_exact_index_agrees(workload):
    X, Q = workload
    reference, _ = bf_knn(Q, X, k=3)
    for factory in ALL_EXACT_INDEXES:
        index = factory().build(X)
        d, _ = index.query(Q, k=3)
        assert results_match_exactly(d, reference), type(index).__name__


def test_every_index_traces_on_every_machine(workload):
    X, Q = workload
    machines = [AMD_48CORE, DESKTOP_QUAD, TESLA_C2050]
    for factory in ALL_EXACT_INDEXES:
        index = factory().build(X)
        run = traced_query(index, Q[:10], machines, k=1)
        for m in machines:
            assert run.sim_time(m) > 0, (type(index).__name__, m.name)


def test_estimated_c_feeds_parameter_rules(workload):
    # the full paper pipeline: estimate c, build with it, query exactly
    X, Q = workload
    c = min(estimate_expansion_rate(X, n_centers=16, seed=0).c_median, 8.0)
    rbc = ExactRBC(seed=0).build(X, c=c)
    d, _ = rbc.query(Q, k=1)
    td, _ = bf_knn(Q, X, k=1)
    assert results_match_exactly(d, td)


def test_oneshot_then_exact_refinement(workload):
    """A realistic two-tier serving pattern: answer from the one-shot
    index, fall back to exact for queries whose one-shot answer is far."""
    X, Q = workload
    fast = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=40, s=40)
    slow = ExactRBC(seed=0).build(X)
    d_fast, i_fast = fast.query(Q, k=1)
    cutoff = np.median(d_fast[:, 0]) * 2
    suspect = d_fast[:, 0] > cutoff
    d_final = d_fast.copy()
    if suspect.any():
        d_slow, _ = slow.query(Q[suspect], k=1)
        d_final[suspect] = d_slow
    td, _ = bf_knn(Q, X, k=1)
    # refined answers are never worse than pure one-shot
    assert (d_final[:, 0] <= d_fast[:, 0] + 1e-12).all()
    assert (d_final[:, 0] >= td[:, 0] - 1e-9).all()


def test_counters_isolate_between_indexes(workload):
    X, Q = workload
    a = ExactRBC(seed=0).build(X)
    b = ExactRBC(seed=0).build(X)
    a.metric.reset_counter()
    b.metric.reset_counter()
    a.query(Q, k=1)
    assert b.metric.counter.n_evals == 0


def test_dataset_scale_flag_changes_n():
    X1, _ = load("cov", scale=0.002, n_queries=1)
    X2, _ = load("cov", scale=0.004, n_queries=1)
    assert X2.shape[0] == 2 * X1.shape[0]


def test_trace_work_matches_counter(workload):
    """The recorded gemm FLOPs must equal counted evals x model cost —
    the bridge between the counter and the machine models."""
    from repro.runtime import ExecContext
    from repro.simulator import TraceRecorder

    X, Q = workload
    rbc = ExactRBC(seed=0).build(X)
    rec = TraceRecorder()
    before = rbc.metric.counter.n_evals
    rbc.query(Q, k=1, ctx=ExecContext(recorder=rec))
    evals = rbc.metric.counter.n_evals - before
    gemm_flops = sum(
        op.flops
        for p in rec.trace.phases
        for op in p.ops
        if op.kind == "gemm"
    )
    expected = evals * rbc.metric.flops_per_eval(X.shape[1])
    assert gemm_flops == pytest.approx(expected, rel=1e-9)

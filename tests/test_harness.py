"""The eval harness as a runtime client: traced runs return RunReports.

``traced_query``/``traced_build`` are the package's highest-level
observability entry points; these tests pin their contract: the counter
window is exactly the run's work, every requested machine is replayed,
and the report's trace totals agree with a manual recorder run of the
same query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BruteForceIndex
from repro.core import ExactRBC, OneShotRBC
from repro.eval import RunReport, traced_build, traced_query
from repro.runtime import ExecContext
from repro.simulator import AMD_48CORE, DESKTOP_QUAD, SEQUENTIAL
from repro.simulator.trace import TraceRecorder


def test_traced_query_counter_window_is_exact(small_vectors):
    """``report.evals`` counts only this run, whatever ran before."""
    X, Q = small_vectors
    index = BruteForceIndex().build(X)
    # pollute the global counter with unrelated work first
    index.query(Q, k=1)
    index.query(Q, k=2)
    run = traced_query(index, Q, k=1)
    assert run.evals == Q.shape[0] * X.shape[0]
    assert run.n_calls >= 1
    assert run.wall_s > 0.0


def test_traced_query_sims_per_machine(small_vectors):
    X, Q = small_vectors
    index = BruteForceIndex().build(X)
    machines = [DESKTOP_QUAD, AMD_48CORE, SEQUENTIAL]
    run = traced_query(index, Q, machines, k=2)
    assert set(run.sims) == {m.name for m in machines}
    for m in machines:
        assert run.sim_time(m) > 0.0
    assert run.sim_time(AMD_48CORE) == run.sims[AMD_48CORE.name].time_s


def test_traced_query_agrees_with_manual_recorder_run(small_vectors):
    """The report's trace totals are exactly a manual recorder run's."""
    X, Q = small_vectors
    k = 3

    manual = TraceRecorder()
    index = ExactRBC(seed=0).build(X)
    dist_m, idx_m = index.query(Q, k=k, recorder=manual)
    manual_stats = index.last_stats

    index2 = ExactRBC(seed=0).build(X)
    run = traced_query(index2, Q, [DESKTOP_QUAD], k=k)

    np.testing.assert_array_equal(run.dist, dist_m)
    np.testing.assert_array_equal(run.idx, idx_m)
    assert run.flops == pytest.approx(manual.trace.flops)
    assert run.bytes == pytest.approx(manual.trace.bytes)
    assert run.n_ops == manual.trace.n_ops
    assert run.evals == manual_stats.total_evals
    assert run.rule_counts == manual_stats.rule_counts()
    # per-phase aggregation covers the same phases the manual trace saw
    assert set(run.phases) >= {p.name for p in manual.trace.phases}
    from repro.simulator.machine import simulate

    assert run.sim_time(DESKTOP_QUAD) == pytest.approx(
        simulate(manual.trace, DESKTOP_QUAD).time_s
    )


def test_traced_query_is_a_queryrun(small_vectors):
    X, Q = small_vectors
    run = traced_query(BruteForceIndex().build(X), Q, k=1)
    assert isinstance(run, RunReport)


def test_traced_query_with_ctx_threads_execution_state(small_vectors):
    X, Q = small_vectors
    index = ExactRBC(seed=0).build(X)
    base = traced_query(index, Q, k=2)
    via_ctx = traced_query(index, Q, k=2, ctx=ExecContext(executor="serial"))
    np.testing.assert_array_equal(base.dist, via_ctx.dist)
    np.testing.assert_array_equal(base.idx, via_ctx.idx)
    assert base.evals == via_ctx.evals
    assert base.flops == pytest.approx(via_ctx.flops)


def test_traced_query_trace_ops_false(small_vectors):
    """The near-zero-overhead mode: wall phases, no trace, no sims."""
    X, Q = small_vectors
    index = OneShotRBC(seed=0).build(X)
    run = traced_query(index, Q, [DESKTOP_QUAD], k=1, trace_ops=False)
    assert run.n_ops == 0 and run.flops == 0.0
    assert run.sims == {} or all(s.time_s == 0 for s in run.sims.values())
    assert run.evals > 0  # counter window still measured
    assert any(w >= 0 for w in run.phase_wall.values())


def test_traced_build_reports_and_indexes_by_machine(small_vectors):
    X, _ = small_vectors
    index = ExactRBC(seed=0)
    report = traced_build(index, X, [DESKTOP_QUAD, SEQUENTIAL])
    assert isinstance(report, RunReport)
    assert report.dist is None and report.idx is None
    assert report.evals > 0
    # legacy dict-style access by machine name
    assert DESKTOP_QUAD.name in report
    assert report[DESKTOP_QUAD.name].time_s > 0.0
    assert set(report.keys()) == {DESKTOP_QUAD.name, SEQUENTIAL.name}


def test_run_report_summary_and_to_dict(small_vectors):
    X, Q = small_vectors
    run = traced_query(ExactRBC(seed=0).build(X), Q, [DESKTOP_QUAD], k=2)
    text = run.summary()
    assert "distance evals" in text
    assert "sim[" in text
    d = run.to_dict()
    assert d["evals"] == run.evals
    assert set(d["sims"]) == set(run.sims)
    import json

    json.dumps(d)  # JSON-serializable end to end

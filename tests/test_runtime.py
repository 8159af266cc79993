"""The unified execution runtime: ExecContext, executor_scope, merging.

The contract under test is the PR's core promise: ``ctx=ExecContext(...)``
and the legacy ``recorder=``/``executor=`` kwargs are the *same run* —
identical answers, identical recorded traces — and executor ownership is
handled exactly once, by ``executor_scope``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BruteForceIndex, KDTree
from repro.core import ExactRBC, OneShotRBC
from repro.parallel import bf_knn
from repro.parallel.pool import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    executor_scope,
)
from repro.runtime import ExecContext, TimingRecorder, resolve_ctx
from repro.simulator.trace import NULL_RECORDER, TraceRecorder


def _trace_key(recorder: TraceRecorder) -> Counter:
    """Order-insensitive fingerprint of a recorded trace."""
    return Counter(
        (p.name, len(p.ops), round(p.flops, 6), round(p.bytes, 6))
        for p in recorder.trace.phases
    )


# ---------------------------------------------------------------- executor scope


def test_executor_scope_spec_pool_is_registry_resident():
    with executor_scope("threads", 2) as exec_:
        assert isinstance(exec_, ThreadExecutor)
        inner = exec_
    # spec-resolved pools belong to the process-wide registry: they
    # survive the scope, and the next identical spec reuses the same one
    assert inner.map(lambda x: x, [1]) == [1]
    with executor_scope("threads", 2) as again:
        assert again is inner


def test_executor_scope_leaves_caller_pool_open():
    pool = ThreadExecutor(2)
    try:
        with executor_scope(pool) as exec_:
            assert exec_ is pool
        # caller-owned instance stays usable after the scope
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]
    finally:
        pool.close()


def test_executor_scope_pool_survives_error():
    captured = []
    with pytest.raises(ValueError, match="boom"):
        with executor_scope("threads", 2) as exec_:
            captured.append(exec_)
            raise ValueError("boom")
    # an exception inside the scope must not poison the resident pool
    assert captured[0].map(lambda x: x, [1]) == [1]


def test_ctx_executor_scope_inline_processes_degrade():
    ctx = ExecContext(executor="processes", n_workers=2)
    with ctx.executor_scope(inline_processes=True) as exec_:
        assert isinstance(exec_, SerialExecutor)


def test_ctx_executor_scope_serial_default():
    with ExecContext().executor_scope() as exec_:
        assert isinstance(exec_, Executor)
        assert exec_.map(lambda x: x * 2, [3]) == [6]


# -------------------------------------------------------------------- merging


def test_resolve_ctx_packages_kwargs():
    r = TraceRecorder()
    ctx = resolve_ctx(None, recorder=r, executor="threads", row_chunk=64)
    assert ctx.recorder is r
    assert ctx.executor == "threads"
    assert ctx.row_chunk == 64


def test_resolve_ctx_ctx_fields_win():
    r1, r2 = TraceRecorder(), TraceRecorder()
    ctx = resolve_ctx(
        ExecContext(recorder=r1, row_chunk=64),
        recorder=r2,
        executor="threads",
        row_chunk=128,
    )
    assert ctx.recorder is r1  # ctx wins
    assert ctx.row_chunk == 64  # ctx wins
    assert ctx.executor == "threads"  # kwargs fill the gap


def test_overriding_unset_fields_inherit():
    base = ExecContext(executor="threads", n_workers=3, tile_cols=256)
    merged = ExecContext(tile_cols=512).overriding(base)
    assert merged.executor == "threads"
    assert merged.n_workers == 3
    assert merged.tile_cols == 512


def test_ctx_carries_execution_fields_only():
    # float64 is the one compute precision: no per-call numeric policy
    assert [f.name for f in fields(ExecContext)] == [
        "executor", "n_workers", "recorder", "row_chunk", "tile_cols", "tracer"
    ]


def test_invalid_dtype_rejected():
    with pytest.raises(TypeError):
        ExecContext(dtype="float16")
    for kw in ({"dtype": "float32"}, {"engine": False}):
        with pytest.raises(TypeError):
            resolve_ctx(None, **kw)


def test_uses_processes():
    assert ExecContext(executor="processes").uses_processes
    assert not ExecContext(executor="threads").uses_processes
    assert not ExecContext().uses_processes


def test_engine_policy_off_under_processes():
    # the index's engine rule: switch on, vector metric, ndarray database,
    # no process backend
    X = np.zeros((4, 3))
    index = ExactRBC(seed=0).build(X)
    assert index._engine_active()
    assert index._engine_active(ExecContext(executor="threads"))
    assert not index._engine_active(ExecContext(executor="processes"))
    assert not ExactRBC(seed=0, executor="processes").build(X)._engine_active()
    assert not ExactRBC(seed=0, engine=False).build(X)._engine_active()
    assert not ExactRBC(metric="edit", seed=0).build(["ab", "b"])._engine_active()


# -------------------------------------------------------------- timing recorder


def test_timing_recorder_collects_phase_wall():
    rec = TimingRecorder()
    with rec.phase("work"):
        pass
    with rec.phase("work"):
        pass
    assert rec.enabled
    assert rec.phase_wall["work"] >= 0.0
    # repeats accumulate into one entry
    assert set(rec.phase_wall) == {"work"}


def test_timing_recorder_trace_ops_false_keeps_wall_drops_ops():
    from repro.simulator.trace import Op

    rec = TimingRecorder(trace_ops=False)
    assert not rec.enabled
    with rec.phase("work"):
        rec.record(Op(kind="gemm", flops=1.0, bytes=1.0))
    assert rec.trace.phases == []  # no ops collected
    assert "work" in rec.phase_wall  # but wall time is


# ------------------------------------------------- ctx == legacy kwargs, exactly


def _run_legacy(index, Q, k, recorder):
    return index.query(Q, k=k, recorder=recorder)


def _run_ctx(index, Q, k, recorder):
    return index.query(Q, k=k, ctx=ExecContext(recorder=recorder))


@pytest.mark.parametrize(
    "make_index",
    [
        lambda: ExactRBC(seed=0),
        lambda: OneShotRBC(seed=0),
        lambda: BruteForceIndex(),
        lambda: KDTree(),
    ],
    ids=["exact", "oneshot", "brute", "kdtree"],
)
def test_ctx_equals_legacy_kwargs(make_index, small_vectors):
    X, Q = small_vectors
    k = 3

    a = make_index().build(X)
    ra = TraceRecorder()
    da, ia = _run_legacy(a, Q, k, ra)

    b = make_index().build(X)
    rb = TraceRecorder()
    db, ib = _run_ctx(b, Q, k, rb)

    np.testing.assert_array_equal(da, db)
    np.testing.assert_array_equal(ia, ib)
    assert _trace_key(ra) == _trace_key(rb)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=30, max_value=120),
    m=st.integers(min_value=1, max_value=10),
    dim=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cls=st.sampled_from([ExactRBC, OneShotRBC]),
)
def test_ctx_equals_legacy_kwargs_property(n, m, dim, k, seed, cls):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    Q = rng.normal(size=(m, dim))

    a = cls(seed=0).build(X)
    ra = TraceRecorder()
    da, ia = a.query(Q, k=k, recorder=ra, executor=None)

    b = cls(seed=0).build(X)
    rb = TraceRecorder()
    db, ib = b.query(Q, k=k, ctx=ExecContext(recorder=rb))

    np.testing.assert_array_equal(da, db)
    np.testing.assert_array_equal(ia, ib)
    assert _trace_key(ra) == _trace_key(rb)
    assert a.last_stats.rule_counts() == b.last_stats.rule_counts()


def test_bf_knn_ctx_equals_kwargs(small_vectors):
    X, Q = small_vectors
    ra, rb = TraceRecorder(), TraceRecorder()
    da, ia = bf_knn(Q, X, k=2, recorder=ra, row_chunk=8)
    db, ib = bf_knn(Q, X, k=2, ctx=ExecContext(recorder=rb, row_chunk=8))
    np.testing.assert_array_equal(da, db)
    np.testing.assert_array_equal(ia, ib)
    assert _trace_key(ra) == _trace_key(rb)


def test_ctx_overrides_index_executor(small_vectors):
    """An explicit ctx executor wins over the index's configured one."""
    X, Q = small_vectors
    pool = ThreadExecutor(2)
    try:
        index = ExactRBC(seed=0).build(X)
        d1, i1 = index.query(Q, k=2, ctx=ExecContext(executor=pool))
        d2, i2 = index.query(Q, k=2)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(i1, i2)
        # the run must not have closed the caller's pool
        assert pool.map(lambda x: x, [1]) == [1]
    finally:
        pool.close()


def test_ctx_recorder_not_mutated_by_null_default(small_vectors):
    """Queries without a recorder stay silent: NULL_RECORDER collects nothing."""
    X, Q = small_vectors
    index = ExactRBC(seed=0).build(X)
    index.query(Q, k=1)
    assert NULL_RECORDER.trace.phases == []

"""The unified execution runtime: ExecContext, executor_scope, merging.

The contract under test: ``ctx=ExecContext(...)`` is the one per-call
execution argument — its set fields override an index's configuration —
and executor ownership is handled exactly once, by ``executor_scope``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import fields

import numpy as np
import pytest

import repro
from repro.core import ExactRBC
from repro.index.registry import available_indexes, index_class
from repro.parallel.pool import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    executor_scope,
)
from repro.runtime import ExecContext, TimingRecorder, resolve_ctx
from repro.simulator.trace import NULL_RECORDER


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


# ----------------------------------------------- one execution argument: ctx

#: per-call copies of ExecContext fields that must not sit beside ``ctx``
_CTX_FIELDS = {"recorder", "executor", "row_chunk", "tile_cols"}


def _public_ctx_callables() -> dict:
    """Every public function and method under ``repro`` taking ``ctx``,
    keyed by qualified name (inherited methods under each class)."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            home = getattr(obj, "__module__", None)
            if name.startswith("_") or home != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{name}.{meth}", fn)
                    for meth, fn in inspect.getmembers(obj, inspect.isfunction)
                    if not meth.startswith("_")
                ]
            for qual, fn in members:
                if not inspect.isfunction(fn):
                    continue
                if "ctx" in inspect.signature(fn).parameters:
                    found[f"{mod.__name__}.{qual}"] = fn
    return found


def test_ctx_is_the_only_per_call_execution_argument():
    found = _public_ctx_callables()
    both = {
        qual: sorted(_CTX_FIELDS & set(inspect.signature(fn).parameters))
        for qual, fn in found.items()
    }
    assert {qual: kw for qual, kw in both.items() if kw} == {}
    # the walk reaches every entry point of the search API
    expected = {
        "repro.index.protocol.Index." + m for m in ("build", "query", "range_query")
    } | {
        "repro.parallel.bruteforce.bf_knn",
        "repro.parallel.bruteforce.bf_nn",
        "repro.parallel.bruteforce.bf_range",
        "repro.core.knngraph.knn_graph",
        "repro.eval.harness.traced_query",
        "repro.eval.harness.traced_build",
    }
    for name in available_indexes():
        cls = index_class(name)
        qual = f"{cls.__module__}.{cls.__name__}"
        expected |= {f"{qual}.build", f"{qual}.query"}
    assert expected <= set(found)

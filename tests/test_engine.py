"""Kernel engine: prepared operands, caches, engine on/off, paired kernels."""

import threading

import numpy as np
import pytest

from repro.core import ExactRBC, OneShotRBC
from repro.metrics import (
    Cosine,
    DistanceCounter,
    Euclidean,
    Mahalanobis,
    OperandCache,
    SqEuclidean,
    operand_cache,
    refine_topk,
)
from repro.metrics.engine import check_dtype
from repro.parallel import bf_knn, bf_range

VECTOR_METRICS = [
    Euclidean,
    SqEuclidean,
    Cosine,
    lambda: Mahalanobis(np.diag([1.0, 2.0, 0.5, 1.5, 1.0])),
]


def make_metric(factory):
    return factory()


# ---------------------------------------------------------------- prepared
@pytest.mark.parametrize("factory", VECTOR_METRICS)
def test_prepared_matches_plain_pairwise(factory, rng):
    metric = make_metric(factory)
    Q = rng.normal(size=(13, 5))
    X = rng.normal(size=(40, 5))
    expect = metric.pairwise(Q, X)
    got = metric.pairwise_prepared(metric.prepare(Q), metric.prepare(X))
    np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("factory", VECTOR_METRICS)
def test_prepared_slice_take_carry_extras(factory, rng):
    metric = make_metric(factory)
    X = rng.normal(size=(40, 5))
    Q = rng.normal(size=(6, 5))
    Xp = metric.prepare(X)
    Qp = metric.prepare(Q)
    full = metric.pairwise_prepared(Qp, Xp)
    np.testing.assert_array_equal(
        metric.pairwise_prepared(Qp, Xp.slice(10, 25)), full[:, 10:25]
    )
    idx = np.array([3, 0, 17, 39])
    np.testing.assert_array_equal(
        metric.pairwise_prepared(Qp, Xp.take(idx)), full[:, idx]
    )


def test_squared_domain_round_trip(rng):
    metric = Euclidean()
    Q, X = rng.normal(size=(7, 4)), rng.normal(size=(30, 4))
    Qp, Xp = metric.prepare(Q), metric.prepare(X)
    Dsq = metric.pairwise_prepared(Qp, Xp, squared=True)
    np.testing.assert_array_equal(
        metric.from_squared(Dsq), metric.pairwise_prepared(Qp, Xp)
    )


def test_cosine_rejects_squared(rng):
    metric = Cosine()
    Xp = metric.prepare(rng.normal(size=(10, 3)))
    with pytest.raises(ValueError, match="squared"):
        metric.pairwise_prepared(Xp, Xp, squared=True)


def test_check_dtype():
    assert check_dtype("float64") == "float64"
    assert check_dtype("float32") == "float32"
    with pytest.raises(ValueError, match="compute dtype"):
        check_dtype("float16")


# ------------------------------------------------------------------ cache
def test_operand_cache_hits_and_identity(rng):
    cache = OperandCache()
    metric = Euclidean()
    X = rng.normal(size=(50, 4))
    p1 = cache.get(metric, X)
    p2 = cache.get(metric, X)
    assert p1 is p2
    assert cache.stats.n_prepared == 1
    assert cache.stats.n_hits == 1
    # a different dtype is a different entry, not an invalidation
    p32 = cache.get(metric, X, dtype="float32")
    assert p32.data.dtype == np.float32
    assert cache.stats.n_prepared == 2


def test_operand_cache_version_invalidates(rng):
    cache = OperandCache()
    metric = Euclidean()
    X = rng.normal(size=(50, 4))
    cache.get(metric, X, version=0)
    cache.get(metric, X, version=1)
    assert cache.stats.n_prepared == 2
    assert cache.stats.n_invalidated == 1


def test_operand_cache_does_not_keep_arrays_alive(rng):
    cache = OperandCache()
    metric = Euclidean()
    X = rng.normal(size=(50, 4))
    cache.get(metric, X)
    assert len(cache) == 1
    del X
    # the weakref is dead; the next miss drops the stale entry
    Y = np.asarray(rng.normal(size=(50, 4)))
    cache.get(metric, Y)
    assert cache.stats.n_prepared == 2


def test_operand_cache_lru_bound(rng):
    cache = OperandCache(max_entries=3)
    metric = Euclidean()
    held = [rng.normal(size=(8, 2)) for _ in range(5)]
    for X in held:
        cache.get(metric, X)
    assert len(cache) == 3


def test_metric_instances_do_not_share_mahalanobis_entries(rng):
    cache = OperandCache()
    X = rng.normal(size=(20, 3))
    m1 = Mahalanobis(np.eye(3))
    m2 = Mahalanobis(np.diag([4.0, 4.0, 4.0]))
    p1 = cache.get(m1, X)
    p2 = cache.get(m2, X)
    assert p1 is not p2
    assert cache.stats.n_prepared == 2


# --------------------------------------------------- zero-recompute property
@pytest.mark.parametrize("cls", [ExactRBC, OneShotRBC])
def test_database_norms_computed_once_per_build(cls, rng):
    """10 consecutive query batches: zero norm recomputations after warmup."""
    X = rng.normal(size=(1200, 8))
    index = cls(seed=0).build(X)
    index.query(rng.normal(size=(20, 8)), k=3)  # warm the prepared caches
    before = operand_cache.stats.snapshot()
    for _ in range(10):
        index.query(rng.normal(size=(20, 8)), k=3)
    after = operand_cache.stats.snapshot()
    assert after.n_prepared == before.n_prepared, (
        "query batches re-prepared cached operands"
    )
    assert after.n_invalidated == before.n_invalidated


@pytest.mark.parametrize("cls", [ExactRBC, OneShotRBC])
def test_dynamic_update_invalidates_and_recomputes(cls, rng):
    X = rng.normal(size=(600, 6))
    index = cls(seed=0).build(X)
    Q = rng.normal(size=(10, 6))
    index.query(Q, k=2)
    version0 = index._version

    gid = index.insert(rng.normal(size=6))
    assert index._version > version0
    prepared0 = operand_cache.stats.snapshot().n_prepared
    d1, i1 = index.query(Q, k=2)
    assert operand_cache.stats.snapshot().n_prepared > prepared0, (
        "insert did not trigger re-preparation"
    )
    # the fresh point must be reachable through the recomputed operands
    d_new, i_new = index.query(X[[0]] * 0 + index.X[gid][None, :], k=1)
    assert i_new[0, 0] == gid

    version1 = index._version
    index.delete(gid)
    assert index._version > version1
    d2, i2 = index.query(Q, k=2)
    assert gid not in i2
    # results after churn match a fresh exact index built on the live
    # rows, its ids mapped back through active_ids (only checked for the
    # exact search; one-shot is stochastic)
    if cls is ExactRBC:
        live = index.active_ids
        rebuilt = ExactRBC(seed=0).build(index.X[live])
        d3, i3 = rebuilt.query(Q, k=2)
        np.testing.assert_array_equal(i2, live[i3])
        np.testing.assert_allclose(d2, d3, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------- engine on/off
@pytest.mark.parametrize("factory", [Euclidean, Cosine])
def test_exact_engine_matches_disabled(factory, rng):
    metric = make_metric(factory)
    X = rng.normal(size=(900, 6))
    Q = rng.normal(size=(40, 6))
    on = ExactRBC(metric=metric, seed=3).build(X)
    off = ExactRBC(metric=type(metric)(), seed=3, engine=False).build(X)
    d1, i1 = on.query(Q, k=4)
    d0, i0 = off.query(Q, k=4)
    np.testing.assert_array_equal(i1, i0)
    np.testing.assert_array_equal(d1, d0)


@pytest.mark.parametrize("factory", [Euclidean, Cosine])
@pytest.mark.parametrize("n_probes", [1, 2, 3])
def test_oneshot_engine_matches_disabled(factory, n_probes, rng):
    metric = make_metric(factory)
    X = rng.normal(size=(900, 6))
    Q = rng.normal(size=(40, 6))
    on = OneShotRBC(metric=metric, seed=3).build(X)
    off = OneShotRBC(metric=type(metric)(), seed=3, engine=False).build(X)
    d1, i1 = on.query(Q, k=4, n_probes=n_probes)
    d0, i0 = off.query(Q, k=4, n_probes=n_probes)
    np.testing.assert_array_equal(i1, i0)
    np.testing.assert_allclose(d1, d0, rtol=1e-12, atol=1e-12)


def test_oneshot_engine_matches_after_updates(rng):
    """Updates break the uniform packed layout; the fallback path must agree."""
    X = rng.normal(size=(700, 5))
    Q = rng.normal(size=(30, 5))
    on = OneShotRBC(seed=1).build(X)
    off = OneShotRBC(seed=1, engine=False).build(X)
    for _ in range(5):
        p = rng.normal(size=5)
        on.insert(p)
        off.insert(p)
    d1, i1 = on.query(Q, k=3)
    d0, i0 = off.query(Q, k=3)
    np.testing.assert_array_equal(i1, i0)
    np.testing.assert_allclose(d1, d0, rtol=1e-12)


def test_exact_engine_ablation_flags_still_exact(rng):
    X = rng.normal(size=(800, 6))
    Q = rng.normal(size=(25, 6))
    on = ExactRBC(seed=2).build(X)
    off = ExactRBC(seed=2, engine=False).build(X)
    for flags in (
        dict(use_psi_rule=False),
        dict(use_3gamma_rule=False),
        dict(use_trim=False),
        dict(use_psi_rule=False, use_3gamma_rule=False, use_trim=False),
    ):
        d1, i1 = on.query(Q, k=3, **flags)
        d0, i0 = off.query(Q, k=3, **flags)
        np.testing.assert_array_equal(i1, i0)
        np.testing.assert_array_equal(d1, d0)


# ------------------------------------------------------------ one precision
def test_bf_knn_rejects_bad_dtype_and_prepared_with_ids(rng):
    X = rng.normal(size=(50, 3))
    Q = rng.normal(size=(4, 3))
    # float64 is the one compute precision: no dtype/refine knob remains
    # (the quantized tier is quantizer=)
    for kw in (
        {"dtype": "float32"}, {"dtype": "int8"}, {"refine": False},
        {"engine": False},
    ):
        with pytest.raises(TypeError):
            bf_knn(Q, X, k=2, **kw)
        with pytest.raises(TypeError):
            bf_range(Q, X, eps=1.0, **kw)
    for kw in ({"dtype": "float32"}, {"refine": True}):
        with pytest.raises(TypeError):
            ExactRBC(**kw)
        with pytest.raises(TypeError):
            OneShotRBC(**kw)
    metric = Euclidean()
    with pytest.raises(ValueError, match="x_prepared"):
        bf_knn(
            Q, X, metric, k=2,
            ids=np.arange(50), x_prepared=metric.prepare(X),
        )


def test_refine_topk_handles_padding(rng):
    metric = Euclidean()
    X = rng.normal(size=(20, 4))
    Q = rng.normal(size=(3, 4))
    idx = np.array([[0, 5, -1, -1], [1, 2, 3, -1], [4, -1, -1, -1]])
    d, i = refine_topk(metric, Q, X, idx, k=2)
    assert d.shape == (3, 2)
    # padding slots stay padding; real slots are exact distances
    assert i[2, 1] == -1 and np.isinf(d[2, 1])
    np.testing.assert_allclose(
        d[0, 0], min(metric.pairwise(Q[[0]], X[[0, 5]])[0]), rtol=1e-12
    )


def test_refine_topk_pads_narrow_blocks_to_k(rng):
    metric = Euclidean()
    X = rng.normal(size=(20, 4))
    Q = rng.normal(size=(3, 4))
    idx = np.array([[0, 5], [1, -1], [4, 2]])
    d, i = refine_topk(metric, Q, X, idx, k=4)
    assert d.shape == (3, 4) and i.shape == (3, 4)
    assert (i[:, 2:] == -1).all() and np.isinf(d[:, 2:]).all()
    assert i[1, 0] == 1 and i[1, 1] == -1


# ------------------------------------------------------------- paired API
@pytest.mark.parametrize("factory", VECTOR_METRICS)
def test_paired_matches_pairwise_diagonal(factory, rng):
    metric = make_metric(factory)
    A = rng.normal(size=(30, 5))
    B = rng.normal(size=(30, 5))
    expect = np.array([metric.pairwise(A[[i]], B[[i]])[0, 0] for i in range(30)])
    np.testing.assert_allclose(metric.paired(A, B), expect, rtol=1e-12)


def test_paired_counts_evals(rng):
    metric = Euclidean()
    before = metric.counter.snapshot().n_evals
    metric.paired(rng.normal(size=(17, 3)), rng.normal(size=(17, 3)))
    assert metric.counter.snapshot().n_evals - before == 17


def test_paired_shape_mismatch(rng):
    metric = Euclidean()
    with pytest.raises(ValueError):
        metric.paired(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))


# ------------------------------------------------------- counter integrity
def test_distance_counter_snapshot_consistent_under_threads():
    """snapshot() must never observe a torn (n_calls, n_evals) pair."""
    counter = DistanceCounter()
    stop = threading.Event()
    bad = []

    def writer():
        while not stop.is_set():
            counter.add(2)

    def reader():
        for _ in range(3000):
            snap = counter.snapshot()
            if snap.n_evals != 2 * snap.n_calls:
                bad.append((snap.n_calls, snap.n_evals))

    threads = [threading.Thread(target=writer) for _ in range(2)]
    checker = threading.Thread(target=reader)
    for t in threads:
        t.start()
    checker.start()
    checker.join()
    stop.set()
    for t in threads:
        t.join()
    assert not bad, f"torn snapshots observed: {bad[:3]}"

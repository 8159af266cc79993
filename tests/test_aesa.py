"""AESA baseline."""

import numpy as np
import pytest

from repro.baselines import AESA
from repro.eval import results_match_exactly
from repro.metrics import EditDistance
from repro.parallel import bf_knn
from repro.runtime import ExecContext
from repro.simulator import TraceRecorder


@pytest.mark.parametrize("k", [1, 3])
def test_exact_knn(k, small_vectors):
    X, Q = small_vectors
    true_d, _ = bf_knn(Q, X, k=k)
    a = AESA().build(X)
    d, _ = a.query(Q, k=k)
    assert results_match_exactly(d, true_d)


def test_dramatically_fewer_evals(clustered):
    X, Q = clustered
    X = X[:1500]
    a = AESA().build(X)
    a.metric.reset_counter()
    a.query(Q[:20], k=1)
    per_query = a.metric.counter.n_evals / 20
    # AESA's hallmark: near-constant evaluations per query
    assert per_query < 0.05 * X.shape[0]


def test_edit_distance(rng):
    from repro.data import random_strings

    S = random_strings(200, seed=1)
    Q = random_strings(5, seed=2)
    true_d, _ = bf_knn(Q, S, EditDistance(), k=1)
    a = AESA(metric=EditDistance()).build(S)
    d, _ = a.query(Q, k=1)
    assert results_match_exactly(d, true_d)


def test_size_cap(rng):
    with pytest.raises(ValueError, match="safety cap"):
        AESA().build(np.zeros((30_000, 2)))


def test_rejects_non_metric():
    with pytest.raises(ValueError):
        AESA(metric="sqeuclidean")


def test_query_before_build():
    with pytest.raises(RuntimeError):
        AESA().query(np.zeros((1, 2)))


def test_k_exceeds_database(rng):
    X = rng.normal(size=(4, 3))
    a = AESA().build(X)
    d, i = a.query(rng.normal(size=(1, 3)), k=6)
    assert np.isfinite(d[0, :4]).all()
    assert (i[0, 4:] == -1).all()


def test_duplicates(rng):
    X = np.repeat(rng.normal(size=(3, 2)), 10, axis=0)
    a = AESA().build(X)
    true_d, _ = bf_knn(X[:3], X, k=4)
    d, _ = a.query(X[:3], k=4)
    assert results_match_exactly(d, true_d)


def test_trace_is_branchy(small_vectors):
    X, Q = small_vectors
    a = AESA().build(X)
    rec = TraceRecorder()
    a.query(Q[:3], k=1, ctx=ExecContext(recorder=rec))
    query_ops = [
        op
        for p in rec.trace.phases
        for op in p.ops
        if op.tag == "aesa:pivot"
    ]
    assert query_ops
    assert all(not op.vectorizable for op in query_ops)

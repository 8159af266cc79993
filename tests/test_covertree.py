"""Cover Tree baseline: exactness and structural invariants."""

import numpy as np
import pytest

from repro.baselines import CoverTree
from repro.eval import results_match_exactly
from repro.metrics import EditDistance
from repro.parallel import bf_knn
from repro.runtime import ExecContext
from repro.simulator import TraceRecorder


@pytest.mark.parametrize("k", [1, 4])
def test_exact_knn(k, small_vectors):
    X, Q = small_vectors
    true_d, _ = bf_knn(Q, X, k=k)
    ct = CoverTree().build(X)
    d, i = ct.query(Q, k=k)
    assert results_match_exactly(d, true_d)


def test_invariants_hold(small_vectors):
    X, _ = small_vectors
    ct = CoverTree().build(X)
    ct.check_invariants()


def test_duplicates(rng):
    X = np.repeat(rng.normal(size=(5, 3)), 10, axis=0)
    ct = CoverTree().build(X)
    ct.check_invariants()
    true_d, _ = bf_knn(X[:5], X, k=3)
    d, _ = ct.query(X[:5], k=3)
    assert results_match_exactly(d, true_d)


def test_depth_logarithmic_on_clustered(clustered):
    X, _ = clustered
    ct = CoverTree().build(X[:1000])
    # depth should be far below n; cover trees give O(log spread) depth
    assert ct.depth() < 60


@pytest.mark.parametrize("base", [1.5, 3.0])
def test_alternative_bases(base, small_vectors):
    X, Q = small_vectors
    true_d, _ = bf_knn(Q, X, k=2)
    ct = CoverTree(base=base).build(X)
    ct.check_invariants()
    d, _ = ct.query(Q, k=2)
    assert results_match_exactly(d, true_d)


def test_base_validation():
    with pytest.raises(ValueError):
        CoverTree(base=1.0)


def test_rejects_non_metric():
    with pytest.raises(ValueError):
        CoverTree(metric="sqeuclidean")


def test_query_before_build():
    with pytest.raises(RuntimeError):
        CoverTree().query(np.zeros((1, 2)))


def test_k_exceeds_database(rng):
    X = rng.normal(size=(4, 2))
    ct = CoverTree().build(X)
    d, i = ct.query(rng.normal(size=(1, 2)), k=7)
    assert np.isfinite(d[0, :4]).all()
    assert (i[0, 4:] == -1).all()


def test_single_point_database():
    ct = CoverTree().build(np.array([[1.0, 2.0]]))
    d, i = ct.query(np.array([[1.0, 2.0]]), k=1)
    assert i[0, 0] == 0
    assert d[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_prunes_relative_to_brute(clustered):
    X, Q = clustered
    ct = CoverTree().build(X)
    ct.metric.reset_counter()
    ct.query(Q[:10], k=1)
    per_query = ct.metric.counter.n_evals / 10
    assert per_query < 0.8 * X.shape[0]  # genuinely prunes


def test_edit_distance_covertree():
    from repro.data import random_strings

    S = random_strings(200, seed=0)
    Q = random_strings(10, seed=1)
    true_d, _ = bf_knn(Q, S, EditDistance(), k=1)
    ct = CoverTree(metric=EditDistance()).build(S)
    d, _ = ct.query(Q, k=1)
    assert results_match_exactly(d, true_d)


def test_query_trace_is_branchy(small_vectors):
    X, Q = small_vectors
    ct = CoverTree().build(X)
    rec = TraceRecorder()
    ct.query(Q[:5], k=1, ctx=ExecContext(recorder=rec))
    ops = [op for p in rec.trace.phases for op in p.ops]
    assert ops
    assert all(op.kind == "branchy" and not op.vectorizable for op in ops)


def test_single_query_vector(small_vectors):
    X, _ = small_vectors
    ct = CoverTree().build(X)
    d, i = ct.query(X[3], k=1)
    assert i[0, 0] == 3

"""Dynamic insert/delete on built RBC indexes."""

import numpy as np
import pytest

from repro.core import ExactRBC, OneShotRBC
from repro.eval import results_match_exactly
from repro.metrics import EditDistance
from repro.parallel import bf_knn


def active_brute(index, Q, k):
    """Ground truth restricted to the index's live points."""
    ids = index.active_ids
    return bf_knn(Q, index.X, index.metric, k=k, ids=ids)


def test_exact_insert_found_and_exact(small_vectors, rng):
    X, Q = small_vectors
    idx = ExactRBC(seed=0).build(X)
    new = rng.normal(size=(10, X.shape[1]))
    gids = [idx.insert(p) for p in new]
    assert gids == list(range(X.shape[0], X.shape[0] + 10))
    # inserted points are their own nearest neighbors
    d, i = idx.query(new, k=1)
    np.testing.assert_array_equal(i[:, 0], gids)
    # and general queries remain exact over the grown database
    d, _ = idx.query(Q, k=3)
    td, _ = active_brute(idx, Q, 3)
    assert results_match_exactly(d, td)


def test_exact_insert_maintains_invariants(small_vectors, rng):
    X, _ = small_vectors
    idx = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=12)
    for p in rng.normal(size=(20, X.shape[1])):
        idx.insert(p)
    # lists partition the active set and stay sorted with valid radii
    all_ids = np.concatenate(idx.lists)
    np.testing.assert_array_equal(np.sort(all_ids), idx.active_ids)
    for dists, radius in zip(idx.list_dists, idx.radii):
        assert (np.diff(dists) >= -1e-12).all()
        if dists.size:
            assert radius >= dists.max() - 1e-12


def test_exact_delete_point(small_vectors):
    X, Q = small_vectors
    idx = ExactRBC(seed=0).build(X)
    td, ti = bf_knn(Q, X, k=1)
    victim = int(ti[0, 0])  # delete the first query's NN
    idx.delete(victim)
    assert idx.n_active == X.shape[0] - 1
    d, i = idx.query(Q, k=2)
    assert victim not in i
    td2, _ = active_brute(idx, Q, 2)
    assert results_match_exactly(d, td2)


def test_exact_delete_representative(small_vectors):
    X, Q = small_vectors
    # tripled points: an argmin tie puts representative 2's point in
    # representative 1's list, so its delete must look beyond its own list
    dup = np.repeat(np.random.default_rng(0).normal(size=(3, 4)), 3, axis=0)
    plain = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=10)
    cases = (
        (plain, int(plain.rep_ids[3]), Q),
        (ExactRBC(metric="manhattan", seed=0).build(dup, n_reps=4), 2, dup),
    )
    for idx, rep, Qc in cases:
        n_reps = idx.rep_ids.size
        idx.delete(rep)
        assert idx.rep_ids.size == n_reps - 1
        assert rep not in np.concatenate([lst for lst in idx.lists if lst.size])
        # orphans were reassigned to their nearest surviving representative
        D = idx.metric.pairwise(
            idx.metric.take(idx.X, idx.active_ids), idx.rep_data
        )
        nearest = D.min(axis=1)
        owner_dist = {}
        for j, lst in enumerate(idx.lists):
            for gid, dist in zip(lst, idx.list_dists[j]):
                owner_dist[int(gid)] = dist
        for row, gid in enumerate(idx.active_ids):
            assert owner_dist[int(gid)] == pytest.approx(nearest[row], abs=1e-9)
        # queries stay exact and never return the deleted point
        d, i = idx.query(Qc, k=3)
        assert rep not in i
        td, _ = active_brute(idx, Qc, 3)
        assert results_match_exactly(d, td)


def test_exact_delete_last_rep_rejected():
    # the last representative cannot go, and the refused delete leaves the
    # index unchanged: the point stays live, listed and answering
    X = np.random.default_rng(0).normal(size=(4, 2))
    idx = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=4)
    *gone, last = idx.rep_ids.tolist()
    for gid in gone:
        idx.delete(gid)
    with pytest.raises(ValueError, match="only representative"):
        idx.delete(last)
    assert idx.active_ids.tolist() == [last]
    assert [lst.tolist() for lst in idx.lists] == [[last]]
    _, i = idx.query(X, k=3)
    assert (i[:, 0] == last).all() and (i[:, 1:] == -1).all()


def test_delete_twice_rejected(small_vectors):
    X, _ = small_vectors
    idx = ExactRBC(seed=0).build(X)
    idx.delete(5)
    with pytest.raises(ValueError, match="deleted"):
        idx.delete(5)


def test_delete_bad_id(small_vectors):
    X, _ = small_vectors
    idx = ExactRBC(seed=0).build(X)
    with pytest.raises(ValueError):
        idx.delete(X.shape[0] + 7)


def test_insert_dimension_mismatch(small_vectors):
    X, _ = small_vectors
    idx = ExactRBC(seed=0).build(X)
    with pytest.raises(ValueError, match="dimension"):
        idx.insert(np.zeros(X.shape[1] + 1))


def test_string_database_updates_rejected():
    from repro.data import random_strings

    idx = ExactRBC(metric=EditDistance(), seed=0).build(random_strings(60))
    with pytest.raises(ValueError, match="ndarray"):
        idx.insert("acgt")
    with pytest.raises(ValueError, match="ndarray"):
        idx.delete(0)


def test_oneshot_insert_reachable(small_vectors, rng):
    X, _ = small_vectors
    idx = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=10, s=40)
    new = rng.normal(size=(5, X.shape[1]))
    gids = [idx.insert(p) for p in new]
    d, i = idx.query(new, k=1)
    np.testing.assert_array_equal(i[:, 0], gids)
    np.testing.assert_allclose(d[:, 0], 0.0, atol=1e-6)


def test_oneshot_insert_joins_covering_lists(small_vectors, rng):
    X, _ = small_vectors
    idx = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=8, s=60)
    gid = idx.insert(rng.normal(size=X.shape[1]))
    d = idx.metric.pairwise(idx.X[gid][None], idx.rep_data)[0]
    for j in range(idx.n_reps):
        in_list = gid in idx.lists[j]
        if d[j] <= idx.radii[j]:
            assert in_list, f"point inside ball {j} but not in its list"


def test_oneshot_delete_removed_everywhere(small_vectors):
    X, _ = small_vectors
    idx = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=8, s=80)
    # pick a point that appears in at least one list
    victim = int(idx.lists[0][0])
    idx.delete(victim)
    for lst in idx.lists:
        assert victim not in lst
    d, i = idx.query(X[victim][None], k=1)
    assert i[0, 0] != victim


def test_interleaved_churn_stays_exact(small_vectors, rng):
    X, Q = small_vectors
    idx = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=20)
    for step in range(30):
        if step % 3 == 2:
            live = idx.active_ids
            nonrep = np.setdiff1d(live, idx.rep_ids)
            idx.delete(int(rng.choice(nonrep)))
        else:
            idx.insert(rng.normal(size=X.shape[1]))
    d, _ = idx.query(Q, k=4)
    td, _ = active_brute(idx, Q, 4)
    assert results_match_exactly(d, td)

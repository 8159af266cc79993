"""Batched stage 2 of the exact search vs a slow per-query reference.

The batched kernels (vectorized pruning, grouped scans, seed reuse) must be
*semantically invisible*: identical ``(dist, idx)`` answers and identical
batching-invariant ``SearchStats`` counters (``rule_counts()``) compared to
a straightforward per-query implementation of the same rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExactRBC
from repro.parallel import bf_knn
from repro.parallel.reduce import EMPTY_IDX


def reference_query(index, Q, k, *, use_psi_rule=True, use_3gamma_rule=True,
                    use_trim=True, approx_eps=0.0):
    """Per-query mirror of the exact search after stage 1.

    Semantics: round 1 scans the whole list of the nearest representative
    r1 and adds the k nearest representatives (the seeds, at their stage-1
    distances, like the batched kernel); gamma' is the k-th smallest
    distance seen, widened by three times the index's rounding bound
    (``ExactRBC._slack``, a parameter of the rules like the radii).  Then
    the psi rule and the owner bound ``rho(q, r) <= 2 gamma' + rho(q, r1)``
    per representative other than r1, the Claim-2 prefix trim, and the
    prefixes scanned; a seed a prefix holds is ranked at its scanned
    distance.  Ties rank by packed-storage position.  Returns
    ``(dist, idx, counts)`` with ``counts`` matching
    ``SearchStats.rule_counts``.
    """
    metric = index.metric
    Qb = Q if isinstance(Q, (list, np.ndarray)) and np.ndim(Q) != 1 else metric._as_batch(Q)
    m = metric.length(Qb)
    nr = index.n_reps
    D_R = metric.pairwise(Qb, index.rep_data) if isinstance(Qb, np.ndarray) else \
        np.stack([metric.pairwise(metric.take(Qb, [i]), index.rep_data)[0]
                  for i in range(m)])
    slack = index._slack(Qb, D_R)

    def scan(i, ids):
        if ids.size == 0:
            return np.empty(0)
        return metric.pairwise(metric.take(Qb, [i]), metric.take(index.X, ids))[0]

    # ties rank by packed-storage position, the batched kernel's order
    packed = index.packed
    slot = np.zeros(index.n, dtype=np.int64)
    for j in range(packed.n_lists):
        lo, hi = packed.span(j)
        slot[packed.ids[lo:hi]] = np.arange(lo, hi)

    counts = dict(n_queries=m, pruned_by_psi=0, pruned_by_3gamma=0,
                  trimmed_by_4gamma=0, candidates_examined=0)
    dists = np.full((m, k), np.inf)
    idxs = np.full((m, k), EMPTY_IDX, dtype=np.int64)
    for i in range(m):
        d_row = D_R[i]
        # ---- round 1: list r1 whole, then the seeds outside it
        r1 = int(np.argmin(d_row))
        kk = min(k, nr)
        seed_pos = np.argpartition(d_row, kk - 1)[:kk]
        first = index.lists[r1]
        extra = seed_pos[~np.isin(index.rep_ids[seed_pos], first)]
        pool_i = np.concatenate([first, index.rep_ids[extra]])
        pool_d = np.concatenate([scan(i, first), d_row[extra]])
        counts["candidates_examined"] += int(pool_i.size)
        kth = np.sort(pool_d)[k - 1] if pool_d.size >= k else np.inf
        gamma = kth + 3.0 * slack[i]
        ge = gamma / (1.0 + approx_eps)

        # ---- the rules over every other representative
        keep = np.ones(nr, dtype=bool)
        keep[r1] = False
        if use_psi_rule:
            kept = d_row - index.radii < ge
            counts["pruned_by_psi"] += int(np.count_nonzero(keep & ~kept))
            keep &= kept
        if use_3gamma_rule:
            kept = d_row <= 2.0 * gamma + d_row[r1]
            counts["pruned_by_3gamma"] += int(np.count_nonzero(keep & ~kept))
            keep &= kept
        parts = []
        for j in np.flatnonzero(keep):
            lst = index.lists[j]
            if lst.size == 0:
                continue
            if use_trim:
                cut = np.searchsorted(
                    index.list_dists[j], d_row[j] + ge, side="right"
                )
                counts["trimmed_by_4gamma"] += int(lst.size - cut)
                parts.append(lst[:cut])
            else:
                parts.append(lst)
        scanned = (np.concatenate(parts) if parts
                   else np.empty(0, dtype=np.int64))
        # a seed stage 2 scans leaves the pool: one candidate, one distance
        rescanned = np.isin(pool_i, scanned)
        counts["candidates_examined"] += int(scanned.size - rescanned.sum())

        all_d = np.concatenate([pool_d[~rescanned], scan(i, scanned)])
        all_i = np.concatenate([pool_i[~rescanned], scanned])
        order = np.lexsort((slot[all_i], all_d))[:k]
        dists[i, : order.size] = all_d[order]
        idxs[i, : order.size] = all_i[order]
    return dists, idxs, counts


FLAGS = [
    dict(),
    dict(use_psi_rule=False),
    dict(use_3gamma_rule=False),
    dict(use_trim=False),
    dict(use_psi_rule=False, use_3gamma_rule=False, use_trim=False),
]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
@pytest.mark.parametrize("flags", FLAGS)
def test_batched_matches_reference_rules(metric, flags):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(600, 5))
    Q = rng.normal(size=(40, 5))
    index = ExactRBC(metric=metric, seed=1).build(X)
    d, i = index.query(Q, k=3, **flags)
    rd, ri, rc = reference_query(index, Q, 3, **flags)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 6),
    approx_eps=st.sampled_from([0.0, 0.1, 1.0]),
    n_reps=st.integers(1, 80),
    flag_idx=st.integers(0, len(FLAGS) - 1),
)
def test_property_batched_equals_reference(seed, k, approx_eps, n_reps, flag_idx):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 3))
    Q = rng.normal(size=(17, 3))
    flags = FLAGS[flag_idx]
    index = ExactRBC(seed=seed, rep_scheme="exact").build(X, n_reps=n_reps)
    d, i = index.query(Q, k=k, approx_eps=approx_eps, **flags)
    rd, ri, rc = reference_query(index, Q, k, approx_eps=approx_eps, **flags)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc


def test_batched_matches_reference_edit_distance():
    # integer-valued metric: distance ties everywhere, so compare distances
    # and counters (ids are ambiguous under ties by design)
    from repro.data import random_strings
    from repro.metrics import EditDistance

    S = random_strings(250, seed=0)
    Q = random_strings(12, seed=1)
    index = ExactRBC(metric=EditDistance(), seed=0).build(S)
    d, _ = index.query(Q, k=3)
    rd, _, rc = reference_query(index, Q, 3)
    np.testing.assert_array_equal(d, rd)
    assert index.last_stats.rule_counts() == rc


def test_batched_candidate_count_preserved_on_headline_config():
    # the batched scan must examine exactly the candidates the per-query
    # formulation would (no silent widening from group padding)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4000, 4))
    Q = rng.normal(size=(300, 4))
    index = ExactRBC(seed=0).build(X)
    d, i = index.query(Q, k=1)
    rd, ri, rc = reference_query(index, Q, 1)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc
    true_d, _ = bf_knn(Q, X, k=1)
    np.testing.assert_allclose(d, true_d, rtol=1e-9, atol=1e-7)


def test_batched_after_insert_delete():
    # dynamic updates shuffle list membership; the rep-position map used by
    # the seed dedup must stay consistent
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 4))
    Q = rng.normal(size=(20, 4))
    index = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=25)
    for p in rng.normal(size=(10, 4)):
        index.insert(p)
    victims = [int(g) for g in rng.choice(500, size=5, replace=False)
               if g not in set(index.rep_ids.tolist())][:3]
    for gid in victims:
        index.delete(gid)
    d, i = index.query(Q, k=4)
    rd, ri, rc = reference_query(index, Q, 4)
    np.testing.assert_allclose(d, rd, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(i, ri)
    assert index.last_stats.rule_counts() == rc


def reference_rep_positions(index):
    """Per-list scan for the representative-position table: representative
    ``r`` sits at ``index.lists[owner[r]][pos[r]]``."""
    owner = np.full(index.n_reps, -1, dtype=np.int64)
    pos = np.zeros(index.n_reps, dtype=np.int64)
    for j, lst in enumerate(index.lists):
        for p, gid in enumerate(lst):
            hit = np.flatnonzero(index.rep_ids == gid)
            if hit.size:
                owner[hit[0]], pos[hit[0]] = j, p
    return owner, pos


def test_rep_positions_match_per_list_reference():
    # the table is built from the packed backing arrays, whose segment
    # slack holds stale ids after grows and deletes.  Manhattan distances
    # of coincident points are exactly 0, so an inserted copy of a
    # representative sorts in front of it
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    index = ExactRBC("manhattan", seed=0, rep_scheme="exact").build(
        X, n_reps=150
    )
    packed = index.packed

    def check():
        owner, pos = index._rep_positions()
        want_owner, want_pos = reference_rep_positions(index)
        np.testing.assert_array_equal(owner, want_owner)
        np.testing.assert_array_equal(pos, want_pos)

    check()
    # a copy of a singleton list's representative grows that segment
    j = next(t for t, lst in enumerate(index.lists) if lst.size == 1)
    rep = int(index.rep_ids[j])
    capacity = packed.capacity
    gid = index.insert(X[rep].copy())
    assert packed.capacity > capacity
    check()
    # deleting the copy leaves the representative's id in the slack
    index.delete(gid)
    assert rep in packed.ids[packed.span(j)[1] : packed.starts[j + 1]]
    check()
    # a representative delete drops its list and merges the members into
    # the remaining lists
    big = int(np.argmax([lst.size for lst in index.lists]))
    index.delete(int(index.rep_ids[big]))
    check()


def test_batched_thread_executor_same_stats(small_vectors):
    X, Q = small_vectors
    serial = ExactRBC(seed=0).build(X)
    d1, i1 = serial.query(Q, k=3)
    c1 = serial.last_stats.rule_counts()
    threaded = ExactRBC(seed=0, executor="threads").build(X)
    d2, i2 = threaded.query(Q, k=3)
    c2 = threaded.last_stats.rule_counts()
    np.testing.assert_allclose(d1, d2)
    np.testing.assert_array_equal(i1, i2)
    assert c1 == c2

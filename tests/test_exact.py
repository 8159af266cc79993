"""Exact RBC search: correctness guarantees under every configuration."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.exact
from repro.core import ExactRBC
from repro.core.exact import _POOL_BOUND
from repro.eval import distance_ratio, results_match_exactly
from repro.metrics import EditDistance, GraphMetric
from repro.parallel import bf_knn, bf_range


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
def test_exact_matches_brute(metric, k, small_vectors):
    X, Q = small_vectors
    true_d, _ = bf_knn(Q, X, metric, k=k)
    rbc = ExactRBC(metric=metric, seed=0).build(X)
    d, i = rbc.query(Q, k=k)
    assert results_match_exactly(d, true_d)


@pytest.mark.parametrize("n_reps", [1, 3, 20, 150, 400])
def test_exact_for_any_rep_count(n_reps, small_vectors):
    X, Q = small_vectors
    true_d, _ = bf_knn(Q, X, k=2)
    rbc = ExactRBC(seed=3, rep_scheme="exact").build(X, n_reps=n_reps)
    d, _ = rbc.query(Q, k=2)
    assert results_match_exactly(d, true_d)


@pytest.mark.parametrize(
    "flags",
    [
        dict(use_psi_rule=False),
        dict(use_3gamma_rule=False),
        dict(use_trim=False),
        dict(use_psi_rule=False, use_3gamma_rule=False, use_trim=False),
    ],
)
def test_exact_with_rules_disabled(flags, small_vectors):
    X, Q = small_vectors
    true_d, _ = bf_knn(Q, X, k=3)
    rbc = ExactRBC(seed=0).build(X)
    d, _ = rbc.query(Q, k=3, **flags)
    assert results_match_exactly(d, true_d)


def test_pruning_reduces_work(clustered):
    X, Q = clustered
    rbc = ExactRBC(seed=0).build(X, n_reps=200)
    rbc.query(Q, k=1)
    with_rules = rbc.last_stats.stage2_evals
    rbc.query(Q, k=1, use_psi_rule=False, use_3gamma_rule=False, use_trim=False)
    without_rules = rbc.last_stats.stage2_evals
    assert with_rules < without_rules


def test_work_sublinear_on_clustered(clustered):
    X, Q = clustered
    rbc = ExactRBC(seed=0).build(X, n_reps=200)
    rbc.query(Q, k=1)
    assert rbc.last_stats.per_query_evals() < 0.7 * X.shape[0]


def test_duplicate_points_exact():
    X = np.repeat(np.arange(10.0)[:, None], 4, axis=0)  # every point x4
    Q = np.array([[3.1], [7.9]])
    true_d, _ = bf_knn(Q, X, k=5)
    rbc = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=6)
    d, _ = rbc.query(Q, k=5)
    assert results_match_exactly(d, true_d)


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"engine": False},
        {"quantizer": "int8", "plan": "flat"},
        {"quantizer": "int8", "plan": "grouped"},
    ],
)
def test_scanned_seeds_survive_rounding(kw, pin_plan):
    # Gram-trick distances of near-coincident points carry rounding error
    # relative to the norms (|x|^2 ~ 3e3 in the first set; float32 codes
    # in the quantized flat scan), beyond the gamma threshold's relative
    # slack; every numeric path must still keep the seeds its prefixes
    # hold, or rows come back empty.  A quantized index runs the scan its
    # pinned plan names: flat, or the float64 grouped search.
    kw = dict(kw)
    if "plan" in kw:
        pin_plan(kw.pop("plan"))
    rng = np.random.default_rng(4)
    spike = np.full((24, 4), -27.64007288)
    spike[0, 0] = 0.0
    repeated = np.repeat(rng.normal(size=(300, 5)), 3, axis=0)
    cases = (
        (spike, spike[:4] + 0.01, 84),
        (repeated, repeated[rng.choice(900, 60)], 1),
    )
    for X, Q, seed in cases:
        d, i = ExactRBC(seed=seed, **kw).build(X).query(Q, k=1)
        true_d, _ = bf_knn(Q, X, k=1)
        assert (i >= 0).all()
        assert results_match_exactly(d, true_d, atol=1e-7)


def test_scan_pool_stays_bounded():
    # 16-d Gaussian: pruning keeps nearly every list and gamma alone would
    # pass hundreds of survivors per query; the scan keeps each row's k
    # best as it goes
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20_000, 16))
    Q = rng.normal(size=(256, 16))
    k = 5
    index = ExactRBC(seed=0).build(X)
    Qs, D_R = index._stage1(Q)
    first = index._first(Qs, D_R, k)
    pruned = index._prune(Qs, D_R, first, [index._scan(Qs, first, top=k)])
    pool = index._scan(Qs, pruned)
    assert pool[0].size <= _POOL_BOUND * k * len(Q)
    d, _ = index._gather(Qs, pruned, [pool], k)
    true_d, _ = bf_knn(Q, X, k=k)
    np.testing.assert_allclose(d, true_d, rtol=1e-9, atol=1e-7)


def test_owner_bound_keeps_neighbor_beyond_3_gamma_prime():
    # On a line: q = 0, representatives r1 = 10 and r2 = -11.  Round 1
    # scans r1's list and finds p = 1, so gamma' = 1 < rho(q, r1) = 10.
    # The true neighbor x = -0.6 is owned by r2 (10.4 < 10.6), and
    # rho(q, r2) = 11 lies beyond 3 gamma' = 3 but within Lemma 1's
    # 2 gamma' + rho(q, r1) = 12
    X = np.array([[10.0], [-11.0], [1.0], [-0.6]])
    with mock.patch.object(
        repro.core.exact, "sample_representatives",
        return_value=np.array([0, 1]),
    ):
        rbc = ExactRBC(seed=0).build(X, n_reps=2)
    assert [lst.tolist() for lst in rbc.lists] == [[0, 2], [1, 3]]
    d, i = rbc.query(np.array([[0.0]]), k=1)
    assert i[0, 0] == 3
    np.testing.assert_allclose(d[0, 0], 0.6)
    assert rbc.last_stats.pruned_by_3gamma == 0


def test_vectorized_trim_matches_searchsorted():
    # the Claim-2 trim's one bisection over (start, size, bound) triples
    # cuts every sorted segment where searchsorted(side="right") does,
    # ties, empty segments and out-of-range bounds included
    from repro.core.exact import _bisect_right

    rng = np.random.default_rng(0)
    sizes = rng.integers(0, 40, size=30)
    starts = np.concatenate([[0], np.cumsum(sizes + 2)[:-1]])
    values = np.zeros(int(starts[-1] + sizes[-1] + 2))
    for s, n in zip(starts, sizes):
        values[s : s + n] = np.sort(rng.integers(0, 10, size=n)).astype(float)
    pick = rng.integers(0, sizes.size, size=500)
    bounds = rng.integers(-2, 12, size=500).astype(float)
    got = _bisect_right(values, starts[pick], sizes[pick], bounds)
    want = [
        np.searchsorted(values[starts[j] : starts[j] + sizes[j]], b, side="right")
        for j, b in zip(pick, bounds)
    ]
    np.testing.assert_array_equal(got, want)


def test_integer_grid_ties_exact():
    # lattice data has massive distance ties: the boundary cases of the
    # pruning inequalities all fire here
    from repro.data import grid_l1

    X = grid_l1(7, 2)
    Q = X[::5] + 0.5
    true_d, _ = bf_knn(Q, X, "manhattan", k=4)
    rbc = ExactRBC(metric="manhattan", seed=0).build(X)
    d, _ = rbc.query(Q, k=4)
    assert results_match_exactly(d, true_d)


def test_query_is_database_point(small_vectors):
    X, _ = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    d, i = rbc.query(X[:10], k=1)
    np.testing.assert_array_equal(i[:, 0], np.arange(10))
    np.testing.assert_allclose(d[:, 0], 0.0, atol=1e-6)


def test_k_exceeds_reps_and_lists(small_vectors):
    X, Q = small_vectors
    rbc = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=2)
    true_d, _ = bf_knn(Q, X, k=5)
    d, _ = rbc.query(Q, k=5)  # k > n_reps: gamma falls back to no pruning
    assert results_match_exactly(d, true_d)


def test_k_exceeds_database():
    X = np.arange(4.0)[:, None]
    rbc = ExactRBC(seed=0).build(X)
    d, i = rbc.query(np.array([[1.4]]), k=6)
    assert np.isfinite(d[0, :4]).all()
    assert np.isinf(d[0, 4:]).all()
    assert (i[0, 4:] == -1).all()


def test_single_query_vector(small_vectors):
    X, _ = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    d, i = rbc.query(X[5], k=1)  # 1-d input
    assert d.shape == (1, 1)
    assert i[0, 0] == 5


def test_approx_eps_guarantee(clustered):
    X, Q = clustered
    true_d, _ = bf_knn(Q, X, k=1)
    rbc = ExactRBC(seed=0).build(X, n_reps=200)
    for eps in (0.1, 0.5, 2.0):
        d, _ = rbc.query(Q, k=1, approx_eps=eps)
        # every returned distance is within (1 + eps) of optimal
        assert (d[:, 0] <= (1.0 + eps) * true_d[:, 0] + 1e-9).all()
        assert distance_ratio(d, true_d) <= 1.0 + eps + 1e-9


def test_approx_eps_prunes_more(clustered):
    X, Q = clustered
    rbc = ExactRBC(seed=0).build(X, n_reps=200)
    rbc.query(Q, k=1)
    exact_work = rbc.last_stats.stage2_evals
    rbc.query(Q, k=1, approx_eps=2.0)
    approx_work = rbc.last_stats.stage2_evals
    assert approx_work <= exact_work


def test_approx_eps_validation(small_vectors):
    X, Q = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    with pytest.raises(ValueError):
        rbc.query(Q, k=1, approx_eps=-0.5)


def test_bad_k(small_vectors):
    X, Q = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    with pytest.raises(ValueError):
        rbc.query(Q, k=0)


def test_stats_accounting(small_vectors):
    X, Q = small_vectors
    rbc = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=20)
    before = rbc.metric.counter.n_evals
    rbc.query(Q, k=1)
    spent = rbc.metric.counter.n_evals - before
    st_ = rbc.last_stats
    assert st_.stage1_evals == Q.shape[0] * 20
    assert st_.stage1_evals + st_.stage2_evals == spent
    assert st_.n_queries == Q.shape[0]
    assert st_.total_evals == spent


def test_candidate_fraction_probe_counts_live_rows():
    # the probe feeds the autotuner, the router and DriftMonitor: after
    # deletes it must still read the kept share of the *live* database
    # (16-d Gaussian: the rules keep nearly everything, before and after)
    rng = np.random.default_rng(0)
    index = ExactRBC(seed=0).build(rng.normal(size=(1000, 16)))
    before = index._estimate_candidate_fraction()
    reps = set(index.rep_ids.tolist())
    for gid in range(0, 1000, 2):
        if gid not in reps:
            index.delete(gid)
    assert index.n_active < 0.6 * index.n
    after = index._estimate_candidate_fraction()
    assert before > 0.8
    assert after == pytest.approx(before, abs=0.1)


def test_range_query_matches_brute(small_vectors):
    X, Q = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    for eps in (0.5, 2.0, 5.0):
        got = rbc.range_query(Q, eps)
        expect = bf_range(Q, X, eps)
        for (gd, gi), (ed, ei) in zip(got, expect):
            assert set(gi.tolist()) == set(ei.tolist())
            np.testing.assert_allclose(np.sort(gd), np.sort(ed))


def test_range_query_tiny_eps_finds_self(small_vectors):
    X, _ = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    # eps slightly above the sq-euclidean cancellation noise floor
    out = rbc.range_query(X[:3], 1e-5)
    for r, (d, i) in enumerate(out):
        assert r in i.tolist()


def test_range_query_validation(small_vectors):
    X, Q = small_vectors
    rbc = ExactRBC(seed=0).build(X)
    with pytest.raises(ValueError):
        rbc.range_query(Q, -1.0)


def test_exact_on_edit_distance():
    from repro.data import random_strings

    S = random_strings(300, seed=0)
    Q = random_strings(15, seed=1)
    true_d, _ = bf_knn(Q, S, EditDistance(), k=2)
    rbc = ExactRBC(metric=EditDistance(), seed=0).build(S)
    d, _ = rbc.query(Q, k=2)
    assert results_match_exactly(d, true_d)


def test_exact_on_graph_metric():
    from repro.data import random_geometric_graph

    g, _ = random_geometric_graph(300, seed=0)
    gm = GraphMetric(g)
    ids = gm.node_ids()
    X, Q = ids[:260], ids[260:]
    true_d, _ = bf_knn(Q, X, gm, k=2)
    rbc = ExactRBC(metric=GraphMetric(g), seed=0).build(X)
    d, _ = rbc.query(Q, k=2)
    assert results_match_exactly(d, true_d)


def test_thread_executor_equivalent(small_vectors):
    X, Q = small_vectors
    serial = ExactRBC(seed=0).build(X)
    d1, _ = serial.query(Q, k=3)
    threaded = ExactRBC(seed=0, executor="threads").build(X)
    d2, _ = threaded.query(Q, k=3)
    np.testing.assert_allclose(d1, d2)


FINITE = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(20, 60), st.just(3)), elements=FINITE),
    st.integers(1, 10),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_property_exact_equals_brute(X, k, copies, seed):
    # repeated rows tie exactly, and small pools overflow the scan's
    # per-row bound, so its compactions run on ties.  The queries are
    # data points, so whenever k <= copies round 1 finds k copies and
    # gamma' is 0: only the rounding slack keeps the rules exact
    X = np.repeat(X, copies, axis=0)
    Q = X[::7]
    true_d, _ = bf_knn(Q, X, k=k)
    rbc = ExactRBC(seed=seed).build(X)
    d, i = rbc.query(Q, k=k)
    # atol covers the Gram-trick cancellation noise at coordinate scale 50
    np.testing.assert_allclose(d, true_d, rtol=1e-9, atol=2e-5)
    if k <= copies:
        assert (d <= 2e-5).all()
    # a bound no pool reaches never compacts: ranking every candidate
    # within gamma once must give the same ids and distances, ties included
    with mock.patch.object(repro.core.exact, "_POOL_BOUND", 10**9):
        d_once, i_once = rbc.query(Q, k=k)
    np.testing.assert_array_equal(i, i_once)
    np.testing.assert_array_equal(d, d_once)

"""Cross-backend answer parity through the registry.

Every registered backend must return the same *shape* of answer — a
``(m, k)`` float64 distance block and a ``(m, k)`` int64 id block,
ascending per row, padded with ``inf`` / ``-1`` past the valid prefix —
on the same edge cases (k > n, duplicate points, d = 1, empty query
batch).  Exact backends must additionally agree with the brute-force
oracle; approximate backends must report true distances for whatever ids
they do return.  The Router must hand back its chosen backend's answer
bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.index import Router, create_index
from repro.metrics import get_metric
from repro.parallel import bf_knn

FINITE = st.floats(min_value=-100, max_value=100, allow_nan=False)
SMALL_DATA = arrays(
    np.float64, st.tuples(st.integers(10, 50), st.integers(1, 4)),
    elements=FINITE,
)

EXACT = (
    "rbc-exact", "brute", "covertree", "kdtree", "balltree", "vptree",
    "gnat", "aesa", "buffer-kd",
)
APPROX = ("rbc-oneshot", "rpforest")
ALL = EXACT + APPROX

_FAST = {
    "kdtree": {"leaf_size": 4},
    "balltree": {"leaf_size": 4},
    "vptree": {"leaf_size": 4},
    "gnat": {"leaf_size": 6},
    "buffer-kd": {"leaf_size": 8},
    "rpforest": {"leaf_size": 8, "n_trees": 6},
}


def _built(name, X, seed=0):
    kw = {"metric": "euclidean", "seed": seed, **_FAST.get(name, {})}
    return create_index(name, lenient=True, **kw).build(X)


def _check_row_contract(name, d, i, m, k, n, *, exact=True):
    assert d.shape == (m, k) and i.shape == (m, k), name
    assert d.dtype == np.float64 and i.dtype == np.int64, name
    valid = i >= 0
    # valid prefix, then -1 padding — never interleaved
    n_valid = valid.sum(axis=1)
    if exact:
        assert (n_valid == np.minimum(k, n)).all(), name
    else:
        # approximate backends may surface fewer than min(k, n)
        # candidates, but never more
        assert (n_valid <= np.minimum(k, n)).all(), name
    cols = np.arange(k)
    assert (valid == (cols[None, :] < n_valid[:, None])).all(), name
    assert np.isinf(d[~valid]).all(), name
    assert (i[valid] < n).all(), name
    # ascending over the valid prefix (inf - inf in the padding is nan,
    # and the padding itself is already checked above)
    with np.errstate(invalid="ignore"):
        diffs = np.diff(d, axis=1)
    assert ((diffs >= -1e-12) | np.isnan(diffs)).all(), name


@settings(max_examples=15, deadline=None)
@given(SMALL_DATA, st.integers(1, 3), st.integers(0, 99))
def test_property_uniform_answer_contract(X, k, seed):
    Q = X[:: max(1, X.shape[0] // 5)]
    ref, _ = bf_knn(Q, X, k=k)
    metric = get_metric("euclidean")
    for name in ALL:
        idx = _built(name, X, seed=seed)
        d, i = idx.query(Q, k=k)
        _check_row_contract(name, d, i, Q.shape[0], k, X.shape[0],
                            exact=name in EXACT)
        if name in EXACT:
            np.testing.assert_allclose(d, ref, atol=2e-5, err_msg=name)
        else:
            # approximate: the distances reported must be the true
            # distances of the ids reported
            valid = i >= 0
            true_d = metric.paired(
                np.repeat(Q, k, axis=0)[valid.ravel()],
                X[i[valid]],
            )
            np.testing.assert_allclose(d[valid], true_d, atol=2e-5,
                                       err_msg=name)


def test_k_exceeds_n_pads_uniformly():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(7, 3))
    Q = X[:4]
    for name in ALL:
        d, i = _built(name, X).query(Q, k=11)
        _check_row_contract(name, d, i, 4, 11, 7, exact=name in EXACT)
        assert np.isinf(d[:, 7:]).all(), name
        assert (i[:, 7:] == -1).all(), name


def test_duplicate_points_tie_stable():
    # 4 copies of each of 5 points: ties everywhere.  Each backend must
    # return k ids all at the tied distance, deterministically across
    # repeated calls.
    rng = np.random.default_rng(5)
    base = rng.normal(size=(5, 3))
    X = np.repeat(base, 4, axis=0)
    Q = base + 1e-9
    for name in ALL:
        idx = _built(name, X)
        d1, i1 = idx.query(Q, k=4)
        d2, i2 = idx.query(Q, k=4)
        _check_row_contract(name, d1, i1, 5, 4, 20)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2), name
        # every returned id is one of the 4 coincident copies
        for row, ids in enumerate(i1):
            assert set(ids.tolist()) <= set(range(4 * row, 4 * row + 4)), name


def test_one_dimensional_data():
    X = np.linspace(0.0, 1.0, 20)[:, None]
    Q = np.array([[0.05], [0.5], [0.97]])
    ref, ref_i = bf_knn(Q, X, k=2)
    for name in EXACT:
        d, i = _built(name, X).query(Q, k=2)
        np.testing.assert_allclose(d, ref, atol=1e-12, err_msg=name)
        assert np.array_equal(np.sort(i, axis=1), np.sort(ref_i, axis=1)), name


def test_empty_query_batch_everywhere():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 4))
    for name in ALL:
        d, i = _built(name, X).query(X[:0], k=3)
        assert d.shape == (0, 3) and i.shape == (0, 3), name
        assert d.dtype == np.float64 and i.dtype == np.int64, name


def test_router_bit_identical_to_chosen_backend():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 8))
    Q = rng.normal(size=(20, 8))
    router = Router(seed=0).build(X)
    for k in (1, 3, 7):
        d, i = router.query(Q, k=k)
        chosen = router.last_decision.backend
        d_ref, i_ref = router.backend(chosen).query(Q, k=k)
        assert np.array_equal(d, d_ref), chosen
        assert np.array_equal(i, i_ref), chosen


def test_router_edge_cases_follow_contract():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 5))
    router = Router(seed=0).build(X)
    d, i = router.query(X[:3], k=50)
    _check_row_contract("router", d, i, 3, 50, 40)
    d, i = router.query(X[:0], k=2)
    assert d.shape == (0, 2) and i.shape == (0, 2)

"""The quantized + autotuned kernel tier under the metric engine.

Everything here checks one invariant from two directions: compressed
codes only ever *generate candidates*; the float64 re-rank makes the
final answers id-identical to the uncompressed search (up to ties, where
any member of the tied equivalence class is a correct answer).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import ExactRBC, OneShotRBC
from repro.metrics import (
    HAVE_NUMBA,
    QUANT_KINDS,
    OperandCache,
    get_metric,
    kernel_backend,
    quant_search,
    quantize_prepared,
    set_kernel_backend,
    supports_quantization,
)
from repro.metrics.quantize import _frontier, check_quantizer, quant_topk
from repro.parallel import bf_knn
from repro.runtime import Autotuner, RunReport


def reference_knn(Q, X, k, metric="euclidean"):
    D = get_metric(metric).pairwise(np.atleast_2d(Q), X)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D, order, axis=1), order


def assert_same_answers(d_ref, i_ref, d_new, i_new, *, tol=1e-7, pairs=None):
    """Distances must agree; ids may differ only at tied distances.

    Because every quantized path re-ranks in exact float64, a differing
    id whose reported distance matches the reference *is* a tie (any
    member of the equal-distance class is a correct k-NN answer).  Pass
    ``pairs=(metric, Q, X)`` to additionally recompute the distance of
    each differing id and pin it to the reported value, ruling out a
    bug that pairs wrong ids with copied reference distances.
    """
    i_ref, i_new = np.asarray(i_ref), np.asarray(i_new)
    np.testing.assert_allclose(d_new, d_ref, rtol=1e-6, atol=tol)
    if pairs is None:
        return
    met, Q, X = pairs
    Q = np.atleast_2d(Q)
    for r, t in zip(*np.nonzero(i_ref != i_new)):
        if i_new[r, t] < 0:
            continue  # padding slot: already pinned inf by the allclose
        true = met.pairwise(Q[r : r + 1], X[i_new[r, t]][None, :])[0, 0]
        assert np.isclose(true, d_new[r, t], rtol=1e-6, atol=max(tol, 1e-6))


# ------------------------------------------------------------ primitives
def test_check_quantizer_rejects_unknown():
    with pytest.raises(ValueError, match="quantizer"):
        check_quantizer("int4")


def test_supports_quantization_by_kernel():
    assert supports_quantization(get_metric("euclidean"))
    assert supports_quantization(get_metric("cosine"))
    assert not supports_quantization(get_metric("chebyshev"))


def test_quantize_rejects_unquantizable_metric(small_vectors):
    X, _ = small_vectors
    met = get_metric("chebyshev")
    with pytest.raises(ValueError, match="quantizable"):
        quantize_prepared(met, met.prepare(X), "int8")


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("kind", QUANT_KINDS)
def test_quant_search_matches_reference(metric, kind, small_vectors):
    X, Q = small_vectors
    met = get_metric(metric)
    qop = quantize_prepared(met, met.prepare(X), kind)
    d, i, info = quant_search(met, Q, X, qop, 5)
    ed, ei = reference_knn(Q, X, 5, metric)
    assert_same_answers(ed, ei, d, i, pairs=(met, Q, X))
    assert info["quantizer"] == kind
    assert 0.0 <= info["recall_before_rerank"] <= 1.0
    assert info["code_bytes"] < X.nbytes


def test_quant_search_k_exceeds_n():
    X = np.array([[0.0], [1.0], [1.0], [2.0]])
    met = get_metric("euclidean")
    qop = quantize_prepared(met, met.prepare(X), "int8")
    d, i, _ = quant_search(met, X[:2], X, qop, 6)
    ed, ei = reference_knn(X[:2], X, 4, "euclidean")
    # the 4 live rows, then inf / -1 padding out to k
    assert d.shape == (2, 6) and np.isinf(d[:, 4:]).all()
    assert (i[:, 4:] == -1).all()
    assert_same_answers(ed, ei, d[:, :4], i[:, :4])
    bd, bi = bf_knn(X[:2], X, k=6, quantizer="int8")
    assert bd.shape == (2, 6) and np.isinf(bd[:, 4:]).all()
    assert (bi[:, 4:] == -1).all()


FINITE = st.floats(-50, 50, allow_nan=False)
PROP_DATA = arrays(
    np.float64,
    st.tuples(st.integers(12, 40), st.integers(1, 5)),
    elements=FINITE,
)


@settings(max_examples=15, deadline=None)
@given(
    PROP_DATA,
    st.sampled_from(QUANT_KINDS),
    st.sampled_from(["euclidean", "cosine"]),
    st.integers(1, 3),
)
def test_property_quant_matches_float64(X, kind, metric, k):
    X = np.concatenate([X, X[:3]])  # force duplicate points (hard ties)
    if metric == "cosine":
        # cosine is undefined on zero rows: nudge them onto a unit axis
        zero = np.linalg.norm(X, axis=1) < 1e-9
        X[zero] = 0.0
        X[zero, 0] = 1.0
    else:
        X[0] = 0.0  # and an explicit zero vector for l2
    Q = X[::4]
    met = get_metric(metric)
    qop = quantize_prepared(met, met.prepare(X), kind)
    d, i, _ = quant_search(met, Q, X, qop, k)
    ed, ei = reference_knn(Q, X, k, metric)
    assert_same_answers(ed, ei, d, i, tol=2e-4, pairs=(met, Q, X))


# ------------------------------------------------------------ index paths
@pytest.mark.parametrize("strategy", ["flat", "grouped"])
@pytest.mark.parametrize(
    "metric,kind",
    [("euclidean", "int8"), ("euclidean", "pq"), ("cosine", "float16")],
)
def test_exact_rbc_quant_parity(metric, kind, strategy, rng, pin_plan):
    # a flat plan runs the certified quantized scan; a grouped plan runs
    # the float64 two-stage search itself, so it reports no quant stats
    pin_plan(strategy)
    X = rng.normal(size=(900, 8))
    Q = rng.normal(size=(40, 8))
    plain = ExactRBC(metric=metric, seed=0).build(X, n_reps=30)
    quant = ExactRBC(metric=metric, seed=0, quantizer=kind).build(X, n_reps=30)
    ed, ei = plain.query(Q, k=5)
    d, i = quant.query(Q, k=5)
    if strategy == "grouped":
        np.testing.assert_array_equal(i, ei)
        np.testing.assert_array_equal(d, ed)
        assert quant.last_stats.quant is None
    else:
        assert_same_answers(ed, ei, d, i)
        assert quant.last_stats.quant["strategy"] == "flat"
        assert quant.last_stats.quant["quantizer"] == kind


def test_grouped_plan_runs_the_float64_search(clustered):
    # low intrinsic dimension: pruning bites, so the autotuner itself
    # picks grouped, and a quantized index is the float64 index — same
    # answers to the bit, no codes built, no extra memory
    X, Q = clustered
    plain = ExactRBC(seed=0).build(X).warm()
    quant = ExactRBC(seed=0, quantizer="int8").build(X).warm()
    assert quant._quant_plan().strategy == "grouped"
    assert ("quant", "int8") not in quant._prep
    assert quant.memory_footprint() == plain.memory_footprint()
    for k in (1, 5):
        ed, ei = plain.query(Q, k=k)
        d, i = quant.query(Q, k=k)
        np.testing.assert_array_equal(i, ei)
        np.testing.assert_array_equal(d, ed)
        assert quant.last_stats.quant is None
        assert quant.last_stats.rule_counts() == plain.last_stats.rule_counts()


def test_exact_rbc_quant_survives_insert_delete(rng, pin_plan):
    pin_plan("flat")
    X = rng.normal(size=(300, 6))
    quant = ExactRBC(seed=0, quantizer="int8").build(X, n_reps=20)
    quant.query(X[:5], k=3)  # populate the quantized operand
    gid = quant.insert(rng.normal(size=6))
    quant.delete(0)
    live = np.concatenate([X[1:], quant.X[gid][None, :]])
    live_ids = np.concatenate([np.arange(1, 300), [gid]])
    Q = rng.normal(size=(10, 6))
    d, i = quant.query(Q, k=4)
    assert quant.last_stats.quant["strategy"] == "flat"
    ed, ei = reference_knn(Q, live, 4)
    assert_same_answers(ed, ei, d, np.searchsorted(live_ids, i))


def test_quant_topk_full_branch_excludes_slack(rng):
    """When the over-fetch width covers every live row (full branch), the
    selection must not leak packed slack columns: their ids would map to
    whatever sentinel the slack entries hold (historically a clipped 0,
    i.e. a *real* point id)."""
    X = rng.normal(size=(12, 4))
    met = get_metric("euclidean")
    valid = np.ones(12, dtype=bool)
    valid[8:] = False
    ids = np.arange(12, dtype=np.int64)
    ids[8:] = 0  # adversarial slack ids: a leak would surface as id 0
    qop = quantize_prepared(met, met.prepare(X), "int8", ids=ids, valid=valid)
    gids, fallback, _ = quant_topk(met, X[:3], qop, k=6)  # width >= 8 live
    assert not fallback
    for row in gids:
        kept = row[row >= 0]
        assert len(kept) == 8  # exactly the live rows, nothing more
        assert sorted(kept) == list(range(8))


@pytest.mark.parametrize(
    "n, width",
    [(300, 21), (1_000, 21), (6_007, 21), (20_000, 21), (5_000, 1)],
    ids=["whole-row", "narrowed", "narrowed-twice-tail", "narrowed-twice",
         "width-1"],
)
def test_frontier_keeps_each_rows_smallest(n, width):
    # small integer scores tie everywhere, and +inf marks slack columns:
    # the block-minimum narrowing must still return each row's width
    # smallest scores, ascending, ties ordered by column
    rng = np.random.default_rng(n)
    S = rng.integers(0, 40, size=(16, n)).astype(np.float32)
    S[:, rng.choice(n, size=n // 10, replace=False)] = np.inf
    S[3] = 7.0  # a row of one tied value
    S[5, -1] = -1.0  # a row minimum in the columns past the last stride
    cols, vals = _frontier(S, width)
    np.testing.assert_array_equal(vals, np.sort(S, axis=1)[:, :width])
    np.testing.assert_array_equal(np.take_along_axis(S, cols, axis=1), vals)
    for c, v in zip(cols, vals):
        assert len(np.unique(c)) == width
        assert (np.lexsort((c, v)) == np.arange(width)).all()


def test_exact_rbc_quant_flat_full_overfetch_after_delete(rng, pin_plan):
    """Deletions leave slack rows in the packed layout; with k large
    enough that the flat scan's over-fetch width covers every live row,
    answers must stay id-identical to brute force over the live points —
    no duplicated ids, no tombstoned ids (the historical failure returned
    global id 0 in multiple slots after id 0 itself was deleted)."""
    pin_plan("flat")
    X = rng.normal(size=(60, 5))
    quant = ExactRBC(seed=0, quantizer="int8").build(X, n_reps=8)
    deleted = [0, 3, 7, 11, 19, 23, 31, 37, 42, 45, 48, 51, 54, 57, 59]
    for gid in deleted:
        quant.delete(gid)
    live_ids = np.setdiff1d(np.arange(60), deleted)
    Q = rng.normal(size=(8, 5))
    # k=12 -> width = 4*12+1 = 49 > 45 live rows: the full branch runs
    d, i = quant.query(Q, k=12)
    assert quant.last_stats.quant["strategy"] == "flat"
    assert not np.isin(i, deleted).any()
    for row in i:
        kept = row[row >= 0]
        assert len(np.unique(kept)) == len(kept)
    ed, ei = reference_knn(Q, X[live_ids], 12)
    assert_same_answers(ed, ei, d, np.searchsorted(live_ids, i))
    # work accounting counts live rows only, matching the metric counter
    assert quant.last_stats.candidates_examined == len(Q) * len(live_ids)


def test_warm_builds_quant_operand(rng, pin_plan):
    pin_plan("flat")
    X = rng.normal(size=(400, 8))
    idx = ExactRBC(seed=0, quantizer="int8").build(X, n_reps=20)
    base = idx.memory_footprint()
    idx.warm()
    prep_keys = list(idx._prep)
    assert any(k[0] == "quant" for k in prep_keys if isinstance(k, tuple))
    assert idx.memory_footprint() > base  # codes counted in the footprint


def test_quant_answers_keep_k_columns(pin_plan):
    # fewer candidates than k: the flat scan pads its answer to (m, k)
    # with inf / -1, exactly like the float64 search it mirrors
    pin_plan("flat")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 4))
    Q = rng.normal(size=(3, 4))
    k = 15
    ed, ei = ExactRBC(seed=0).build(X).query(Q, k=k)
    quant = ExactRBC(seed=0, quantizer="int8").build(X)
    d, i = quant.query(Q, k=k)
    assert quant.last_stats.quant["strategy"] == "flat"
    assert d.shape == i.shape == (3, k)
    np.testing.assert_array_equal(i, ei)
    assert_same_answers(ed, ei, d, i)


def test_quantizer_arg_validation(rng):
    with pytest.raises(ValueError):
        ExactRBC(quantizer="int4")
    with pytest.raises(ValueError):
        ExactRBC(metric="chebyshev", quantizer="int8")


def test_removed_quant_options_raise_type_error():
    # the autotuner's plan is the one flat/grouped switch, and the
    # one-shot search scans no codes
    with pytest.raises(TypeError):
        ExactRBC(quantizer="int8", quant_strategy="flat")
    with pytest.raises(TypeError):
        OneShotRBC(quantizer="int8")
    with pytest.raises(TypeError):
        OneShotRBC(quant_strategy="flat")
    assert not OneShotRBC().capabilities().quantizable
    assert ExactRBC().capabilities().quantizable


# --------------------------------------------------------------- bf_knn
def test_bf_knn_quantizer_parity(small_vectors):
    X, Q = small_vectors
    ed, ei = bf_knn(Q, X, k=5)
    d, i = bf_knn(Q, X, k=5, quantizer="int8")
    assert_same_answers(ed, ei, d, i)


def test_bf_knn_quantizer_with_ids(small_vectors, rng):
    X, Q = small_vectors
    ids = np.sort(rng.choice(len(X), size=120, replace=False))
    ed, ei = bf_knn(Q, X, k=3, ids=ids)
    d, i = bf_knn(Q, X, k=3, ids=ids, quantizer="float16")
    assert_same_answers(ed, ei, d, i)


def test_bf_knn_quantizer_operand_cache_is_stable(rng):
    """The quantized operand must be cached under the caller's array —
    an internal coerced temporary would change id() every call, so each
    query batch would re-quantize (and re-train PQ) from scratch."""
    from repro.metrics.engine import operand_cache

    met = get_metric("euclidean")
    X = rng.normal(size=(80, 6))
    Q = rng.normal(size=(5, 6))
    bf_knn(Q, X, k=3, quantizer="int8")
    hits0 = operand_cache.stats.n_hits
    assert operand_cache.get_quantized(met, X, "int8") is not None
    assert operand_cache.stats.n_hits == hits0 + 1  # keyed on X itself


def test_bf_knn_quantizer_rejects_processes(small_vectors):
    X, Q = small_vectors
    with pytest.raises(ValueError, match="in-process"):
        bf_knn(Q, X, k=3, quantizer="int8", executor="processes")


def test_bf_knn_quantizer_rejects_unquantizable(small_vectors):
    X, Q = small_vectors
    with pytest.raises(ValueError):
        bf_knn(Q, X, "chebyshev", k=3, quantizer="int8")


def test_bf_knn_thread_prealloc_matches_serial(small_vectors):
    X, Q = small_vectors
    d1, i1 = bf_knn(Q, X, k=5)
    d2, i2 = bf_knn(Q, X, k=5, executor="threads", row_chunk=4)
    np.testing.assert_allclose(d1, d2)
    np.testing.assert_array_equal(i1, i2)


def test_bf_knn_thread_prealloc_k_exceeds_n(rng):
    X = rng.normal(size=(3, 4))
    Q = rng.normal(size=(9, 4))
    d, i = bf_knn(Q, X, k=5, executor="threads", row_chunk=2)
    assert d.shape == (9, 5)
    assert np.isinf(d[:, 3:]).all() and (i[:, 3:] == -1).all()


# ---------------------------------------------------------- cache family
def test_operand_cache_quantized_hit_and_family_eviction(rng):
    cache = OperandCache(max_entries=8)
    met = get_metric("euclidean")
    X = rng.normal(size=(50, 4))
    cache.get(met, X, version=0)
    q0 = cache.get_quantized(met, X, "int8", version=0)
    assert cache.get_quantized(met, X, "int8", version=0) is q0
    assert cache.stats.n_hits >= 1

    # invalidating the float64 parent must take every variant with it
    before = cache.stats.n_invalidated
    cache.get(met, X, version=1)
    assert cache.stats.n_invalidated >= before + 2
    q1 = cache.get_quantized(met, X, "int8", version=1)
    assert q1 is not q0

    # and a stale version seen via the quantized getter evicts too
    q2 = cache.get_quantized(met, X, "int8", version=2)
    assert q2 is not q1


# ------------------------------------------------------------- autotuner
def test_autotuner_prefers_grouped_when_pruning_bites():
    t = Autotuner()
    plan = t.plan_for(1 << 16, 32, backend="numpy", cand_frac=0.01)
    assert plan.strategy == "grouped"
    assert plan.predicted_ms["grouped"] < plan.predicted_ms["flat"]


def test_autotuner_prefers_flat_on_compressed_full_scans():
    t = Autotuner()
    plan = t.plan_for(
        1 << 20, 128, backend="numba", quantizer="pq", cand_frac=1.0
    )
    assert plan.strategy == "flat"


def test_autotuner_cand_frac_is_part_of_plan_key():
    """Two same-shaped workloads with different pruning behavior get
    different plans: the probed candidate fraction, not the shape alone,
    decides the flat/grouped pick."""
    t = Autotuner()
    g = t.plan_for(1 << 16, 32, backend="numpy", cand_frac=0.01)
    f = t.plan_for(1 << 16, 32, backend="numpy", cand_frac=1.0)
    assert g.strategy == "grouped"
    assert f.strategy == "flat"
    assert g.cand_frac == 0.01 and f.cand_frac == 1.0


def test_autotuner_row_chunk_clamped():
    t = Autotuner()
    assert t.plan_for(1 << 20, 32, backend="numpy").row_chunk == 32
    assert t.plan_for(1000, 32, backend="numpy").row_chunk == 256


# ------------------------------------------------------- backend control
def test_set_kernel_backend_override():
    try:
        set_kernel_backend("numpy")
        assert kernel_backend() == "numpy"
        assert kernel_backend("int8") == "numpy"
        with pytest.raises(ValueError):
            set_kernel_backend("fortran")
    finally:
        set_kernel_backend(None)
    assert kernel_backend("float16") == "numpy"  # storage-only kind


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
@pytest.mark.parametrize("kind", ["int8", "pq"])
def test_numba_backend_matches_numpy(kind, small_vectors):
    X, Q = small_vectors
    met = get_metric("euclidean")
    qop = quantize_prepared(met, met.prepare(X), kind)
    d1, i1, _ = quant_search(met, Q, X, qop, 5, backend="numpy")
    d2, i2, _ = quant_search(met, Q, X, qop, 5, backend="numba")
    np.testing.assert_allclose(d1, d2)
    assert_same_answers(d1, i1, d2, i2)


# --------------------------------------------------------------- reports
def test_runreport_quant_roundtrip():
    rep = RunReport(
        name="q",
        quant={"strategy": "flat", "quantizer": "int8", "k_prime": 20},
    )
    back = RunReport.from_dict(rep.to_dict())
    assert back.quant == rep.quant
    assert "quant:" in rep.summary()

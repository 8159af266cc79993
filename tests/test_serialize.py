"""Index persistence (save_index / load_index)."""

import numpy as np
import pytest

from repro.core import ExactRBC, OneShotRBC, load_index, save_index
from repro.metrics import EditDistance


def test_exact_roundtrip(small_vectors, tmp_path):
    X, Q = small_vectors
    orig = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=15)
    d0, i0 = orig.query(Q, k=3)
    path = tmp_path / "exact.npz"
    save_index(orig, path)
    clone = load_index(path)
    assert isinstance(clone, ExactRBC)
    d1, i1 = clone.query(Q, k=3)
    np.testing.assert_allclose(d1, d0)
    np.testing.assert_array_equal(i1, i0)


def test_oneshot_roundtrip(small_vectors, tmp_path):
    X, Q = small_vectors
    orig = OneShotRBC(seed=0, rep_scheme="exact").build(X, n_reps=10, s=30)
    d0, i0 = orig.query(Q, k=2)
    path = tmp_path / "oneshot.npz"
    save_index(orig, path)
    clone = load_index(path)
    assert isinstance(clone, OneShotRBC)
    assert clone.s == 30
    d1, i1 = clone.query(Q, k=2)
    np.testing.assert_allclose(d1, d0)
    np.testing.assert_array_equal(i1, i0)


def test_roundtrip_preserves_structure(small_vectors, tmp_path):
    X, _ = small_vectors
    orig = ExactRBC(metric="manhattan", seed=3).build(X, n_reps=12)
    path = tmp_path / "idx.npz"
    save_index(orig, path)
    clone = load_index(path)
    assert clone.metric.name == "manhattan"
    np.testing.assert_array_equal(clone.rep_ids, orig.rep_ids)
    np.testing.assert_allclose(clone.radii, orig.radii)
    for a, b in zip(clone.lists, orig.lists):
        np.testing.assert_array_equal(a, b)


def test_float32_archive_loads_as_float64(small_vectors, tmp_path):
    # files from earlier releases carry a compute dtype; a float32 one
    # loads as a float64 index with the same ids and exact distances
    X, Q = small_vectors
    orig = ExactRBC(seed=0).build(X)
    d0, i0 = orig.query(Q, k=3)
    path = tmp_path / "f32.npz"
    save_index(orig, path)
    with np.load(path) as z:
        fields = dict(z)
    assert "dtype" not in fields
    np.savez_compressed(path, **fields, dtype="float32")
    clone = load_index(path)
    d1, i1 = clone.query(Q, k=3)
    np.testing.assert_array_equal(i1, i0)
    np.testing.assert_array_equal(d1, d0)


@pytest.mark.parametrize("cls", [ExactRBC, OneShotRBC])
def test_deletions_survive_roundtrip(cls, tmp_path):
    # deleted rows stay in X (ids are stable), so the live mask must be
    # saved too, or a reload brings them back as live points
    X = np.random.default_rng(0).normal(size=(500, 4))
    orig = cls(seed=0).build(X)
    for gid in (3, 10, 42):
        orig.delete(gid)
    path = tmp_path / "deleted.npz"
    save_index(orig, path)
    clone = load_index(path)
    assert clone.n_active == orig.n_active == 497
    np.testing.assert_array_equal(clone.active_ids, orig.active_ids)
    version = clone._version
    with pytest.raises(ValueError, match="deleted"):
        clone.delete(3)
    assert clone._version == version and clone.n_active == 497
    if cls is ExactRBC:
        # the autotuner's input reads the same live rows
        assert clone._estimate_candidate_fraction() == pytest.approx(
            orig._estimate_candidate_fraction()
        )


def test_unbuilt_rejected(tmp_path):
    with pytest.raises(ValueError, match="unbuilt"):
        save_index(ExactRBC(), tmp_path / "x.npz")


def test_string_database_rejected(tmp_path):
    from repro.data import random_strings

    idx = ExactRBC(metric=EditDistance(), seed=0).build(random_strings(80))
    with pytest.raises(ValueError, match="ndarray"):
        save_index(idx, tmp_path / "x.npz")


def test_empty_lists_roundtrip(tmp_path, rng):
    # nearly-duplicate databases produce reps that own nothing
    X = np.repeat(rng.normal(size=(3, 2)), 20, axis=0)
    orig = ExactRBC(seed=0, rep_scheme="exact").build(X, n_reps=5)
    path = tmp_path / "dups.npz"
    save_index(orig, path)
    clone = load_index(path)
    d, i = clone.query(X[:2], k=1)
    assert (d[:, 0] < 1e-9).all()

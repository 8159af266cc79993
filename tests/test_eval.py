"""Evaluation utilities: rank error, recall, the harness."""

import numpy as np
import pytest

from repro.baselines import BruteForceIndex
from repro.core import ExactRBC
from repro.eval import (
    RunReport,
    distance_ratio,
    format_table,
    geomean,
    mean_rank,
    ranks_of_results,
    recall_at_k,
    results_match_exactly,
    traced_build,
    traced_query,
)
from repro.parallel import bf_knn
from repro.simulator import DESKTOP_QUAD, SEQUENTIAL


def test_rank_zero_for_exact_results(small_vectors):
    X, Q = small_vectors
    _, i = bf_knn(Q, X, k=1)
    ranks = ranks_of_results(Q, X, i)
    assert (ranks == 0).all()
    assert mean_rank(Q, X, i) == 0.0


def test_rank_counts_closer_points():
    X = np.arange(10.0)[:, None]
    Q = np.array([[0.1]])
    # return point 3: points 0,1,2 are closer -> rank 3
    ranks = ranks_of_results(Q, X, np.array([3]))
    assert ranks[0] == 3


def test_rank_accepts_2d_takes_first_column():
    X = np.arange(10.0)[:, None]
    Q = np.array([[0.1]])
    ranks = ranks_of_results(Q, X, np.array([[2, 0]]))
    assert ranks[0] == 2


def test_rank_missing_result_scores_n():
    X = np.arange(5.0)[:, None]
    ranks = ranks_of_results(np.array([[1.0]]), X, np.array([-1]))
    assert ranks[0] == 5


def test_recall_at_k():
    true = np.array([[1, 2, 3], [4, 5, 6]])
    found = np.array([[1, 2, 9], [4, 5, 6]])
    assert recall_at_k(found, true) == pytest.approx(5 / 6)
    assert recall_at_k(true, true) == 1.0


def test_recall_ignores_padding():
    true = np.array([[1, -1]])
    found = np.array([[1, -1]])
    assert recall_at_k(found, true) == 1.0


def test_recall_query_count_mismatch():
    with pytest.raises(ValueError):
        recall_at_k(np.array([[1]]), np.array([[1], [2]]))


def test_results_match_exactly_tolerates_ties():
    a = np.array([[1.0, 2.0]])
    b = np.array([[1.0, 2.0 + 1e-12]])
    assert results_match_exactly(a, b)
    assert not results_match_exactly(a, np.array([[1.0, 2.5]]))


def test_distance_ratio():
    found = np.array([[2.0], [3.0]])
    true = np.array([[1.0], [3.0]])
    assert distance_ratio(found, true) == pytest.approx(1.5)
    # zero true distances are skipped
    assert distance_ratio(np.array([[5.0]]), np.array([[0.0]])) == 1.0


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([10.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_format_table_alignment():
    out = format_table(
        ["name", "value"],
        [["bio", 38.1], ["covertype", 0.0001234]],
        title="Table X",
    )
    lines = out.splitlines()
    assert lines[0] == "Table X"
    assert "name" in lines[1] and "value" in lines[1]
    assert "bio" in lines[3]
    assert "1.23e-04" in out  # small floats rendered in scientific notation


def test_traced_query_collects_everything(small_vectors):
    X, Q = small_vectors
    idx = BruteForceIndex().build(X)
    run = traced_query(idx, Q, [SEQUENTIAL, DESKTOP_QUAD], k=2)
    assert isinstance(run, RunReport)
    assert run.dist.shape == (Q.shape[0], 2)
    assert run.evals == Q.shape[0] * X.shape[0]
    assert run.wall_s > 0
    assert run.sim_time(SEQUENTIAL) > 0
    assert run.sim_time(DESKTOP_QUAD) > 0


def test_traced_query_parallel_workload_scales(rng):
    # a workload with many independent tiles must run faster on more cores
    X = rng.normal(size=(20_000, 16))
    Q = rng.normal(size=(512, 16))
    idx = BruteForceIndex().build(X)
    run = traced_query(
        idx, Q, [SEQUENTIAL, DESKTOP_QUAD], k=1, tile_cols=1024, row_chunk=64
    )
    # note: tile count >> 4, so the quad should be ~4x faster minus sync
    assert run.sim_time(DESKTOP_QUAD) < 0.5 * run.sim_time(SEQUENTIAL)


def test_traced_build(small_vectors):
    X, _ = small_vectors
    rbc = ExactRBC(seed=0)
    sims = traced_build(rbc, X, [DESKTOP_QUAD], n_reps=10)
    assert rbc.is_built
    assert sims[DESKTOP_QUAD.name].time_s > 0

"""The tie-aware answer check and the oracle."""

import numpy as np

from check import Database, check_rows, recall

# rows 0, 1 and 4 are the same point, so they tie for any query
X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [0.0, 0.0]])
Q = np.array([[0.1, 0.0]])


def test_truth_is_the_k_nearest_distances():
    db = Database(X)
    np.testing.assert_allclose(db.truth(Q, 3), [[0.1, 0.1, 0.1]])


def test_any_member_of_a_tie_is_correct():
    db = Database(X)
    truth = db.truth(Q, 2)
    for ids in ([0, 1], [1, 0], [4, 0], [1, 4]):
        assert check_rows(db, Q, [ids], truth).all(), ids


def test_a_corrupted_id_is_caught():
    db = Database(X)
    truth = db.truth(Q, 2)
    assert not check_rows(db, Q, [[0, 2]], truth).any()  # 2 is not among the 2 nearest
    assert not check_rows(db, Q, [[0, 0]], truth).any()  # repeated id
    assert not check_rows(db, Q, [[0, -1]], truth).any()  # padding
    assert not check_rows(db, Q, [[0, 5]], truth).any()  # out of range


def test_inserted_rows_count_only_once_inserted():
    db = Database(X)
    db.insert([0.1, 0.0])  # id 5, distance 0 to the query
    assert db.truth(Q, 1, size=5)[0, 0] > 0.0
    assert db.truth(Q, 1)[0, 0] == 0.0
    assert check_rows(db, Q, [[5]], db.truth(Q, 1)).all()
    # an answer computed before the insert is judged without it
    assert check_rows(db, Q, [[0]], db.truth(Q, 1, size=5), size=5).all()
    assert not check_rows(db, Q, [[5]], db.truth(Q, 1, size=5), size=5).any()


def test_recall_counts_tied_and_distinct_hits():
    db = Database(X)
    truth = db.truth(Q, 2)
    assert recall(db, Q, [[1, 4]], truth) == 1.0
    assert recall(db, Q, [[1, 3]], truth) == 0.5
    assert recall(db, Q, [[1, 1]], truth) == 0.5

"""Ground truth and the tie-aware answer check.

The oracle is scipy's kd-tree over the generated database, which returns
exact k-NN distances computed by direct differences; rows inserted during a
run are searched by brute force beside it.  Nothing here imports ``repro``.

An answer row is correct when its ids are valid and distinct and the
distances this module recomputes for them, sorted, equal the true k nearest
distances within ``RTOL``.  Comparing distances rather than ids accepts any
member of a tie (tiny8 holds many exact duplicates) and still rejects an id
that is not among the k nearest.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["Database", "check_rows", "recall"]

RTOL = 1e-9
#: absolute slack for zero distances (a query equal to a database row)
ATOL = 1e-12


class Database:
    """The database a run searches: the generated rows plus any inserted
    later, in insertion order (global id = row position)."""

    def __init__(self, X: np.ndarray, workers: int = 1) -> None:
        self.base = np.asarray(X, dtype=np.float64)
        self.tree = cKDTree(self.base)
        self.workers = workers
        self._extra: list[np.ndarray] = []

    @property
    def n(self) -> int:
        return self.base.shape[0] + len(self._extra)

    def insert(self, row: np.ndarray) -> None:
        self._extra.append(np.asarray(row, dtype=np.float64).reshape(-1))

    def coords(self, ids: np.ndarray) -> np.ndarray:
        """Coordinates of global ids (any shape; ids must be valid)."""
        ids = np.asarray(ids)
        nb = self.base.shape[0]
        if not self._extra:
            return self.base[ids]
        extra = np.stack(self._extra)
        out = np.empty(ids.shape + (self.base.shape[1],))
        low = ids < nb
        out[low] = self.base[ids[low]]
        out[~low] = extra[ids[~low] - nb]
        return out

    def truth(self, Q: np.ndarray, k: int, size: int | None = None) -> np.ndarray:
        """``(m, k)`` ascending exact distances to the k nearest of the
        first ``size`` rows (default: all)."""
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        size = self.n if size is None else int(size)
        d, _ = self.tree.query(Q, k=k, workers=self.workers)
        d = np.asarray(d, dtype=np.float64).reshape(Q.shape[0], k)
        n_extra = size - self.base.shape[0]
        if n_extra > 0:
            extra = np.stack(self._extra[:n_extra])
            de = np.sqrt(((extra[None, :, :] - Q[:, None, :]) ** 2).sum(axis=-1))
            d = np.sort(np.concatenate([d, de], axis=1), axis=1)[:, :k]
        return d


def _distances(db: Database, Q: np.ndarray, ids: np.ndarray, size) -> tuple[np.ndarray, np.ndarray]:
    """Recomputed distances of ``ids`` (inf where an id is invalid) and the
    validity mask; ``size`` is the database size each row was answered
    against (scalar or per row)."""
    size = np.broadcast_to(np.asarray(size), (ids.shape[0],))[:, None]
    valid = (ids >= 0) & (ids < size)
    pts = db.coords(np.where(valid, ids, 0))
    d = np.sqrt(((pts - Q[:, None, :]) ** 2).sum(axis=-1))
    d[~valid] = np.inf
    return d, valid


def check_rows(db: Database, Q, ids, truth: np.ndarray, size=None) -> np.ndarray:
    """Per-row correctness of exact k-NN answers ``ids`` against ``truth``."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    d, valid = _distances(db, Q, ids, db.n if size is None else size)
    srt = np.sort(ids, axis=1)
    distinct = (srt[:, 1:] != srt[:, :-1]).all(axis=1)
    close = np.abs(np.sort(d, axis=1) - truth) <= RTOL * np.abs(truth) + ATOL
    return valid.all(axis=1) & distinct & close.all(axis=1)


def recall(db: Database, Q, ids, truth: np.ndarray) -> float:
    """Tie-aware recall@k: the share of returned slots holding a distinct
    valid id no farther than the true k-th distance."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    d, valid = _distances(db, Q, ids, db.n)
    order = np.argsort(ids, axis=1, kind="stable")
    s = np.take_along_axis(ids, order, axis=1)
    first = np.ones_like(s, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    kth = truth[:, -1:]
    near = np.take_along_axis(d, order, axis=1) <= kth * (1.0 + RTOL) + ATOL
    hits = (first & near & np.take_along_axis(valid, order, axis=1)).sum(axis=1)
    return float(np.mean(np.minimum(hits, truth.shape[1]) / truth.shape[1]))

"""Buffer k-d tree: a k-d tree queried in batched rounds.

Classic k-d tree traversal is one query, one branchy descent — exactly the
shape that wastes manycore hardware.  *Bigger Buffer k-d Trees on
Multi-Many-Core Systems* (PAPERS.md) restructures the search so queries
accumulate in per-leaf buffers which are then "flushed" as dense scans.
This implementation adapts the idea to the repo's batched BF machinery:

* **Build** — a shallow median-split top tree whose leaves hold *large*
  buffers (hundreds of points).  Leaf point ids are packed contiguously so
  each leaf is one dense database slab; per-leaf bounding boxes give the
  standard axis-gap lower bound.
* **Query** — round-based.  Every round, each still-active query picks its
  most promising unvisited leaf (smallest box lower bound below its
  current kth distance); queries choosing the same leaf are grouped and
  scanned as one ``metric.pairwise`` block folded into the running top-k
  with :func:`~repro.parallel.reduce.merge_group_topk` — the same grouped
  stage-2 kernel the RBC searches use.  A query retires when no unvisited
  leaf can beat its kth-nearest distance, so results are exact.

Supports the Minkowski family (``l1``, ``l2``, ``linf``) where the
axis-aligned box bound is valid, like the classic :class:`KDTree`
baseline — but the work here is dense blocks, not per-node hops.
"""

from __future__ import annotations

import numpy as np

from ..metrics import Chebyshev, Euclidean, Manhattan, get_metric
from ..metrics.base import Metric
from ..parallel.bruteforce import _record_dist_tile
from ..parallel.reduce import EMPTY_IDX, merge_group_topk
from ..runtime.context import ExecContext, resolve_ctx
from .protocol import Capabilities, Index

__all__ = ["BufferKDTree"]

_SUPPORTED = (Euclidean, Manhattan, Chebyshev)

#: query rows processed per lower-bound/selection round (bounds the
#: (rows, n_leaves, d) gap tensor)
_QUERY_BLOCK = 512


class BufferKDTree(Index):
    """Median-split k-d tree with batched leaf-buffer scans."""

    CAPS = Capabilities(
        exact=True,
        range_queries=True,
        mutable=False,
        process_safe=True,
        quantizable=False,
        rescorable=True,
        warmable=False,
        degradable=False,
    )

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        leaf_size: int = 256,
    ) -> None:
        self.metric = get_metric(metric)
        if not isinstance(self.metric, _SUPPORTED):
            raise ValueError(
                "BufferKDTree supports l1/l2/linf metrics (axis-gap bound); "
                f"got {type(self.metric).__name__}"
            )
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = int(leaf_size)
        self.X: np.ndarray | None = None
        self.n = 0
        # packed leaf layout
        self.leaf_ids: np.ndarray | None = None  # (n,) global ids, leaf-major
        self.leaf_starts: np.ndarray | None = None  # (L+1,) offsets
        self.box_lo: np.ndarray | None = None  # (L, d)
        self.box_hi: np.ndarray | None = None  # (L, d)
        self._gathered: np.ndarray | None = None  # (n, d) X[leaf_ids]

    # ------------------------------------------------------------ build

    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "BufferKDTree":
        recorder = resolve_ctx(ctx).recorder
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("X must be a non-empty (n, d) matrix")
        self.X = X
        self.n = X.shape[0]
        with recorder.phase("bufferkd:build"):
            leaves: list[np.ndarray] = []
            stack = [np.arange(self.n)]
            while stack:
                ids = stack.pop()
                if ids.size <= self.leaf_size:
                    leaves.append(ids)
                    continue
                pts = X[ids]
                spans = pts.max(axis=0) - pts.min(axis=0)
                axis = int(np.argmax(spans))
                vals = pts[:, axis]
                order = np.argsort(vals, kind="stable")
                half = ids.size // 2
                # degenerate axis (all coordinates equal): buffer as-is
                if vals[order[0]] == vals[order[-1]]:
                    leaves.append(ids)
                    continue
                stack.append(ids[order[half:]])
                stack.append(ids[order[:half]])
            L = len(leaves)
            self.leaf_starts = np.zeros(L + 1, dtype=np.int64)
            self.leaf_starts[1:] = np.cumsum([lv.size for lv in leaves])
            self.leaf_ids = np.concatenate(leaves)
            self._gathered = X[self.leaf_ids]
            d = X.shape[1]
            self.box_lo = np.empty((L, d))
            self.box_hi = np.empty((L, d))
            for j, lv in enumerate(leaves):
                self.box_lo[j] = X[lv].min(axis=0)
                self.box_hi[j] = X[lv].max(axis=0)
        return self

    # ------------------------------------------------------------ bounds

    def _box_lower_bounds(self, Qb: np.ndarray) -> np.ndarray:
        """(m, L) lower bound on dist(q, any point in leaf)."""
        gaps = np.maximum(self.box_lo[None, :, :] - Qb[:, None, :], 0.0)
        gaps = np.maximum(gaps, np.maximum(Qb[:, None, :] - self.box_hi[None, :, :], 0.0))
        if isinstance(self.metric, Euclidean):
            return np.sqrt(np.einsum("mld,mld->ml", gaps, gaps))
        if isinstance(self.metric, Manhattan):
            return gaps.sum(axis=2)
        return gaps.max(axis=2)

    def _require_built(self) -> None:
        if self.X is None:
            raise RuntimeError("call build(X) first")

    # ------------------------------------------------------------ query

    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        if k < 1:
            raise ValueError("k must be >= 1")
        recorder = resolve_ctx(ctx).recorder
        Qb = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Qb.shape[0]
        best_d = np.full((m, k), np.inf)
        best_i = np.full((m, k), EMPTY_IDX, dtype=np.int64)
        with recorder.phase("bufferkd:query"):
            for lo in range(0, m, _QUERY_BLOCK):
                hi = min(lo + _QUERY_BLOCK, m)
                self._query_block(
                    Qb[lo:hi], k, best_d[lo:hi], best_i[lo:hi], recorder
                )
        return best_d, best_i

    def _query_block(self, Qb, k, best_d, best_i, recorder) -> None:
        m = Qb.shape[0]
        if m == 0:
            return
        L = self.box_lo.shape[0]
        LB = self._box_lower_bounds(Qb)
        visited = np.zeros((m, L), dtype=bool)
        dim = Qb.shape[1]
        arange_m = np.arange(m)
        while True:
            kth = best_d[:, k - 1]
            # each query's cheapest unvisited leaf that could still improve it
            masked = np.where(visited | (LB >= kth[:, None]), np.inf, LB)
            choice = np.argmin(masked, axis=1)
            todo = np.flatnonzero(np.isfinite(masked[arange_m, choice]))
            if todo.size == 0:
                return
            chosen = choice[todo]
            for leaf in np.unique(chosen):
                rows = todo[chosen == leaf]
                s, e = self.leaf_starts[leaf], self.leaf_starts[leaf + 1]
                D = self.metric.pairwise(Qb[rows], self._gathered[s:e])
                _record_dist_tile(
                    recorder, self.metric, rows.size, int(e - s), dim,
                    "bufferkd:flush",
                )
                merge_group_topk(best_d, best_i, rows, D, self.leaf_ids[s:e])
            visited[todo, chosen] = True

    # ------------------------------------------------------------ range

    def range_query(
        self,
        Q,
        eps: float,
        *,
        ctx: ExecContext | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact ε-range search: leaves whose box bound exceeds ``eps`` are
        never scanned; the rest are flushed as grouped dense blocks."""
        self._require_built()
        if eps < 0:
            raise ValueError("eps must be non-negative")
        recorder = resolve_ctx(ctx).recorder
        Qb = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Qb.shape[0]
        hits_d: list[list[np.ndarray]] = [[] for _ in range(m)]
        hits_i: list[list[np.ndarray]] = [[] for _ in range(m)]
        dim = Qb.shape[1] if m else 0
        with recorder.phase("bufferkd:range"):
            for lo in range(0, m, _QUERY_BLOCK):
                hi = min(lo + _QUERY_BLOCK, m)
                LB = self._box_lower_bounds(Qb[lo:hi])
                for leaf in np.flatnonzero((LB <= eps).any(axis=0)):
                    rows = np.flatnonzero(LB[:, leaf] <= eps)
                    s, e = self.leaf_starts[leaf], self.leaf_starts[leaf + 1]
                    D = self.metric.pairwise(Qb[lo + rows], self._gathered[s:e])
                    _record_dist_tile(
                        recorder, self.metric, rows.size, int(e - s), dim,
                        "bufferkd:range",
                    )
                    ids = self.leaf_ids[s:e]
                    within = D <= eps
                    for t, r in enumerate(rows):
                        sel = within[t]
                        hits_d[lo + r].append(D[t, sel])
                        hits_i[lo + r].append(ids[sel])
        out = []
        for t in range(m):
            if hits_d[t]:
                d = np.concatenate(hits_d[t])
                i = np.concatenate(hits_i[t])
                order = np.argsort(d, kind="stable")
                out.append((d[order], i[order].astype(np.int64)))
            else:
                out.append((np.empty(0), np.empty(0, dtype=np.int64)))
        return out

    # ------------------------------------------------------------ misc

    def memory_footprint(self) -> int:
        """Bytes held beyond the caller's own ``X``: the packed leaf copy,
        id permutation, offsets, and bounding boxes."""
        self._require_built()
        return int(
            self._gathered.nbytes
            + self.leaf_ids.nbytes
            + self.leaf_starts.nbytes
            + self.box_lo.nbytes
            + self.box_hi.nbytes
        )

    @property
    def n_leaves(self) -> int:
        self._require_built()
        return int(self.box_lo.shape[0])

    def leaf_sizes(self) -> np.ndarray:
        self._require_built()
        return np.diff(self.leaf_starts)

"""Vantage-point tree baseline (Yianilos, SODA 1993).

The paper cites Yianilos's vp-tree alongside Omohundro's ball trees as the
canonical metric-tree family (§2, refs [23, 31]).  Unlike the two-pivot
ball tree, each vp-tree node picks a single vantage point and splits the
remaining points at the *median distance* to it, storing the inner/outer
distance bounds; queries prune a side when the query's distance to the
vantage point puts the whole side outside the current search radius.

Works for any true metric; included so the benchmark family spans all
three classic metric-tree designs (ball, vantage-point, GNAT).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..index.protocol import Capabilities, Index
from ..metrics import get_metric
from ..metrics.base import Metric
from ..runtime.context import ExecContext, resolve_ctx
from ..simulator.trace import Op, TraceRecorder

__all__ = ["VPTree"]


class _Node:
    __slots__ = ("vantage", "threshold", "inner", "outer", "ids",
                 "inner_max", "outer_min")

    def __init__(self) -> None:
        self.vantage: int = -1
        self.threshold: float = 0.0
        self.inner = None
        self.outer = None
        self.ids: np.ndarray | None = None  # leaf-only
        self.inner_max: float = 0.0
        self.outer_min: float = 0.0


class VPTree(Index):
    """Median-split vantage-point tree with exact k-NN queries."""

    CAPS = Capabilities(
        exact=True,
        process_safe=False,
        rescorable=True,
    )

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        leaf_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.metric = get_metric(metric)
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError("vp-trees require a true metric")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        self.rng = np.random.default_rng(seed)
        self.root: _Node | None = None
        self.X = None

    # -------------------------------------------------------------- build
    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "VPTree":
        recorder = resolve_ctx(ctx).recorder
        self.X = X
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        evals0 = self.metric.counter.n_evals
        with recorder.phase("vptree:build"):
            self.root = self._build(np.arange(n, dtype=np.int64))
            recorder.record(
                Op(
                    kind="branchy",
                    flops=(self.metric.counter.n_evals - evals0)
                    * self.metric.flops_per_eval(self.metric.dim(X)),
                    bytes=8.0 * n * self.metric.dim(X),
                    vectorizable=False,
                    divergence=1.0,
                    tag="vptree:build",
                    chain=0,
                )
            )
        return self

    def _build(self, ids: np.ndarray) -> _Node:
        node = _Node()
        if ids.size <= self.leaf_size:
            node.ids = ids
            return node
        v = int(ids[self.rng.integers(ids.size)])
        rest = ids[ids != v]
        d = self.metric.pairwise(
            self.metric.take(self.X, [v]), self.metric.take(self.X, rest)
        )[0]
        threshold = float(np.median(d))
        inner_sel = d <= threshold
        if inner_sel.all() or not inner_sel.any():
            # all at one distance (duplicates): splitting gains nothing
            node.ids = ids
            return node
        node.vantage = v
        node.threshold = threshold
        node.inner_max = float(d[inner_sel].max())
        node.outer_min = float(d[~inner_sel].min())
        node.inner = self._build(rest[inner_sel])
        node.outer = self._build(rest[~inner_sel])
        return node

    # -------------------------------------------------------------- query
    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        recorder = resolve_ctx(ctx).recorder
        if self.root is None:
            raise RuntimeError("call build(X) first")
        if k < 1:
            raise ValueError("k must be >= 1")
        from ..parallel.bruteforce import _is_batch

        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
        m = self.metric.length(Qb)
        out_d = np.full((m, k), np.inf)
        out_i = np.full((m, k), -1, dtype=np.int64)
        with recorder.phase("vptree:query"):
            for i in range(m):
                d, idx = self._query_one(
                    self.metric.take(Qb, [i]), k, recorder, chain=i
                )
                out_d[i, : d.size] = d
                out_i[i, : idx.size] = idx
        return out_d, out_i

    def _query_one(self, q, k: int, recorder: TraceRecorder, chain: int = 0):
        dim = self.metric.dim(self.X)
        best: list[tuple[float, int]] = []

        def kth() -> float:
            return -best[0][0] if len(best) == k else np.inf

        def offer(d: float, pid: int) -> None:
            if d < kth():
                if len(best) == k:
                    heapq.heapreplace(best, (-d, pid))
                else:
                    heapq.heappush(best, (-d, pid))

        def visit(node: _Node) -> None:
            if node.ids is not None:
                if node.ids.size == 0:
                    return
                D = self.metric.pairwise(
                    q, self.metric.take(self.X, node.ids)
                )[0]
                recorder.record(
                    Op(
                        kind="branchy",
                        flops=node.ids.size * self.metric.flops_per_eval(dim),
                        bytes=8.0 * node.ids.size * dim,
                        vectorizable=False,
                        divergence=1.0,
                        tag="vptree:leaf",
                        chain=chain,
                    )
                )
                for d, pid in zip(D, node.ids):
                    offer(float(d), int(pid))
                return
            dv = float(
                self.metric.pairwise(
                    q, self.metric.take(self.X, [node.vantage])
                )[0, 0]
            )
            recorder.record(
                Op(
                    kind="branchy",
                    flops=self.metric.flops_per_eval(dim),
                    bytes=8.0 * dim,
                    vectorizable=False,
                    divergence=1.0,
                    tag="vptree:node",
                    chain=chain,
                )
            )
            offer(dv, node.vantage)
            # nearer side first; revisit the far side only if the shell
            # around the vantage point still intersects the search ball
            first, second = (
                (node.inner, node.outer)
                if dv <= node.threshold
                else (node.outer, node.inner)
            )
            visit(first)
            if second is node.outer:
                if dv + kth() >= node.outer_min:
                    visit(second)
            else:
                if dv - kth() <= node.inner_max:
                    visit(second)

        visit(self.root)
        pairs = sorted((-nd, pid) for nd, pid in best)
        return (
            np.array([p[0] for p in pairs]),
            np.array([p[1] for p in pairs], dtype=np.int64),
        )

    def depth(self) -> int:
        """Maximum tree depth (diagnostics)."""

        def go(node) -> int:
            if node is None or node.ids is not None:
                return 1
            return 1 + max(go(node.inner), go(node.outer))

        return go(self.root) if self.root is not None else 0

    def memory_footprint(self) -> int:
        """Bytes for the tree: leaf id arrays plus per-node overhead
        (vantage id, threshold, band bounds, child slots)."""
        if self.root is None:
            raise RuntimeError("call build(X) first")
        total = 0

        def go(node) -> None:
            nonlocal total
            if node is None:
                return
            total += 88
            if node.ids is not None:
                total += node.ids.nbytes
            go(node.inner)
            go(node.outer)

        go(self.root)
        return int(total)

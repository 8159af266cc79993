"""Cover Tree baseline (Beygelzimer, Kakade & Langford, ICML 2006).

The paper's Table 3 compares the exact RBC against the Cover Tree, the
state-of-the-art sequential structure developed under the same
expansion-rate notion of intrinsic dimensionality.  This is a from-scratch
implementation in the *simplified* formulation (each point stored in one
node; children lie within ``covdist(node) = base**level`` of their parent),
with queries answered by best-first branch-and-bound on the subtree radii.

The computational structure is exactly what paper §3 describes as hostile
to parallel hardware: a deep traversal of interleaved distance
computations, bound updates, and data-dependent branching.  Query traces
are therefore recorded as non-vectorizable ``branchy`` ops, which is how
the machine models see the difference between tree search and the RBC's
dense brute-force stages.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..index.protocol import Capabilities, Index
from ..metrics import get_metric
from ..metrics.base import Metric
from ..runtime.context import ExecContext, resolve_ctx
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder

__all__ = ["CoverTree"]

#: scalar bookkeeping charged per node expansion (heap ops, bound checks)
_VISIT_OVERHEAD_FLOPS = 50.0


class _Node:
    __slots__ = ("point", "level", "maxdist", "children")

    def __init__(self, point: int, level: int) -> None:
        self.point = point
        self.level = level
        self.maxdist = 0.0  # upper bound on distance to any descendant
        self.children: list[_Node] = []


class CoverTree(Index):
    """Cover tree with insertion-based construction and exact k-NN queries.

    Parameters
    ----------
    metric:
        any true metric (the covering invariant and the query bound both
        rest on the triangle inequality).
    base:
        expansion base of the level radii (``covdist = base**level``);
        the classical choice is 2.
    """

    CAPS = Capabilities(
        exact=True,
        process_safe=False,
        rescorable=True,
    )

    def __init__(self, metric: str | Metric = "euclidean", *, base: float = 2.0):
        if base <= 1.0:
            raise ValueError("base must exceed 1")
        self.metric = get_metric(metric)
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError("cover trees require a true metric")
        self.base = float(base)
        self.root: _Node | None = None
        self.X = None
        self.n = 0

    # -------------------------------------------------------------- build
    def _covdist(self, node: _Node) -> float:
        return self.base**node.level

    def _dist_to_points(self, x_id: int, ids: list[int]) -> np.ndarray:
        q = self.metric.take(self.X, [x_id])
        P = self.metric.take(self.X, ids)
        return self.metric.pairwise(q, P)[0]

    def build(
        self,
        X,
        *,
        recorder: TraceRecorder = NULL_RECORDER,
        ctx: ExecContext | None = None,
    ) -> "CoverTree":
        """Insert every point; deterministic given the dataset order."""
        recorder = resolve_ctx(ctx, recorder=recorder).recorder
        self.X = X
        self.n = self.metric.length(X)
        if self.n == 0:
            raise ValueError("database is empty")
        self.root = _Node(0, level=0)
        with recorder.phase("covertree:build"):
            for x_id in range(1, self.n):
                self._insert(x_id, recorder)
        return self

    def _insert(self, x_id: int, recorder: TraceRecorder) -> None:
        root = self.root
        d_root = self._dist_to_points(x_id, [root.point])[0]
        if d_root > self._covdist(root):
            # grow a new root over the old one, at a level whose cover
            # radius reaches the new point
            level = max(root.level + 1, int(math.ceil(math.log(d_root, self.base))))
            new_root = _Node(x_id, level)
            new_root.children.append(root)
            new_root.maxdist = d_root + root.maxdist
            self.root = new_root
            return
        node = root
        d_node = d_root
        while True:
            node.maxdist = max(node.maxdist, d_node)
            if node.children:
                child_ids = [c.point for c in node.children]
                dists = self._dist_to_points(x_id, child_ids)
                recorder.record(
                    Op(
                        kind="branchy",
                        flops=len(child_ids)
                        * self.metric.flops_per_eval(self.metric.dim(self.X))
                        + _VISIT_OVERHEAD_FLOPS,
                        bytes=8.0 * len(child_ids),
                        vectorizable=False,
                        divergence=1.0,
                        tag="covertree:insert",
                        chain=0,  # insertion is one sequential dependency chain
                    )
                )
                # descend into any child whose cover ball contains x
                j = int(np.argmin(dists))
                if dists[j] <= self._covdist(node.children[j]):
                    node = node.children[j]
                    d_node = float(dists[j])
                    continue
            node.children.append(_Node(x_id, node.level - 1))
            return

    # -------------------------------------------------------------- query
    def query(
        self,
        Q,
        k: int = 1,
        *,
        recorder: TraceRecorder = NULL_RECORDER,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN by best-first search with the subtree-radius bound.

        A node is expanded only while ``d(q, node) - maxdist(node)`` is
        below the current k-th best distance; by the triangle inequality no
        pruned subtree can contain a closer point.
        """
        recorder = resolve_ctx(ctx, recorder=recorder).recorder
        if self.root is None:
            raise RuntimeError("call build(X) first")
        if k < 1:
            raise ValueError("k must be >= 1")
        Qb = Q if not _is_single(Q) else np.asarray(Q)[None, :]
        m = self.metric.length(Qb)
        out_d = np.full((m, k), np.inf)
        out_i = np.full((m, k), -1, dtype=np.int64)
        with recorder.phase("covertree:query"):
            for i in range(m):
                d, idx = self._query_one(i, Qb, k, recorder)
                out_d[i, : d.size] = d
                out_i[i, : idx.size] = idx
        return out_d, out_i

    def _query_one(self, qi: int, Qb, k: int, recorder: TraceRecorder):
        q = self.metric.take(Qb, [qi])
        dim = self.metric.dim(self.X)

        d_root = self.metric.pairwise(
            q, self.metric.take(self.X, [self.root.point])
        )[0, 0]
        # best candidates as a max-heap of (-dist, id)
        best: list[tuple[float, int]] = [(-d_root, self.root.point)]
        frontier = [(max(0.0, d_root - self.root.maxdist), 0, self.root)]
        tiebreak = 1

        def kth() -> float:
            return -best[0][0] if len(best) == k else np.inf

        while frontier and frontier[0][0] < kth():
            _, _, node = heapq.heappop(frontier)
            if not node.children:
                continue
            child_ids = [c.point for c in node.children]
            dists = self.metric.pairwise(q, self.metric.take(self.X, child_ids))[0]
            recorder.record(
                Op(
                    kind="branchy",
                    flops=len(child_ids) * self.metric.flops_per_eval(dim)
                    + _VISIT_OVERHEAD_FLOPS,
                    bytes=8.0 * len(child_ids) * dim,
                    vectorizable=False,
                    divergence=1.0,
                    tag="covertree:query",
                    chain=qi,  # expansions of one query form a serial chain
                )
            )
            for child, d in zip(node.children, dists):
                d = float(d)
                if d < kth():
                    if len(best) == k:
                        heapq.heapreplace(best, (-d, child.point))
                    else:
                        heapq.heappush(best, (-d, child.point))
                lb = max(0.0, d - child.maxdist)
                if lb < kth():
                    heapq.heappush(frontier, (lb, tiebreak, child))
                    tiebreak += 1

        pairs = sorted((-nd, pid) for nd, pid in best)
        d = np.array([p[0] for p in pairs])
        idx = np.array([p[1] for p in pairs], dtype=np.int64)
        return d, idx

    # ----------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Verify the covering and radius invariants (for tests)."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                d = self._dist_to_points(node.point, [child.point])[0]
                assert d <= self._covdist(node) + 1e-9, (
                    f"covering violated at node {node.point}: child "
                    f"{child.point} at {d} > {self._covdist(node)}"
                )
                assert child.level < node.level
                stack.append(child)
            # maxdist bounds every descendant
            desc = _descendants(node)
            if desc:
                dists = self._dist_to_points(node.point, desc)
                assert dists.max() <= node.maxdist + 1e-9

    def depth(self) -> int:
        """Maximum node depth (diagnostics)."""
        if self.root is None:
            return 0

        def go(node: _Node) -> int:
            return 1 + max((go(c) for c in node.children), default=0)

        return go(self.root)

    def memory_footprint(self) -> int:
        """Bytes for the tree: one node per point (id, level, maxdist,
        children list) — the cover tree's linear-space guarantee."""
        if self.root is None:
            raise RuntimeError("call build(X) first")
        total = 0

        def go(node: _Node) -> None:
            nonlocal total
            total += 80 + 8 * len(node.children)
            for child in node.children:
                go(child)

        go(self.root)
        return int(total)


def _descendants(node: _Node) -> list[int]:
    out = []
    stack = list(node.children)
    while stack:
        nd = stack.pop()
        out.append(nd.point)
        stack.extend(nd.children)
    return out


def _is_single(Q) -> bool:
    return (
        isinstance(Q, np.ndarray)
        and Q.ndim == 1
        and np.issubdtype(Q.dtype, np.floating)
    )

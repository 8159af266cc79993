"""All-nearest-neighbors: k-NN graph construction.

The all-k-NN problem (every database point queries the database) is the
workhorse behind the manifold-learning methods the paper cites as the
reason intrinsic-dimension structure is common (LLE, Isomap — refs [26],
[27]): both start from a k-NN graph.  The RBC turns the naive O(n²) build
into two brute-force passes plus ~O(n√n) candidate work, and since queries
*are* database points, the self-match needs handling — done here.
"""

from __future__ import annotations

import numpy as np

from ..metrics.base import Metric
from ..parallel.bruteforce import bf_knn
from ..runtime.context import ExecContext, resolve_ctx
from .exact import ExactRBC

__all__ = ["knn_graph", "mutual_knn_graph", "knn_graph_networkx"]


def knn_graph(
    X,
    k: int,
    metric: str | Metric = "euclidean",
    *,
    method: str = "rbc",
    seed: int = 0,
    executor=None,
    ctx: ExecContext | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors of every database point (self excluded).

    ``method="rbc"`` builds an exact RBC and batch-queries it with the
    database itself; ``method="brute"`` is the O(n²) reference.  Both are
    exact; they return identical distances.  ``ctx`` carries the run's
    execution state (executor, recorder, chunking) into both build and query;
    the legacy ``executor=`` kwarg remains as the usual adapter.

    Returns ``(dist, idx)`` of shape ``(n, k)``, rows ascending.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    call = resolve_ctx(ctx, executor=executor)
    if method == "brute":
        d, i = bf_knn(X, X, metric, k=k + 1, ctx=call)
    elif method == "rbc":
        index = ExactRBC(metric=metric, seed=seed, executor=call.executor)
        index.build(X, ctx=call)
        if index.n <= k:
            raise ValueError(f"need n > k, got n={index.n}, k={k}")
        d, i = index.query(X, k=k + 1, ctx=call)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _drop_self(d, i, k)


def _drop_self(d: np.ndarray, i: np.ndarray, k: int):
    """Remove each row's own point from its (k+1)-NN list.

    Under exact duplicates the self-match can land anywhere in the tied
    block, so the row is searched for the identity index rather than
    assuming slot 0; if absent (ties beyond k+1), the last slot is
    dropped, which is a tie of equal distance.
    """
    n = d.shape[0]
    out_d = np.empty((n, k))
    out_i = np.empty((n, k), dtype=np.int64)
    for r in range(n):
        hit = np.flatnonzero(i[r] == r)
        drop = hit[0] if hit.size else k
        out_d[r] = np.delete(d[r], drop)
        out_i[r] = np.delete(i[r], drop)
    return out_d, out_i


def mutual_knn_graph(
    X, k: int, metric: str | Metric = "euclidean", **kwargs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual k-NN edges: (u, v) kept only if each is in the other's k-NN.

    Returns ``(rows, cols, dists)`` of the surviving undirected edges with
    ``rows < cols``.  Mutual graphs are the standard symmetrization for
    clustering/manifold pipelines.
    """
    d, i = knn_graph(X, k, metric, **kwargs)
    n = d.shape[0]
    neighbor_sets = [set(map(int, row)) for row in i]
    rows, cols, dists = [], [], []
    for u in range(n):
        for slot, v in enumerate(i[u]):
            v = int(v)
            if u < v and u in neighbor_sets[v]:
                rows.append(u)
                cols.append(v)
                dists.append(float(d[u, slot]))
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(dists),
    )


def knn_graph_networkx(X, k: int, metric: str | Metric = "euclidean", **kwargs):
    """The k-NN graph as a weighted undirected ``networkx.Graph``.

    Edge weights are distances; an edge appears if either endpoint selects
    the other (the usual "symmetric" k-NN graph).
    """
    import networkx as nx

    d, i = knn_graph(X, k, metric, **kwargs)
    g = nx.Graph()
    g.add_nodes_from(range(d.shape[0]))
    for u in range(d.shape[0]):
        for slot in range(k):
            g.add_edge(u, int(i[u, slot]), weight=float(d[u, slot]))
    return g

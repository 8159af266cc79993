"""AESA baseline (Vidal 1986).

The paper's related-work section singles out AESA as one of "the two most
empirically effective structures" for metric search (§2, [29]).  AESA
precomputes *all* pairwise distances in the database (O(n²) memory — the
reason it only suits small databases) and then answers queries with very
few distance evaluations: each evaluated pivot ``p`` eliminates every
``x`` whose precomputed ``rho(p, x)`` is incompatible with the triangle
inequality, and the next pivot is the surviving point with the best lower
bound.

It is the extreme opposite of the RBC on the trade-off the paper studies:
minimal distance evaluations, maximal data-dependence — a fully sequential
chain of eliminate/select steps that cannot be batched or vectorized, so
its trace is pure ``branchy`` ops.
"""

from __future__ import annotations

import numpy as np

from ..index.protocol import Capabilities, Index
from ..metrics import get_metric
from ..metrics.base import Metric
from ..runtime.context import ExecContext, resolve_ctx
from ..simulator.trace import Op, TraceRecorder

__all__ = ["AESA"]

#: refuse to build beyond this size: the distance matrix is O(n^2)
_MAX_POINTS = 20_000


class AESA(Index):
    """Approximating and Eliminating Search Algorithm — exact k-NN with
    near-minimal distance evaluations and quadratic memory."""

    CAPS = Capabilities(
        exact=True,
        process_safe=False,
        rescorable=True,
    )

    def __init__(self, metric: str | Metric = "euclidean") -> None:
        self.metric = get_metric(metric)
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError("AESA's elimination rule requires a true metric")
        self.X = None
        self.D: np.ndarray | None = None  # (n, n) pairwise distances
        self.n = 0

    def build(
        self,
        X,
        *,
        ctx: ExecContext | None = None,
    ) -> "AESA":
        """Precompute the full distance matrix (one giant BF(X, X))."""
        recorder = resolve_ctx(ctx).recorder
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        if n > _MAX_POINTS:
            raise ValueError(
                f"AESA stores an n x n matrix; n={n} exceeds the "
                f"{_MAX_POINTS} safety cap"
            )
        self.X = X
        self.n = n
        with recorder.phase("aesa:build"):
            self.D = self.metric.pairwise(X, X)
            recorder.record(
                Op(
                    kind="gemm",
                    flops=n * n * self.metric.flops_per_eval(self.metric.dim(X)),
                    bytes=8.0 * n * n,
                    tag="aesa:build",
                )
            )
        return self

    def query(
        self,
        Q,
        k: int = 1,
        *,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.D is None:
            raise RuntimeError("call build(X) first")
        if k < 1:
            raise ValueError("k must be >= 1")
        recorder = resolve_ctx(ctx).recorder
        from ..parallel.bruteforce import _is_batch

        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
        m = self.metric.length(Qb)
        out_d = np.full((m, k), np.inf)
        out_i = np.full((m, k), -1, dtype=np.int64)
        with recorder.phase("aesa:query"):
            for i in range(m):
                d, idx = self._query_one(
                    self.metric.take(Qb, [i]), k, recorder, chain=i
                )
                out_d[i, : d.size] = d
                out_i[i, : idx.size] = idx
        return out_d, out_i

    def _query_one(self, q, k: int, recorder: TraceRecorder, chain: int = 0):
        n = self.n
        dim = self.metric.dim(self.X)
        alive = np.ones(n, dtype=bool)
        #: per-point lower bound on rho(q, x), tightened with each pivot
        lb = np.zeros(n)
        evaluated: list[tuple[float, int]] = []  # (dist, id)
        kth = np.inf

        pivot = 0  # arbitrary deterministic start
        while pivot >= 0:
            d_p = float(
                self.metric.pairwise(q, self.metric.take(self.X, [pivot]))[0, 0]
            )
            recorder.record(
                Op(
                    kind="branchy",
                    flops=self.metric.flops_per_eval(dim) + 4.0 * alive.sum(),
                    bytes=8.0 * alive.sum(),
                    vectorizable=False,
                    divergence=1.0,
                    tag="aesa:pivot",
                    chain=chain,
                )
            )
            alive[pivot] = False
            evaluated.append((d_p, pivot))
            if len(evaluated) >= k:
                kth = sorted(ev[0] for ev in evaluated)[k - 1]
            # eliminate: |d(q,p) - d(p,x)| is a lower bound on d(q,x)
            np.maximum(lb, np.abs(self.D[pivot] - d_p), out=lb)
            alive &= lb < kth
            # next pivot: the survivor with the smallest lower bound
            # (the "approximating" choice that makes AESA effective)
            if alive.any():
                candidates = np.flatnonzero(alive)
                pivot = int(candidates[np.argmin(lb[candidates])])
            else:
                pivot = -1

        evaluated.sort()
        top = evaluated[:k]
        return (
            np.array([t[0] for t in top]),
            np.array([t[1] for t in top], dtype=np.int64),
        )

    def memory_footprint(self) -> int:
        """The full pairwise matrix — AESA's defining quadratic cost."""
        if self.D is None:
            raise RuntimeError("call build(X) first")
        return int(self.D.nbytes)

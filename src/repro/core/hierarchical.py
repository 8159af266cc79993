"""Two-level Random Ball Cover (extension beyond the paper).

The paper's RBC is deliberately a *single-level* cover: stage 1 scans all
``n_r ~ sqrt(n)`` representatives.  For very large databases that scan
itself becomes the bottleneck, and the natural extension — noted here as
the recursive continuation of the paper's construction — is to index the
representative set with another RBC.  With ``n_r = n^{2/3}`` outer
representatives (lists of size ``~n^{1/3}``) and an inner cover of
``n^{1/3}`` representatives over them, query work drops from
``O(sqrt(n))`` to ``O(n^{1/3})`` per query at additional (quantifiable)
risk of routing error — the same accuracy/work dial as the one-shot
algorithm, now with two chances to mis-route.  Multi-probe at both levels
compensates.

Like everything in this package, both levels are brute-force-structured,
so the hierarchy preserves the paper's parallelization story.
"""

from __future__ import annotations

import numpy as np

from ..metrics import get_metric
from ..metrics.base import Metric
from ..parallel.bruteforce import _is_batch, _record_dist_tile
from ..parallel.reduce import EMPTY_IDX, dedupe_rows, merge_topk, topk_of_block
from ..runtime.context import ExecContext, resolve_ctx
from .oneshot import OneShotRBC
from .stats import SearchStats

__all__ = ["HierarchicalOneShotRBC"]


class HierarchicalOneShotRBC:
    """One-shot search with an RBC-indexed representative set.

    Parameters mirror :class:`~repro.core.oneshot.OneShotRBC`; the outer
    level defaults to ``n_reps = s = n^{2/3}``-flavoured sizes and the
    inner level to the square-root rule over the representative set.
    """

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        seed: int | np.random.Generator | None = 0,
        executor=None,
    ) -> None:
        self.metric = get_metric(metric)
        self.seed = seed
        self.executor = executor
        self.outer: OneShotRBC | None = None
        self.inner: OneShotRBC | None = None
        self.last_stats: SearchStats | None = None

    @property
    def is_built(self) -> bool:
        return self.outer is not None

    def build(
        self,
        X,
        n_reps: int | None = None,
        s: int | None = None,
        *,
        inner_n_reps: int | None = None,
        inner_s: int | None = None,
        ctx: ExecContext | None = None,
    ) -> "HierarchicalOneShotRBC":
        """Build both levels (two brute-force calls, one per level).

        ``ctx`` rides through to both level builds; each inner index still
        applies its own configuration for whatever ``ctx`` leaves unset.
        """
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        cube = max(2, int(round(n ** (1.0 / 3.0))))
        n_reps = n_reps if n_reps is not None else min(n, cube * cube)
        s = s if s is not None else 3 * cube

        self.outer = OneShotRBC(
            metric=self.metric, seed=self.seed, executor=self.executor
        )
        self.outer.build(X, n_reps=n_reps, s=min(s, n), ctx=ctx)

        nr_actual = self.outer.n_reps
        inner_n_reps = (
            inner_n_reps
            if inner_n_reps is not None
            else max(1, int(round(nr_actual**0.5)))
        )
        inner_s = (
            inner_s
            if inner_s is not None
            else min(nr_actual, 3 * max(1, int(round(nr_actual**0.5))))
        )
        # the inner cover indexes the representative POINTS; its returned
        # indices are outer-representative indices
        self.inner = OneShotRBC(
            metric=self.metric, seed=self.seed, executor=self.executor
        )
        self.inner.build(
            self.outer.rep_data,
            n_reps=inner_n_reps,
            s=inner_s,
            ctx=ctx,
        )
        return self

    def query(
        self,
        Q,
        k: int = 1,
        *,
        n_probes: int = 2,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Three brute-force hops: inner reps → outer reps → points.

        ``n_probes`` is applied at both levels (the routing level needs it
        more, having two chances to miss).  ``ctx`` carries the recorder
        (and any execution overrides) through every hop.
        """
        if not self.is_built:
            raise RuntimeError("call build(X) before querying")
        if k < 1 or n_probes < 1:
            raise ValueError("k and n_probes must be >= 1")
        ctx = resolve_ctx(ctx)
        recorder = ctx.recorder
        metric = self.metric
        stats = SearchStats()
        evals0 = metric.counter.n_evals

        # levels 1+2: route to outer representatives via the inner cover
        _, rep_choice = self.inner.query(Q, k=n_probes, n_probes=n_probes,
                                         ctx=ctx)
        stats.stage1_evals = metric.counter.n_evals - evals0

        Qb = Q if _is_batch(metric, Q) else metric._as_batch(Q)
        m = metric.length(Qb)
        stats.n_queries = m

        # level 3: scan the chosen outer representatives' lists
        kk = k * n_probes
        best_d = np.full((m, kk), np.inf)
        best_i = np.full((m, kk), EMPTY_IDX, dtype=np.int64)
        evals1 = metric.counter.n_evals
        with recorder.phase("hier:stage3"):
            for probe in range(rep_choice.shape[1]):
                choice = rep_choice[:, probe]
                for rep in np.unique(choice):
                    if rep < 0:
                        continue
                    rows = np.flatnonzero(choice == rep)
                    cand = self.outer.lists[rep]
                    if cand.size == 0:
                        continue
                    Qg = metric.take(Qb, rows)
                    D = metric.pairwise(Qg, metric.take(self.outer.X, cand))
                    _record_dist_tile(
                        recorder, metric, rows.size, cand.size,
                        metric.dim(Qb), "hier:stage3",
                    )
                    d, li = topk_of_block(D, kk)
                    gi = np.where(
                        li >= 0, cand[np.clip(li, 0, None)], EMPTY_IDX
                    )
                    best_d[rows], best_i[rows] = merge_topk(
                        (best_d[rows], best_i[rows]), (d, gi)
                    )
                    stats.candidates_examined += int(D.size)
        stats.stage2_evals = metric.counter.n_evals - evals1

        best_d, best_i = dedupe_rows(best_d, best_i, k)
        self.last_stats = stats
        return best_d, best_i

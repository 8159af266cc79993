"""The one-shot RBC search algorithm (paper §5.1).

Search is two brute-force calls: ``BF(q, R)`` finds each query's nearest
representative ``r``; ``BF(q, X[L_r])`` scans that representative's
ownership list and returns the nearest point found.  With the Theorem-2
parameter setting the result is the true nearest neighbor with probability
at least ``1 - delta``; otherwise the parameter ``s = |L_r|`` trades
accuracy (measured as the *rank* of the returned point — see
:mod:`repro.eval.rank`) against time, the trade-off plotted in the paper's
Figure 1.

Batch queries are grouped by their chosen representative, so the second
stage is one dense ``(group, s)`` distance block per representative — the
same matmul-like structure as the first stage, which is what makes the
algorithm effective on throughput hardware (Table 2).
"""

from __future__ import annotations

import numpy as np

from ..parallel.bruteforce import _is_batch, _record_dist_tile, bf_knn
from ..parallel.reduce import (
    EMPTY_IDX,
    dedupe_rows,
    merge_group_topk,
    merge_topk,
    topk_of_block,
)
from ..runtime.context import ExecContext
from .params import oneshot_params
from .rbc import RBCBase, sample_representatives
from .stats import SearchStats

__all__ = ["OneShotRBC"]


class OneShotRBC(RBCBase):
    """Random Ball Cover with the one-shot (high-probability) search.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import OneShotRBC
    >>> X = np.random.default_rng(0).normal(size=(2000, 8))
    >>> index = OneShotRBC(seed=0).build(X)
    >>> dist, idx = index.query(X[:5])
    >>> idx.shape
    (5, 1)
    """

    CAPS = RBCBase.CAPS.replace(exact=False, quantizable=False)

    def build(
        self,
        X,
        n_reps: int | None = None,
        s: int | None = None,
        *,
        delta: float = 0.05,
        c: float = 1.0,
        ctx: ExecContext | None = None,
    ) -> "OneShotRBC":
        """Build the cover: sample ``R``, then one ``BF(R, X)`` call.

        If ``n_reps``/``s`` are omitted they default to the Theorem-2
        setting ``n_r = s = c sqrt(n ln 1/delta)`` for the given expansion
        rate ``c`` and failure probability ``delta``.
        """
        ctx = self._call_ctx(ctx)
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        self._validate_input(X)
        auto_nr, auto_s = oneshot_params(n, c=c, delta=delta)
        n_reps = auto_nr if n_reps is None else n_reps
        s = auto_s if s is None else s
        if not 1 <= s <= n:
            raise ValueError(f"need 1 <= s <= n, got s={s}")

        rep_ids = sample_representatives(n, n_reps, self.rng, scheme=self.rep_scheme)
        rep_data = self.metric.take(X, rep_ids)

        evals0 = self.metric.counter.n_evals
        # the build routine is exactly BF(R, X) with k = s (paper §4)
        dists, ids = bf_knn(rep_data, X, self.metric, k=s, ctx=ctx)
        build_evals = self.metric.counter.n_evals - evals0

        lists = [row[row >= 0] for row in ids]
        list_dists = [d[np.isfinite(d)] for d in dists]
        self.s = s
        self._finish_build(X, rep_ids, lists, list_dists, build_evals)
        return self

    def warm(self, ctx: ExecContext | None = None) -> "OneShotRBC":
        """Additionally pre-computes the uniform-layout flag that gates the
        batched stage 2 (see :meth:`RBCBase.warm`)."""
        super().warm(ctx)
        self._uniform_layout()
        return self

    def _uniform_layout(self) -> tuple[int, bool]:
        """``(L, uniform)``: common list length and whether every list has
        it in tight packed storage (the batched stage-2 precondition).

        Pure function of the index state; the ``np.all`` over the lengths
        is a per-call fixed cost a one-query-at-a-time stream pays over and
        over, so it is cached per index version (``_prep`` is cleared by
        every build/insert/delete).
        """
        cached = self._prep.get("uniform_layout")
        if cached is not None:
            return cached
        packed = self._packed
        L = int(packed.lengths[0]) if packed.n_lists else 0
        uniform = (
            L > 0
            and packed.capacity == packed.total
            and bool(np.all(packed.lengths == L))
        )
        self._prep["uniform_layout"] = (L, uniform)
        return L, uniform

    def query(
        self,
        Q,
        k: int = 1,
        *,
        n_probes: int = 1,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One-shot k-NN: ``BF(Q, R)`` then ``BF(q, X[L_r])`` per query.

        ``n_probes > 1`` is an extension beyond the paper: each query scans
        the lists of its ``n_probes`` nearest representatives and merges,
        improving recall at proportional cost (the natural multi-probe
        analogue the paper's distributed future-work section suggests).

        Set ``ctx`` fields override the index configuration for this call.

        Returns ``(dist, idx)`` of shape ``(m, k)``; rows sorted ascending.
        Slots beyond the number of reachable candidates hold ``inf``/``-1``.
        """
        self._require_built()
        if k < 1 or n_probes < 1:
            raise ValueError("k and n_probes must be >= 1")
        n_probes = min(n_probes, self.n_reps)
        ctx = self._call_ctx(ctx)
        recorder = ctx.recorder
        stats = SearchStats()
        engine = self._engine_active(ctx)

        evals0 = self.metric.counter.n_evals
        # stage 1: nearest representative(s) by brute force (the engine
        # passes the cached prepared representative block, so nothing about
        # R is recomputed across query batches)
        _, rep_local = bf_knn(
            Q,
            self.rep_data,
            self.metric,
            k=n_probes,
            x_prepared=self._prepared_reps() if engine else None,
            ctx=ctx,
        )
        stats.stage1_evals = self.metric.counter.n_evals - evals0
        m = rep_local.shape[0]
        stats.n_queries = m

        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)

        # stage 2: scan each chosen representative's list, grouped by rep.
        # Lists overlap under multi-probe, so a candidate can arrive through
        # several lists; carry k * n_probes merge slots so duplicates cannot
        # push a genuine neighbor past the merge window, then dedupe to k.
        kk = k * n_probes
        best_d = np.full((m, kk), np.inf)
        best_i = np.full((m, kk), EMPTY_IDX, dtype=np.int64)
        evals1 = self.metric.counter.n_evals

        if engine:
            # prepared operands: queries coerced once, candidate lists are
            # contiguous row slices of the pre-gathered candidate matrix,
            # and squared_ok metrics rank in the squared domain
            Qp = self.metric.prepare(Qb)
            Cp = self._prepared_cands()
            packed = self._packed
            squared = self.metric.squared_ok
        else:
            squared = False

        # A fresh one-shot build gives every representative a list of
        # exactly ``s`` entries in tight packed layout, so the per-rep scan
        # collapses to ONE batched (rep, group, s) matmul plus a single
        # top-k over all groups — no per-group Python iteration at all.
        # Dynamic updates break the uniform layout; the group loop below
        # remains the general path (and the traced path: the batched kernel
        # is a pure speedup with identical results, not a new trace shape).
        L, uniform = self._uniform_layout() if engine else (0, False)
        use_batched = (
            engine
            and not recorder.enabled
            and uniform
            and (
                (squared and Cp.sqnorms is not None)
                or (not squared and Cp.norms is not None)
            )
            and getattr(self.metric, "prepared_kernel", None)
            in ("gram", "angular")
        )

        with recorder.phase("oneshot:stage2"):
            for probe in range(n_probes):
                choice = rep_local[:, probe]
                if use_batched:
                    self._stage2_batched(
                        Qp, Cp, choice, best_d, best_i, squared,
                        merge=(probe > 0),
                    )
                    self.metric.counter.add(int(m * L))
                    stats.candidates_examined += int(m * L)
                    continue
                for rep in np.unique(choice):
                    rows = np.flatnonzero(choice == rep)
                    cand = self.lists[rep]
                    if cand.size == 0:
                        continue
                    if engine:
                        lo, hi = packed.span(rep)
                        D = self.metric.pairwise_prepared(
                            Qp.take(rows), Cp.slice(lo, hi), squared=squared
                        )
                    else:
                        Qg = self.metric.take(Qb, rows)
                        D = self.metric.pairwise(Qg, self.metric.take(self.X, cand))
                    _record_dist_tile(
                        recorder,
                        self.metric,
                        rows.size,
                        cand.size,
                        self.metric.dim(self.rep_data),
                        "oneshot:stage2",
                    )
                    merge_group_topk(best_d, best_i, rows, D, cand)
                    stats.candidates_examined += int(D.size)
        stats.stage2_evals = self.metric.counter.n_evals - evals1

        if squared:
            best_d = self.metric.from_squared(best_d)
        if n_probes > 1:
            best_d, best_i = dedupe_rows(best_d, best_i, k)
        self.last_stats = stats
        return best_d, best_i

    def _stage2_batched(
        self, Qp, Cp, choice, best_d, best_i, squared, *, merge
    ) -> None:
        """One-probe stage 2 as a single batched block-diagonal kernel.

        Queries are sorted by chosen representative and padded to the
        largest group, the uniform ``(n_reps, s, d)`` candidate tensor is a
        reshape of the packed storage, and one ``np.matmul`` over the
        ``(rep, group, s)`` batch replaces the per-representative loop.
        The per-row top-k then runs once over all groups.  Padding rows
        (repeated queries) are discarded before the write-back, so results
        are identical to the grouped loop.
        """
        if choice.size == 0:
            return
        packed = self._packed
        L = int(packed.lengths[0])
        nlists = packed.n_lists
        m, kk = best_d.shape
        dim = Qp.data.shape[1]
        kc = min(kk, L)
        order_q = np.argsort(choice, kind="stable")
        uniq, ustarts, counts = np.unique(
            choice[order_q], return_index=True, return_counts=True
        )
        seg_ids = packed.ids.reshape(nlists, L)
        C3all = Cp.data.reshape(nlists, L, dim)
        ext_all = (Cp.sqnorms if squared else Cp.norms).reshape(nlists, L)
        # representatives are bucketed by their exact group size, so every
        # batched matmul is dense — no padding rows, no wasted selection
        for cnt in np.unique(counts):
            bsel = counts == cnt
            reps_b = uniq[bsel]
            qidx = (
                ustarts[bsel][:, None] + np.arange(cnt)[None, :]
            )  # (Rb, cnt) positions in order_q
            qidx = order_q[qidx]
            G = np.matmul(
                Qp.data[qidx], C3all[reps_b].transpose(0, 2, 1)
            )  # (Rb, cnt, L)
            if squared:
                G *= -2.0
                G += Qp.sqnorms[qidx][:, :, None]
                G += ext_all[reps_b][:, None, :]
                np.maximum(G, 0.0, out=G)
            else:
                G /= Qp.norms[qidx][:, :, None] * ext_all[reps_b][:, None, :]
                np.clip(G, -1.0, 1.0, out=G)
                np.arccos(G, out=G)
            rb = reps_b.size
            d_sel, li = topk_of_block(G.reshape(rb * cnt, L), kc)
            g_sel = np.take_along_axis(
                seg_ids[reps_b][:, None, :], li.reshape(rb, cnt, kc), axis=2
            ).reshape(rb * cnt, kc)
            rows_flat = qidx.reshape(-1)
            if kc < kk:
                dpad = np.full((rows_flat.size, kk), np.inf)
                dpad[:, :kc] = d_sel
                ipad = np.full((rows_flat.size, kk), EMPTY_IDX, dtype=np.int64)
                ipad[:, :kc] = g_sel
                d_sel, g_sel = dpad, ipad
            if merge:
                nd, ni = merge_topk(
                    (best_d[rows_flat], best_i[rows_flat]), (d_sel, g_sel)
                )
                best_d[rows_flat], best_i[rows_flat] = nd, ni
            else:
                best_d[rows_flat] = d_sel
                best_i[rows_flat] = g_sel

    # ------------------------------------------------------ dynamic updates
    def insert(self, x) -> int:
        """Insert a point into every list whose ball it falls inside.

        The point joins the (sorted) list of each representative ``r``
        with ``rho(x, r) <= psi_r``, and unconditionally joins its nearest
        representative's list (growing that radius if needed) so it is
        always reachable.  Lists may grow beyond ``s``; rebuild after
        heavy churn to restore the Theorem-2 configuration.  Returns the
        new point's global id.
        """
        self._require_built()
        self._require_vector_db("insert")
        gid = self._append_point(x)
        d = self.metric.pairwise(
            self.metric.take(self.X, [gid]), self.rep_data
        )[0]
        targets = set(np.flatnonzero(d <= self.radii).tolist())
        targets.add(int(np.argmin(d)))
        for j in targets:
            pos = int(np.searchsorted(self.list_dists[j], d[j]))
            self._packed.insert(j, pos, gid, float(d[j]))
            self.radii[j] = max(self.radii[j], float(d[j]))
        return gid

    def delete(self, gid: int) -> None:
        """Delete a point: remove it from every (overlapping) list.

        Deleting a representative keeps its list serving queries (the
        list's members are still valid neighbors); only the point itself
        stops being returned.  Rebuild to re-draw representatives.
        """
        self._require_built()
        self._require_vector_db("delete")
        gid = int(gid)
        self._tombstone(gid)
        packed = self._packed
        for j in range(packed.n_lists):
            hit = np.flatnonzero(packed.ids_of(j) == gid)
            if hit.size:
                packed.delete_at(j, int(hit[0]))

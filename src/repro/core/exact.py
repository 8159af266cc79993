"""The exact RBC search algorithm (paper §5.2).

Search runs as three brute-force calls around a pruning step that uses
only the triangle inequality:

1. ``BF(Q, R)`` with distances retained; ``gamma`` = distance to the
   nearest representative is an upper bound on the distance to the true NN
   (representatives are database points).
2. **Round 1**: ``BF(q, X[L_r1])`` over the whole list of the query's
   nearest representative ``r1``.  ``gamma'``, the smallest distance seen
   (the seed representatives from step 1 included), is a much tighter
   bound than ``gamma``; it is widened by the kernels' rounding bound
   (:meth:`ExactRBC._slack`) so the rules below stay exact when it is 0.
3. Pruning discards every other representative ``r`` that provably cannot
   own a nearest neighbor, by two rules used simultaneously (the paper
   notes their combination improves empirical performance):

   * **psi rule** (inequality (1)): discard if
     ``rho(q, r) >= gamma' + psi_r`` — the whole ball around ``r`` lies
     further than the bound;
   * **owner bound** (Lemma 1's derivation): discard if
     ``rho(q, r) > 2 gamma' + rho(q, r1)``.  The owner ``r`` of a
     neighbor ``x`` within ``gamma'`` is at least as near ``x`` as
     ``r1`` is, and ``rho(x, r1) <= gamma' + rho(q, r1)``.  With
     ``gamma``, which is at least ``rho(q, r1)``, this is the paper's
     ``3 gamma`` rule; ``3 gamma'`` would be wrong once
     ``gamma' < rho(q, r1)``.

   Within surviving lists, the sorted order by distance-to-representative
   enables the Claim-2 trim: a nearest neighbor owned by ``r`` satisfies
   ``rho(x, r) <= rho(q, r) + gamma'``, so only a sorted prefix is scanned.
4. ``BF(q, X[L_1 ∪ ... ∪ L_t])`` over the surviving candidates, without
   list ``r1``, which round 1 scanned whole.

For k-NN, ``gamma`` is the distance to the k-th nearest representative
and ``gamma'`` the k-th smallest distance round 1 saw (both upper bounds
on the k-th NN distance since ``R ⊂ X``); every rule generalizes with
that substitution.

An approximation knob ``approx_eps`` implements the paper's footnote 1:
with ``approx_eps = e > 0`` the psi rule and the trim use
``gamma' / (1 + e)``, which guarantees the returned point is within a
factor ``(1 + e)`` of the true NN distance while pruning more
aggressively.

Both scans are *batched*: the pruning rules are broadcast over the whole
``(chunk, n_reps)`` stage-1 distance block, the Claim-2 trim is one
vectorized bisection over every kept (query, list) pair, and queries are
grouped by representative so each representative's (trimmed) list is
scanned with a single dense ``pairwise`` block (the same matmul-like
group-by-rep structure as the one-shot search).  This is the paper's core
argument applied to its own exact algorithm: per-query scalar work
coalesces into brute-force blocks that run at hardware speed.  The
comparison step follows the primitive's too: the scan keeps each query's
k best as it goes, in a survivor pool bounded by a small multiple of k
per query on average, and each query's filter threshold falls from gamma
to its current k-th distance, so a block admits only candidates that can
still enter the answer.

The search is written once, as steps that store no per-call state on the
index: :meth:`ExactRBC._stage1` (``BF(Q, R)``), :meth:`ExactRBC._first`
(round 1's plan: each query's ``r1`` list and seeds),
:meth:`ExactRBC._prune` (gamma', rules, cuts, counters),
:meth:`ExactRBC._scan` (the grouped scan of a chosen set of
representatives' lists, run for round 1 and stage 2) and
:meth:`ExactRBC._gather` (the final ranking).  :meth:`ExactRBC.query`
runs them over all representatives; the sharded searcher and the
distributed engine run each scan once per shard or node, as two scatter
waves (§8: distribute the search by representative).
Every distance is float64; the one reduced-precision path is the quantized
tier (``quantizer=``), whose one certified flat scan only generates
candidates for a float64 re-rank.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..metrics.engine import Prepared, operand_cache
from ..metrics.quantize import check_quantizer, supports_quantization
from ..parallel.blocking import row_chunks
from ..parallel.bruteforce import _is_batch, _record_dist_tile, _record_select
from ..parallel.pool import SerialExecutor
from ..parallel.reduce import EMPTY_IDX
from ..runtime.context import ExecContext
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder
from .params import standard_n_reps
from .rbc import RBCBase, sample_representatives
from .stats import SearchStats

__all__ = ["ExactRBC"]

#: :meth:`ExactRBC._scan` keeps each row's k best once its survivor pool
#: holds more than this many times k entries per row on average (this
#: many times c * k over a c-row chunk)
_POOL_BOUND = 4

#: bound on the rounding error of one kernel evaluation, relative to the
#: magnitudes it combines (:meth:`ExactRBC._slack`): 2^13 unit roundoffs,
#: the worst case of a dot product of ~4,000 terms
_ROUNDING = 2.0**-40


class ExactRBC(RBCBase):
    """Random Ball Cover with the exact (guaranteed-correct) search.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import ExactRBC
    >>> X = np.random.default_rng(0).normal(size=(2000, 8))
    >>> index = ExactRBC(seed=0).build(X)
    >>> dist, idx = index.query(X[:3], k=2)
    >>> bool((idx[:, 0] == [0, 1, 2]).all())   # a point's 1-NN is itself
    True

    Parameters
    ----------
    quantizer:
        the reduced-precision path: ``None`` (off, default),
        ``"int8"``/``"float16"``/``"pq"`` to pin a code kind, or ``"auto"``
        to let the autotuner pick one.  The autotuner's
        :class:`~repro.runtime.autotune.KernelPlan`, fed by the
        candidate-fraction probe, decides whether the codes run: ``flat``
        replaces both stages with one certified quantized scan whose
        candidates a float64 re-rank finalizes; ``grouped`` (pruning
        bites) runs the float64 two-stage search and builds no codes.
        Answer ids stay identical to the float64 search either way.
        Requires a metric with a GEMM-shaped prepared kernel (the
        Euclidean family, Mahalanobis, or cosine).

    The other keywords are :class:`~repro.core.rbc.RBCBase`'s.
    """

    CAPS = RBCBase.CAPS.replace(range_queries=True)

    def __init__(
        self,
        metric="euclidean",
        *,
        quantizer: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(metric, **kwargs)
        if quantizer is not None:
            if quantizer != "auto":
                check_quantizer(quantizer)
            if not supports_quantization(self.metric):
                raise ValueError(
                    f"quantizer={quantizer!r} requires a metric with a "
                    f"GEMM-shaped prepared kernel; "
                    f"{type(self.metric).__name__} has none"
                )
        self.quantizer = quantizer

    def build(
        self,
        X,
        n_reps: int | None = None,
        *,
        c: float = 1.0,
        recorder: TraceRecorder = NULL_RECORDER,
        ctx: ExecContext | None = None,
    ) -> "ExactRBC":
        """Build: sample ``R``, then one ``BF(X, R)`` assigns every point to
        its nearest representative (paper §4).

        ``n_reps`` defaults to the standard setting ``c^{3/2} sqrt(n)``.
        """
        ctx = self._call_ctx(ctx, recorder=recorder)
        self._require_true_metric("the exact search's pruning")
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        self._validate_input(X)
        n_reps = standard_n_reps(n, c=c) if n_reps is None else n_reps

        rep_ids = sample_representatives(n, n_reps, self.rng, scheme=self.rep_scheme)
        rep_data = self.metric.take(X, rep_ids)

        evals0 = self.metric.counter.n_evals
        # the build routine is exactly BF(X, R) (paper §4)
        from ..parallel.bruteforce import bf_nn

        dist, owner = bf_nn(X, rep_data, self.metric, ctx=ctx)
        build_evals = self.metric.counter.n_evals - evals0

        # group points by owner, each list ascending by distance to its rep
        order = np.lexsort((dist, owner))
        owner_sorted = owner[order]
        boundaries = np.searchsorted(owner_sorted, np.arange(rep_ids.size + 1))
        lists, list_dists = [], []
        for j in range(rep_ids.size):
            sl = order[boundaries[j] : boundaries[j + 1]]
            lists.append(sl.astype(np.int64))
            list_dists.append(dist[sl])
        self._finish_build(X, rep_ids, lists, list_dists, build_evals)
        return self

    # ------------------------------------------------------------- queries
    def query(
        self,
        Q,
        k: int = 1,
        *,
        use_psi_rule: bool = True,
        use_3gamma_rule: bool = True,
        use_trim: bool = True,
        approx_eps: float = 0.0,
        recorder: TraceRecorder = NULL_RECORDER,
        executor=None,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN (or ``(1 + approx_eps)``-approximate if ``> 0``).

        The three rule flags exist for the ablation experiments; with all
        rules disabled the second stage degenerates to full brute force
        over every ownership list (still correct, just slow).

        ``ctx`` (or the legacy ``recorder``/``executor`` kwargs it
        subsumes) overrides the index configuration for this call; set
        ``ctx`` fields win, then kwargs, then the index defaults.

        Returns ``(dist, idx)`` of shape ``(m, k)``, rows sorted ascending.
        """
        self._require_built()
        if k < 1:
            raise ValueError("k must be >= 1")
        if approx_eps < 0:
            raise ValueError("approx_eps must be >= 0")
        ctx = self._call_ctx(ctx, recorder=recorder, executor=executor)
        recorder = ctx.recorder
        stats = SearchStats()
        nr = self.n_reps

        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
        m = self.metric.length(Qb)
        stats.n_queries = m
        if m == 0:
            self.last_stats = stats
            return (
                np.full((0, k), np.inf),
                np.full((0, k), EMPTY_IDX, dtype=np.int64),
            )

        qplan = self._quant_plan() if self._engine_active(ctx) else None
        if qplan is not None and qplan.strategy == "flat":
            return self._query_quant_flat(Qb, k, qplan, stats, recorder)

        # ---- stage 1: BF(Q, R) with all distances retained
        evals0 = self.metric.counter.n_evals
        Qs, D_R = self._stage1(Qb, ctx)
        stats.stage1_evals = self.metric.counter.n_evals - evals0
        # the grouped scans run on the prepared block (engine) or the raw
        # queries (generic metrics)
        engine = isinstance(Qs, Prepared)
        rules = dict(
            use_psi_rule=use_psi_rule,
            use_3gamma_rule=use_3gamma_rule,
            use_trim=use_trim,
            approx_eps=approx_eps,
        )

        def task(chunk):
            lo, hi = chunk
            c = hi - lo
            Dc = D_R[lo:hi]
            if engine:
                Qc = Qs.slice(lo, hi)
            else:
                Qc = self.metric.take(Qb, np.arange(lo, hi))
            with recorder.phase("exact:stage2"):
                first = self._first(Qc, Dc, k)
                pool = self._scan(Qc, first, top=k, recorder=recorder)
                pruned = self._prune(Qc, Dc, first, [pool], **rules)
                if recorder.enabled:
                    recorder.record(
                        Op(
                            kind="ewise",
                            flops=4.0 * nr * c,
                            bytes=8.0 * nr * c,
                            tag="exact:prune",
                        )
                    )
                pool = self._scan(Qc, pruned, recorder=recorder)
                dist, idx = self._gather(Qc, pruned, [pool], k)
                if recorder.enabled:
                    # two (c, k) blocks: float64 distances plus int64 ids
                    recorder.record(
                        Op(
                            kind="reduce",
                            flops=4.0 * c * k,
                            bytes=2.0 * c * k * 16.0,
                            vectorizable=True,
                            tag="exact:stage2:merge",
                        )
                    )
            return dist, idx, pruned.stats

        chunks = row_chunks(m, 256)
        evals1 = self.metric.counter.n_evals
        # stage 2 under a process pool would ship the whole index state per
        # chunk; the batched kernels below are BLAS-bound and release the
        # GIL, so the context degrades that backend to inline execution
        with ctx.executor_scope(inline_processes=True) as exec_:
            if len(chunks) == 1 or isinstance(exec_, SerialExecutor):
                parts = [task(ch) for ch in chunks]
            else:
                parts = exec_.map(task, chunks)
        stats.stage2_evals = self.metric.counter.n_evals - evals1

        dist = np.concatenate([p[0] for p in parts], axis=0)
        idx = np.concatenate([p[1] for p in parts], axis=0)
        for p in parts:
            sub = p[2]
            stats.pruned_by_psi += sub.pruned_by_psi
            stats.pruned_by_3gamma += sub.pruned_by_3gamma
            stats.trimmed_by_4gamma += sub.trimmed_by_4gamma
            stats.candidates_examined += sub.candidates_examined
        self.last_stats = stats
        return dist, idx

    def _query_quant_flat(self, Qb, k, plan, stats, recorder):
        """One certified quantized scan of the live points, replacing both
        stages (the autotuner's *flat* strategy — chosen when the pruning
        rules are predicted to keep nearly everything, so the grouped
        "pruned" scan would be a slower full scan).

        Answers are id-identical to the two-stage exact search: the scan
        over-fetches ``ck`` candidates per query, certifies the frontier
        with the per-row residual bound ``|d(q,x) - d(q,x~)| <= d(x,x~)``,
        and re-ranks every survivor in float64.
        """
        from ..metrics.quantize import quant_search

        qop = self._quant_operand(plan.quantizer)
        n_rows = len(qop.codes)  # packed width incl. slack (the GEMM scans it)
        n_live = (
            int(qop.valid.sum()) if qop.valid is not None else n_rows
        )
        dim = self.metric.dim(self.X)
        m = self.metric.length(Qb)
        evals0 = self.metric.counter.n_evals
        with recorder.phase("exact:quant-flat"):
            dist, idx, info = quant_search(
                self.metric,
                np.asarray(Qb),
                self.X,
                qop,
                k,
                over_fetch=plan.over_fetch,
                row_chunk=plan.row_chunk,
                backend=plan.backend,
            )
            if recorder.enabled:
                # the scan streams the code block once per query chunk
                n_blocks = -(-m // max(1, plan.row_chunk))
                recorder.record(
                    Op(
                        kind="gemm",
                        flops=2.0 * m * n_rows * dim,
                        bytes=float(qop.code_bytes) * n_blocks,
                        tag="exact:quant-flat",
                    )
                )
        stats.stage2_evals = self.metric.counter.n_evals - evals0
        # live rows only, matching quant_topk's m * n_valid counter credit
        stats.candidates_examined = m * n_live
        stats.quant = dict(info, strategy="flat", over_fetch=plan.over_fetch)
        self.last_stats = stats
        return dist, idx

    def _stage1(self, Qb, ctx: ExecContext | None = None):
        """Stage 1: ``BF(Q, R)`` with every distance retained.

        The one stage-1 step of every exact search: :meth:`query`,
        :meth:`range_query`, and the sharded searcher and distributed
        engine, which run :meth:`_first`, :meth:`_prune` and :meth:`_scan`
        themselves.
        Returns ``(Qop, D_R)``: the prepared query block when the engine
        applies (the raw batch otherwise) and the full ``(m, n_reps)``
        distance matrix, computed in row chunks against the cached
        prepared representatives.
        """
        recorder = NULL_RECORDER if ctx is None else ctx.recorder
        engine = self._engine_active(ctx)
        Qop = self.metric.prepare(Qb) if engine else Qb
        m = self.metric.length(Qb)
        dim = self.metric.dim(self.rep_data)
        out = np.empty((m, self.n_reps))
        with recorder.phase("exact:stage1"):
            Rp = self._prepared_reps() if engine else None
            for lo, hi in row_chunks(m, 1024):
                if engine:
                    out[lo:hi] = self.metric.pairwise_prepared(
                        Qop.slice(lo, hi), Rp
                    )
                else:
                    Qc = self.metric.take(Qb, np.arange(lo, hi))
                    out[lo:hi] = self.metric.pairwise(Qc, self.rep_data)
                _record_dist_tile(
                    recorder, self.metric, hi - lo, self.n_reps, dim,
                    "exact:stage1",
                )
        return Qop, out

    def warm(self, ctx: ExecContext | None = None) -> "ExactRBC":
        """Additionally pre-computes the representative-position table the
        batched stage 2 consults (see :meth:`RBCBase.warm`) and, for a
        quantized index, resolves the tuned kernel plan — building the
        code operand only when the plan is flat — so serving pays for
        autotuning and quantization before the first query instead of
        inside its latency budget."""
        super().warm(ctx)
        self._rep_positions()
        engine = self._engine_active(self._call_ctx(ctx))
        qplan = self._quant_plan() if engine else None
        if qplan is not None and qplan.strategy == "flat":
            self._quant_operand(qplan.quantizer)
        return self

    def _rep_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Locate every representative inside the ownership lists.

        Returns ``(owner, pos)``: representative ``r`` (a database point)
        sits at ``lists[owner[r]][pos[r]]``.  :meth:`_prune` and
        :meth:`_scan` use this to find the seed representatives a scanned
        prefix already holds, so no candidate is examined twice.  ``owner``
        is ``-1`` for a representative found in no list (cannot happen in a
        consistent exact build; treated as "not scanned").

        The table depends only on the index state, so it is cached per
        index version (``_prep`` is cleared by every build/insert/delete);
        building it is one ``isin`` over the packed ids, whose hits in
        live slots ``searchsorted`` places into their lists.
        """
        cached = self._prep.get("rep_positions")
        if cached is not None:
            return cached
        packed = self._packed
        owner = np.full(self.n_reps, -1, dtype=np.int64)
        pos = np.zeros(self.n_reps, dtype=np.int64)
        slot = np.flatnonzero(np.isin(packed.ids, self.rep_ids))
        j = np.searchsorted(packed.starts, slot, side="right") - 1
        at = slot - packed.starts[j]
        # slack at a segment's tail can hold stale ids
        live = at < packed.lengths[j]
        ridx = np.searchsorted(self.rep_ids, packed.ids[slot[live]])
        owner[ridx] = j[live]
        pos[ridx] = at[live]
        self._prep["rep_positions"] = (owner, pos)
        return owner, pos

    def _estimate_candidate_fraction(self) -> float:
        """Measured fraction of the live database the search examines,
        probed on <= 64 live points standing in as queries.

        This is the autotuner's flat-vs-grouped input: at low dimension
        the rules prune hard and the float64 grouped scan wins; past
        d ~ 32 on i.i.d. data they keep nearly everything and one flat
        quantized scan is cheaper.  The probe is a stage-1 block, round 1
        and :meth:`_prune` — no stage-2 distances — and runs once per
        index version (the plan is cached in ``_prep``).  A probe point
        finds itself in round 1, so the probe asks for 2 neighbors: the
        second is its nearest other point, the bound a query from the
        data's own distribution meets.
        """
        self._require_built()
        live = self.active_ids
        probe_m = min(64, live.size)
        rows = np.random.default_rng(0).choice(
            live, size=probe_m, replace=False
        )
        P = self.metric.take(self.X, rows)
        D = self.metric.pairwise(P, self.rep_data)
        first = self._first(P, D, 2)
        pruned = self._prune(P, D, first, [self._scan(P, first, top=2)])
        kept = pruned.stats.candidates_examined
        return min(1.0, kept / max(1, probe_m * live.size))

    def _quant_plan(self):
        """The tuned :class:`~repro.runtime.autotune.KernelPlan` for this
        index (resolved once per version; ``quantizer=None`` -> ``None``).

        The autotuner prices the flat quantized scan against the float64
        grouped scan from the machine model and
        :meth:`_estimate_candidate_fraction`; ``quantizer="auto"`` also
        lets it pick the code kind, an explicit kind pins it.
        """
        if self.quantizer is None:
            return None
        cached = self._prep.get("quant_plan")
        if cached is not None:
            return cached
        from ..runtime.autotune import default_autotuner

        plan = default_autotuner.plan_for(
            self.n,
            int(self.metric.dim(self.X)),
            quantizer=None if self.quantizer == "auto" else self.quantizer,
            cand_frac=self._estimate_candidate_fraction(),
        )
        self._prep["quant_plan"] = plan
        return plan

    def _quant_operand(self, kind: str):
        """Quantized code operand of the flat scan.

        Backing row ``t`` codes the database point ``packed.ids[t]`` —
        the layout of :meth:`_prepared_cands`, whose gathered matrix it
        quantizes — and the scan covers exactly the live points (slack
        rows are masked out, tombstoned points are simply absent).
        Derived through
        :meth:`~repro.metrics.engine.OperandCache.get_quantized`, so it
        shares the float64 parent's version stamp and is evicted with it.
        """
        key = ("quant", kind)
        ent = self._prep.get(key)
        if ent is None:
            self._prepared_cands()  # parent + gathered matrix
            gathered = self._prep["cands_src"]
            packed = self._packed
            safe_ids = np.clip(packed.ids, 0, self.n - 1).astype(np.int64)
            valid = np.zeros(safe_ids.size, dtype=bool)
            for j in range(packed.n_lists):
                lo, hi = packed.span(j)
                valid[lo:hi] = True
                # slack rows map to -1 (refine_topk's ignored padding id),
                # never to a real point, should one leak past the masks
                safe_ids[hi : packed.starts[j + 1]] = -1
            ent = operand_cache.get_quantized(
                self.metric,
                gathered,
                kind,
                version=self._version,
                ids=safe_ids,
                valid=valid,
            )
            self._prep[key] = ent
        return ent

    def _first(self, Qop, D_R, k) -> "_Pruned":
        """Round 1's plan for one stage-1 block: each row scans the whole
        list of its nearest representative ``r1``.

        The row's seeds, its ``kk = min(k, n_reps)`` nearest
        representatives, are database points whose distances stage 1
        holds; :meth:`_prune` adds those outside list ``r1`` to round 1's
        pool.  They put k candidates within gamma, so the scan's
        threshold starts at gamma, widened like stage 2's (:meth:`_scan`).
        The plan's counters hold round 1's candidates: list ``r1`` plus
        those seeds.
        """
        c, nr = D_R.shape
        kk = min(k, nr)
        seed_cols = np.argpartition(D_R, kk - 1, axis=1)[:, :kk]
        r1 = np.argmin(D_R, axis=1)
        gamma = np.full(c, np.inf)
        if nr >= k:
            gamma = np.take_along_axis(D_R, seed_cols, axis=1).max(axis=1)
        thr = gamma + 2.0 * self._slack(Qop, D_R)
        if self._squared(Qop):
            thr = self.metric.to_squared(thr)
        cuts = np.zeros((c, nr), dtype=np.int64)
        cuts[np.arange(c), r1] = self._packed.lengths[r1]
        owner, _ = self._rep_positions()
        outside = np.count_nonzero(owner[seed_cols] != r1[:, None])
        stats = SearchStats(candidates_examined=int(cuts.sum() + outside))
        return _Pruned(
            k, r1, thr, cuts, seed_cols,
            np.zeros(seed_cols.shape, dtype=bool), _EMPTY_POOL, stats,
        )

    def _slack(self, Qop, D_R) -> np.ndarray:
        """``(c,)`` bound on the rounding error of one computed distance
        from each query row.

        The rules compare three computed distances — stage 1's, the
        build's and round 1's — against exact inequalities, so
        :meth:`_prune` widens gamma' by three of these.  Per kernel shape:

        * Gram kernels (``|q|^2 + |x|^2 - 2<q, x>``) cancel, so their error
          is absolute, at most ``E = _ROUNDING (|q|^2 + max |x|^2)`` in the
          squared domain, which moves a distance by at most ``sqrt(E)``.
          Coincident points need not come out 0 apart, and gamma' is 0
          whenever a query's k nearest are copies of it;
        * the angular kernel: a cosine off by ``_ROUNDING`` moves an angle
          near 0 by at most ``sqrt(2 _ROUNDING)``;
        * kernels that difference coordinates directly err relative to
          the distance: ``_ROUNDING`` times the largest distance the rules
          compare.
        """
        metric = self.metric
        kernel = getattr(metric, "prepared_kernel", None)
        if kernel == "gram":
            engine = isinstance(Qop, Prepared)
            q2 = (Qop if engine else metric.prepare(Qop)).sqnorms
            x2 = self._prep.get(("max_sqnorm", engine))
            if x2 is None:
                # the candidate matrix holds every list member (its slack
                # rows copy a database point)
                X = self._prepared_cands() if engine else metric.prepare(self.X)
                x2 = float(X.sqnorms.max())
                self._prep[("max_sqnorm", engine)] = x2
            return np.sqrt(_ROUNDING * (q2 + x2))
        if kernel == "angular":
            return np.full(len(D_R), np.sqrt(2.0 * _ROUNDING))
        return _ROUNDING * (D_R.max(axis=1) + self.radii.max())

    def _prune(
        self,
        Qop,
        D_R,
        first,
        pools,
        *,
        use_psi_rule=True,
        use_3gamma_rule=True,
        use_trim=True,
        approx_eps=0.0,
    ) -> "_Pruned":
        """The exact search's pruning for one stage-1 block (paper §5.2),
        after round 1.

        ``first`` is :meth:`_first`'s plan and ``pools`` the replies of
        its scans.  Their union with the seeds outside list ``r1`` is
        round 1's pool; its k-th distance starts every row's stage-2
        threshold, and widened by :meth:`_slack` it is gamma'.  The psi
        rule and the owner bound are broadcast over the whole ``(c,
        n_reps)`` block, list ``r1`` is left out, and the Claim-2 trim is
        one vectorized bisection over every kept (row, list) pair.
        Returns stage 2's :class:`_Pruned`; its rule counters are
        batching-invariant — they equal a per-query run of the same
        rules.  Stores no per-call state on the index.
        """
        c, nr = D_R.shape
        k, r1, seed_cols = first.k, first.r1, first.seed_cols
        at = np.arange(c)
        squared = self._squared(Qop)
        owner, pos = self._rep_positions()
        # round 1's pool: the r1 lists' replies, then the seeds outside
        # list r1 at their stage-1 distances
        rows, col = np.nonzero(owner[seed_cols] != r1[:, None])
        reps = seed_cols[rows, col]
        d = D_R[rows, reps]
        d = self.metric.to_squared(d) if squared else d
        seeds = (rows, d, self._packed.starts[owner[reps]] + pos[reps])
        r, d, g, rank = _top([*pools, seeds], c, k)
        full = rank == k - 1
        kth = np.full(c, np.inf)
        kth[r[full]] = d[full]
        # gamma' <= gamma: the pool holds the k seeds (inf while it holds
        # fewer than k points).  It widens by the rounding bound three
        # times for the rules and twice for the scan's threshold
        if squared:
            kth = self.metric.from_squared(kth)
        slack = self._slack(Qop, D_R)
        gamma = kth + 3.0 * slack
        thr = kth + 2.0 * slack
        if squared:
            thr = self.metric.to_squared(thr)
        ge = gamma / (1.0 + approx_eps)
        stats = SearchStats(n_queries=c)

        keep = np.ones((c, nr), dtype=bool)
        keep[at, r1] = False  # round 1 scanned it whole
        if use_psi_rule:
            # inequality (1): rho(q,r) >= gamma' + psi_r  =>  discard
            kept = D_R - self.radii[None, :] < ge[:, None]
            stats.pruned_by_psi = int(np.count_nonzero(keep & ~kept))
            keep &= kept
        if use_3gamma_rule:
            # Lemma 1's owner bound: rho(q,r) > 2 gamma' + rho(q,r1)  =>  discard
            kept = D_R <= (2.0 * gamma + D_R[at, r1])[:, None]
            stats.pruned_by_3gamma = int(np.count_nonzero(keep & ~kept))
            keep &= kept

        # ---- Claim-2 trim: rho(x, r) <= rho(q, r) + gamma' bounds a sorted
        # prefix of each kept list
        packed = self._packed
        kr, kj = np.nonzero(keep)
        size = packed.lengths[kj]
        cut = size.copy()
        if use_trim:
            bound = D_R[kr, kj] + ge[kr]
            # a bound past the list's radius keeps it whole
            part = np.flatnonzero(bound < self.radii[kj])
            cut[part] = _bisect_right(
                packed.dists, packed.starts[kj[part]], size[part], bound[part]
            )
            stats.trimmed_by_4gamma = int(size.sum() - cut.sum())
        cuts = np.zeros((c, nr), dtype=np.int64)
        cuts[kr, kj] = cut

        # the seeds a stage-2 prefix holds: the scan keeps them, and round
        # 1's pool gives up their stage-1 copies, so no candidate repeats
        # and a seed ties its copies on distances from one kernel call
        so = owner[seed_cols]
        so_ok = so >= 0
        cut_at = np.take_along_axis(cuts, np.where(so_ok, so, 0), axis=1)
        force = so_ok & (pos[seed_cols] < cut_at)
        fr, fc = np.nonzero(force)
        fs = seed_cols[fr, fc]
        width = packed.ids.size
        fkey = fr * width + packed.starts[owner[fs]] + pos[fs]
        drop = np.isin(r * width + g, fkey)
        stats.candidates_examined = first.stats.candidates_examined + int(
            cuts.sum() - fr.size
        )
        pool = (r[~drop], d[~drop], g[~drop])
        return _Pruned(k, r1, thr, cuts, seed_cols, force, pool, stats)

    def _scan(
        self,
        Qop,
        pruned,
        reps=None,
        *,
        top=None,
        recorder=NULL_RECORDER,
    ):
        """Grouped scan of the list prefixes ``pruned`` keeps: round 1's
        (:meth:`_first`) or stage 2's (:meth:`_prune`).

        ``reps`` picks the representatives whose lists are scanned: all of
        them (default) for :meth:`query`, one shard's or node's for the
        distributed callers.  Queries are grouped by representative and
        each group's prefix is one dense block — a contiguous slice of the
        pre-gathered candidate matrix when ``Qop`` is a prepared block
        (``squared_ok`` metrics then rank in the squared domain), a gather
        plus ``pairwise`` for the raw batch of a generic metric.  Ragged
        groups are masked back to each row's own cut.

        One selection rule follows every block: a row's threshold starts
        at ``pruned.thr``, in the domain the scan ranks in — gamma for
        round 1, round 1's k-th distance for stage 2: k candidates lie
        within it (the seeds, round 1's pool), so a candidate beyond it
        can never enter the top-k.  It is widened by twice
        :meth:`_slack` so a point that ties a pool entry in exact
        arithmetic is admitted however the two were rounded.  The seeds a
        stage-2 prefix holds (``pruned.seed_force``) always survive:
        Gram-trick distances of near-coincident points cancel, so their
        rounding error scales with the norms rather than the distance,
        and a row must keep its ``k`` seeds.

        The survivor pool stays bounded, the comparison step of the
        paper's BF primitive (§3): whenever it holds more than
        ``_POOL_BOUND * c * k`` entries over the chunk's ``c`` rows
        (``_POOL_BOUND * k`` per row on average; one row may hold more),
        :func:`_top` keeps each row's ``k`` best, and a row that holds
        ``k`` lowers its threshold to its k-th distance so later blocks
        admit only candidates that can still enter.  A dropped candidate
        has ``k`` others strictly nearer, so answers are those of ranking
        the whole pool once by (distance, slot).  Returns the survivor
        pool ``(rows, dists, slots)``, a slot being a candidate's position
        in packed storage; ``top`` keeps only each row's ``top`` nearest
        (a node's top-k reply).  Stores no per-call state on the index.
        """
        metric = self.metric
        engine = isinstance(Qop, Prepared)
        squared = self._squared(Qop)
        dim = metric.dim(self.rep_data)
        if engine:
            Cp = self._prepared_cands()
        starts = self._packed.starts
        c, k = len(pruned.thr), pruned.k
        thr = pruned.thr.copy()
        lists = self.lists
        live = (pruned.cuts > 0).any(axis=0)
        cols = np.flatnonzero(live) if reps is None else reps[live[reps]]
        # the seeds to keep as (row, list, position), grouped by list
        owner, pos = self._rep_positions()
        s_row, s_col = np.nonzero(pruned.seed_force)
        s_rep = pruned.seed_cols[s_row, s_col]
        order = np.argsort(owner[s_rep], kind="stable")
        s_row, s_rep = s_row[order], s_rep[order]
        s_at = np.searchsorted(owner[s_rep], np.arange(len(live) + 1))
        empty = np.empty(0, dtype=np.int64)
        acc, n_acc = [(empty, np.empty(0), empty)], 0
        # DRAM traffic model: a candidate vector is streamed from memory the
        # first time any query in this scan touches it and served from
        # cache afterwards, so the scan charges each unique candidate once
        # (recorded as one memcpy op below); group ops carry only their
        # compute and output bytes.
        touched = np.zeros(self.n, dtype=bool) if recorder.enabled else None
        for j in cols:
            rows = np.flatnonzero(pruned.cuts[:, j])
            cut = pruned.cuts[rows, j]
            prefix_len = int(cut.max())
            prefix = lists[j][:prefix_len]
            if engine:
                plo = int(starts[j])
                D = metric.pairwise_prepared(
                    Qop.take(rows),
                    Cp.slice(plo, plo + prefix_len),
                    squared=squared,
                )
            else:
                D = metric.pairwise(
                    metric.take(Qop, rows), metric.take(self.X, prefix)
                )
            if touched is not None:
                touched[prefix] = True
            _record_dist_tile(
                recorder, metric, rows.size, prefix_len, dim, "exact:stage2"
            )
            _record_select(recorder, rows.size, prefix_len, "exact:stage2")
            mask = D <= thr[rows][:, None]
            if int(cut.min()) < prefix_len:
                # ragged group scanned as one padded block: a row only owns
                # its own trimmed prefix
                mask &= np.arange(prefix_len)[None, :] < cut[:, None]
            a, b = s_at[j], s_at[j + 1]
            if a < b:
                mask[np.searchsorted(rows, s_row[a:b]), pos[s_rep[a:b]]] = True
            # 1-D nonzero + divmod beats 2-D nonzero by ~2x here
            flat = np.flatnonzero(mask)
            rr, cc = np.divmod(flat, prefix_len)
            acc.append((rows[rr], D.reshape(-1)[flat], starts[j] + cc))
            n_acc += flat.size
            if n_acc > _POOL_BOUND * c * k:
                r, d, g, rank = _top(acc, c, k)
                full = rank == k - 1
                thr[r[full]] = np.minimum(thr[r[full]], d[full])
                acc, n_acc = [(r, d, g)], r.size
            if recorder.enabled:
                # two (rows, k) candidate blocks: float64 distances plus
                # int64 ids
                recorder.record(
                    Op(
                        kind="reduce",
                        flops=4.0 * rows.size * k,
                        bytes=2.0 * rows.size * k * 16.0,
                        vectorizable=True,
                        tag="exact:stage2:merge",
                    )
                )
        if touched is not None and touched.any():
            recorder.record(
                Op(
                    kind="memcpy",
                    flops=0.0,
                    bytes=8.0 * dim * float(touched.sum()),
                    tag="exact:stage2-stream",
                )
            )
        if top is not None:
            return _top(acc, c, top)[:3]
        return tuple(np.concatenate(part) for part in zip(*acc))

    def _squared(self, Qop) -> bool:
        """Whether scans of ``Qop`` rank in the metric's squared domain."""
        return isinstance(Qop, Prepared) and self.metric.squared_ok

    def _gather(self, Qop, pruned, pools, k):
        """Final selection: round 1's pool (``pruned.pool``) and the
        stage-2 survivor ``pools``, ranked to each row's ``k`` nearest and
        mapped back to distances.  Returns ``(dist, idx)`` of shape
        ``(c, k)``, padded with ``inf``/``-1``."""
        c = len(pruned.thr)
        r, d, g, _ = _top([pruned.pool, *pools], c, k)
        # every live point has one slot, so ties rank alike whatever order
        # the pools arrive in: any batching, sharding or scan order
        order = np.lexsort((g, d, r))
        r, d, g = r[order], d[order], g[order]
        rank = _row_ranks(r, c)
        sel = rank < k
        r, d, g, rank = r[sel], d[sel], g[sel], rank[sel]
        dist = np.full((c, k), np.inf)
        idx = np.full((c, k), EMPTY_IDX, dtype=np.int64)
        dist[r, rank] = d
        idx[r, rank] = self._packed.ids[g]
        if self._squared(Qop):
            dist = self.metric.from_squared(dist)
        return dist, idx

    # ------------------------------------------------------ dynamic updates
    def insert(self, x) -> int:
        """Insert a point: assign it to its nearest representative.

        Exactly the per-point step of the build's ``BF(X, R)``; queries
        remain exact afterwards.  Returns the new point's global id.
        O(n_reps) distance evaluations plus an O(n) database append —
        rebuild instead when inserting a large batch.
        """
        self._require_built()
        self._require_vector_db("insert")
        gid = self._append_point(x)
        d = self.metric.pairwise(
            self.metric.take(self.X, [gid]), self.rep_data
        )[0]
        j = int(np.argmin(d))
        pos = int(np.searchsorted(self.list_dists[j], d[j]))
        self._packed.insert(j, pos, gid, float(d[j]))
        self.radii[j] = max(self.radii[j], float(d[j]))
        return gid

    def delete(self, gid: int) -> None:
        """Delete a point by global id.

        Non-representative points are removed from their owner's list.
        Deleting a representative redistributes its surviving list members
        to their nearest remaining representative (the same assignment
        rule as the build).  Radii are kept as-is: they remain valid
        *upper* bounds, so exactness is preserved; pruning tightness can
        be restored by rebuilding after heavy churn.
        """
        self._require_built()
        self._require_vector_db("delete")
        gid = int(gid)
        self._tombstone(gid)

        packed = self._packed
        rep_pos = np.flatnonzero(self.rep_ids == gid)
        if rep_pos.size == 0:
            for j in range(packed.n_lists):
                hit = np.flatnonzero(packed.ids_of(j) == gid)
                if hit.size:
                    packed.delete_at(j, int(hit[0]))
                    return
            raise AssertionError(f"point {gid} missing from every list")

        j = int(rep_pos[0])
        if self.rep_ids.size == 1:
            raise ValueError(
                "cannot delete the only representative; rebuild the index"
            )
        lst = packed.ids_of(j)
        orphans = lst[lst != gid].copy()
        # drop representative j
        self.rep_ids = np.delete(self.rep_ids, j)
        self.rep_data = self.metric.take(self.X, self.rep_ids)
        packed.drop(j)
        self.radii = np.delete(self.radii, j)
        if orphans.size:
            # reassign orphans to their nearest surviving representative
            D = self.metric.pairwise(
                self.metric.take(self.X, orphans), self.rep_data
            )
            owner = D.argmin(axis=1)
            dist = D[np.arange(orphans.size), owner]
            for t in np.unique(owner):
                sel = owner == t
                merged_ids = np.concatenate([packed.ids_of(t), orphans[sel]])
                merged_d = np.concatenate([packed.dists_of(t), dist[sel]])
                order = np.argsort(merged_d, kind="stable")
                packed.replace(t, merged_ids[order], merged_d[order])
                self.radii[t] = max(self.radii[t], float(merged_d.max()))

    def range_query(
        self,
        Q,
        eps: float,
        *,
        recorder: TraceRecorder = NULL_RECORDER,
        ctx: ExecContext | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact ε-range search: every point within ``eps`` of each query.

        A representative's list can contain hits only if
        ``rho(q, r) <= eps + psi_r``; inside a surviving list, hits satisfy
        ``|rho(x, r) - rho(q, r)| <= eps``, so the sorted order admits a
        two-sided window.  Survivor candidates are then verified exactly.

        Like the k-NN stage 2, the scan is batched: pruning and the
        two-sided windows are vectorized over the whole query batch, and
        each representative's candidate window is verified with one dense
        ``pairwise`` block over all queries that reached it.
        """
        self._require_built()
        if eps < 0:
            raise ValueError("eps must be non-negative")
        ctx = self._call_ctx(ctx, recorder=recorder)
        recorder = ctx.recorder
        Qb = Q if _is_batch(self.metric, Q) else self.metric._as_batch(Q)
        m = self.metric.length(Qb)
        Qop, D_R = self._stage1(Qb, ctx)
        engine = isinstance(Qop, Prepared)
        if engine:
            Cp = self._prepared_cands()
            starts = self._packed.starts
        dim = self.metric.dim(self.rep_data)

        keep = D_R <= eps + self.radii[None, :]
        parts_d: list[list[np.ndarray]] = [[] for _ in range(m)]
        parts_i: list[list[np.ndarray]] = [[] for _ in range(m)]
        with recorder.phase("exact:range"):
            for j in np.flatnonzero(keep.any(axis=0)):
                lst = self.lists[j]
                ld = self.list_dists[j]
                if lst.size == 0:
                    continue
                rows = np.flatnonzero(keep[:, j])
                lsl = np.searchsorted(ld, D_R[rows, j] - eps, side="left")
                lsr = np.searchsorted(ld, D_R[rows, j] + eps, side="right")
                nonempty = lsr > lsl
                rows, lsl, lsr = rows[nonempty], lsl[nonempty], lsr[nonempty]
                if rows.size == 0:
                    continue
                # one dense block over the union window; each row then keeps
                # its own two-sided slice
                wlo, whi = int(lsl.min()), int(lsr.max())
                window = lst[wlo:whi]
                if engine:
                    plo = int(starts[j])
                    D = self.metric.pairwise_prepared(
                        Qop.take(rows), Cp.slice(plo + wlo, plo + whi)
                    )
                else:
                    D = self.metric.pairwise(
                        self.metric.take(Qb, rows),
                        self.metric.take(self.X, window),
                    )
                _record_dist_tile(
                    recorder, self.metric, rows.size, window.size, dim,
                    "exact:range",
                )
                cols = np.arange(wlo, whi)[None, :]
                hit = (cols >= lsl[:, None]) & (cols < lsr[:, None]) & (D <= eps)
                for t, i_row in enumerate(rows):
                    sel = np.flatnonzero(hit[t])
                    if sel.size:
                        parts_d[i_row].append(D[t, sel])
                        parts_i[i_row].append(window[sel])

        out = []
        for r in range(m):
            if parts_d[r]:
                d = np.concatenate(parts_d[r])
                gi = np.concatenate(parts_i[r]).astype(np.int64)
                order = np.argsort(d, kind="stable")
                out.append((d[order], gi[order]))
            else:
                out.append((np.empty(0), np.empty(0, dtype=np.int64)))
        return out


class _Pruned(NamedTuple):
    """One stage-1 block's scan plan: round 1's (:meth:`ExactRBC._first`)
    or stage 2's (:meth:`ExactRBC._prune`)."""

    k: int
    #: (c,) column of each query's nearest representative, whose whole
    #: list round 1 scans
    r1: np.ndarray
    #: (c,) each row's starting scan threshold, in the scan's domain:
    #: gamma for round 1, round 1's k-th distance for stage 2, each widened
    #: by twice :meth:`ExactRBC._slack`
    thr: np.ndarray
    #: (c, n_reps) prefix length per query and list; 0 where no scan runs
    cuts: np.ndarray
    #: (c, kk) columns of each query's kk = min(k, n_reps) nearest
    #: representatives, the seeds
    seed_cols: np.ndarray
    #: (c, kk) seeds a stage-2 prefix holds, which the scan always keeps
    seed_force: np.ndarray
    #: round 1's pool ``(rows, dists, slots)``, each row's k best
    pool: tuple
    #: the rule counters (:meth:`SearchStats.rule_counts` fields)
    stats: SearchStats


_EMPTY_POOL = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))


def _bisect_right(values, starts, sizes, bounds):
    """``np.searchsorted(values[s:s + n], b, side="right")`` for every
    (start ``s``, size ``n``, bound ``b``) triple at once: one vectorized
    binary search over sorted segments of ``values``, lifting each count
    by halving powers of two while the entry it would admit is ``<= b``."""
    n = np.asarray(sizes, dtype=np.int64)
    base = starts - 1
    pos = np.zeros(n.size, dtype=np.int64)
    step = 1 << int(n.max(initial=0)).bit_length()
    while step > 1:
        step >>= 1
        nxt = pos + step
        ok = nxt <= n
        ok &= values[base + np.minimum(nxt, n)] <= bounds
        pos = np.where(ok, nxt, pos)
    return pos


def _top(pools, c, k=None):
    """Rank survivor pools per query row: one stable sort by (row,
    distance) over their concatenation.  Returns ``(rows, dists, slots,
    rank)``, ``rank`` being the position within the row; with ``k``, only
    each row's entries within its k-th distance: its ``k`` nearest and any
    tied with the k-th, so the final ranking (:meth:`ExactRBC._gather`),
    which breaks ties by slot, still sees every tie."""
    r, d, g = (np.concatenate(part) for part in zip(*pools))
    order = np.lexsort((d, r))
    r, d, g = r[order], d[order], g[order]
    rank = _row_ranks(r, c)
    if k is not None:
        kth = np.full(c, np.inf)
        full = rank == k - 1
        kth[r[full]] = d[full]
        sel = d <= kth[r]
        r, d, g, rank = r[sel], d[sel], g[sel], rank[sel]
    return r, d, g, rank


def _row_ranks(r, c):
    """Position of each entry within its row, for ``r`` sorted."""
    return np.arange(r.size) - np.searchsorted(r, np.arange(c + 1))[r]

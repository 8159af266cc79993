"""Sharded streaming serving: the distributed RBC behind the micro-batcher.

The paper's §8 direction — distribute the database according to the
representatives — meets the serving front-end here.  A
:class:`ShardedStreamingSearcher` partitions a built exact-RBC index
across ``n_shards`` simulated nodes (each shard owns a set of
representatives together with their complete ownership lists, via
:func:`~repro.distributed.partition.partition_by_representatives`), and
serves every micro-batch the adaptive
:class:`~repro.serving.batcher.QueryBatcher` forms with one
scatter-gather wave:

1. **coordinator stage 1**: ``BF(Q_batch, R)`` with distances retained
   and the exact search's pruning (:meth:`ExactRBC._prune
   <repro.core.exact.ExactRBC._prune>`: gamma, the psi / 3-gamma rules
   and the Claim-2 cuts), so each query's surviving list prefixes are
   known before anything leaves the coordinator;
2. **scatter**: each query is routed only to the shards owning at least
   one list that keeps a non-empty prefix for it (an empty shard is
   never contacted and never charged communication);
3. **shard scan**: each contacted shard runs :meth:`ExactRBC._scan
   <repro.core.exact.ExactRBC._scan>` over its own representatives — the
   same prepared float64 grouped scan as :meth:`ExactRBC.query
   <repro.core.exact.ExactRBC.query>` — and replies with each routed
   query's top-k survivors;
4. **gather + merge**: the replies and the seed representatives no
   scanned prefix holds are ranked once (no candidate arrives twice, so
   nothing needs deduplicating) and re-scored with the
   batching-invariant paired kernel — the same re-ranking the
   single-node searcher applies, so a sharded server's answers *and
   rule counters* equal an unsharded
   :class:`~repro.serving.searcher.StreamingSearcher` over the same index.

**Stragglers and failures.**  Shards are simulated in-process, so each
task's latency is its measured scan wall time plus an injected per-shard
delay (``shard_delays``); a batch completes at the *max* over its shard
completions.  With ``replicas > 1`` every shard is a replica group, and
``hedge=True`` re-issues a straggler's task to a replica once the task
has been outstanding past a latency-quantile cutoff (the classic
tail-at-scale hedged request); a dead primary (delay ``inf``) is then
survivable, and a merely slow one stops dictating the batch's p99.  Each
hedge wave counts as an extra scatter-gather **round** — the adaptivity
measure of the distributed-kNN literature — and every round's traffic is
charged to the per-shard :class:`~repro.distributed.cluster.CommStats`
(alpha-beta time when a :class:`~repro.distributed.cluster.ClusterSpec`
is attached).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.exact import ExactRBC
from ..distributed.cluster import ClusterSpec, CommStats
from ..distributed.partition import (
    partition_by_representatives,
    partition_reps_random,
)
from ..metrics.engine import rescore_pairs
from ..runtime.report import StreamReport
from .searcher import StreamingSearcher

__all__ = ["ShardedStreamingSearcher"]

_FLOAT_BYTES = 8.0
_ID_BYTES = 8.0

#: the hedge cutoff's latency quantile, and its multiplier
HEDGE_QUANTILE = 0.95
HEDGE_FACTOR = 2.0
#: completions on record before the quantile term applies
HEDGE_MIN_SAMPLES = 16
#: the cold-start cutoff, as a fraction of the latency budget
HEDGE_BUDGET_FRACTION = 0.25
#: completion-latency samples kept for the quantile estimate
HEDGE_HISTORY = 256


def _hedge_cutoff(samples, max_delay_s: float) -> float:
    """Outstanding seconds after which a shard task is re-issued.

    ``min(HEDGE_FACTOR * Q_0.95(completion history), HEDGE_BUDGET_FRACTION
    * max_delay_s)`` — the quantile term adapts to the measured latency
    distribution once ``HEDGE_MIN_SAMPLES`` completions are on record, and
    the budget term guarantees a hedge fires early enough to still make
    the latency budget even on a cold start (or when a dead shard has
    poisoned nothing yet).
    """
    cut = HEDGE_BUDGET_FRACTION * float(max_delay_s)
    if len(samples) >= HEDGE_MIN_SAMPLES:
        est = HEDGE_FACTOR * float(
            np.quantile(np.asarray(samples, dtype=np.float64), HEDGE_QUANTILE)
        )
        cut = min(cut, est)
    return cut


@dataclass
class _ShardTally:
    """Lifetime load accounting for one shard (and its replica group)."""

    tasks: int = 0
    queries: int = 0
    #: candidates the shard's scans examined (Claim-2 prefix lengths)
    evals: int = 0
    busy_s: float = 0.0
    hedges: int = 0

    def copy(self) -> "_ShardTally":
        return _ShardTally(**vars(self))


class ShardedStreamingSearcher(StreamingSearcher):
    """A :class:`StreamingSearcher` whose index is partitioned across
    simulated node shards.

    Parameters (beyond the base searcher's)
    ---------------------------------------
    n_shards:
        number of shards the representatives (with their ownership
        lists) are partitioned over.
    replicas:
        replica-group size per shard; ``> 1`` enables hedged requests.
    partition:
        ``"reps"`` — load-balanced
        :func:`~repro.distributed.partition.partition_by_representatives`
        (default) — or ``"random"`` representative sharding.
    hedge:
        re-issue straggling shard tasks to a replica past
        :func:`_hedge_cutoff`; ``False`` disables hedging even with
        replicas (the straggler then dictates the batch).
    cluster:
        optional :class:`~repro.distributed.cluster.ClusterSpec` with
        ``n_shards`` nodes; when given, scatter/gather waves also cost
        alpha-beta communication time in the modeled service.
    shard_delays:
        injected per-replica latency (seconds) for straggler/failure
        experiments: ``{w: s}`` delays shard ``w``'s primary, ``{(w, r):
        s}`` a specific replica, and ``float("inf")`` marks it dead.
    shard_seed:
        RNG seed of the ``"random"`` partition.

    The modeled per-batch service time is coordinator work (stage 1 +
    merge, measured) plus communication (when a cluster is attached)
    plus the max over shard completions; answers are bit-identical to
    the unsharded searcher's (see module docstring).
    """

    def __init__(
        self,
        index,
        *,
        n_shards: int,
        replicas: int = 1,
        partition: str = "reps",
        hedge: bool = False,
        cluster: ClusterSpec | None = None,
        shard_delays: dict | None = None,
        shard_seed: int = 0,
        **kwargs,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if cluster is not None and cluster.n_nodes != n_shards:
            raise ValueError(
                f"cluster has {cluster.n_nodes} nodes, need {n_shards}"
            )
        # a composite index (the router) nominates the concrete structure
        # that owns the disjoint ownership lists the shards partition
        target = getattr(index, "shard_target", None)
        if callable(target):
            index = target()
        if not (isinstance(index, ExactRBC) and index.is_built):
            # the shards partition the exact build's disjoint ownership
            # lists and run its pruning and scan steps
            raise ValueError(
                "sharded serving requires a built ExactRBC (disjoint "
                f"ownership lists), got {type(index).__name__}"
            )
        super().__init__(index, **kwargs)
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        self.cluster = cluster
        self.hedge = bool(hedge)
        self.shard_delays = dict(shard_delays or {})

        nr = index.n_reps
        if partition == "reps":
            sizes = [len(lst) for lst in index.lists]
            parts = partition_by_representatives(sizes, self.n_shards)
        elif partition == "random":
            parts = partition_reps_random(
                nr, self.n_shards, np.random.default_rng(shard_seed)
            )
        else:
            raise ValueError(f"unknown partition scheme {partition!r}")
        #: per shard, the representative indices it hosts (sorted)
        self.shard_reps = [
            np.asarray(sorted(reps), dtype=np.int64) for reps in parts
        ]

        # lifetime counters (per-stream values are snapshot diffs)
        self.rounds = 0
        self.hedges = 0
        self.comm = CommStats.zeros(self.n_shards)
        self.shard_tallies = [_ShardTally() for _ in range(self.n_shards)]
        #: completion latencies feeding the hedge cutoff quantile — fed
        #: *completions* (hedged included), not primaries, so a
        #: persistently slow shard cannot inflate the quantile until
        #: hedging disables itself
        self._completions: deque = deque(maxlen=HEDGE_HISTORY)
        self._snap = self._snapshot()

        if self.metrics is not None:
            self._m_shard_tasks = self.metrics.counter(
                "repro_shard_tasks_total",
                "scatter tasks dispatched per shard",
                labelnames=("shard",),
            )
            self._m_shard_queries = self.metrics.counter(
                "repro_shard_queries_total",
                "query rows routed per shard",
                labelnames=("shard",),
            )
            self._m_shard_hedges = self.metrics.counter(
                "repro_shard_hedges_total",
                "straggler tasks re-issued to a replica, per shard",
                labelnames=("shard",),
            )
            self._m_shard_busy = self.metrics.gauge(
                "repro_shard_busy_seconds",
                "cumulative modeled busy seconds per shard group",
                labelnames=("shard",),
            )
            self._m_rounds = self.metrics.counter(
                "repro_scatter_rounds_total",
                "scatter-gather communication rounds",
            )

    # -------------------------------------------------------------- helpers
    def _delay(self, w: int, r: int) -> float:
        """Injected latency of replica ``r`` of shard ``w``."""
        d = self.shard_delays.get((w, r))
        if d is None and r == 0:
            d = self.shard_delays.get(w)
        return float(d) if d is not None else 0.0

    def _hedge_target(self, w: int) -> int:
        """The replica a hedge re-issues to: least injected delay, ties
        to the lowest index (the primary, replica 0, is excluded)."""
        return min(
            range(1, self.replicas), key=lambda r: (self._delay(w, r), r)
        )

    # ------------------------------------------------------------- dispatch
    def _timed_dispatch(
        self, Qb: np.ndarray, width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One micro-batch as a scatter-gather wave over the shards.

        Returns the bit-identical answers plus the *modeled* service
        time: measured coordinator work + communication (when a cluster
        is attached) + the max over shard-task completions, hedging
        included.  The scans run inline (the shards are simulated), so
        the measured walls feed the model instead of the clock.
        ``width`` overrides the dispatch top-k (default ``self.k``).
        """
        t_start = time.perf_counter()
        index = self.index
        k = self.k if width is None else int(width)
        tracer = self.ctx.tracer

        # ---- coordinator stage 1 and the exact search's pruning
        Qop, D_R = index._stage1(Qb)
        pruned = index._prune(D_R, k)
        counts = self.rule_counts
        for key, val in pruned.stats.rule_counts().items():
            counts[key] = counts.get(key, 0) + val

        # ---- scatter: route each query to the shards whose lists keep a
        # Claim-2 prefix for it
        shard_rows = [
            np.flatnonzero((pruned.cuts[:, reps] > 0).any(axis=1))
            for reps in self.shard_reps
        ]

        # ---- shard scans (simulated in-process, walls measured per task):
        # each shard replies with its top-k survivors
        partials = []
        walls: dict[int, float] = {}
        for w, rows in enumerate(shard_rows):
            if rows.size == 0:
                continue
            reps = self.shard_reps[w]
            with tracer.span("serve:shard", shard=w, queries=int(rows.size)):
                t0 = time.perf_counter()
                partials.append(index._scan(Qop, pruned, reps, top=k))
                walls[w] = time.perf_counter() - t0
            tally = self.shard_tallies[w]
            tally.tasks += 1
            tally.queries += int(rows.size)
            tally.evals += int(pruned.cuts[:, reps].sum())

        # ---- straggler handling: completion per task, hedged if due
        cutoff = np.inf
        if self.hedge and self.replicas > 1:
            cutoff = _hedge_cutoff(self._completions, self.policy.max_delay_s)
        completions: dict[int, float] = {}
        hedged: list[int] = []
        for w, wall in walls.items():
            primary = wall + self._delay(w, 0)
            completion = primary
            busy = wall
            if primary > cutoff:
                r = self._hedge_target(w)
                # the replica starts at the cutoff and repeats the scan
                completion = min(primary, cutoff + wall + self._delay(w, r))
                hedged.append(w)
                busy += wall
                self.shard_tallies[w].hedges += 1
            if not np.isfinite(completion):
                raise RuntimeError(
                    f"shard {w} never answered (injected delay is inf and "
                    "no live replica was hedged); serve with replicas > 1 "
                    "and hedge=True to survive dead shards"
                )
            completions[w] = completion
            self.shard_tallies[w].busy_s += busy
            self._completions.append(completion)
        self.hedges += len(hedged)
        rounds = (1 if walls else 0) + (1 if hedged else 0)
        self.rounds += rounds

        # ---- communication accounting (hedge waves re-pay their traffic)
        dim = int(Qb.shape[1])
        scatter = [0.0] * self.n_shards
        gather = [0.0] * self.n_shards
        for w, rows in enumerate(shard_rows):
            if rows.size == 0:
                continue
            mult = 2.0 if w in hedged else 1.0
            scatter[w] = mult * rows.size * dim * _FLOAT_BYTES
            gather[w] = mult * rows.size * k * (_FLOAT_BYTES + _ID_BYTES)
        msgs = 2 * len(walls) + 2 * len(hedged)
        self.comm.add(CommStats(scatter, gather, msgs))
        comm_s = 0.0
        if self.cluster is not None and walls:
            comm_s = self.cluster.comm_phase_time(
                scatter
            ) + self.cluster.comm_phase_time(gather)

        # ---- gather + merge: the shards' replies and the seeds no shard
        # scanned, ranked once
        dist, idx = index._gather(Qop, D_R, pruned, partials, k)

        # the same batching-invariant re-ranking as the base searcher —
        # this is what makes sharded and single-node answers `==`
        if self.rescore:
            d = rescore_pairs(index.metric, Qb, index.X, idx)
            order = np.argsort(d, axis=1, kind="stable")
            dist = np.take_along_axis(d, order, axis=1)
            idx = np.take_along_axis(idx, order, axis=1)
            idx = np.where(np.isfinite(dist), idx, -1)

        coord_wall = (time.perf_counter() - t_start) - sum(walls.values())
        service = coord_wall + comm_s + (
            max(completions.values()) if completions else 0.0
        )
        # EXPLAIN hook: scatter-gather shape of this dispatch
        self._last_wave = {
            "fan_out": len(walls),
            "shards": sorted(walls),
            "hedges": len(hedged),
            "rounds": rounds,
        }

        if self.metrics is not None:
            for w in walls:
                self._m_shard_tasks.inc(shard=w)
                self._m_shard_queries.inc(
                    float(shard_rows[w].size), shard=w
                )
                self._m_shard_busy.set(
                    self.shard_tallies[w].busy_s, shard=w
                )
            for w in hedged:
                self._m_shard_hedges.inc(shard=w)
            if rounds:
                self._m_rounds.inc(rounds)
        return dist, idx, service

    # ------------------------------------------------------- report plumbing
    def _snapshot(self):
        return (
            self.rounds,
            self.hedges,
            [t.copy() for t in self.shard_tallies],
            CommStats(
                list(self.comm.bytes_to_nodes),
                list(self.comm.bytes_from_nodes),
                self.comm.messages,
            ),
        )

    def _stream_begin(self) -> None:
        super()._stream_begin()
        self._snap = self._snapshot()

    def _augment_report(self, stream: StreamReport) -> None:
        super()._augment_report(stream)
        r0, h0, t0, c0 = self._snap
        stream.n_shards = self.n_shards
        stream.rounds = self.rounds - r0
        stream.hedges = self.hedges - h0
        stream.per_shard = [
            {
                "shard": w,
                "n_reps": int(self.shard_reps[w].size),
                "tasks": t.tasks - t0[w].tasks,
                "queries": t.queries - t0[w].queries,
                "evals": t.evals - t0[w].evals,
                "busy_s": t.busy_s - t0[w].busy_s,
                "hedges": t.hedges - t0[w].hedges,
                "bytes_to": self.comm.bytes_to_nodes[w] - c0.bytes_to_nodes[w],
                "bytes_from": self.comm.bytes_from_nodes[w]
                - c0.bytes_from_nodes[w],
            }
            for w, t in enumerate(self.shard_tallies)
        ]

"""Distributed nearest-neighbor engines (paper §8's future-work study).

Two engines over the same :class:`~repro.distributed.cluster.ClusterSpec`:

* :class:`DistributedRBC` — the paper's proposal: the database is
  distributed *by representative*; each node stores some representatives
  with their complete ownership lists.  A query is pruned at the
  coordinator by the exact search's own pruning step (one small
  ``BF(Q, R)`` — the representative table is tiny, O(√n), and lives on the
  coordinator), after one round on the node that owns its nearest
  representative, then travels only to the nodes whose lists keep a
  Claim-2 prefix for it.  Both list scans are the exact search's own
  grouped scan, run node-locally over each node's lists, and the result
  merge is k values per contacted node.  Answers are
  :meth:`ExactRBC.query <repro.core.exact.ExactRBC.query>`'s.

* :class:`DistributedBruteForce` — the baseline: random row sharding;
  every query is broadcast to every node, every node scans its full shard,
  and the coordinator merges.

Both engines really execute their searches (results are verified exact in
the tests); nodes are simulated in-process, with per-node work recorded as
operation traces and communication counted message-by-message.  The
returned :class:`DistRunReport` breaks the modeled time into coordinator
compute, scatter, node compute (max over nodes), gather, and merge — the
"I/O and communication costs" the paper flags for study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.exact import ExactRBC
from ..metrics import get_metric
from ..obs.tracing import NULL_TRACER, SpanContext, Tracer
from ..parallel.bruteforce import _record_dist_tile
from ..parallel.reduce import EMPTY_IDX, merge_topk, topk_of_block
from ..runtime.context import ExecContext, resolve_ctx
from ..simulator.machine import simulate
from ..simulator.trace import TraceRecorder
from .cluster import ClusterSpec, CommStats
from .partition import partition_by_representatives, partition_random

__all__ = ["DistRunReport", "DistributedRBC", "DistributedBruteForce"]

_ID_BYTES = 8.0
_FLOAT_BYTES = 8.0


@dataclass
class DistRunReport:
    """Cost breakdown of one distributed query batch."""

    n_queries: int
    #: distance evaluations performed by each node
    node_evals: list[int]
    comm: CommStats
    coordinator_s: float
    scatter_s: float
    compute_s: float  # max over nodes
    gather_s: float
    merge_s: float
    #: per-node modeled compute seconds (diagnostics / balance)
    node_compute_s: list[float] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return (
            self.coordinator_s
            + self.scatter_s
            + self.compute_s
            + self.gather_s
            + self.merge_s
        )

    @property
    def comm_fraction(self) -> float:
        t = self.total_s
        return (self.scatter_s + self.gather_s) / t if t > 0 else 0.0

    @property
    def balance(self) -> float:
        """Mean/max node compute time (1.0 = perfectly balanced)."""
        if not self.node_compute_s or max(self.node_compute_s) == 0:
            return 1.0
        return float(np.mean(self.node_compute_s) / max(self.node_compute_s))


def _node_tracer(span_ctx: SpanContext | None) -> Tracer:
    """Node-side tracer parented under the coordinator's query span.

    The span context is the telemetry part of the coordinator→node
    message: it rides along with the routed tasks, the node records its
    scan under it, and the finished spans travel back with the results to
    be adopted into the coordinator's timeline.
    """
    return Tracer(root=span_ctx) if span_ctx is not None else NULL_TRACER


def _node_compute_time(node_spec, metric, dim, eval_counts: list[int]) -> float:
    """Modeled time for one node to run its per-query candidate scans."""
    rec = TraceRecorder()
    with rec.phase("node"):
        for c in eval_counts:
            if c > 0:
                _record_dist_tile(rec, metric, 1, c, dim, "node:scan")
    return simulate(rec.trace, node_spec).time_s


class DistributedRBC:
    """Exact distributed k-NN with representative-based sharding."""

    def __init__(
        self,
        cluster: ClusterSpec,
        metric="euclidean",
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.cluster = cluster
        self.metric = get_metric(metric)
        self.seed = seed
        self.index: ExactRBC | None = None
        #: representative indices hosted by each node
        self.node_reps: list[list[int]] = []
        self.last_report: DistRunReport | None = None

    def build(
        self,
        X,
        n_reps: int | None = None,
        *,
        c: float = 1.0,
        ctx: ExecContext | None = None,
    ):
        """Build the cover centrally, then shard lists by representative.

        Build communication is one-time: each node receives its
        representatives' points (counted in ``build_comm``).  ``ctx``
        carries the coordinator-side execution state (executor, recorder)
        into the central :class:`ExactRBC` build.
        """
        self.index = ExactRBC(metric=self.metric, seed=self.seed)
        self.index.build(X, n_reps=n_reps, c=c, ctx=ctx)
        sizes = [lst.size for lst in self.index.lists]
        self.node_reps = partition_by_representatives(
            sizes, self.cluster.n_nodes
        )
        dim = self.metric.dim(X)
        self.build_comm = CommStats(
            bytes_to_nodes=[
                float(
                    sum(sizes[j] for j in reps) * dim * _FLOAT_BYTES
                )
                for reps in self.node_reps
            ],
            bytes_from_nodes=[0.0] * self.cluster.n_nodes,
            messages=self.cluster.n_nodes,
        )
        return self

    def points_per_node(self) -> list[int]:
        """How many database points each node stores."""
        if self.index is None:
            raise RuntimeError("call build(X) first")
        return [
            int(sum(self.index.lists[j].size for j in reps))
            for reps in self.node_reps
        ]

    def query(
        self, Q, k: int = 1, *, ctx: ExecContext | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN over the cluster; cost breakdown in ``last_report``.

        The coordinator runs stage 1; a first wave sends each query to
        the node that owns its nearest representative, which scans that
        list (round 1); the coordinator reduces gamma' and runs
        :meth:`ExactRBC._prune <repro.core.exact.ExactRBC._prune>`; a
        second wave sends each query to the nodes whose lists keep a
        Claim-2 prefix.  Each node runs :meth:`ExactRBC._scan
        <repro.core.exact.ExactRBC._scan>` over its own representatives
        and replies with its top-k; the coordinator ranks round 1's pool
        with the stage-2 replies.  Answers are :meth:`ExactRBC.query
        <repro.core.exact.ExactRBC.query>`'s.

        ``ctx.recorder`` (when set) additionally receives the coordinator
        and node-scan operation phases, so a distributed run shows up in a
        harness :class:`~repro.runtime.report.RunReport` like any other.
        """
        if self.index is None:
            raise RuntimeError("call build(X) first")
        rctx = resolve_ctx(ctx)
        run_rec = rctx.recorder
        tracer = rctx.tracer
        index = self.index
        metric = self.metric
        cluster = self.cluster
        Qb = Q if isinstance(Q, np.ndarray) and Q.ndim == 2 else metric._as_batch(Q)
        m = metric.length(Qb)
        dim = metric.dim(Qb)
        nr = index.n_reps

        query_span = tracer.start_span("dist:query", engine="rbc", m=m, k=k)
        # ---- coordinator: BF(Q, R)
        coord_rec = TraceRecorder()
        with tracer.span_under(query_span.context, "dist:coord", n_reps=nr), \
                run_rec.phase("coord:stage1"), coord_rec.phase("coord:stage1"):
            Qop, D_R = index._stage1(Qb)
            _record_dist_tile(coord_rec, metric, m, nr, dim, "coord:stage1")
            if run_rec.enabled:
                _record_dist_tile(run_rec, metric, m, nr, dim, "coord:stage1")
        coordinator_s = simulate(coord_rec.trace, cluster.coordinator_spec).time_s

        # ---- two waves: round 1 on the node that owns each query's
        # nearest representative, then the coordinator reduces gamma' and
        # prunes, and stage 2 goes to the nodes whose lists keep a Claim-2
        # prefix.  The query span's context is part of each
        # coordinator->node message; nodes record their scans under it and
        # ship the finished spans back.
        span_ctx = query_span.context if tracer.enabled else None
        first = index._first(Qop, D_R, k)
        replies, wave1 = self._wave(Qop, first, k, span_ctx, rctx)
        pruned = index._prune(Qop, D_R, first, replies)
        replies, wave2 = self._wave(Qop, pruned, k, span_ctx, rctx)
        messages = wave1.messages + wave2.messages

        # ---- gather + merge at the coordinator
        with tracer.span_under(
            query_span.context, "dist:merge", n_messages=messages
        ):
            out_d, out_i = index._gather(Qop, pruned, replies, k)

        merge_s = _merge_time(cluster, m, k, messages)
        tracer.finish(query_span)
        waves = (wave1, wave2)
        self.last_report = DistRunReport(
            n_queries=m,
            node_evals=[a + b for a, b in zip(wave1.evals, wave2.evals)],
            comm=CommStats(
                [a + b for a, b in zip(wave1.bytes_to, wave2.bytes_to)],
                [a + b for a, b in zip(wave1.bytes_from, wave2.bytes_from)],
                messages,
            ),
            coordinator_s=coordinator_s,
            scatter_s=sum(cluster.comm_phase_time(w.bytes_to) for w in waves),
            compute_s=sum(max(w.times, default=0.0) for w in waves),
            gather_s=sum(cluster.comm_phase_time(w.bytes_from) for w in waves),
            merge_s=merge_s,
            node_compute_s=[a + b for a, b in zip(wave1.times, wave2.times)],
        )
        return out_d, out_i

    def _wave(self, Qop, plan, k, span_ctx, rctx):
        """One scatter wave of ``plan``'s scans: each node runs
        :meth:`ExactRBC._scan <repro.core.exact.ExactRBC._scan>` over its
        own representatives for the queries its lists keep a prefix for,
        and replies with their top-k.  Returns the replies and the wave's
        per-node evaluations, modeled compute seconds and traffic."""
        index, metric, cluster = self.index, self.metric, self.cluster
        dim = metric.dim(index.rep_data)
        wave = _NodeWave()
        replies = []
        with rctx.recorder.phase("node:scan"):
            for w, reps in enumerate(self.node_reps):
                reps = np.asarray(reps, dtype=np.int64)
                cuts = plan.cuts[:, reps]
                n_parts = np.count_nonzero(cuts, axis=1)
                rows = np.flatnonzero(n_parts)
                evals = cuts[rows].sum(axis=1).tolist()
                # message: query vector + threshold + per-rep (id, cut
                # bound); reply: the node's top-k
                sent = (dim + 1) * _FLOAT_BYTES + n_parts[rows] * (
                    _ID_BYTES + _FLOAT_BYTES
                )
                wave.bytes_to.append(float(sent.sum()))
                wave.bytes_from.append(
                    rows.size * k * (_FLOAT_BYTES + _ID_BYTES)
                )
                wave.messages += int(rows.size)
                wave.evals.append(int(sum(evals)))
                ntracer = _node_tracer(span_ctx)
                with ntracer.span(
                    "dist:node", node=w, n_queries=int(rows.size)
                ) as nspan:
                    replies.append(
                        index._scan(
                            Qop, plan, reps, top=k, recorder=rctx.recorder
                        )
                    )
                    nspan.set(evals=wave.evals[w])
                rctx.tracer.adopt(ntracer.export())
                wave.times.append(
                    _node_compute_time(cluster.nodes[w], metric, dim, evals)
                )
        return replies, wave


@dataclass
class _NodeWave:
    """One scatter wave's per-node accounting (:meth:`DistributedRBC._wave`)."""

    evals: list[int] = field(default_factory=list)
    #: modeled compute seconds
    times: list[float] = field(default_factory=list)
    bytes_to: list[float] = field(default_factory=list)
    bytes_from: list[float] = field(default_factory=list)
    messages: int = 0


class DistributedBruteForce:
    """Exact distributed k-NN with random row sharding (the baseline)."""

    def __init__(
        self,
        cluster: ClusterSpec,
        metric="euclidean",
        *,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.cluster = cluster
        self.metric = get_metric(metric)
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.X = None
        self.shards: list[np.ndarray] = []
        self.last_report: DistRunReport | None = None

    def build(self, X, *, ctx: ExecContext | None = None):
        self.X = X
        n = self.metric.length(X)
        if n == 0:
            raise ValueError("database is empty")
        self.shards = partition_random(n, self.cluster.n_nodes, self.rng)
        dim = self.metric.dim(X)
        self.build_comm = CommStats(
            bytes_to_nodes=[
                float(s.size * dim * _FLOAT_BYTES) for s in self.shards
            ],
            bytes_from_nodes=[0.0] * self.cluster.n_nodes,
            messages=self.cluster.n_nodes,
        )
        return self

    def points_per_node(self) -> list[int]:
        if self.X is None:
            raise RuntimeError("call build(X) first")
        return [int(s.size) for s in self.shards]

    def query(
        self, Q, k: int = 1, *, ctx: ExecContext | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.X is None:
            raise RuntimeError("call build(X) first")
        rctx = resolve_ctx(ctx)
        run_rec = rctx.recorder
        tracer = rctx.tracer
        metric = self.metric
        cluster = self.cluster
        Qb = Q if isinstance(Q, np.ndarray) and Q.ndim == 2 else metric._as_batch(Q)
        m = metric.length(Qb)
        dim = metric.dim(Qb)

        query_span = tracer.start_span("dist:query", engine="bf", m=m, k=k)
        span_ctx = query_span.context if tracer.enabled else None
        # broadcast all queries to all *storing* nodes: a shard that holds
        # no points is never contacted and must not be charged traffic
        bytes_to = [
            float(m * dim * _FLOAT_BYTES) if shard.size else 0.0
            for shard in self.shards
        ]
        node_evals = []
        node_times = []
        partials = []
        with run_rec.phase("node:scan"):
            for w, shard in enumerate(self.shards):
                if shard.size == 0:
                    node_evals.append(0)
                    node_times.append(0.0)
                    partials.append(None)
                    continue
                ntracer = _node_tracer(span_ctx)
                with ntracer.span("dist:node", node=w, shard=int(shard.size)):
                    D = metric.pairwise(Qb, metric.take(self.X, shard))
                    d, li = topk_of_block(D, k)
                    gi = np.where(
                        li >= 0, shard[np.clip(li, 0, None)], EMPTY_IDX
                    )
                tracer.adopt(ntracer.export())
                partials.append((d, gi))
                node_evals.append(int(D.size))
                if run_rec.enabled:
                    _record_dist_tile(
                        run_rec, metric, m, shard.size, dim, "node:scan"
                    )
                rec = TraceRecorder()
                with rec.phase("node"):
                    _record_dist_tile(rec, metric, m, shard.size, dim, "node:scan")
                node_times.append(simulate(rec.trace, cluster.nodes[w]).time_s)

        # gather traffic mirrors the scatter: only nodes that actually ran
        # a scan (``partials`` entry not ``None``) send results back, so
        # inactive shards contribute zero bytes and zero messages
        bytes_from = [
            float(m * k * (_FLOAT_BYTES + _ID_BYTES)) if part is not None else 0.0
            for part in partials
        ]
        n_active = sum(1 for part in partials if part is not None)
        with tracer.span_under(
            query_span.context, "dist:merge", n_messages=n_active
        ):
            out_d = np.full((m, k), np.inf)
            out_i = np.full((m, k), EMPTY_IDX, dtype=np.int64)
            for part in partials:
                if part is not None:
                    out_d, out_i = merge_topk((out_d, out_i), part)
        tracer.finish(query_span)

        self.last_report = DistRunReport(
            n_queries=m,
            node_evals=node_evals,
            comm=CommStats(bytes_to, bytes_from, 2 * n_active),
            coordinator_s=0.0,
            scatter_s=cluster.comm_phase_time(bytes_to),
            compute_s=max(node_times) if node_times else 0.0,
            gather_s=cluster.comm_phase_time(bytes_from),
            merge_s=_merge_time(cluster, m, k, n_active),
            node_compute_s=node_times,
        )
        return out_d, out_i


def _merge_time(cluster: ClusterSpec, m: int, k: int, n_messages: int) -> float:
    """Coordinator-side merge cost: a tree of k-way row merges."""
    from ..simulator.trace import Op, Phase, Trace

    if n_messages == 0:
        return 0.0
    flops = 4.0 * m * k * max(1, int(np.ceil(np.log2(n_messages + 1))))
    trace = Trace([Phase("merge", [Op("reduce", flops, 8.0 * m * k)])])
    return simulate(trace, cluster.coordinator_spec).time_s


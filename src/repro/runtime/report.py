"""Per-run observability: the :class:`RunReport` a context-driven run emits.

One uniform structure per build/query run, assembled from the pieces the
:class:`~repro.runtime.context.ExecContext` already carries:

* per-phase **wall time** (from :class:`~repro.runtime.context.TimingRecorder`),
* per-phase and total **trace flops / bytes / op counts** (from the
  recorded :class:`~repro.simulator.trace.Trace`),
* the **distance-eval window** (exactly this run's work, snapshot-based),
* the **operand-cache window** (preparations vs hits vs invalidations),
* the index's **SearchStats rule counts** (pruning observables),
* optional **machine-model replays** of the trace.

The report is also the return type of
:func:`repro.eval.harness.traced_query` / ``traced_build``: it carries the
harness fields (``dist``, ``idx``, ``wall_s``, ``evals``, ``sims``,
``sim_time``) and supports machine-name indexing
(``report["amd-48core"]``) as the old ``traced_build`` dict did.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from ..metrics.engine import CacheCounter
from ..simulator.machine import MachineSpec, SimResult, simulate
from .context import ExecContext, Observation

__all__ = [
    "PhaseReport",
    "RunReport",
    "LatencyStats",
    "StreamReport",
    "collect_report",
]


@dataclass
class PhaseReport:
    """Aggregated observables for one named phase of a run."""

    name: str
    wall_s: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0
    n_ops: int = 0


_report_seq = itertools.count()


def _new_report_id() -> str:
    """Process-unique report identity; consumers that ingest reports
    (the router's cost model) use it to deduplicate re-observations."""
    return f"r{os.getpid():x}-{next(_report_seq):x}"


@dataclass
class RunReport:
    """Everything observed about one run (build or query batch)."""

    name: str
    #: results (``None`` for builds)
    dist: np.ndarray | None = None
    idx: np.ndarray | None = None
    #: end-to-end wall time of the run
    wall_s: float = 0.0
    #: distance evaluations spent by this run (exact counter window)
    evals: int = 0
    #: pairwise-kernel invocations in the same window
    n_calls: int = 0
    #: machine-name -> simulated replay of the recorded trace
    sims: dict[str, SimResult] = field(default_factory=dict)
    #: phase-name -> aggregated wall time / flops / bytes / op count
    phases: dict[str, PhaseReport] = field(default_factory=dict)
    #: trace totals (zero when tracing was off)
    flops: float = 0.0
    bytes: float = 0.0
    n_ops: int = 0
    #: operand-cache activity during the run (prepared vs hits)
    cache: CacheCounter = field(default_factory=CacheCounter)
    #: ``SearchStats.rule_counts()`` of the queried index, when available
    rule_counts: dict[str, int] = field(default_factory=dict)
    #: quantized-tier report (strategy, quantizer, backend, over-fetch
    #: re-rank bound, recall before re-rank); ``None`` when the run did
    #: not touch compressed codes
    quant: dict | None = None
    #: process-unique identity; observation sinks deduplicate on it, so
    #: feeding the same report twice cannot double-count
    report_id: str = field(default_factory=_new_report_id)

    # ------------------------------------------------------------ accessors
    def sim_time(self, machine: MachineSpec) -> float:
        return self.sims[machine.name].time_s

    @property
    def phase_wall(self) -> dict[str, float]:
        """Phase-name -> wall seconds (convenience view over ``phases``)."""
        return {name: p.wall_s for name, p in self.phases.items()}

    def __getitem__(self, machine_name: str) -> SimResult:
        """Machine-name indexing, for compatibility with the dict that
        ``traced_build`` used to return."""
        return self.sims[machine_name]

    def __contains__(self, machine_name: str) -> bool:
        return machine_name in self.sims

    def keys(self):
        return self.sims.keys()

    # ---------------------------------------------------------- presentation
    def summary(self) -> str:
        """Human-readable per-phase breakdown (CLI / notebook friendly)."""
        header = (
            f"{self.name}: {self.wall_s * 1e3:.2f} ms wall, "
            f"{self.evals} distance evals in {self.n_calls} kernel calls"
        )
        return "\n".join([header] + self._detail_lines())

    def _detail_lines(self) -> list[str]:
        """The indented body of :meth:`summary` — everything below the
        headline, so subclasses can swap in their own header without
        splicing rendered text."""
        lines = []
        if self.cache.n_prepared or self.cache.n_hits:
            lines.append(
                f"  operand cache: {self.cache.n_hits} hits, "
                f"{self.cache.n_prepared} prepared, "
                f"{self.cache.n_invalidated} invalidated"
            )
        for name in sorted(self.phases):
            p = self.phases[name]
            bits = []
            if p.wall_s:
                bits.append(f"{p.wall_s * 1e3:.2f} ms")
            if p.n_ops:
                bits.append(
                    f"{p.n_ops} ops, {p.flops:.3g} flops, {p.bytes:.3g} B"
                )
            lines.append(f"  {name}: " + ", ".join(bits))
        for key, val in self.rule_counts.items():
            lines.append(f"  {key}: {val}")
        if self.quant:
            bits = [
                f"{self.quant.get('quantizer', '?')}"
                f"/{self.quant.get('strategy', '?')}"
                f" ({self.quant.get('backend', '?')})"
            ]
            if "k_prime" in self.quant:
                bits.append(f"k'={self.quant['k_prime']}")
            if "recall_before_rerank" in self.quant:
                bits.append(
                    f"recall@rerank {self.quant['recall_before_rerank']:.4f}"
                )
            lines.append("  quant: " + ", ".join(bits))
        for mname, sim in self.sims.items():
            lines.append(f"  sim[{mname}]: {sim.time_s * 1e3:.3f} ms")
        return lines

    def to_dict(self) -> dict:
        """JSON-serializable form (results omitted)."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "evals": self.evals,
            "n_calls": self.n_calls,
            "flops": self.flops,
            "bytes": self.bytes,
            "n_ops": self.n_ops,
            "phases": {
                name: {
                    "wall_s": p.wall_s,
                    "flops": p.flops,
                    "bytes": p.bytes,
                    "n_ops": p.n_ops,
                }
                for name, p in self.phases.items()
            },
            "cache": {
                "n_prepared": self.cache.n_prepared,
                "n_hits": self.cache.n_hits,
                "n_invalidated": self.cache.n_invalidated,
            },
            "rule_counts": dict(self.rule_counts),
            "quant": dict(self.quant) if self.quant else None,
            "sims": {name: sim.time_s for name, sim in self.sims.items()},
            "report_id": self.report_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (results stay
        ``None`` — they are not serialized).  ``sims`` entries come back
        as lightweight stand-ins carrying only ``time_s``, which is all
        :meth:`sim_time` / ``report[machine]`` ever read."""
        return cls(
            name=d.get("name", ""),
            wall_s=float(d.get("wall_s", 0.0)),
            evals=int(d.get("evals", 0)),
            n_calls=int(d.get("n_calls", 0)),
            flops=float(d.get("flops", 0.0)),
            bytes=float(d.get("bytes", 0.0)),
            n_ops=int(d.get("n_ops", 0)),
            phases={
                name: PhaseReport(
                    name,
                    wall_s=float(p.get("wall_s", 0.0)),
                    flops=float(p.get("flops", 0.0)),
                    bytes=float(p.get("bytes", 0.0)),
                    n_ops=int(p.get("n_ops", 0)),
                )
                for name, p in d.get("phases", {}).items()
            },
            cache=CacheCounter(**d.get("cache", {})),
            rule_counts=dict(d.get("rule_counts", {})),
            quant=d.get("quant"),
            sims={
                name: _SimTime(float(t)) for name, t in d.get("sims", {}).items()
            },
            report_id=d.get("report_id") or _new_report_id(),
            **cls._extra_from_dict(d),
        )

    @classmethod
    def _extra_from_dict(cls, d: dict) -> dict:
        """Subclass hook: extra constructor kwargs pulled from ``d``."""
        return {}


@dataclass(frozen=True)
class _SimTime:
    """Deserialized stand-in for a :class:`SimResult`: ``to_dict`` keeps
    only the modeled seconds, so that is what a round-tripped report's
    ``sims`` can offer."""

    time_s: float


@dataclass
class LatencyStats:
    """Distribution summary of a latency sample (seconds)."""

    n: int = 0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_samples(cls, samples) -> "LatencyStats":
        s = np.asarray(samples, dtype=np.float64)
        if s.size == 0:
            return cls()
        if not np.all(np.isfinite(s)):
            raise ValueError("latency samples must be finite")
        return cls(
            n=int(s.size),
            mean_s=float(s.mean()),
            p50_s=float(np.percentile(s, 50)),
            p95_s=float(np.percentile(s, 95)),
            p99_s=float(np.percentile(s, 99)),
            max_s=float(s.max()),
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LatencyStats":
        return cls(
            n=int(d.get("n", 0)),
            mean_s=float(d.get("mean_s", 0.0)),
            p50_s=float(d.get("p50_s", 0.0)),
            p95_s=float(d.get("p95_s", 0.0)),
            p99_s=float(d.get("p99_s", 0.0)),
            max_s=float(d.get("max_s", 0.0)),
        )


@dataclass
class StreamReport(RunReport):
    """A :class:`RunReport` extended with streaming-serving observables.

    ``latency`` is the per-query *sojourn* time — arrival to answer,
    including the time a query waits in the micro-batcher — and ``wait``
    is the queueing component alone.  ``throughput_qps`` is completed
    queries over the stream's makespan.
    """

    n_queries: int = 0
    throughput_qps: float = 0.0
    n_batches: int = 0
    mean_batch: float = 0.0
    max_batch: int = 0
    deadline_flushes: int = 0
    #: SLO-breach backoffs the micro-batch ladder took during the stream
    n_backoffs: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    wait: LatencyStats = field(default_factory=LatencyStats)
    #: :meth:`repro.obs.slo.SLOMonitor.report` of the stream, when a
    #: monitor was attached (``None`` otherwise)
    slo: dict | None = None
    #: :meth:`repro.obs.quality.QualitySampler.report` of the stream —
    #: the answer-quality sibling of ``slo`` (windowed recall estimate,
    #: sample count, breach count, drift); ``None`` when no sampler ran
    quality: dict | None = None
    #: shards the serving index was partitioned over (0 = unsharded)
    n_shards: int = 0
    #: scatter-gather communication waves over the stream (one per
    #: micro-batch, plus one whenever a hedge wave was issued)
    rounds: int = 0
    #: straggler tasks re-issued to a replica during the stream
    hedges: int = 0
    #: per-shard load breakdown (``None`` when unsharded): one dict per
    #: shard with tasks / queries / evals / busy_s / hedges and traffic
    per_shard: list[dict] | None = None
    #: semantic-cache activity during the stream (all zero when the
    #: searcher ran without a :class:`~repro.serving.cache.ProximityCache`)
    cache_hits: int = 0
    cache_misses: int = 0
    #: certified rejects: lookups whose nearest key existed but whose
    #: tolerance certificate failed (a subset of ``cache_misses``)
    cache_rejects: int = 0
    cache_hit_rate: float = 0.0

    def summary(self) -> str:
        lines = [
            f"{self.name}: {self.n_queries} queries, "
            f"{self.throughput_qps:.1f} q/s over {self.wall_s * 1e3:.2f} ms",
            f"  latency: p50 {self.latency.p50_s * 1e3:.3f} ms, "
            f"p95 {self.latency.p95_s * 1e3:.3f} ms, "
            f"p99 {self.latency.p99_s * 1e3:.3f} ms, "
            f"max {self.latency.max_s * 1e3:.3f} ms",
            f"  batches: {self.n_batches} "
            f"(mean {self.mean_batch:.1f}, max {self.max_batch}, "
            f"{self.deadline_flushes} deadline flushes, "
            f"{self.n_backoffs} backoffs)",
        ]
        if self.n_shards:
            lines.append(
                f"  shards: {self.n_shards} "
                f"({self.rounds} rounds, {self.hedges} hedges)"
            )
            for w, row in enumerate(self.per_shard or []):
                lines.append(
                    f"    shard {w}: {row.get('tasks', 0)} tasks, "
                    f"{row.get('queries', 0)} queries, "
                    f"{row.get('evals', 0)} evals, "
                    f"{row.get('busy_s', 0.0) * 1e3:.2f} ms busy, "
                    f"{row.get('hedges', 0)} hedges"
                )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  semantic cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses "
                f"({self.cache_rejects} certified rejects), "
                f"hit rate {self.cache_hit_rate:.1%}"
            )
        if self.slo:
            lines.append(
                f"  slo: target p{self.slo.get('target', 0) * 100:g} "
                f"<= {self.slo.get('budget_s', 0) * 1e3:.1f} ms, "
                f"burn {self.slo.get('burn_rate', 0.0):.2f}, "
                f"{self.slo.get('n_breaches', 0)} breaches"
            )
        if self.quality:
            q = self.quality
            lines.append(
                f"  quality: recall est {q.get('recall_estimate', 0.0):.4f} "
                f"(target {q.get('target', 0.0):g}) over "
                f"{q.get('n_samples', 0)} samples, "
                f"{q.get('n_breaches', 0)} breaches"
            )
            drift = q.get("drift")
            if drift and drift.get("drifted"):
                lines.append(
                    "  drift: "
                    + "; ".join(drift.get("reasons") or ["thresholds crossed"])
                )
        return "\n".join(lines + self._detail_lines())

    def to_dict(self) -> dict:
        d = RunReport.to_dict(self)
        d.update(
            n_queries=self.n_queries,
            throughput_qps=self.throughput_qps,
            n_batches=self.n_batches,
            mean_batch=self.mean_batch,
            max_batch=self.max_batch,
            deadline_flushes=self.deadline_flushes,
            n_backoffs=self.n_backoffs,
            latency=self.latency.to_dict(),
            wait=self.wait.to_dict(),
            slo=self.slo,
            quality=self.quality,
            n_shards=self.n_shards,
            rounds=self.rounds,
            hedges=self.hedges,
            per_shard=self.per_shard,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_rejects=self.cache_rejects,
            cache_hit_rate=self.cache_hit_rate,
        )
        return d

    @classmethod
    def _extra_from_dict(cls, d: dict) -> dict:
        return {
            "n_queries": int(d.get("n_queries", 0)),
            "throughput_qps": float(d.get("throughput_qps", 0.0)),
            "n_batches": int(d.get("n_batches", 0)),
            "mean_batch": float(d.get("mean_batch", 0.0)),
            "max_batch": int(d.get("max_batch", 0)),
            "deadline_flushes": int(d.get("deadline_flushes", 0)),
            "n_backoffs": int(d.get("n_backoffs", 0)),
            "latency": LatencyStats.from_dict(d.get("latency", {})),
            "wait": LatencyStats.from_dict(d.get("wait", {})),
            "slo": d.get("slo"),
            # quality arrived after slo; old payloads load as None and
            # the summary simply omits the line (graceful zeros)
            "quality": d.get("quality"),
            "n_shards": int(d.get("n_shards", 0)),
            "rounds": int(d.get("rounds", 0)),
            "hedges": int(d.get("hedges", 0)),
            "per_shard": d.get("per_shard"),
            # cache fields arrived after the first serialized payloads;
            # .get defaults keep old payloads loading cleanly
            "cache_hits": int(d.get("cache_hits", 0)),
            "cache_misses": int(d.get("cache_misses", 0)),
            "cache_rejects": int(d.get("cache_rejects", 0)),
            "cache_hit_rate": float(d.get("cache_hit_rate", 0.0)),
        }


def collect_report(
    name: str,
    ctx: ExecContext,
    obs: Observation,
    *,
    dist: np.ndarray | None = None,
    idx: np.ndarray | None = None,
    stats=None,
    machines: list[MachineSpec] | tuple = (),
) -> RunReport:
    """Assemble a :class:`RunReport` from a finished observed run.

    ``ctx.recorder`` supplies the trace (phase flops/bytes, machine-model
    replays) and — when it is a :class:`TimingRecorder` — the per-phase
    wall clock; ``obs`` supplies the counter windows; ``stats`` is the
    index's :class:`~repro.core.stats.SearchStats` (or ``None``).
    """
    recorder = ctx.recorder
    phases: dict[str, PhaseReport] = {}
    trace = getattr(recorder, "trace", None)
    if trace is not None:
        for p in trace.phases:
            agg = phases.setdefault(p.name, PhaseReport(p.name))
            agg.flops += p.flops
            agg.bytes += p.bytes
            agg.n_ops += len(p.ops)
    for pname, wall in getattr(recorder, "phase_wall", {}).items():
        agg = phases.setdefault(pname, PhaseReport(pname))
        agg.wall_s += wall
    sims = (
        {m.name: simulate(trace, m) for m in machines} if trace is not None else {}
    )
    return RunReport(
        name=name,
        dist=dist,
        idx=idx,
        wall_s=obs.wall_s,
        evals=obs.evals,
        n_calls=obs.n_calls,
        sims=sims,
        phases=phases,
        flops=trace.flops if trace is not None else 0.0,
        bytes=trace.bytes if trace is not None else 0.0,
        n_ops=trace.n_ops if trace is not None else 0,
        cache=obs.cache,
        rule_counts=dict(stats.rule_counts()) if stats is not None else {},
        quant=dict(stats.quant)
        if stats is not None and getattr(stats, "quant", None)
        else None,
    )

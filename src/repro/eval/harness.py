"""Experiment harness: run indexes, collect work/time, format paper tables.

Every benchmark follows the same recipe: build an index, run a traced
query batch, replay the trace on the relevant machine models, and compare
against brute force on the same models.  This module centralizes that
recipe so each benchmark file only declares its workload and parameters.

``traced_query``/``traced_build`` are thin wrappers over the unified
runtime: each run executes under an :class:`~repro.runtime.context.
ExecContext` whose :class:`~repro.runtime.context.TimingRecorder` collects
the trace and per-phase wall clock, and returns a
:class:`~repro.runtime.report.RunReport` — one uniform observability
record carrying results, counter windows, per-phase flops/bytes/wall time,
operand-cache activity, rule counts, and the machine-model replays.
``traced_build``'s report supports the machine-name indexing its old dict
return value had.
"""

from __future__ import annotations

import numpy as np

from ..runtime.context import ExecContext, TimingRecorder, resolve_ctx
from ..runtime.report import RunReport, collect_report
from ..simulator.machine import MachineSpec

__all__ = [
    "traced_query",
    "traced_build",
    "streamed_query",
    "run_backend",
    "format_table",
    "geomean",
]


def traced_query(
    index,
    Q,
    machines: list[MachineSpec] = (),
    *,
    k: int = 1,
    name: str | None = None,
    ctx: ExecContext | None = None,
    trace_ops: bool = True,
    **query_kwargs,
) -> RunReport:
    """Run ``index.query`` once, instrumented; replay on each machine.

    The index's metric counter and the operand cache are snapshotted
    around the call, so ``report.evals`` (and the cache window) is exactly
    this batch's work.  ``ctx`` carries execution overrides (executor,
    chunking) into the query; the harness supplies the recorder.
    With ``trace_ops=False`` no machine-model trace is collected (``sims``
    is empty) but per-phase wall time and the counter windows still are —
    the near-zero-overhead mode.

    A tracer on ``ctx`` threads through to the recorder, so recorded ops
    carry the live span's id (see :class:`~repro.simulator.trace.Op`).
    """
    run_ctx = resolve_ctx(ctx)
    recorder = TimingRecorder(trace_ops=trace_ops, tracer=run_ctx.tracer)
    run_ctx = run_ctx.with_recorder(recorder)
    with run_ctx.observe(index.metric) as obs:
        dist, idx = index.query(Q, k, ctx=run_ctx, **query_kwargs)
    return collect_report(
        name or type(index).__name__,
        run_ctx,
        obs,
        dist=dist,
        idx=idx,
        stats=getattr(index, "last_stats", None),
        machines=machines,
    )


def traced_build(
    index,
    X,
    machines: list[MachineSpec] = (),
    *,
    name: str | None = None,
    ctx: ExecContext | None = None,
    trace_ops: bool = True,
    **build_kwargs,
) -> RunReport:
    """Build ``index`` on ``X``, instrumented; replay on each machine.

    Returns a :class:`~repro.runtime.report.RunReport` (``dist``/``idx``
    are ``None`` for builds).  The report indexes by machine name —
    ``report[machine.name].time_s`` — exactly like the plain dict this
    function used to return.
    """
    run_ctx = resolve_ctx(ctx)
    recorder = TimingRecorder(trace_ops=trace_ops, tracer=run_ctx.tracer)
    run_ctx = run_ctx.with_recorder(recorder)
    with run_ctx.observe(index.metric) as obs:
        index.build(X, ctx=run_ctx, **build_kwargs)
    return collect_report(
        name or f"{type(index).__name__}:build",
        run_ctx,
        obs,
        stats=None,
        machines=machines,
    )


def streamed_query(
    index,
    Q,
    *,
    k: int = 1,
    qps: float | None = None,
    arrival_times=None,
    policy=None,
    name: str | None = None,
    ctx: ExecContext | None = None,
    **query_kwargs,
):
    """Replay a query-arrival trace through a serving session.

    The streaming counterpart of :func:`traced_query`: queries arrive one
    at a time (at ``qps`` or per ``arrival_times``), a
    :class:`~repro.serving.searcher.StreamingSearcher` micro-batches them
    under ``policy``'s latency budget, and the returned
    :class:`~repro.runtime.report.StreamReport` carries latency
    percentiles and throughput on top of the usual run observables.
    Results (``report.dist``/``idx``) are in arrival order and identical
    to per-query answers.

    Searcher features pass straight through: ``slo=``, ``cache=``,
    ``quality=`` (a fraction, ``True``, or a configured
    :class:`~repro.obs.quality.QualitySampler` — the windowed recall
    estimate lands in ``report.quality``), and ``flight=`` (a
    :class:`~repro.obs.flight.FlightRecorder`) are forwarded to the
    :class:`~repro.serving.searcher.StreamingSearcher` constructor;
    anything else reaches ``index.query``.
    """
    from ..serving import StreamingSearcher  # serving sits above eval

    with StreamingSearcher(
        index, k=k, policy=policy, ctx=ctx, **query_kwargs
    ) as server:
        return server.search_stream(
            Q, qps=qps, arrival_times=arrival_times, name=name
        )


def geomean(values) -> float:
    """Geometric mean (the right average for speedup ratios)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or (arr <= 0).any():
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.log(arr).mean()))


def format_table(headers: list[str], rows: list[list], *, title: str = "") -> str:
    """Fixed-width ASCII table, floats rendered to 3 significant figures.

    Benchmarks print these so the generated output can be compared line by
    line with the paper's tables.
    """

    def render(v) -> str:
        if isinstance(v, float):
            if v == 0 or (0.01 <= abs(v) < 10_000):
                return f"{v:.3g}"
            return f"{v:.2e}"
        return str(v)

    cells = [[render(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def run_backend(
    name: str,
    X,
    Q,
    machines: list[MachineSpec] = (),
    *,
    k: int = 1,
    ctx: ExecContext | None = None,
    trace_ops: bool = True,
    build_kwargs: dict | None = None,
    observe: bool = True,
    **init_kwargs,
) -> tuple[RunReport, RunReport]:
    """Build and query a *registered* backend by name, fully traced.

    The registry-facing composition of :func:`traced_build` +
    :func:`traced_query`: ``init_kwargs`` reach the backend constructor
    (unsupported ones are dropped, so one uniform kwarg set works across
    backends), ``build_kwargs`` reach ``build``.  Returns
    ``(build_report, query_report)``, both named ``<backend>:<phase>``.

    With ``observe=True`` and a router backend, the query report is fed
    back into the router's cost model (``observe_report``) — the eval
    harness and the serving path then share one latency history.
    """
    from ..index import create_index

    index = create_index(name, lenient=True, **init_kwargs)
    build_report = traced_build(
        index,
        X,
        machines,
        name=f"{name}:build",
        ctx=ctx,
        trace_ops=trace_ops,
        **(build_kwargs or {}),
    )
    query_report = traced_query(
        index,
        Q,
        machines,
        k=k,
        name=f"{name}:query",
        ctx=ctx,
        trace_ops=trace_ops,
    )
    if observe:
        ingest = getattr(index, "observe_report", None)
        if callable(ingest):
            ingest(name, query_report)
    return build_report, query_report

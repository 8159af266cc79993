"""Unified execution runtime: one context object per search run.

:class:`ExecContext` bundles the cross-cutting execution state — scoped
executor, trace recorder, span tracer, chunking policy — that the
brute-force primitive, both RBC searches, every baseline, and the eval
harness all share; :class:`RunReport` is the per-run observability record
a context-driven run emits.  See :mod:`repro.runtime.context` for the
merge semantics that keep the legacy ``recorder=``/``executor=`` kwargs
working unchanged.
"""

from .autotune import Autotuner, KernelPlan, default_autotuner
from .context import ExecContext, Observation, TimingRecorder, resolve_ctx
from .report import (
    LatencyStats,
    PhaseReport,
    RunReport,
    StreamReport,
    collect_report,
)

__all__ = [
    "Autotuner",
    "KernelPlan",
    "default_autotuner",
    "ExecContext",
    "Observation",
    "TimingRecorder",
    "resolve_ctx",
    "LatencyStats",
    "PhaseReport",
    "RunReport",
    "StreamReport",
    "collect_report",
]

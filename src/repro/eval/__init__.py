"""Evaluation: rank error, recall, and the experiment harness."""

from ..runtime.report import RunReport, StreamReport
from .plots import ascii_plot
from .harness import (
    format_table,
    geomean,
    run_backend,
    streamed_query,
    traced_build,
    traced_query,
)
from .rank import mean_rank, ranks_of_results
from .recall import distance_ratio, recall_at_k, results_match_exactly

__all__ = [
    "ascii_plot",
    "RunReport",
    "StreamReport",
    "format_table",
    "geomean",
    "run_backend",
    "streamed_query",
    "traced_build",
    "traced_query",
    "mean_rank",
    "ranks_of_results",
    "distance_ratio",
    "recall_at_k",
    "results_match_exactly",
]

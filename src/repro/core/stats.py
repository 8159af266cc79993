"""Per-query-batch search statistics.

The paper's work bounds are about distance evaluations, so every search
records how many were spent in each stage and what the pruning rules did.
These are the observables the theory benchmarks compare against the
predictions of Claims 1-2 and Theorems 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SearchStats", "BuildStats"]


@dataclass
class SearchStats:
    """Work accounting for one batch query."""

    n_queries: int = 0
    #: distance evaluations in the query-to-representatives stage
    stage1_evals: int = 0
    #: distance evaluations against ownership-list candidates (round 1
    #: and stage 2)
    stage2_evals: int = 0
    #: representatives discarded by the psi-radius rule, summed over queries
    pruned_by_psi: int = 0
    #: representatives discarded by Lemma 1's owner bound (the paper's
    #: 3-gamma rule, applied with round 1's tighter gamma')
    pruned_by_3gamma: int = 0
    #: candidate points skipped by the sorted-list 4-gamma trim (Claim 2)
    trimmed_by_4gamma: int = 0
    #: candidate points actually examined, round 1 included
    candidates_examined: int = 0
    #: quantized-tier report when the query ran on compressed codes
    #: (strategy, quantizer, backend, over-fetch bound, recall before the
    #: float64 re-rank, ...); ``None`` for unquantized queries.  Not part
    #: of :meth:`rule_counts` — the rule observables stay batching- and
    #: quantization-invariant.
    quant: dict | None = None

    @property
    def total_evals(self) -> int:
        return self.stage1_evals + self.stage2_evals

    def per_query_evals(self) -> float:
        """Mean distance evaluations per query — the paper's work measure."""
        return self.total_evals / self.n_queries if self.n_queries else 0.0

    def rule_counts(self) -> dict[str, int]:
        """The pruning-rule observables as a dict, for exact comparison.

        These counters are *batching-invariant*: the batched stage 2 must
        report the same values as a per-query reference run (the regression
        tests compare them with ``==``).  ``stage2_evals`` is deliberately
        excluded — grouped scans may pad ragged prefixes, which is real
        kernel work and is honestly counted as such.
        """
        return {
            "n_queries": self.n_queries,
            "pruned_by_psi": self.pruned_by_psi,
            "pruned_by_3gamma": self.pruned_by_3gamma,
            "trimmed_by_4gamma": self.trimmed_by_4gamma,
            "candidates_examined": self.candidates_examined,
        }


@dataclass
class BuildStats:
    """Work accounting for a build."""

    n_points: int = 0
    n_reps: int = 0
    build_evals: int = 0
    list_sizes: list[int] = field(default_factory=list)

    @property
    def max_list(self) -> int:
        return max(self.list_sizes) if self.list_sizes else 0

    @property
    def mean_list(self) -> float:
        return (
            sum(self.list_sizes) / len(self.list_sizes) if self.list_sizes else 0.0
        )

"""Kernel autotuner: the simulator's machine model as a cost model.

A quantized exact index has a real choice of scan: the *grouped* path
is the float64 two-stage search, which scans only the pruned candidate
lists (a win when the triangle-inequality rules bite, i.e. low
dimension), while the *flat* path replaces both stages with one
certified quantized scan of the whole database (a win when the curse of
dimensionality makes pruning keep nearly everything — at d >= 32 on
Gaussian data the exact rules retain ~100% of the candidates, so the
"pruned" grouped scan is a slower full scan).  Which side wins depends
on ``(n, d, code kind, backend)`` and the machine, which is exactly what
:mod:`repro.simulator` models.

:class:`Autotuner` prices both strategies with the roofline arithmetic
of :meth:`~repro.simulator.machine.MachineSpec.op_time` — compute time
vs bytes-over-bandwidth, plus a per-group synchronization term for the
grouped path — and returns the cheaper one as a :class:`KernelPlan`.
Pricing is microseconds of arithmetic; the index caches its plan per
version, next to the pruning probe that feeds it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..simulator.machine import AMD_48CORE, DESKTOP_QUAD, MachineSpec
from ..simulator.trace import Op

__all__ = ["KernelPlan", "Autotuner", "default_autotuner"]

#: bytes one scanned row moves per code kind (per dimension); the numpy
#: backend always streams the float32 decode cache
_BYTES_PER_DIM = {
    ("int8", "numba"): 1.0,
    ("pq", "numba"): 0.25,  # one uint8 code per 4-dim subspace (M = d/4+)
    ("float16", "numba"): 4.0,  # storage-only kind: decoded-path scan
}


@dataclass
class KernelPlan:
    """One tuned kernel configuration (the autotuner's output).

    ``strategy`` selects flat (whole-database certified quantized scan)
    vs grouped (the float64 pruned stage-2 scan; no codes are built);
    ``row_chunk`` keeps the flat scan's score block cache-resident;
    ``over_fetch`` is the ``c`` in the ``k' = ck`` re-rank bound surfaced
    in ``RunReport``.
    """

    quantizer: str = "int8"
    strategy: str = "flat"  # "flat" | "grouped"
    backend: str = "numpy"  # scan backend the plan was priced for
    row_chunk: int = 64
    over_fetch: int = 4
    cand_frac: float = 1.0  # pruning estimate the plan was priced with
    predicted_ms: dict = field(default_factory=dict)  # strategy -> ms/query


def _default_machine() -> MachineSpec:
    cpus = os.cpu_count() or 4
    return AMD_48CORE if cpus >= 16 else DESKTOP_QUAD


class Autotuner:
    """Price the scan strategies on a machine model and pick the cheaper.

    Parameters
    ----------
    machine:
        the :class:`~repro.simulator.machine.MachineSpec` cost model;
        defaults to the preset closest to this host's core count.
    cache_bytes:
        last-level cache size assumed when sizing the flat scan's query
        chunk (the score block should stay resident between the GEMM and
        the selection pass).
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        cache_bytes: int = 8 << 20,
    ) -> None:
        self.machine = machine or _default_machine()
        self.cache_bytes = int(cache_bytes)

    # --------------------------------------------------------- cost model
    def _flat_ms(self, n: int, d: int, quantizer: str, backend: str) -> float:
        """Per-query cost of the flat certified scan, in milliseconds."""
        mach = self.machine
        bpd = _BYTES_PER_DIM.get((quantizer, backend), 4.0)
        scan = mach.op_time(
            Op(kind="gemm", flops=2.0 * n * d, bytes=n * d * bpd,
               vectorizable=True, tag="autotune:flat")
        )
        # frontier selection: one elementwise-minimum pass over the n
        # scores narrows them to the few columns that are ranked
        select = mach.op_time(
            Op(kind="reduce", flops=4.0 * n, bytes=4.0 * n,
               vectorizable=False, tag="autotune:select")
        )
        return (scan + select) * 1e3

    def _grouped_ms(self, n: int, d: int, cand_frac: float) -> float:
        """Per-query cost of the float64 pruned grouped scan, including the
        per-group dispatch overhead the flat path does not pay."""
        mach = self.machine
        n_cand = max(1.0, cand_frac * n)
        scan = mach.op_time(
            Op(kind="gemm", flops=2.0 * n_cand * d, bytes=8.0 * n_cand * d,
               vectorizable=True, tag="autotune:grouped")
        )
        # survivor selection (gamma threshold + rank) over the candidates —
        # the grouped path's analogue of the flat select; without it the
        # model calls grouped "free" at cand_frac ~ 1 where the pruned scan
        # is really a slower full scan
        select = mach.op_time(
            Op(kind="reduce", flops=4.0 * n_cand, bytes=8.0 * n_cand,
               vectorizable=False, tag="autotune:grouped-select")
        )
        # stage 1 against ~sqrt(n) representatives + per-group dispatch,
        # amortized over the 256-query chunks the exact search batches
        n_groups = max(1.0, n**0.5)
        stage1 = mach.op_time(
            Op(kind="gemm", flops=2.0 * n_groups * d,
               bytes=8.0 * n_groups * d, vectorizable=True,
               tag="autotune:stage1")
        )
        dispatch = n_groups * self.machine.sync_overhead_us * 1e-6 / 256.0
        return (scan + select + stage1 + dispatch) * 1e3

    def _row_chunk(self, n: int) -> int:
        """Largest power-of-two chunk whose float32 score block fits the
        assumed last-level cache (clamped to [32, 256])."""
        chunk = 32
        while chunk < 256 and (2 * chunk) * n * 4 <= self.cache_bytes:
            chunk *= 2
        return chunk

    # ---------------------------------------------------------- interface
    def plan_for(
        self,
        n: int,
        d: int,
        *,
        backend: str | None = None,
        quantizer: str | None = None,
        cand_frac: float = 1.0,
    ) -> KernelPlan:
        """The tuned :class:`KernelPlan` for a workload shape.

        ``cand_frac`` is the caller's estimate of the fraction of the
        database surviving the pruning rules (``ExactRBC`` probes it
        cheaply at ``warm()``); it decides the flat-vs-grouped race.
        """
        if backend is None:
            from ..metrics.jit import kernel_backend

            backend = kernel_backend(quantizer)
        n = max(int(n), 1)
        cf = min(max(float(cand_frac), 0.0), 1.0)
        q = quantizer or ("pq" if backend == "numba" and d >= 64 else "int8")
        flat_ms = self._flat_ms(n, d, q, backend)
        grouped_ms = self._grouped_ms(n, d, cand_frac)
        return KernelPlan(
            quantizer=q,
            strategy="flat" if flat_ms <= grouped_ms else "grouped",
            backend=backend,
            row_chunk=self._row_chunk(n),
            over_fetch=4,
            cand_frac=cf,
            predicted_ms={
                "flat": round(flat_ms, 6), "grouped": round(grouped_ms, 6)
            },
        )


#: process-wide tuner the index classes consult at ``warm()``
default_autotuner = Autotuner()

"""Per-layer instrumentation of the traced run and the ledger metrics.

:func:`instrument` wraps the public entry points of each layer the
workloads cross, from the benchmark's side:

=========  ==========================================================
searcher   ``StreamingSearcher.submit/tick/poll``; ``rescore_pairs`` at
           its ``repro.serving.searcher`` import site
batcher    ``QueryBatcher.take``
cache      ``ProximityCache.lookup/admit``
exact      ``ExactRBC.query/insert``
oneshot    ``OneShotRBC.query``
bf         ``bf_knn`` at its ``repro.core.oneshot`` import site
kernel     ``VectorMetric.pairwise/pairwise_prepared/paired``
=========  ==========================================================

Search statistics are read from ``getattr(index, "last_stats", None)``
right after each call; the benchmark drives one call at a time, so the
attribute still belongs to that call.  Kernel flops and bytes are computed
from operand shapes: ``2 m n d`` flops for an ``(m, d) x (n, d)`` block and
``3 m d`` for ``m`` paired rows; bytes are both operands plus the output.
"""

from __future__ import annotations

import bisect
import threading

import numpy as np

from ledger import Ledger, covered, self_times

__all__ = ["instrument", "layer_metrics", "top_level_seconds"]

SEARCHER_CALLS = ("searcher.submit", "searcher.tick", "searcher.poll")


def _stats(index) -> dict:
    st = getattr(index, "last_stats", None)
    if st is None:
        return {}
    return {
        "evals": int(st.total_evals),
        "stage2": int(st.stage2_evals),
        "cands": int(st.candidates_examined),
        "pruned": int(st.pruned_by_psi + st.pruned_by_3gamma),
    }


def _search_attrs(args, kwargs, result) -> dict:
    index = args[0]
    Q = args[1] if len(args) > 1 else kwargs["Q"]
    return {"m": len(Q), "n": int(index.n), "n_reps": int(index.n_reps), **_stats(index)}


def _block_attrs(m: int, n: int, d: int, itemsize: int) -> dict:
    return {
        "m": m,
        "flops": 2.0 * m * n * d,
        "bytes": float(itemsize) * (m * d + n * d + m * n),
    }


def _pairwise_attrs(args, kwargs, result) -> dict:
    Q, X = np.asarray(args[1]), np.asarray(args[2])
    return _block_attrs(Q.shape[0], X.shape[0], X.shape[1], 8)


def _prepared_attrs(args, kwargs, result) -> dict:
    Qd, Xd = args[1].data, args[2].data
    return _block_attrs(Qd.shape[0], Xd.shape[0], Xd.shape[1], Qd.itemsize)


def _paired_attrs(args, kwargs, result) -> dict:
    A = np.atleast_2d(np.asarray(args[1]))
    m, d = A.shape
    return {"m": m, "flops": 3.0 * m * d, "bytes": 8.0 * (2 * m * d + m)}


def _take_attrs(ledger: Ledger):
    def attrs(args, kwargs, result) -> dict:
        if not result:
            return {"size": 0}
        ledger.batch += 1
        now = float(args[1])
        return {
            "id": ledger.batch,
            "size": len(result),
            "target": int(args[0].target),
            "waits": [now - arrival for _payload, arrival in result],
        }

    return attrs


def instrument(ledger: Ledger) -> None:
    """Wrap every traced entry point; ``ledger.restore()`` unwraps."""
    from repro.core import oneshot as oneshot_mod
    from repro.core.exact import ExactRBC
    from repro.core.oneshot import OneShotRBC
    from repro.metrics.base import VectorMetric
    from repro.serving import searcher as searcher_mod
    from repro.serving.batcher import QueryBatcher
    from repro.serving.cache import ProximityCache

    S = searcher_mod.StreamingSearcher
    ledger.wrap(S, "submit", "searcher.submit", lambda a, kw, r: {"id": r})
    ledger.wrap(S, "tick", "searcher.tick")
    ledger.wrap(S, "poll", "searcher.poll", lambda a, kw, r: {"id": a[1]})
    ledger.wrap(searcher_mod, "rescore_pairs", "searcher.rescore")
    ledger.wrap(QueryBatcher, "take", "batcher.take", _take_attrs(ledger))
    ledger.wrap(ProximityCache, "lookup", "cache.lookup")
    ledger.wrap(ProximityCache, "admit", "cache.admit")
    ledger.wrap(ExactRBC, "query", "exact.query", _search_attrs)
    ledger.wrap(ExactRBC, "insert", "exact.insert")
    ledger.wrap(OneShotRBC, "query", "oneshot.query", _search_attrs)
    ledger.wrap(oneshot_mod, "bf_knn", "bf.knn")
    ledger.wrap(VectorMetric, "pairwise", "kernel.pairwise", _pairwise_attrs)
    ledger.wrap(VectorMetric, "pairwise_prepared", "kernel.pairwise_prepared", _prepared_attrs)
    ledger.wrap(VectorMetric, "paired", "kernel.paired", _paired_attrs)


def _sum(spans, key: str = "") -> float:
    return float(sum(s.attrs.get(key, 0) if key else s.dur for s in spans))


def _ratio(a: float, b: float) -> float:
    return float(a / b) if b else 0.0


def _pct_ms(values, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if len(values) else 0.0


def layer_metrics(
    main: Ledger,
    oneshot: Ledger,
    *,
    served: int,
    c: float,
    bf_us: float,
    cache: dict | None,
    writes: int,
    driver: dict,
) -> dict:
    """The per-layer metrics of one traced run.

    ``main`` holds the workload's primary phase (offline: the exact passes;
    serve: the nominal segments) and ``served`` the queries it answered;
    ``oneshot`` holds the one-shot passes.  ``cache`` is the summed cache
    counters, ``writes`` the inserts issued, and ``driver`` the driver's
    own ``lag_p99_ms``, ``unattributed_frac`` and ``trace_overhead_frac``.
    """
    spans = main.spans
    own = self_times(spans)
    by = {}
    for s, st in zip(spans, own):
        by.setdefault(s.name, []).append((s, st))

    def group(name):
        return [s for s, _ in by.get(name, [])]

    out: dict[str, float] = {}
    takes = [s for s in group("batcher.take") if s.attrs.get("size", 0) > 0]
    waits = [w for s in takes for w in s.attrs["waits"]]
    out["batcher.mean_batch"] = _ratio(_sum(takes, "size"), len(takes))
    out["batcher.deadline_flush_frac"] = _ratio(
        sum(s.attrs["size"] < s.attrs["target"] for s in takes), len(takes)
    )
    out["batcher.wait_p50_ms"] = _pct_ms(waits, 50)
    out["batcher.wait_p99_ms"] = _pct_ms(waits, 99)

    calls = [pair for name in SEARCHER_CALLS for pair in by.get(name, [])]
    out["searcher.busy_us_per_query"] = _ratio(sum(s.dur for s, _ in calls) * 1e6, served)
    out["searcher.self_us_per_query"] = _ratio(sum(st for _, st in calls) * 1e6, served)
    out["searcher.rescore_us_per_query"] = _ratio(_sum(group("searcher.rescore")) * 1e6, served)
    xq = group("exact.query")
    out["searcher.dispatches_per_batch"] = _ratio(len(xq), len(takes))

    out["cache.hit_rate"] = _ratio(cache["hits"], cache["hits"] + cache["misses"]) if cache else 0.0
    out["cache.lookup_us_per_query"] = _ratio(_sum(group("cache.lookup")) * 1e6, served)
    out["cache.admit_us_per_query"] = _ratio(_sum(group("cache.admit")) * 1e6, served)
    out["cache.invalidated_per_write"] = _ratio(cache["invalidated"], writes) if cache else 0.0

    kernels = sorted(
        (s for s in spans if s.name.startswith("kernel.")), key=lambda s: s.start
    )
    starts = [s.start for s in kernels]
    mq = _sum(xq, "m")
    outside = 0.0
    for x in xq:
        lo = bisect.bisect_left(starts, x.start)
        hi = bisect.bisect_right(starts, x.end)
        outside += x.dur - covered([(k.start, k.end) for k in kernels[lo:hi]], x.start, x.end)
    evals_pq = _ratio(_sum(xq, "evals"), mq)
    n = float(np.mean([x.attrs["n"] for x in xq])) if xq else 0.0
    n_r = float(np.mean([x.attrs["n_reps"] for x in xq])) if xq else 0.0
    theorem1 = min(n, n_r + c**3 * n / n_r) if n_r else 0.0
    out["exact.us_per_query"] = _ratio(_sum(xq) * 1e6, mq)
    out["exact.self_us_per_query"] = _ratio(outside * 1e6, mq)
    out["exact.evals_per_query"] = evals_pq
    out["exact.evals_frac_n"] = _ratio(evals_pq, n)
    out["exact.evals_vs_theorem1"] = _ratio(evals_pq, theorem1)
    out["exact.candidates_per_query"] = _ratio(_sum(xq, "cands"), mq)
    out["exact.prune_frac"] = _ratio(_sum(xq, "pruned"), sum(x.attrs["m"] * x.attrs["n_reps"] for x in xq))
    out["exact.pad_waste_frac"] = 1.0 - _ratio(_sum(xq, "cands"), _sum(xq, "stage2")) if xq else 0.0
    out["exact.vs_brute"] = _ratio(out["exact.us_per_query"], bf_us)
    inserts = group("exact.insert")
    out["exact.insert_ms_p50"] = _pct_ms([s.dur for s in inserts], 50)
    x_starts = [x.start for x in xq]
    after = []
    for w in inserts:
        i = bisect.bisect_left(x_starts, w.end)
        if i < len(xq):
            after.append(xq[i].dur)
    out["exact.post_write_query_ms"] = _pct_ms(after, 50)

    oq = oneshot.named("oneshot.query")
    om = _sum(oq, "m")
    out["oneshot.us_per_query"] = _ratio(_sum(oq) * 1e6, om)
    out["oneshot.evals_per_query"] = _ratio(_sum(oq, "evals"), om)

    ktime = _sum(kernels)
    out["kernel.calls_per_query"] = _ratio(len(kernels), served)
    out["kernel.rows_per_call"] = _ratio(_sum(kernels, "m"), len(kernels))
    out["kernel.us_per_query"] = _ratio(ktime * 1e6, served)
    out["kernel.gflops"] = _ratio(_sum(kernels, "flops") / 1e9, ktime)
    out["kernel.bytes_per_query"] = _ratio(_sum(kernels, "bytes"), served)
    out["bf.us_per_query"] = bf_us

    out.update({f"driver.{key}": value for key, value in driver.items()})
    return out


def top_level_seconds(ledger: Ledger) -> float:
    """Summed duration of the spans this thread opened outside any other
    span: the time the ledger attributes to the driver's program calls."""
    tid = threading.get_ident()
    return float(sum(s.dur for s in ledger.spans if s.parent is None and s.tid == tid))

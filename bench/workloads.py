"""The four workloads: their inputs, set-up, and what a run measures.

Every run of a workload first makes its inputs from the seed (``gen``) and
its ground truth (``check``), then sets up the indexes, then measures.  An
untraced run reports the end-to-end metrics; a traced run repeats a short
part of the measurement with every layer wrapped and reports the
per-layer ledger (``layers``).  See ``bench/README.md`` for why each
workload exists and what each metric means.
"""

from __future__ import annotations

import ctypes
import gc
import json
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import gen
from check import Database, check_rows, recall
from driver import run_open_loop
from layers import instrument, layer_metrics, top_level_seconds
from ledger import Ledger

__all__ = ["WORKLOADS", "Workload", "Timing", "smoke", "run", "trace"]

#: latency limit whose miss share the serve-* runs report (not a metric)
SLO_S = 0.100
#: fresh searchers whose nominal-rate samples are pooled (the traced run
#: times half as many, untraced and traced)
NOMINAL_SEGMENTS = 4
#: answers verified per open-loop segment
VERIFY_PER_SEGMENT = 256
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_ROUNDS = 3
#: queries timed through brute force as the ledger's reference
BF_QUERIES = 1024
#: fresh rows reserved for the writes of one segment, one block each, so
#: a segment's inputs never depend on the segments before it
FRESH_BLOCK = 64


@dataclass(frozen=True)
class Workload:
    name: str
    #: generator: ``"tiny8"`` or ``"gaussian"``
    data: str
    n: int
    dim: int
    #: held-out query pool
    n_queries: int
    k: int
    #: offline batch size; the searcher's ``max_batch`` on serve-*
    batch: int
    #: pool queries with ground truth
    n_verify: int
    #: serve-*: ``"uniform"`` or ``"hotkey"`` traffic ("" = offline)
    traffic: str = ""
    #: serve-*: nominal request rate, 1/s
    rate: float = 0.0
    cache: bool = False
    #: serve-*: one write per this many requests (0 = none)
    write_every: int = 0
    #: serve-*: every batch waits out the latency budget (the batch
    #: controller's ladder is the single size ``batch``) instead of adapting
    fixed_window: bool = False


WORKLOADS = {
    w.name: w
    for w in [
        Workload("offline-lowdim", "tiny8", 200_000, 8, 8192, 1, 1024, 8192),
        # the whole pool is verified: one-shot recall@10 over only its first
        # 1,024 queries varied by 0.04 (IQR over median) across ten seeds
        Workload("offline-highdim", "gaussian", 100_000, 16, 2048, 10, 256, 2048),
        Workload("serve-uniform", "tiny8", 200_000, 8, 4096, 10, 256, 1024,
                 traffic="uniform", rate=50.0),
        Workload("serve-hotkey-writes", "tiny8", 200_000, 8, 4096, 10, 256, 1024,
                 traffic="hotkey", rate=50.0, cache=True, write_every=100, fixed_window=True),
    ]
}


def smoke(wl: Workload) -> Workload:
    """The same workload at toy sizes, for the self-tests."""
    return replace(
        wl,
        n=wl.n // 40,
        n_queries=min(wl.n_queries, 512),
        n_verify=min(wl.n_verify, 256),
        batch=min(wl.batch, 128),
    )


@dataclass(frozen=True)
class Timing:
    """How long each phase measures, derived from ``--seconds``."""

    #: seconds of one-shot passes (interleaved with the exact passes
    #: offline, split before the segments on serve-*) and of exact passes
    oneshot_s: float
    exact_s: float
    #: serve-*: counted window of each nominal segment
    nominal_s: float
    #: serve-*: uncounted start of every segment, and wait after its last due
    warmup_s: float = 1.0
    drain_s: float = 1.0

    @classmethod
    def of(cls, seconds: float, smoke: bool = False) -> "Timing":
        short = {"warmup_s": 0.2, "drain_s": 0.3} if smoke else {}
        return cls(
            oneshot_s=0.2 * seconds,
            exact_s=0.8 * seconds,
            nominal_s=0.25 * seconds,
            **short,
        )


class Outcome:
    """What a run reports: metric values, context, and operation counts."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.info: dict = {}
        self.attempted = 0
        #: verified answers that did not match brute force
        self.wrong = 0
        #: nominal-rate requests still unanswered when the driver stopped
        self.timeouts = 0


def rss_bytes() -> int:
    """Resident set size after a full collection.  On glibc the heap's
    free pages are handed back first, so the reading tracks live memory
    rather than what earlier temporaries left cached in the allocator."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


def make_inputs(wl: Workload, seed: int) -> list[np.ndarray]:
    """``[X, pool, fresh]``: database, held-out queries, rows to insert."""
    n_fresh = FRESH_BLOCK * NOMINAL_SEGMENTS if wl.write_every else 0
    total = wl.n + wl.n_queries + n_fresh
    if wl.data == "tiny8":
        full = gen.tiny8(total, seed)
    else:
        full = gen.gaussian(total, seed, dim=wl.dim)
    return gen.split(full, [wl.n, wl.n_queries, n_fresh], seed)


def builders(X, ctx, seed: int) -> dict:
    """Zero-argument build-and-warm callables of the two RBC indexes."""
    from repro import ExactRBC, OneShotRBC

    return {
        "exact": lambda: ExactRBC(seed=seed, executor="threads").build(X, ctx=ctx).warm(ctx),
        "oneshot": lambda: OneShotRBC(seed=seed, executor="threads").build(X, ctx=ctx).warm(ctx),
    }


def setup(build: dict, rounds: int):
    """Run every builder in ``build`` once per round.

    Returns the first round's indexes by name, the median seconds per
    round, and the first round's RSS growth in MiB.
    """
    times, kept, mem_mb = [], None, 0.0
    for _ in range(rounds):
        rss0 = rss_bytes()
        t = time.perf_counter()
        made = {name: fn() for name, fn in build.items()}
        times.append(time.perf_counter() - t)
        if kept is None:
            kept, mem_mb = made, (rss_bytes() - rss0) / 2**20
        del made
    return kept, statistics.median(times), mem_mb


class Passes:
    """Closed-loop passes of ``index.query`` over the pool in batches,
    accumulated across calls so they can be interleaved with other work.

    Exact answers are checked on the verified rows after every pass;
    one-shot answers (``exact=False``) are scored for recall once, since
    every pass returns the same.  Checks run outside the timed region.
    """

    def __init__(self, wl, index, pool, ctx, db, truth, out, *, exact: bool, ledger=None):
        self.wl, self.index, self.pool, self.ctx = wl, index, pool, ctx
        self.db, self.truth, self.out, self.exact, self.ledger = db, truth, out, exact, ledger
        self.pass_s: list[float] = []
        self.batch_s: list[float] = []
        self.recall: float | None = None

    def run(self, min_s: float = 0.0, min_passes: int = 1) -> float:
        """Passes until ``min_s`` seconds and ``min_passes`` passes are
        done; returns the seconds they took."""
        wl, Q = self.wl, self.pool
        spent, done = 0.0, 0
        while done < min_passes or spent < min_s:
            ids = np.empty((len(Q), wl.k), dtype=np.int64)
            t0 = time.perf_counter()
            for lo in range(0, len(Q), wl.batch):
                if self.ledger is not None:
                    self.ledger.batch += 1
                t = time.perf_counter()
                ids[lo : lo + wl.batch] = self.index.query(Q[lo : lo + wl.batch], wl.k, ctx=self.ctx)[1]
                self.batch_s.append(time.perf_counter() - t)
            self.pass_s.append(time.perf_counter() - t0)
            spent += self.pass_s[-1]
            done += 1
            self.out.attempted += len(Q)
            Qv, got = Q[: wl.n_verify], ids[: wl.n_verify]
            if self.exact:
                self.out.wrong += int(np.count_nonzero(~check_rows(self.db, Qv, got, self.truth)))
            elif self.recall is None:
                self.recall = recall(self.db, Qv, got, self.truth)
        return spent

    @property
    def qps(self) -> float:
        """Queries per second of a pass made of every batch's best time.

        Every pass repeats the same batches, so what a repeat takes beyond
        the best is interference from the host.  On a shared 2-vCPU VM this
        cut the ten-seed spread of offline-highdim's exact and one-shot
        throughput to less than half of the median pass's.
        """
        per_batch = np.reshape(self.batch_s, (len(self.pass_s), -1))
        return len(self.pool) / per_batch.min(axis=0).sum()


def serve_segment(wl, tm, exact, pool, fresh, ctx, db, seed, tag, out):
    """One open-loop segment at the nominal rate with a fresh searcher;
    requests due in its first ``tm.warmup_s`` seconds are not counted.

    Up to ``VERIFY_PER_SEGMENT`` counted answers, spread over the segment by
    request index, are checked against the database as it stood when each
    answer was computed.  Returns the counted requests' latencies and lags
    and the segment's totals.
    """
    from repro import BatchPolicy, StreamingSearcher

    key = [seed, tag]
    due = gen.arrivals(wl.rate, tm.warmup_s + tm.nominal_s, key + [0])
    pick_queries = gen.hotkey_queries if wl.traffic == "hotkey" else gen.uniform_queries
    payloads = pick_queries(pool, len(due), key + [1])
    writes = np.zeros(len(due), dtype=bool)
    if wl.write_every:
        writes = gen.write_mask(len(due), wl.write_every, key + [2])
        n_w = int(writes.sum())
        if n_w > FRESH_BLOCK:
            raise ValueError(f"segment needs {n_w} fresh rows, has {FRESH_BLOCK}")
        payloads[writes] = fresh[tag * FRESH_BLOCK : tag * FRESH_BLOCK + n_w]
    n0 = db.n

    def write(x):
        exact.insert(x)
        db.insert(x)

    searcher = StreamingSearcher(
        exact,
        k=wl.k,
        policy=BatchPolicy(max_delay_ms=50.0, max_batch=wl.batch,
                           min_batch=wl.batch if wl.fixed_window else 1),
        ctx=ctx,
        cache=True if wl.cache else None,
    )
    with searcher:
        log = run_open_loop(searcher, due, payloads, writes=writes, write=write,
                            drain_s=tm.drain_s)
    answered = ~np.isnan(log.latency)
    counted = (due >= tm.warmup_s) & ~writes

    pick = np.flatnonzero(counted & answered)
    if pick.size > VERIFY_PER_SEGMENT:
        pick = pick[np.linspace(0, pick.size - 1, VERIFY_PER_SEGMENT).astype(int)]
    if pick.size:
        sizes = np.array([n0 + log.writes_at[i] for i in pick])
        ids = np.stack([log.answers[i][1] for i in pick])
        truth = np.empty((pick.size, wl.k))
        for s in np.unique(sizes):
            truth[sizes == s] = db.truth(payloads[pick][sizes == s], wl.k, s)
        out.wrong += int(np.count_nonzero(~check_rows(db, payloads[pick], ids, truth, sizes)))
    out.attempted += len(due)
    out.timeouts += int(np.count_nonzero(counted & ~answered))
    return {
        "lat": log.censored_latency()[counted],
        "lag": log.lag[counted],
        "served": len(log.answers),
        "busy_s": log.busy_s,
        "sleep_s": log.sleep_s,
        "wall_s": log.wall_s,
        "writes": int(writes.sum()),
        "mean_batch": searcher.batcher.n_items / max(searcher.batcher.n_batches, 1),
        "cache": searcher.cache.counters.to_dict() if searcher.cache is not None else None,
    }


def _prepare(wl, seed, ctx):
    X, pool, fresh = make_inputs(wl, seed)
    db = Database(X, workers=ctx.n_workers)
    truth = db.truth(pool[: wl.n_verify], wl.k)
    return X, pool, fresh, db, truth


def run(wl: Workload, seed: int, tm: Timing, ctx) -> Outcome:
    """The untraced run: every end-to-end metric.

    Set-up covers the indexes the workload measures: both RBC indexes
    offline, the served exact index on serve-* (their one-shot index is
    built outside it).
    """
    out = Outcome()
    X, pool, fresh, db, truth = _prepare(wl, seed, ctx)
    build = builders(X, ctx, seed)
    oneshot = build.pop("oneshot")() if wl.traffic else None
    made, setup_s, mem_mb = setup(build, rounds=SETUP_ROUNDS)
    exact, oneshot = made["exact"], made.get("oneshot", oneshot)
    out.metrics.update(setup_s=setup_s, mem_mb=mem_mb)

    # one-shot passes are spread over the whole run, beside the exact passes
    # or the serving segments, so both halves see the same host conditions
    one = Passes(wl, oneshot, pool, ctx, db, truth, out, exact=False)
    if not wl.traffic:
        ex = Passes(wl, exact, pool, ctx, db, truth, out, exact=True)
        stop = time.perf_counter() + tm.exact_s + tm.oneshot_s
        while len(ex.pass_s) < 2 or time.perf_counter() < stop:
            one.run(min_s=ex.run() * tm.oneshot_s / tm.exact_s)
        out.metrics.update(
            exact_qps=ex.qps,
            p50_ms=float(np.percentile(ex.batch_s, 50) * 1e3),
            p99_ms=float(np.percentile(ex.batch_s, 99) * 1e3),
        )
        out.info.update(exact_passes=len(ex.pass_s), oneshot_passes=len(one.pass_s))
    else:
        segs = []
        for tag in range(NOMINAL_SEGMENTS):
            one.run(min_s=tm.oneshot_s / NOMINAL_SEGMENTS)
            segs.append(serve_segment(wl, tm, exact, pool, fresh, ctx, db, seed, tag, out))
        lat = np.concatenate([s["lat"] for s in segs])
        out.metrics.update(
            exact_qps=sum(s["served"] for s in segs) / sum(s["busy_s"] for s in segs),
            p50_ms=float(np.percentile(lat, 50) * 1e3),
            p99_ms=float(np.percentile(lat, 99) * 1e3),
        )
        out.info.update(
            samples=int(lat.size),
            slo_miss_frac=float(np.mean(lat > SLO_S)),
            lag_p99_ms=float(np.percentile(np.concatenate([s["lag"] for s in segs]), 99) * 1e3),
            busy_frac=sum(s["busy_s"] for s in segs) / sum(s["wall_s"] for s in segs),
            mean_batch=[round(s["mean_batch"], 2) for s in segs],
            writes=sum(s["writes"] for s in segs),
        )
    out.metrics.update(oneshot_qps=one.qps, oneshot_recall=one.recall)
    return out


def _bf_us(wl, X, Qv, truth, ctx, db, out) -> float:
    """Brute-force microseconds per query on the verified queries (the
    ledger's reference); its answers are checked too."""
    from repro.parallel.bruteforce import bf_knn

    Qv, truth = Qv[:BF_QUERIES], truth[:BF_QUERIES]
    ids = np.empty((len(Qv), wl.k), dtype=np.int64)
    t = time.perf_counter()
    for lo in range(0, len(Qv), wl.batch):
        ids[lo : lo + wl.batch] = bf_knn(Qv[lo : lo + wl.batch], X, k=wl.k, ctx=ctx)[1]
    us = (time.perf_counter() - t) / len(Qv) * 1e6
    out.attempted += len(Qv)
    out.wrong += int(np.count_nonzero(~check_rows(db, Qv, ids, truth)))
    return us


def trace(wl: Workload, seed: int, tm: Timing, ctx, trace_path) -> Outcome:
    """The traced run: untraced reference passes or segments, then the
    same work with every layer wrapped; reports the per-layer metrics and
    writes the spans as a Chrome trace to ``trace_path``."""
    from repro.dimension import estimate_expansion_rate

    out = Outcome()
    X, pool, fresh, db, truth = _prepare(wl, seed, ctx)
    made, _, _ = setup(builders(X, ctx, seed), rounds=1)
    exact, oneshot = made["exact"], made["oneshot"]
    bf_us = _bf_us(wl, X, pool[: wl.n_verify], truth, ctx, db, out)
    c = estimate_expansion_rate(X, seed=seed).c

    Passes(wl, oneshot, pool, ctx, db, truth, out, exact=False).run(min_passes=2)
    lo = Ledger()
    instrument(lo)
    try:
        Passes(wl, oneshot, pool, ctx, db, truth, out, exact=False, ledger=lo).run(min_passes=2)
    finally:
        lo.restore()

    main = Ledger()
    cache, writes = None, 0
    if not wl.traffic:
        ref = Passes(wl, exact, pool, ctx, db, truth, out, exact=True)
        ref.run(min_passes=2)
        traced = Passes(wl, exact, pool, ctx, db, truth, out, exact=True, ledger=main)
        instrument(main)
        try:
            traced.run(min_passes=2)
        finally:
            main.restore()
        served = len(traced.pass_s) * len(pool)
        driver = {
            "lag_p99_ms": 0.0,
            "unattributed_frac": 1.0 - top_level_seconds(main) / sum(traced.pass_s),
            "trace_overhead_frac": ref.qps / traced.qps - 1.0,
        }
    else:
        def segments():
            return [
                serve_segment(wl, tm, exact, pool, fresh, ctx, db, seed, tag, out)
                for tag in range(NOMINAL_SEGMENTS // 2)
            ]

        ref = segments()
        instrument(main)
        try:
            traced = segments()
        finally:
            main.restore()
        served = sum(s["served"] for s in traced)

        def busy_per_query(segs):
            return sum(s["busy_s"] for s in segs) / sum(s["served"] for s in segs)

        attributed = top_level_seconds(main) + sum(s["sleep_s"] for s in traced)
        driver = {
            "lag_p99_ms": float(np.percentile(np.concatenate([s["lag"] for s in traced]), 99) * 1e3),
            "unattributed_frac": 1.0 - attributed / sum(s["wall_s"] for s in traced),
            "trace_overhead_frac": busy_per_query(traced) / busy_per_query(ref) - 1.0,
        }
        if wl.cache:
            cache = {
                key: sum(s["cache"][key] for s in traced)
                for key in ("hits", "misses", "invalidated")
            }
        writes = sum(s["writes"] for s in traced)

    out.metrics = layer_metrics(main, lo, served=served, c=c, bf_us=bf_us, cache=cache,
                                writes=writes, driver=driver)
    out.info.update(c=c, spans=len(main.spans) + len(lo.spans), trace=str(trace_path))
    t0 = min(s.start for s in main.spans + lo.spans)
    events = main.chrome_trace(pid=0, t0=t0) + lo.chrome_trace(pid=1, t0=t0)
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return out

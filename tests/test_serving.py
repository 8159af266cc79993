"""The streaming serving layer: batcher policy, determinism, residency.

Three contracts matter:

* **determinism** — a micro-batched stream returns *bit-identical*
  answers (float64 distances compared with ``==``) and identical pruning
  counters to per-query dispatch; batching is a throughput decision, never
  a results decision;
* **latency** — the adaptive batcher honors its ``max_delay_ms`` budget,
  including under bursty arrival traces;
* **residency hygiene** — shared-memory segments pinned for a serving
  session are all unlinked by ``close()``, also when the stream dies
  mid-flight.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import BatchPolicy, ExactRBC, OneShotRBC, StreamingSearcher
from repro.baselines import BruteForceIndex
from repro.eval import streamed_query
from repro.runtime import ExecContext, StreamReport
from repro.serving import DatasetResidency, QueryBatcher


@pytest.fixture
def served_index(rng):
    X = rng.normal(size=(1200, 10))
    Q = rng.normal(size=(80, 10))
    return ExactRBC(seed=0).build(X), Q


# ------------------------------------------------------------ batcher policy


def test_batcher_fills_to_target_then_flushes():
    b = QueryBatcher(BatchPolicy(max_delay_ms=1000, min_batch=4, max_batch=4))
    for i in range(3):
        b.add(i, now=0.0)
        assert not b.ready(0.0)
    b.add(3, now=0.0)
    assert b.ready(0.0)
    items = b.take(0.0)
    assert [p for p, _ in items] == [0, 1, 2, 3]
    assert b.pending == 0 and b.n_batches == 1 and b.n_deadline_flushes == 0


def test_batcher_deadline_flush_and_counter():
    b = QueryBatcher(BatchPolicy(max_delay_ms=10, max_batch=64))
    for _ in range(8):  # climb the ladder so the target exceeds one query
        b.observe(b.target, 0.001)
    assert b.target > 1
    b.add("q", now=0.0)
    assert not b.ready(0.0)
    deadline = b.next_deadline()
    assert 0.0 < deadline <= 0.010
    assert b.ready(deadline)  # slack exhausted exactly at the deadline
    b.take(deadline)
    assert b.n_deadline_flushes == 1


def test_batcher_grows_toward_throughput():
    # service time ~ constant per batch (the GEMM regime): bigger is
    # always better, so the controller should climb to max_batch
    b = QueryBatcher(BatchPolicy(max_delay_ms=1000, max_batch=64))
    for _ in range(12):
        b.observe(b.target, 0.001)
    assert b.target == 64


def test_batcher_shrinks_when_service_eats_budget():
    # measured rate of 1000 q/s: a 64-batch costs 64 ms, far beyond
    # SERVICE_FRACTION * 20 ms — the target must come down
    b = QueryBatcher(BatchPolicy(max_delay_ms=20, max_batch=64))
    for _ in range(12):
        b.observe(b.target, b.target / 1000.0)
    assert b.service_estimate(b.target) <= 0.5 * 0.020 + 1e-9


def test_batcher_take_caps_at_max_batch():
    b = QueryBatcher(BatchPolicy(max_delay_ms=10, max_batch=8))
    for _ in range(8):  # climb the ladder to the max_batch target
        b.observe(b.target, 0.001)
    assert b.target == 8
    for i in range(20):
        b.add(i, now=0.0)
    assert len(b.take(1.0)) == 8
    assert b.pending == 12


def test_batcher_take_respects_adaptive_target():
    # take() must pop the controller's target, not policy.max_batch: a
    # deep queue right after an SLO backoff is exactly the overload
    # regime where dispatching max_batch anyway would bypass the ladder
    b = QueryBatcher(BatchPolicy(max_delay_ms=1000, max_batch=64))
    for _ in range(12):
        b.observe(b.target, 0.001)
    assert b.target == 64
    b.backoff()
    assert b.target == 32
    for i in range(64):
        b.add(i, now=0.0)
    items = b.take(0.0)
    assert len(items) == 32  # not 64
    assert b.pending == 32
    assert b.n_deadline_flushes == 0  # a full target batch is not a flush


def test_batcher_final_drain_is_ready():
    b = QueryBatcher(BatchPolicy(max_delay_ms=1000, min_batch=4, max_batch=64))
    b.add("q", now=0.0)
    assert not b.ready(0.0, more_coming=True)
    assert b.ready(0.0, more_coming=False)


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_delay_ms=0)
    with pytest.raises(ValueError):
        BatchPolicy(min_batch=8, max_batch=4)
    assert BatchPolicy(min_batch=3, max_batch=20).ladder() == [3, 6, 12, 20]
    # the controller's tuning is fixed: the batcher module's constants
    with pytest.raises(TypeError):
        BatchPolicy(ewma=0.5)


# --------------------------------------------------------------- determinism


@pytest.mark.parametrize("make_index", [ExactRBC, OneShotRBC])
def test_stream_bit_identical_to_per_query(rng, make_index):
    X = rng.normal(size=(1500, 12))
    Q = rng.normal(size=(96, 12))
    index = make_index(seed=0).build(X)

    with StreamingSearcher(
        index, k=4, policy=BatchPolicy(max_batch=1, max_delay_ms=100)
    ) as one:
        per_call = one.search_stream(Q, qps=5000.0)
    with StreamingSearcher(
        index, k=4, policy=BatchPolicy(max_batch=64, max_delay_ms=100)
    ) as many:
        batched = many.search_stream(Q, qps=5000.0)

    assert batched.mean_batch > 1  # the comparison exercised real batching
    # bit-identical float64 distances and ids, not merely allclose
    np.testing.assert_array_equal(per_call.dist, batched.dist)
    np.testing.assert_array_equal(per_call.idx, batched.idx)


def test_stream_rule_counts_batching_invariant(served_index):
    index, Q = served_index
    with StreamingSearcher(
        index, k=3, policy=BatchPolicy(max_batch=1, max_delay_ms=50)
    ) as one:
        per_call = one.search_stream(Q, qps=4000.0)
    with StreamingSearcher(
        index, k=3, policy=BatchPolicy(max_batch=32, max_delay_ms=50)
    ) as many:
        batched = many.search_stream(Q, qps=4000.0)
    assert per_call.rule_counts == batched.rule_counts
    assert per_call.rule_counts["n_queries"] == Q.shape[0]


def test_stream_matches_direct_query_answers(served_index):
    index, Q = served_index
    dist, idx = index.query(Q, k=3)
    report = streamed_query(index, Q, k=3, qps=3000.0)
    np.testing.assert_array_equal(report.idx, idx)
    np.testing.assert_allclose(report.dist, dist, rtol=0, atol=1e-9)


def test_stream_works_without_rescore_hooks(rng):
    # an index outside the RBC family (no warm(), no _base_ctx surprises)
    X = rng.normal(size=(300, 6))
    Q = rng.normal(size=(20, 6))
    index = BruteForceIndex().build(X)
    report = streamed_query(index, Q, k=2, qps=1000.0)
    dist, idx = index.query(Q, k=2)
    np.testing.assert_array_equal(report.idx, idx)


# ------------------------------------------------------------------- latency


def test_stream_latency_capped_under_bursty_trace(served_index):
    index, Q = served_index
    budget_ms = 200.0
    # bursty: half the queries land in one instant, the rest trickle
    m = Q.shape[0]
    arrivals = np.concatenate(
        [np.zeros(m // 2), 0.05 + np.arange(m - m // 2) * 0.002]
    )
    with StreamingSearcher(
        index, k=2, policy=BatchPolicy(max_delay_ms=budget_ms, max_batch=64)
    ) as server:
        report = server.search_stream(Q, arrival_times=arrivals)
    assert isinstance(report, StreamReport)
    assert report.latency.n == m
    assert report.latency.p99_s * 1e3 < budget_ms
    # waits are part of sojourn, so wait <= latency everywhere
    assert report.wait.max_s <= report.latency.max_s + 1e-12


class _SyntheticServer(StreamingSearcher):
    """A server whose batch costs 20 ms + 0.5 ms per query on the virtual
    clock, so throughput under overload carries no wall-clock noise."""

    def _timed_dispatch(self, Qb, width=None):
        m = Qb.shape[0]
        k = self.k if width is None else int(width)
        return (
            np.zeros((m, k)),
            np.zeros((m, k), dtype=np.int64),
            0.020 + 0.0005 * m,
        )


def test_stream_overload_keeps_batching(rng):
    # batches of 64 serve ~1,200 q/s, one query at a time ~50 q/s: a
    # replay that flushes each late arrival alone collapses to batch 1
    # once the oldest deadline has passed and never recovers
    index = BruteForceIndex().build(rng.normal(size=(50, 4)))
    served = {}
    for qps in (600.0, 1200.0):
        Q = rng.normal(size=(int(2 * qps), 4))
        with _SyntheticServer(
            index, k=2, policy=BatchPolicy(max_delay_ms=100, max_batch=64)
        ) as server:
            report = server.search_stream(Q, qps=qps)
        assert report.mean_batch >= 8, (qps, report.mean_batch)
        served[qps] = report.throughput_qps
    assert served[1200.0] >= served[600.0]


def test_stream_report_observables(served_index):
    index, Q = served_index
    report = streamed_query(
        index, Q, k=2, qps=2000.0, policy=BatchPolicy(max_batch=32)
    )
    assert report.n_queries == Q.shape[0]
    assert report.throughput_qps > 0
    assert report.n_batches >= 1
    assert report.max_batch <= 32
    assert report.evals > 0  # counter window captured the stream's work
    d = report.to_dict()
    assert d["latency"]["p99_s"] >= d["latency"]["p50_s"]
    assert "q/s" in report.summary()


def test_stream_input_validation(served_index):
    index, Q = served_index
    with StreamingSearcher(index, k=1) as server:
        with pytest.raises(ValueError, match="exactly one"):
            server.search_stream(Q)
        with pytest.raises(ValueError, match="exactly one"):
            server.search_stream(Q, qps=10.0, arrival_times=np.zeros(len(Q)))
        with pytest.raises(ValueError, match="nondecreasing"):
            server.search_stream(Q[:2], arrival_times=np.array([1.0, 0.5]))
    with pytest.raises(RuntimeError, match="closed"):
        server.search_stream(Q, qps=10.0)


# ----------------------------------------------------------------- live API


def test_submit_poll_drain(served_index):
    index, Q = served_index
    dist, idx = index.query(Q[:10], k=2)
    with StreamingSearcher(
        index, k=2, policy=BatchPolicy(max_batch=4, max_delay_ms=1000)
    ) as server:
        tickets = [server.submit(q) for q in Q[:10]]
        answers = server.drain()
    assert sorted(answers) == tickets
    for row, ticket in enumerate(tickets):
        d, i = answers[ticket]
        np.testing.assert_array_equal(i, idx[row])
        np.testing.assert_allclose(d, dist[row], rtol=0, atol=1e-9)


def test_submit_rejects_batches(served_index):
    index, Q = served_index
    with StreamingSearcher(index, k=1) as server:
        with pytest.raises(ValueError, match="one query"):
            server.submit(Q[:3])


def test_tick_serves_lone_query_after_budget(served_index):
    # live-path starvation pin: submit() alone only evaluates the
    # deadline at submission time, so with no further arrivals a lone
    # query below the target would wait forever; tick() must flush it
    # once its latency budget has elapsed
    index, Q = served_index
    policy = BatchPolicy(min_batch=4, max_batch=4, max_delay_ms=50)
    with StreamingSearcher(index, k=2, policy=policy) as server:
        ticket = server.submit(Q[0], now=0.0)
        assert server.poll(ticket, now=0.0) is None  # not due yet
        assert server.tick(now=0.010) == 0  # budget not yet elapsed
        deadline = server.next_deadline()
        assert deadline is not None and deadline <= 0.050
        assert server.tick(now=deadline) == 1
        d, i = server.poll(ticket)
        dist, idx = index.query(Q[:1], k=2)
        np.testing.assert_array_equal(i, idx[0])


def test_poll_flushes_past_deadline(served_index):
    # a submit-then-poll-only caller must not starve the last batch:
    # poll() checks the deadline rule itself
    index, Q = served_index
    policy = BatchPolicy(min_batch=4, max_batch=4, max_delay_ms=50)
    with StreamingSearcher(index, k=2, policy=policy) as server:
        ticket = server.submit(Q[0], now=0.0)
        assert server.poll(ticket, now=0.001) is None
        answer = server.poll(ticket, now=server.next_deadline())
        assert answer is not None


# ------------------------------------------------------- residency hygiene


def _segments_all_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_close_releases_shared_segments(rng):
    X = rng.normal(size=(400, 8))
    Q = rng.normal(size=(8, 8))
    index = ExactRBC(seed=0).build(X)
    ctx = ExecContext(executor="processes", n_workers=2)
    server = StreamingSearcher(index, k=2, ctx=ctx)
    try:
        assert server.residency.active
        names = server.residency.segment_names()
        assert names  # database and representative block are pinned
        report = server.search_stream(Q, qps=500.0)
        assert report.n_queries == 8
    finally:
        server.close()
    assert server.residency.segment_names() == []
    _segments_all_unlinked(names)
    server.close()  # idempotent


def test_midstream_exception_releases_segments(rng):
    X = rng.normal(size=(300, 6))
    index = ExactRBC(seed=0).build(X)
    ctx = ExecContext(executor="processes", n_workers=2)
    names = []
    with pytest.raises(ValueError, match="nondecreasing"):
        with StreamingSearcher(index, k=1, ctx=ctx) as server:
            names = server.residency.segment_names()
            assert names
            # a malformed trace aborts the stream mid-setup
            server.search_stream(
                np.zeros((2, 6)), arrival_times=np.array([1.0, 0.0])
            )
    _segments_all_unlinked(names)


def test_thread_backend_sessions_pin_nothing(served_index):
    index, Q = served_index
    with StreamingSearcher(
        index, k=1, ctx=ExecContext(executor="threads", n_workers=2)
    ) as server:
        assert not server.residency.active
        server.search_stream(Q[:16], qps=1000.0)


def test_residency_release_is_idempotent(rng):
    X = rng.normal(size=(200, 5))
    index = ExactRBC(seed=0).build(X)
    res = DatasetResidency(index, ExecContext(executor="processes"))
    assert res.active
    assert res.release() >= 1
    assert res.release() == 0

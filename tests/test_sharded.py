"""Sharded streaming serving: bit-identity, hedging, observability."""

import numpy as np
import pytest

from repro import (
    BatchPolicy,
    ExactRBC,
    MetricsRegistry,
    OneShotRBC,
    ShardedStreamingSearcher,
    StreamingSearcher,
)
from repro.distributed import ClusterSpec
from repro.runtime import StreamReport
from repro.serving.sharded import _hedge_cutoff
from repro.simulator import DESKTOP_QUAD


@pytest.fixture
def served_index(rng):
    X = rng.normal(size=(2500, 10))
    Q = rng.normal(size=(120, 10))
    return ExactRBC(seed=0).build(X), Q


POLICY = BatchPolicy(max_delay_ms=50.0, max_batch=32)


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize(
    "n_shards, copies",
    [
        pytest.param(1, 1, id="1"),
        pytest.param(2, 1, id="2"),
        pytest.param(4, 1, id="4"),
        pytest.param(1, 3, id="1-duplicates"),
        pytest.param(2, 3, id="2-duplicates"),
        pytest.param(4, 4, id="4-duplicates"),
    ],
)
def test_sharded_bit_identical_to_single_node(served_index, n_shards, copies):
    index, Q = served_index
    if copies > 1:
        # repeated rows tie exactly: every scan's bounded pool and the
        # merge must keep the single-node tie order.  The queries are data
        # points and k <= copies, so gamma' is 0
        X = np.repeat(index.X[: len(index.X) // copies], copies, axis=0)
        index = ExactRBC(seed=0).build(X)
        Q = X[:: len(X) // len(Q)]
    with StreamingSearcher(index, k=3, policy=POLICY) as base:
        want = base.search_stream(Q, qps=3000.0)
    with ShardedStreamingSearcher(
        index, k=3, policy=POLICY, n_shards=n_shards
    ) as srv:
        got = srv.search_stream(Q, qps=3000.0)
    np.testing.assert_array_equal(got.idx, want.idx)
    assert (got.dist == want.dist).all()  # bit-identical, not just close
    # the shards run the single-node pruning and scan, so EXPLAIN's rule
    # attribution matches too
    assert got.rule_counts == want.rule_counts
    assert got.n_shards == n_shards


def test_random_partition_bit_identical(served_index):
    index, Q = served_index
    with StreamingSearcher(index, k=2, policy=POLICY) as base:
        want = base.search_stream(Q, qps=3000.0)
    with ShardedStreamingSearcher(
        index, k=2, policy=POLICY, n_shards=3, partition="random"
    ) as srv:
        got = srv.search_stream(Q, qps=3000.0)
    np.testing.assert_array_equal(got.idx, want.idx)
    assert (got.dist == want.dist).all()
    assert got.rule_counts == want.rule_counts


def test_sharded_k_exceeds_rep_count(rng):
    # k > n_reps disables pruning (gamma = inf); answers stay exact
    X = rng.normal(size=(400, 6))
    Q = rng.normal(size=(30, 6))
    index = ExactRBC(seed=0).build(X, n_reps=4)
    with StreamingSearcher(index, k=9, policy=POLICY) as base:
        want = base.search_stream(Q, qps=3000.0)
    with ShardedStreamingSearcher(
        index, k=9, policy=POLICY, n_shards=2
    ) as srv:
        got = srv.search_stream(Q, qps=3000.0)
    np.testing.assert_array_equal(got.idx, want.idx)
    assert (got.dist == want.dist).all()


def test_more_shards_than_reps(rng):
    # shards can outnumber representatives: some shards host none, are
    # never contacted, and report zero load
    X = rng.normal(size=(300, 5))
    Q = rng.normal(size=(20, 5))
    index = ExactRBC(seed=0).build(X, n_reps=3)
    with ShardedStreamingSearcher(
        index, k=2, policy=POLICY, n_shards=6
    ) as srv:
        report = srv.search_stream(Q, qps=3000.0)
    empties = [row for row in report.per_shard if row["n_reps"] == 0]
    assert empties
    for row in empties:
        assert row["tasks"] == 0 and row["bytes_to"] == 0.0
    dist, idx = index.query(Q, k=2)
    np.testing.assert_array_equal(report.idx, idx)


def test_live_submit_path_is_sharded_too(served_index):
    index, Q = served_index
    dist, idx = index.query(Q[:6], k=2)
    with ShardedStreamingSearcher(
        index, k=2, policy=BatchPolicy(max_batch=2, max_delay_ms=1000),
        n_shards=3,
    ) as srv:
        tickets = [srv.submit(q) for q in Q[:6]]
        answers = srv.drain()
    for row, t in enumerate(tickets):
        np.testing.assert_array_equal(answers[t][1], idx[row])
    assert srv.rounds > 0


# --------------------------------------------------------------- stragglers
def _stream(index, Q, **kw):
    policy = BatchPolicy(max_delay_ms=100.0, min_batch=4, max_batch=4)
    with ShardedStreamingSearcher(
        index, k=3, policy=policy, n_shards=4, **kw
    ) as srv:
        return srv.search_stream(Q, qps=100.0)


def test_hedging_tames_slow_shard_p99(served_index):
    index, Q = served_index
    budget_s = 0.100
    slow = {1: 0.200}  # shard 1's primary takes 200 ms > the budget
    unhedged = _stream(index, Q, replicas=2, hedge=False, shard_delays=slow)
    hedged = _stream(index, Q, replicas=2, hedge=True, shard_delays=slow)
    # without hedging the straggler dictates every batch and the queue
    # backs up past the budget; hedged requests re-issue its tasks to the
    # replica after the cutoff and p99 stays within budget
    assert unhedged.latency.p99_s > budget_s
    assert hedged.latency.p99_s <= budget_s
    assert hedged.hedges > 0
    assert hedged.rounds > hedged.n_batches  # hedge waves are extra rounds
    assert hedged.per_shard[1]["hedges"] == hedged.hedges
    # answers are unaffected by hedging
    np.testing.assert_array_equal(hedged.idx, unhedged.idx)


def test_dead_shard_needs_replicas(served_index):
    index, Q = served_index
    dead = {2: float("inf")}
    with pytest.raises(RuntimeError, match="shard 2"):
        _stream(index, Q, replicas=1, shard_delays=dead)
    report = _stream(index, Q, replicas=2, hedge=True, shard_delays=dead)
    dist, idx = index.query(Q, k=3)
    np.testing.assert_array_equal(report.idx, idx)
    assert report.hedges >= report.per_shard[2]["tasks"] > 0


def test_dead_replica_delay_addressing(served_index):
    index, Q = served_index
    # (w, r) addresses a specific replica: primary fine, replica dead —
    # nothing should hedge onto it unless the primary stalls
    report = _stream(
        index,
        Q,
        replicas=2,
        hedge=True,
        shard_delays={(0, 1): float("inf")},
    )
    dist, idx = index.query(Q, k=3)
    np.testing.assert_array_equal(report.idx, idx)


def test_hedge_cutoff():
    # cold start: a quarter of the latency budget bounds the cutoff
    assert _hedge_cutoff([0.001] * 15, 0.1) == pytest.approx(0.025)
    # warmed up: twice the latency quantile can only tighten it
    assert _hedge_cutoff([0.001] * 16, 0.1) == pytest.approx(0.002)
    assert _hedge_cutoff([0.1] * 16, 0.1) == pytest.approx(0.025)


# ------------------------------------------------------------ observability
def test_stream_report_shard_observables(served_index):
    index, Q = served_index
    cluster = ClusterSpec.homogeneous(4, DESKTOP_QUAD)
    with ShardedStreamingSearcher(
        index, k=3, policy=POLICY, n_shards=4, cluster=cluster
    ) as srv:
        report = srv.search_stream(Q, qps=3000.0)
    assert report.n_shards == 4
    assert report.rounds >= report.n_batches
    assert len(report.per_shard) == 4
    assert sum(r["queries"] for r in report.per_shard) >= report.n_queries
    active = [r for r in report.per_shard if r["tasks"]]
    assert active
    for row in active:
        assert row["evals"] > 0 and row["bytes_to"] > 0 and row["busy_s"] > 0
    assert "shards: 4" in report.summary()
    # the new fields survive the JSON round trip
    back = StreamReport.from_dict(report.to_dict())
    assert back.n_shards == 4
    assert back.rounds == report.rounds
    assert back.per_shard == report.per_shard
    # a second stream reports its own diffs, not lifetime totals
    again = srv_report = None
    with ShardedStreamingSearcher(
        index, k=3, policy=POLICY, n_shards=4
    ) as srv:
        srv_report = srv.search_stream(Q[:40], qps=3000.0)
        again = srv.search_stream(Q[:40], qps=3000.0)
    assert again.rounds == pytest.approx(srv_report.rounds, abs=2)


def test_per_shard_metrics_instruments(served_index):
    index, Q = served_index
    registry = MetricsRegistry()
    with ShardedStreamingSearcher(
        index, k=2, policy=POLICY, n_shards=2, metrics=registry
    ) as srv:
        srv.search_stream(Q, qps=3000.0)
    tasks = registry.get("repro_shard_tasks_total")
    total = sum(tasks.collect().values())
    assert total > 0
    assert sum(registry.get("repro_scatter_rounds_total").collect().values()) > 0
    busy = registry.get("repro_shard_busy_seconds").collect()
    assert any(v > 0 for v in busy.values())


def test_comm_accounting_accumulates(served_index):
    index, Q = served_index
    cluster = ClusterSpec.homogeneous(2, DESKTOP_QUAD)
    with ShardedStreamingSearcher(
        index, k=2, policy=POLICY, n_shards=2, cluster=cluster
    ) as srv:
        srv.search_stream(Q, qps=3000.0)
        comm_after_one = srv.comm.total_bytes
        assert comm_after_one > 0
        assert srv.comm.messages > 0
        srv.search_stream(Q, qps=3000.0)
        assert srv.comm.total_bytes > comm_after_one


# --------------------------------------------------------------- validation
def test_sharded_validation(served_index, rng):
    index, _ = served_index
    with pytest.raises(ValueError, match="n_shards"):
        ShardedStreamingSearcher(index, n_shards=0)
    with pytest.raises(ValueError, match="replicas"):
        ShardedStreamingSearcher(index, n_shards=2, replicas=0)
    with pytest.raises(ValueError, match="nodes"):
        ShardedStreamingSearcher(
            index,
            n_shards=2,
            cluster=ClusterSpec.homogeneous(3, DESKTOP_QUAD),
        )
    with pytest.raises(ValueError, match="partition"):
        ShardedStreamingSearcher(index, n_shards=2, partition="hash")
    X = rng.normal(size=(400, 6))
    oneshot = OneShotRBC(seed=0).build(X, n_reps=20, s=40)
    with pytest.raises(ValueError, match="disjoint"):
        ShardedStreamingSearcher(oneshot, n_shards=2)

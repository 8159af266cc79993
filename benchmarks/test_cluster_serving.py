"""Sharded streaming serving — scatter/gather scaling and hedged tails.

The acceptance experiment of the distributed x serving fusion: the same
d=16 / n=20k Gaussian streaming trace as ``test_serving.py`` is answered
by ``ShardedStreamingSearcher`` over 1, 2 and 4 simulated node shards
(representative partitioning, alpha-beta network model).  Two claims:

* **scaling** — under a saturating offered load, modeled throughput
  grows with the shard count: each scatter wave runs the per-shard scans
  concurrently, so batch service tracks the *slowest shard*, not the sum;
* **hedged tails** — with one straggler shard (injected 200 ms delay),
  hedged requests to a replica keep p99 sojourn within the latency
  budget while the unhedged server blows through it.

Answers must stay bit-identical to the single-node ``StreamingSearcher``
at every shard count.  Results go to ``BENCH_cluster.json`` at the repo
root (tracked by ``check_regression.py`` and uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
from conftest import bench_once, host_stamp

from repro.core import ExactRBC
from repro.distributed import ClusterSpec
from repro.eval import format_table
from repro.serving import BatchPolicy, ShardedStreamingSearcher
from repro.serving.searcher import StreamingSearcher
from repro.simulator import DESKTOP_QUAD

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_cluster.json"

#: same acceptance config as the serving benchmark, saturating load
N, M, DIM, K = 20_000, 384, 16, 5
QPS_SATURATE = 50_000.0
MAX_DELAY_MS = 100.0
MAX_BATCH = 64
SHARD_COUNTS = (1, 2, 4)
SCALING_BAR = 1.3  # 4 shards must beat 1 shard by this factor

#: hedging scenario: moderate load, one shard 200 ms slow, 2 replicas
QPS_HEDGE = 100.0
SLOW_SHARD_DELAY_S = 0.200


def test_cluster_serving(rng, report, benchmark, out_dir):
    X = rng.normal(size=(N, DIM))
    Q = rng.normal(size=(M, DIM))
    index = ExactRBC(seed=0).build(X)
    policy = BatchPolicy(max_delay_ms=MAX_DELAY_MS, max_batch=MAX_BATCH)

    def run_shards(n_shards):
        cluster = ClusterSpec.homogeneous(n_shards, DESKTOP_QUAD)
        with ShardedStreamingSearcher(
            index, k=K, policy=policy, n_shards=n_shards, cluster=cluster
        ) as srv:
            return srv.search_stream(Q, qps=QPS_SATURATE, name=f"{n_shards}-shard")

    def run_hedge(hedge):
        with ShardedStreamingSearcher(
            index,
            k=K,
            policy=BatchPolicy(max_delay_ms=MAX_DELAY_MS, min_batch=4, max_batch=4),
            n_shards=4,
            replicas=2,
            hedge=hedge,
            shard_delays={1: SLOW_SHARD_DELAY_S},
        ) as srv:
            return srv.search_stream(Q, qps=QPS_HEDGE)

    def experiment():
        with StreamingSearcher(index, k=K, policy=policy) as base:
            want = base.search_stream(Q, qps=QPS_SATURATE, name="single-node")
        reports = [run_shards(s) for s in SHARD_COUNTS]
        return want, reports, run_hedge(False), run_hedge(True)

    want, reports, unhedged, hedged = bench_once(benchmark, experiment)

    # ---- correctness: sharding must be invisible in the answers
    for r in reports:
        assert np.array_equal(want.dist, r.dist), f"{r.name}: dists differ"
        assert np.array_equal(want.idx, r.idx), f"{r.name}: ids differ"

    base_qps = reports[0].throughput_qps
    rows = [
        [
            r.n_shards,
            r.throughput_qps,
            r.throughput_qps / base_qps,
            r.latency.p99_s * 1e3,
            r.rounds,
            r.hedges,
        ]
        for r in reports
    ]
    scaling = reports[-1].throughput_qps / base_qps
    report(
        "cluster_serving",
        format_table(
            ["shards", "q/s", "speedup", "p99 ms", "rounds", "hedges"],
            rows,
            title=(
                f"Sharded serving (n={N}, d={DIM}, m={M} @ saturating load, "
                f"k={K}) — 4-shard scaling {scaling:.2f}x; straggler p99 "
                f"{unhedged.latency.p99_s * 1e3:.0f} ms unhedged vs "
                f"{hedged.latency.p99_s * 1e3:.0f} ms hedged "
                f"({hedged.hedges} hedges)"
            ),
        ),
    )

    payload = {
        "host": host_stamp(),
        "config": {
            "n": N,
            "dim": DIM,
            "queries": M,
            "k": K,
            "qps_offered": QPS_SATURATE,
            "max_delay_ms": MAX_DELAY_MS,
            "max_batch": MAX_BATCH,
            "slow_shard_delay_s": SLOW_SHARD_DELAY_S,
            "qps_hedge": QPS_HEDGE,
        },
        "identical": True,
        "scaling": scaling,
        "nodes": [
            {
                "n_shards": r.n_shards,
                "throughput_qps": r.throughput_qps,
                "speedup": r.throughput_qps / base_qps,
                "p99_ms": r.latency.p99_s * 1e3,
                "rounds": r.rounds,
                "hedges": r.hedges,
            }
            for r in reports
        ],
        "hedging": {
            "unhedged_p99_ms": unhedged.latency.p99_s * 1e3,
            "hedged_p99_ms": hedged.latency.p99_s * 1e3,
            "hedges": hedged.hedges,
            "budget_ms": MAX_DELAY_MS,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # ---- acceptance bars
    assert scaling >= SCALING_BAR, (
        f"4-shard throughput {reports[-1].throughput_qps:.0f} q/s is only "
        f"{scaling:.2f}x the 1-shard {base_qps:.0f} q/s; need >= "
        f"{SCALING_BAR}x"
    )
    assert (
        reports[0].throughput_qps
        <= reports[1].throughput_qps
        <= reports[2].throughput_qps
    ), "throughput must be monotone in shard count"
    budget_s = MAX_DELAY_MS / 1e3
    assert unhedged.latency.p99_s > budget_s, (
        "straggler scenario is miscalibrated: even unhedged stays in budget"
    )
    assert hedged.latency.p99_s <= budget_s, (
        f"hedged p99 {hedged.latency.p99_s * 1e3:.1f} ms exceeds the "
        f"{MAX_DELAY_MS:g} ms budget despite {hedged.hedges} hedges"
    )
    assert hedged.hedges > 0

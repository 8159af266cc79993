"""Distributed RBC and the distributed brute-force baseline."""

import numpy as np
import pytest

from repro import ExactRBC
from repro.distributed import (
    ClusterSpec,
    DistributedBruteForce,
    DistributedRBC,
    NetworkSpec,
    partition_by_representatives,
    partition_random,
)
from repro.eval import results_match_exactly
from repro.parallel import bf_knn
from repro.simulator import DESKTOP_QUAD, TESLA_C2050


@pytest.fixture
def cluster():
    return ClusterSpec.homogeneous(4, DESKTOP_QUAD)


# ------------------------------------------------------------- cluster model
def test_network_message_time():
    net = NetworkSpec(latency_us=10.0, bandwidth_gbs=1.0)
    assert net.message_time(0) == pytest.approx(10e-6)
    assert net.message_time(1e9) == pytest.approx(1.0 + 10e-6)


def test_network_validation():
    with pytest.raises(ValueError):
        NetworkSpec(latency_us=-1)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth_gbs=0)


def test_cluster_construction():
    c = ClusterSpec.homogeneous(3, DESKTOP_QUAD)
    assert c.n_nodes == 3
    assert c.coordinator_spec is DESKTOP_QUAD
    with pytest.raises(ValueError):
        ClusterSpec.homogeneous(0, DESKTOP_QUAD)
    with pytest.raises(ValueError):
        ClusterSpec(nodes=())


def test_comm_phase_overlaps_links():
    c = ClusterSpec.homogeneous(
        4, DESKTOP_QUAD, network=NetworkSpec(latency_us=10, bandwidth_gbs=1.0,
                                             per_message_overhead_us=0.0)
    )
    # four equal messages on four links: time of one, not four
    t = c.comm_phase_time([1e6] * 4)
    assert t == pytest.approx(c.network.message_time(1e6))
    # empty phase is free
    assert c.comm_phase_time([0.0] * 4) == 0.0
    with pytest.raises(ValueError):
        c.comm_phase_time([1.0])


# ------------------------------------------------------------- partitioning
def test_partition_by_reps_balances():
    sizes = [100, 90, 10, 10, 10, 10, 10, 10]
    parts = partition_by_representatives(sizes, 2)
    loads = [sum(sizes[j] for j in p) for p in parts]
    assert abs(loads[0] - loads[1]) <= 70  # LPT keeps the giants apart
    assert sorted(j for p in parts for j in p) == list(range(8))


def test_partition_random_covers_everything(rng):
    parts = partition_random(100, 3, rng)
    allv = np.concatenate(parts)
    assert np.array_equal(np.sort(allv), np.arange(100))


def test_partition_validation(rng):
    with pytest.raises(ValueError):
        partition_by_representatives([1, 2], 0)
    with pytest.raises(ValueError):
        partition_random(10, 0, rng)


# ------------------------------------------------------------- engines
@pytest.mark.parametrize("k", [1, 3])
def test_distributed_rbc_exact(k, cluster, clustered):
    X, Q = clustered
    true_d, _ = bf_knn(Q, X, k=k)
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=150)
    d, i = eng.query(Q, k=k)
    assert results_match_exactly(d, true_d)


@pytest.mark.parametrize("k", [1, 3])
def test_distributed_brute_exact(k, cluster, clustered):
    X, Q = clustered
    true_d, _ = bf_knn(Q, X, k=k)
    eng = DistributedBruteForce(cluster, seed=0).build(X)
    d, i = eng.query(Q, k=k)
    assert results_match_exactly(d, true_d)


def test_rbc_sharding_covers_database(cluster, clustered):
    X, _ = clustered
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=100)
    assert sum(eng.points_per_node()) == X.shape[0]
    # LPT balance: no node more than 2x the mean
    ppn = eng.points_per_node()
    assert max(ppn) < 2.0 * np.mean(ppn)


def test_rbc_sends_less_than_broadcast(cluster, clustered):
    X, Q = clustered
    rbc = DistributedRBC(cluster, seed=0).build(X, n_reps=150)
    rbc.query(Q, k=1)
    bf = DistributedBruteForce(cluster, seed=0).build(X)
    bf.query(Q, k=1)
    # representative routing touches a subset of nodes per query, so both
    # directions of traffic shrink vs broadcast-everything
    assert sum(rbc.last_report.comm.bytes_from_nodes) <= sum(
        bf.last_report.comm.bytes_from_nodes
    )
    assert rbc.last_report.comm.messages <= len(Q) * cluster.n_nodes


def test_rbc_does_less_work(cluster, clustered):
    X, Q = clustered
    rbc = DistributedRBC(cluster, seed=0).build(X, n_reps=200)
    rbc.query(Q, k=1)
    bf = DistributedBruteForce(cluster, seed=0).build(X)
    bf.query(Q, k=1)
    assert sum(rbc.last_report.node_evals) < 0.8 * sum(
        bf.last_report.node_evals
    )


def test_report_accounting(cluster, clustered):
    X, Q = clustered
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=100)
    eng.query(Q, k=2)
    r = eng.last_report
    assert r.n_queries == len(Q)
    assert len(r.node_evals) == cluster.n_nodes
    assert r.total_s == pytest.approx(
        r.coordinator_s + r.scatter_s + r.compute_s + r.gather_s + r.merge_s
    )
    assert 0.0 <= r.comm_fraction <= 1.0
    assert 0.0 < r.balance <= 1.0
    assert r.comm.total_bytes > 0


def test_gpu_nodes_supported(clustered):
    # the paper's multi-GPU scenario: every node a Tesla c2050
    X, Q = clustered
    cluster = ClusterSpec.homogeneous(4, TESLA_C2050)
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=150)
    d, _ = eng.query(Q, k=1)
    true_d, _ = bf_knn(Q, X, k=1)
    assert results_match_exactly(d, true_d)


def test_single_node_cluster_works(clustered):
    X, Q = clustered
    cluster = ClusterSpec.homogeneous(1, DESKTOP_QUAD)
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=100)
    d, _ = eng.query(Q, k=1)
    true_d, _ = bf_knn(Q, X, k=1)
    assert results_match_exactly(d, true_d)


def test_k_exceeds_shard_point_count(cluster, rng):
    # every shard holds far fewer points than k: each node's partial
    # top-k is partly padding, and the merge must still be exact
    X = rng.normal(size=(40, 5))
    Q = rng.normal(size=(10, 5))
    true_d, _ = bf_knn(Q, X, k=12)
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=6)
    d, i = eng.query(Q, k=12)
    assert results_match_exactly(d, true_d)
    bf = DistributedBruteForce(cluster, seed=0).build(X)
    d, i = bf.query(Q, k=12)
    assert results_match_exactly(d, true_d)


def test_k_exceeds_rep_count(cluster, rng):
    # k > n_reps: the kk-th rep distance does not bound the k-th
    # neighbor, so pruning must be disabled (gamma = inf), not unsound
    X = rng.normal(size=(300, 6))
    Q = rng.normal(size=(12, 6))
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=4)
    d, _ = eng.query(Q, k=9)
    true_d, _ = bf_knn(Q, X, k=9)
    assert results_match_exactly(d, true_d)


def test_node_with_zero_points(rng):
    # more nodes than points: some shards are empty, and an empty shard
    # must neither break correctness nor be charged communication
    X = rng.normal(size=(3, 4))
    Q = rng.normal(size=(5, 4))
    cluster = ClusterSpec.homogeneous(6, DESKTOP_QUAD)
    bf = DistributedBruteForce(cluster, seed=0).build(X)
    d, _ = bf.query(Q, k=2)
    true_d, _ = bf_knn(Q, X, k=2)
    assert results_match_exactly(d, true_d)
    comm = bf.last_report.comm
    for shard, to, frm in zip(
        bf.shards, comm.bytes_to_nodes, comm.bytes_from_nodes
    ):
        assert (shard.size > 0) == (to > 0) == (frm > 0)

    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=2)
    # at most 3 representatives exist: several nodes host none
    empty = sum(1 for reps in eng.node_reps if not reps)
    assert empty >= cluster.n_nodes - eng.index.n_reps >= 3
    d, _ = eng.query(Q, k=2)
    assert results_match_exactly(d, true_d)


def test_skewed_shards_charge_active_nodes_only(rng):
    # skewed random sharding (few points, several nodes): CommStats must
    # agree with the number of shards that actually ran a scan
    X = rng.normal(size=(7, 4))
    Q = rng.normal(size=(6, 4))
    cluster = ClusterSpec.homogeneous(5, DESKTOP_QUAD)
    bf = DistributedBruteForce(cluster, seed=3).build(X)
    bf.query(Q, k=1)
    comm = bf.last_report.comm
    n_active = sum(1 for s in bf.shards if s.size)
    assert n_active < cluster.n_nodes  # the seed leaves a shard empty
    assert comm.active_nodes == n_active
    assert comm.messages == 2 * n_active
    dim = X.shape[1]
    assert sum(comm.bytes_to_nodes) == pytest.approx(
        n_active * len(Q) * dim * 8.0
    )


@pytest.mark.parametrize("n_nodes", [1, 2, 4])
def test_single_node_parity_with_exact_rbc(clustered, n_nodes):
    # DistributedRBC runs ExactRBC's own pruning and scan steps, split by
    # node: same neighbor ids, same distances, for any node count
    X, Q = clustered
    cluster = ClusterSpec.homogeneous(n_nodes, DESKTOP_QUAD)
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=120)
    local = ExactRBC(seed=0).build(X, n_reps=120)
    dd, di = eng.query(Q, k=3)
    ld, li = local.query(Q, k=3)
    np.testing.assert_array_equal(di, li)
    np.testing.assert_array_equal(dd, ld)


@pytest.mark.parametrize("n_nodes", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 4])
def test_parity_on_duplicate_heavy_data(rng, n_nodes, k):
    # every row repeated: ties everywhere, and queries that coincide with
    # representatives put gamma at zero
    base = rng.normal(size=(300, 5))
    X = np.repeat(base, 3, axis=0)
    Q = np.concatenate([X[rng.choice(len(X), 30)], rng.normal(size=(10, 5))])
    cluster = ClusterSpec.homogeneous(n_nodes, DESKTOP_QUAD)
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=40)
    local = ExactRBC(seed=0).build(X, n_reps=40)
    dd, di = eng.query(Q, k=k)
    ld, _ = local.query(Q, k=k)
    true_d, _ = bf_knn(Q, X, k=k)
    assert results_match_exactly(dd, ld)
    # brute force blocks its GEMMs differently, so near-zero distances
    # may round apart by ~1e-8
    assert results_match_exactly(dd, true_d, atol=1e-7)
    assert (di >= 0).all()


def test_query_before_build(cluster):
    with pytest.raises(RuntimeError):
        DistributedRBC(cluster).query(np.zeros((1, 2)))
    with pytest.raises(RuntimeError):
        DistributedBruteForce(cluster).query(np.zeros((1, 2)))
    with pytest.raises(RuntimeError):
        DistributedRBC(cluster).points_per_node()


def test_build_comm_counted(cluster, clustered):
    X, _ = clustered
    eng = DistributedRBC(cluster, seed=0).build(X, n_reps=100)
    dim = X.shape[1]
    assert sum(eng.build_comm.bytes_to_nodes) == pytest.approx(
        X.shape[0] * dim * 8.0
    )


def test_more_nodes_reduce_compute_time(clustered):
    X, Q = clustered
    times = []
    for n_nodes in (2, 8):
        cluster = ClusterSpec.homogeneous(n_nodes, DESKTOP_QUAD)
        eng = DistributedRBC(cluster, seed=0).build(X, n_reps=150)
        eng.query(Q, k=1)
        times.append(eng.last_report.compute_s)
    assert times[1] < times[0]

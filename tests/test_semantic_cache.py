"""The proximity-keyed semantic cache: zero recall loss, by certificate.

The cache's one load-bearing promise is that a cache-served answer is
*indistinguishable* from an uncached one — same ids, same (rescored)
distances, bit-for-bit — because the triangle-inequality certificate
proves set equality before a hit is served.  Everything here hammers
that promise from different directions:

* a hypothesis property drives random databases (duplicates injected,
  ``d = 1``, ``k > n``) through a cached server and compares every
  answer to an uncached server's with ``==``;
* zero-radius keys (tied k-th/(k+1)-th distances) must serve only exact
  repeats and certified-reject everything else;
* an insert between a hit and a re-query must invalidate — the
  regression test for stale certified answers;
* the miss path must be a pure passthrough of the uncached answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExactRBC, OneShotRBC
from repro.obs import MetricsRegistry
from repro.obs.collectors import install_cache_collectors
from repro.runtime import StreamReport
from repro.serving import (
    BatchPolicy,
    CachePolicy,
    ProximityCache,
    ShardedStreamingSearcher,
    StreamingSearcher,
)


def _serve(index, T, *, k, cache=None, max_batch=16, qps=5000.0):
    with StreamingSearcher(
        index, k=k, policy=BatchPolicy(max_batch=max_batch), cache=cache
    ) as srv:
        report = srv.search_stream(T, qps=qps)
        return report, srv.cache


# ------------------------------------------------------------- gatekeeping


def test_policy_validation():
    with pytest.raises(ValueError):
        CachePolicy(max_entries=0)
    with pytest.raises(ValueError):
        CachePolicy(ttl_s=0.0)
    # the certificate's safety margin is a constant, and hits always rescore
    with pytest.raises(TypeError):
        CachePolicy(safety=1e-6)
    with pytest.raises(TypeError):
        CachePolicy(rescore=False)


def test_cache_requires_exact_index(rng):
    X = rng.normal(size=(300, 6))
    approx = OneShotRBC(seed=0).build(X)
    with pytest.raises(ValueError, match="exact"):
        ProximityCache(approx, 3)


def test_cache_requires_true_metric(rng):
    # sqeuclidean ranks like l2 but fails the triangle inequality, which
    # the certificate needs; brute force is the exact index that takes it
    from repro.baselines import BruteForceIndex

    X = rng.normal(size=(300, 6))
    idx = BruteForceIndex("sqeuclidean").build(X)
    with pytest.raises(ValueError, match="triangle"):
        ProximityCache(idx, 3)


def test_cache_requires_rescore():
    # an exact index over strings has no paired kernel to rescore with
    from repro.metrics import get_metric

    words = ["abc", "abd", "xyz", "xxy", "aac", "zzz", "abz", "qrs"]
    idx = ExactRBC(metric=get_metric("edit"), seed=0).build(words)
    with pytest.raises(ValueError, match="rescor"):
        StreamingSearcher(idx, k=2, cache=True)


def test_cache_rejects_mismatched_searcher(rng):
    X = rng.normal(size=(300, 6))
    idx = ExactRBC(seed=0).build(X)
    other = ExactRBC(seed=1).build(X)
    cache = ProximityCache(idx, 3)
    with pytest.raises(ValueError, match="different index or k"):
        StreamingSearcher(other, k=3, cache=cache)
    with pytest.raises(ValueError, match="different index or k"):
        StreamingSearcher(idx, k=2, cache=cache)


# --------------------------------------------------- the identity property


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 120),
    d=st.integers(1, 6),
    k=st.integers(1, 8),
    n_dups=st.integers(0, 6),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_cached_hits_bit_identical_to_uncached(n, d, k, n_dups, data_seed):
    """For any cached hit, the served row equals the uncached server's
    answer bit-for-bit — duplicates, d=1, and k > n included.  The trace
    replays each query twice plus jittered variants, so the second pass
    is guaranteed hit traffic (exact repeats always certify)."""
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, d))
    for t in range(n_dups):  # exact duplicate points: worst-case ties
        X[rng.integers(n)] = X[rng.integers(n)]
    idx = ExactRBC(seed=0).build(X, max(2, n // 8))

    base = rng.normal(size=(12, d))
    jit = base + rng.normal(scale=1e-9, size=base.shape)
    T = np.concatenate([base, base, jit])  # repeats + near-duplicates

    want, _ = _serve(ExactRBC(seed=0).build(X, max(2, n // 8)), T, k=k)
    got, cache = _serve(idx, T, k=k, cache=True)

    assert cache.counters.hits >= base.shape[0]  # second pass all hits
    np.testing.assert_array_equal(got.idx, want.idx)
    assert np.array_equal(got.dist, want.dist)
    assert got.cache_hits == cache.counters.hits
    assert got.cache_hit_rate == pytest.approx(
        got.cache_hits / (got.cache_hits + got.cache_misses)
    )


def test_duplicate_heavy_ties_stay_ordered(rng):
    # many duplicated points force distance ties in every answer; the
    # hit path's structural re-ranking must reproduce the kernel's order
    X = rng.normal(size=(400, 5))
    X[50:60] = X[7]
    X[200:204] = X[3]
    idx = ExactRBC(seed=0).build(X)
    q = X[7] + rng.normal(scale=1e-3, size=5)
    T = np.tile(q, (6, 1))
    want, _ = _serve(ExactRBC(seed=0).build(X), T, k=8)
    # first stream admits the key, the second is pure hit traffic
    # (queries inside one micro-batch cannot hit each other's entries)
    cache = ProximityCache(idx, 8)
    _serve(idx, T, k=8, cache=cache)
    got, _ = _serve(idx, T, k=8, cache=cache)
    assert cache.counters.hits >= 6
    np.testing.assert_array_equal(got.idx, want.idx)
    assert np.array_equal(got.dist, want.dist)


def test_k_exceeds_database(rng):
    X = rng.normal(size=(4, 3))
    idx = ExactRBC(seed=0).build(X, 2)
    T = np.tile(rng.normal(size=3), (5, 1))
    want, _ = _serve(ExactRBC(seed=0).build(X, 2), T, k=9)
    got, cache = _serve(idx, T, k=9, cache=True)
    assert cache.counters.hits >= 4  # radius inf: everything certifies
    np.testing.assert_array_equal(got.idx, want.idx)
    assert np.array_equal(got.dist, want.dist)
    assert np.all(got.idx[:, 4:] == -1)  # padding preserved


def test_zero_radius_keys_serve_only_exact_repeats(rng):
    # three copies of the nearest point with k=2: the 2nd and 3rd best
    # distances tie, so the certified radius collapses to zero — only a
    # byte-exact repeat may hit; anything jittered must certified-reject
    X = rng.normal(size=(200, 4))
    q = rng.normal(size=4)
    X[10] = X[11] = X[12] = q + 0.05
    idx = ExactRBC(seed=0).build(X)
    cache = ProximityCache(idx, 2)
    with StreamingSearcher(idx, k=2, cache=cache) as srv:
        srv.search_stream(np.array([q]), qps=100.0)  # miss, admitted
        assert cache._radius[0] == 0.0
        srv.search_stream(np.array([q]), qps=100.0)  # exact repeat
        assert cache.counters.hits == 1
        srv.search_stream(np.array([q + 1e-7]), qps=100.0)
        assert cache.counters.hits == 1  # jitter rejected despite closeness
        assert cache.counters.rejects >= 1


def test_miss_path_is_pure_passthrough(rng):
    # queries far apart: every lookup misses, and the answers must equal
    # the uncached server's exactly (the cache adds nothing but counters)
    X = rng.normal(size=(500, 8))
    T = rng.normal(size=(40, 8)) * 50.0  # spread out: no certifiable hits
    want, _ = _serve(ExactRBC(seed=0).build(X), T, k=3)
    got, cache = _serve(ExactRBC(seed=0).build(X), T, k=3, cache=True)
    assert cache.counters.hits == 0
    assert cache.counters.misses == 40
    np.testing.assert_array_equal(got.idx, want.idx)
    assert np.array_equal(got.dist, want.dist)


# ------------------------------------------------------------ invalidation


def test_insert_between_hit_and_requery_invalidates(rng):
    """The regression the version stamps exist for: admit, hit, mutate
    the index, re-query — the cache must drop its certificates and the
    answer must include the newly inserted point."""
    X = rng.normal(size=(600, 6))
    idx = ExactRBC(seed=0).build(X)
    q = rng.normal(size=6)
    cache = ProximityCache(idx, 3)
    with StreamingSearcher(idx, k=3, cache=cache) as srv:
        srv.search_stream(np.array([q]), qps=100.0)
        r_hit = srv.search_stream(np.array([q]), qps=100.0)
        assert cache.counters.hits == 1

        new_id = idx.insert(q)  # the new point is its own nearest neighbor
        r_after = srv.search_stream(np.array([q]), qps=100.0)

    assert cache.counters.invalidated >= 1
    assert r_after.idx[0, 0] == new_id
    assert new_id not in r_hit.idx[0]
    # and the post-insert answer matches a cold server's exactly
    fresh, _ = _serve(idx, np.array([q]), k=3)
    np.testing.assert_array_equal(r_after.idx, fresh.idx)
    assert np.array_equal(r_after.dist, fresh.dist)


def test_delete_invalidates_certificates(rng):
    X = rng.normal(size=(400, 5))
    idx = ExactRBC(seed=0).build(X)
    q = rng.normal(size=5)
    cache = ProximityCache(idx, 2)
    with StreamingSearcher(idx, k=2, cache=cache) as srv:
        first = srv.search_stream(np.array([q]), qps=100.0)
        victim = int(first.idx[0, 0])
        idx.delete(victim)
        after = srv.search_stream(np.array([q]), qps=100.0)
    assert victim not in after.idx[0]
    fresh, _ = _serve(idx, np.array([q]), k=2)
    np.testing.assert_array_equal(after.idx, fresh.idx)


def test_packed_lists_version_bumps():
    from repro.core.packed import PackedLists

    p = PackedLists([[0, 1], [2]], [[0.1, 0.2], [0.3]])
    assert p.version == 0
    p.insert(0, 1, 9, 0.15)
    assert p.version == 1
    p.delete_at(0, 1)
    assert p.version == 2
    p.replace(1, np.array([5]), np.array([0.4]))
    assert p.version == 3
    p.drop(1)
    assert p.version == 4


# --------------------------------------------------- policy: TTL, LRU, ...


def test_ttl_expiry_on_virtual_clock(rng):
    X = rng.normal(size=(300, 4))
    idx = ExactRBC(seed=0).build(X)
    cache = ProximityCache(idx, 2, policy=CachePolicy(ttl_s=0.5))
    q = rng.normal(size=4)
    cache_miss = cache.lookup(np.array([q]), now=0.0)
    assert not cache_miss[0].any()
    d, i = idx.query(np.array([q]), 3)
    cache.admit(np.array([q]), d, i, now=0.0)
    hit, _, _ = cache.lookup(np.array([q]), now=0.2)
    assert hit.all()
    hit, _, _ = cache.lookup(np.array([q]), now=1.0)  # past the TTL
    assert not hit.any()
    assert cache.counters.expired == 1
    assert len(cache) == 0


def test_lru_eviction_under_capacity_pressure(rng):
    X = rng.normal(size=(300, 4))
    idx = ExactRBC(seed=0).build(X)
    cache = ProximityCache(idx, 1, policy=CachePolicy(max_entries=4))
    Q = rng.normal(size=(10, 4)) * 10.0
    d, i = idx.query(Q, 2)
    for t in range(10):  # admit one at a time with advancing clocks
        cache.admit(Q[t : t + 1], d[t : t + 1], i[t : t + 1], now=float(t))
    assert len(cache) == 4
    assert cache.counters.evicted == 6
    # the survivors are the most recently admitted keys
    hit, _, _ = cache.lookup(Q[6:], now=20.0)
    assert hit.all()


def test_served_width_is_k_not_k_plus_one(rng):
    X = rng.normal(size=(200, 4))
    idx = ExactRBC(seed=0).build(X)
    report, _ = _serve(idx, rng.normal(size=(8, 4)), k=3, cache=True)
    assert report.dist.shape == (8, 3)
    assert report.idx.shape == (8, 3)


# ----------------------------------------------------- sharded integration


def test_sharded_searcher_with_cache(rng):
    X = rng.normal(size=(1500, 8))
    T = np.concatenate([rng.normal(size=(30, 8))] * 2)
    want, _ = _serve(ExactRBC(seed=0).build(X), T, k=4)
    idx = ExactRBC(seed=0).build(X)
    with ShardedStreamingSearcher(
        idx, k=4, n_shards=3, policy=BatchPolicy(max_batch=16), cache=True
    ) as srv:
        got = srv.search_stream(T, qps=5000.0)
        assert srv.cache.counters.hits >= 30
    np.testing.assert_array_equal(got.idx, want.idx)
    assert np.array_equal(got.dist, want.dist)
    assert got.n_shards == 3  # sharded fields still stamped
    assert got.cache_hits == srv.cache.counters.hits


# ------------------------------------------------- report + obs round-trip


def test_stream_report_roundtrips_cache_fields():
    rep = StreamReport(
        name="s",
        n_queries=10,
        cache_hits=6,
        cache_misses=4,
        cache_rejects=3,
        cache_hit_rate=0.6,
    )
    back = StreamReport.from_dict(rep.to_dict())
    assert back.cache_hits == 6
    assert back.cache_misses == 4
    assert back.cache_rejects == 3
    assert back.cache_hit_rate == pytest.approx(0.6)
    assert "semantic cache: 6 hits" in back.summary()


def test_stream_report_degrades_on_old_payloads():
    # payloads serialized before the cache fields existed load cleanly
    old = StreamReport(name="old", n_queries=5).to_dict()
    for key in ("cache_hits", "cache_misses", "cache_rejects",
                "cache_hit_rate"):
        old.pop(key)
    back = StreamReport.from_dict(old)
    assert back.cache_hits == 0 and back.cache_hit_rate == 0.0
    assert "semantic cache" not in back.summary()


def test_cache_collectors_expose_gauges(rng):
    X = rng.normal(size=(200, 4))
    idx = ExactRBC(seed=0).build(X)
    cache = ProximityCache(idx, 2)
    q = rng.normal(size=(1, 4))
    d, i = idx.query(q, 3)
    cache.admit(q, d, i, now=0.0)
    cache.lookup(q, now=0.0)
    reg = MetricsRegistry()
    install_cache_collectors(cache, reg)
    snap = reg.snapshot()
    flat = {name: entry for name, entry in snap.items()}
    assert flat["repro_semantic_cache_hits_total"]["values"][""] == 1
    assert flat["repro_semantic_cache_entries"]["values"][""] == 1
    assert flat["repro_semantic_cache_hit_rate"]["values"][""] == 1.0

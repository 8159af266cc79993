"""The SLO-driven query router: planning, degradation, and serving glue."""

import numpy as np
import pytest

from repro.core import OneShotRBC
from repro.index import RouteDecision, Router, UnsupportedCapability
from repro.obs import SLOMonitor
from repro.parallel import bf_knn


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    return rng.normal(size=(400, 8))


@pytest.fixture(scope="module")
def router(data):
    return Router(seed=0).build(data)


def test_default_build_wires_the_ladder(router):
    assert router.ladder == Router.DEFAULT_LADDER
    assert set(router.ladder) <= set(router.backend_names())
    assert router.rung == 0
    assert router.c_est is not None and router.c_est >= 1.0


def test_plan_is_pure_and_exact_first(router):
    before = router.last_decision
    decision = router.plan(32, k=3)
    assert isinstance(decision, RouteDecision)
    assert decision.backend == "rbc-exact"
    assert decision.rung == 0
    assert decision.measured_s is None
    assert router.last_decision is before  # plan() never dispatches


def test_tiny_budget_forces_cheapest_rung(router):
    # a budget nothing can meet: the plan falls back to the cheapest
    # remaining rung instead of failing
    decision = router.plan(64, k=3, latency_budget_s=1e-12)
    assert decision.backend in router.ladder
    costs = {
        name: router.predict_cost_s(name, 64, 3) for name in router.ladder
    }
    assert decision.backend == min(costs, key=costs.get)
    assert "over budget" in decision.reason


def test_exact_rung_matches_oracle(router, data):
    Q = data[:16]
    d, i = router.query(Q, k=2)
    assert router.last_decision.backend == "rbc-exact"
    ref, _ = bf_knn(Q, data, k=2)
    np.testing.assert_allclose(d, ref, atol=1e-10)


def test_pinned_backend_dispatch(router, data):
    d, i = router.query(data[:4], k=1, backend="rpforest")
    assert router.last_decision.backend == "rpforest"
    assert router.last_decision.reason == "pinned by caller"
    assert d.shape == (4, 1)


def test_degrade_restore_walk(router):
    assert router.restore() == 0
    rungs = [router.degrade() for _ in range(len(router.ladder) + 2)]
    # monotone, clamped at the last rung
    assert rungs[-1] == len(router.ladder) - 1
    assert router.plan(8, k=1).backend == router.ladder[-1]
    assert router.restore() == 0
    assert router.plan(8, k=1).backend == router.ladder[0]


def test_measured_latency_feeds_cost_model(router, data):
    router.restore()
    before = router.predict_cost_s("rbc-exact", 1, 2)
    for _ in range(3):
        router.query(data[:8], k=2)
    after = router.predict_cost_s("rbc-exact", 1, 2)
    assert after != before  # EWMA moved on observed wall clock
    assert router.last_decision.measured_s is not None


def test_attach_slo_degrades_on_breach(data):
    router = Router(seed=0).build(data)
    mon = SLOMonitor(0.001, window_s=60.0, burn_threshold=1.0, cooldown_s=0.0)
    router.attach_slo(mon)
    assert router.rung == 0
    # hammer the monitor with over-budget latencies: every breach walks
    # one more rung down the ladder
    now = 0.0
    while router.rung < len(router.ladder) - 1:
        now += 0.1
        mon.observe(0.5, now)
    assert router.rung == len(router.ladder) - 1
    assert mon.n_breaches >= 1


def test_route_counts_and_history(router, data):
    router.restore()
    base = sum(router.route_counts().values())
    router.query(data[:4], k=1)
    router.query(data[:4], k=1, backend="rbc-oneshot")
    counts = router.route_counts()
    assert sum(counts.values()) == base + 2
    assert counts.get("rbc-oneshot", 0) >= 1
    assert router.history[-1].backend == "rbc-oneshot"


def test_range_routes_to_range_capable(router, data):
    out = router.range_query(data[:3], 2.0)
    assert len(out) == 3
    assert router.last_decision.backend == "rbc-exact"


def test_range_refused_without_capable_backend(data):
    oneshot = OneShotRBC(seed=0)
    router = Router(
        backends={"rbc-oneshot": oneshot},
        ladder=("rbc-oneshot",),
        calibrate=False,
    ).build(data)
    with pytest.raises(UnsupportedCapability):
        router.range_query(data[:2], 1.0)


def test_observe_report_ingestion(router, data):
    from repro.eval import traced_query

    router.restore()
    report = traced_query(
        router.backend("rbc-exact"), data[:32], [], k=2, name="probe"
    )
    before = router.predict_cost_s("rbc-exact", 1, 2)
    router.observe_report("rbc-exact", report)
    # ingestion moves (or at minimum re-confirms) the EWMA estimate
    assert router.predict_cost_s("rbc-exact", 1, 2) > 0


def test_observe_report_is_idempotent_per_report(data):
    """Regression: re-observing one RunReport must not double-count.

    The EWMA is a weighted average, so feeding the same report twice
    (two harness layers both handing it back) used to keep pulling the
    model toward that one sample.  Observations are now deduplicated by
    ``report.report_id``."""
    from repro.eval import traced_query

    router = Router(seed=0, calibrate=False).build(data)
    exact = router.backend("rbc-exact")
    r1 = traced_query(exact, data[:32], [], k=2, name="probe-a")
    r2 = traced_query(exact, data[:16], [], k=2, name="probe-b")
    assert r1.report_id != r2.report_id
    router.observe_report("rbc-exact", r1)
    router.observe_report("rbc-exact", r2)
    settled = router.predict_cost_s("rbc-exact", 64, 2)
    # the duplicate is dropped: the prediction does not move again
    router.observe_report("rbc-exact", r2)
    router.observe_report("rbc-exact", r2)
    assert router.predict_cost_s("rbc-exact", 64, 2) == settled
    # a genuinely fresh report is still ingested
    r3 = traced_query(exact, data[:8], [], k=2, name="probe-c")
    router.observe_report("rbc-exact", r3)
    assert r3.report_id in router._seen_reports


def test_router_memory_footprint_sums_backends(router):
    total = router.memory_footprint()
    parts = sum(
        router.backend(name).memory_footprint()
        for name in router.backend_names()
    )
    assert total == parts > 0


def test_router_capabilities_reflect_rung(router):
    router.restore()
    assert router.capabilities().exact  # rung 0 is the exact RBC
    router.degrade()
    assert not router.capabilities().exact  # one-shot rung
    router.restore()


def test_streaming_searcher_auto_wires_degradation(data):
    from repro.serving import StreamingSearcher

    router = Router(seed=0).build(data)
    mon = SLOMonitor(1e-6, window_s=60.0, burn_threshold=1.0, cooldown_s=0.0)
    with StreamingSearcher(router, k=2, slo=mon) as srv:
        for q in data[:6]:
            srv.submit(q)
        srv.drain()
    # every served query blows the 1us budget, so the searcher's SLO loop
    # must have walked the router down the ladder
    assert router.rung > 0


def test_sharded_searcher_unwraps_shard_target(data):
    from repro.serving import ShardedStreamingSearcher

    router = Router(seed=0).build(data)
    with ShardedStreamingSearcher(router, n_shards=2, k=1) as srv:
        got = srv.search_stream(data[:5], qps=3000.0)
    ref, _ = bf_knn(data[:5], data, k=1)
    np.testing.assert_allclose(got.dist, ref, atol=2e-5)
    assert got.n_shards == 2

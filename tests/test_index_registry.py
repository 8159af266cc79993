"""The Index protocol, capability declarations, and the backend registry."""

import numpy as np
import pytest

from repro.index import (
    Capabilities,
    Index,
    UnsupportedCapability,
    available_indexes,
    capabilities_for,
    capabilities_of,
    create_index,
    index_class,
    register_index,
    supported_kwargs,
    unregister_index,
)

EXPECTED = {
    "rbc-exact", "rbc-oneshot", "brute", "covertree", "kdtree", "balltree",
    "vptree", "gnat", "aesa", "buffer-kd", "rpforest", "router",
}

#: backends buildable on a plain euclidean matrix, with build-fast kwargs
BUILDABLE = {
    "rbc-exact": {},
    "rbc-oneshot": {},
    "brute": {},
    "covertree": {},
    "kdtree": {"leaf_size": 8},
    "balltree": {"leaf_size": 8},
    "vptree": {"leaf_size": 8},
    "gnat": {"leaf_size": 8},
    "aesa": {},
    "buffer-kd": {"leaf_size": 16},
    "rpforest": {"leaf_size": 16},
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(120, 6))


def _built(name, data, **kw):
    kw = {"metric": "euclidean", "seed": 0, **BUILDABLE.get(name, {}), **kw}
    return create_index(name, lenient=True, **kw).build(data)


def test_registry_contents():
    assert EXPECTED <= set(available_indexes())


def test_aliases_resolve():
    assert index_class("exact") is index_class("rbc-exact")
    assert index_class("oneshot") is index_class("rbc-oneshot")
    assert index_class("bufferkd") is index_class("buffer-kd")


def test_unknown_name_lists_known():
    with pytest.raises(KeyError, match="rbc-exact"):
        index_class("no-such-backend")


def test_declared_capabilities_are_capabilities():
    for name in EXPECTED:
        caps = capabilities_of(name)
        assert isinstance(caps, Capabilities), name


def test_exactness_declarations():
    for name in ("rbc-exact", "brute", "covertree", "kdtree", "balltree",
                 "vptree", "gnat", "aesa", "buffer-kd"):
        assert capabilities_of(name).exact, name
    for name in ("rbc-oneshot", "rpforest"):
        assert not capabilities_of(name).exact, name


def test_range_declarations_match_behavior(data):
    eps = 1.5
    for name in BUILDABLE:
        idx = _built(name, data)
        caps = idx.capabilities()
        if caps.range_queries:
            out = idx.range_query(data[:2], eps)
            assert len(out) == 2
        else:
            with pytest.raises(UnsupportedCapability):
                idx.range_query(data[:2], eps)


def test_range_is_uniform_error_not_attribute_error(data):
    idx = _built("kdtree", data)
    try:
        idx.range_query(data[:1], 1.0)
    except AttributeError:  # pragma: no cover - the defect being guarded
        pytest.fail("range_query raised bare AttributeError")
    except UnsupportedCapability:
        pass


def test_memory_footprint_everywhere(data):
    for name in BUILDABLE:
        idx = _built(name, data)
        fp = idx.memory_footprint()
        assert isinstance(fp, int) and fp > 0, name


def test_memory_footprint_requires_build():
    idx = create_index("balltree", lenient=True, metric="euclidean")
    with pytest.raises(RuntimeError):
        idx.memory_footprint()


def test_create_index_strict_rejects_bad_kwargs():
    with pytest.raises(TypeError):
        create_index("brute", metric="euclidean", seed=0)


def test_supported_kwargs_filters():
    kw = supported_kwargs("brute", {"metric": "euclidean", "seed": 0})
    assert kw == {"metric": "euclidean"}


def test_register_unregister_custom():
    class Custom(Index):
        CAPS = Capabilities(exact=False)

    register_index("custom-test", Custom)
    try:
        assert "custom-test" in available_indexes()
        assert capabilities_of("custom-test").exact is False
        with pytest.raises(ValueError):
            register_index("custom-test", Custom)
    finally:
        unregister_index("custom-test")
    assert "custom-test" not in available_indexes()


def test_capabilities_for_foreign_object():
    class Duck:
        metric = None
        X = None

    caps = capabilities_for(Duck())
    assert isinstance(caps, Capabilities)
    assert not caps.rescorable and not caps.exact


def test_rescorable_resolved_against_metric(data):
    idx = _built("balltree", data)
    assert idx.capabilities().rescorable
    from repro.metrics import get_metric

    edit = create_index("balltree", lenient=True, metric=get_metric("edit"))
    edit.build(["abc", "abd", "xyz", "xxy", "aac", "zzz", "abz", "qrs"])
    assert not edit.capabilities().rescorable


def test_quantizable_only_for_rbc(data):
    assert capabilities_of("rbc-exact").quantizable
    idx = _built("rbc-exact", data)
    assert idx.capabilities().quantizable
    assert not _built("kdtree", data).capabilities().quantizable


def test_collectors_report_footprint(data):
    from repro.obs import MetricsRegistry
    from repro.obs.collectors import install_index_collectors

    reg = MetricsRegistry()
    idx = _built("buffer-kd", data)
    install_index_collectors(idx, reg, label="bufferkd")
    snap = reg.snapshot()
    values = snap["repro_index_memory_bytes"]["values"]
    assert values["bufferkd"] == idx.memory_footprint()


def test_collectors_skip_unbuilt_footprint():
    from repro.obs import MetricsRegistry
    from repro.obs.collectors import install_index_collectors

    reg = MetricsRegistry()
    idx = create_index("balltree", lenient=True, metric="euclidean")
    install_index_collectors(idx, reg, label="unbuilt")
    assert "repro_index_memory_bytes" not in reg.snapshot()


def test_searcher_rescore_gated_by_capability(data):
    from repro.serving import StreamingSearcher

    exact = _built("rbc-exact", data)
    with StreamingSearcher(exact, k=2) as srv:
        assert srv.rescore

    class NoRescore(Index):
        CAPS = Capabilities(exact=True, rescorable=False)
        metric = exact.metric
        X = data
        n = data.shape[0]

        def build(self, X, **kw):
            return self

        def query(self, Q, k=1, **kw):
            return exact.query(Q, k)

    with StreamingSearcher(NoRescore().build(data), k=2) as srv:
        assert not srv.rescore

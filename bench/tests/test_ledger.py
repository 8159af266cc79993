"""Span ledger arithmetic: self time, interval coverage, wrapping."""

import threading

from ledger import Ledger, Span, covered, self_times


def span(name, start, end, parent=None, tid=1):
    s = Span(name=name, start=start, tid=tid, parent=parent, rid=0)
    s.end = end
    return s


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        span("call", 0.0, 10.0),
        span("child", 1.0, 3.0, parent=0),
        span("child", 4.0, 8.0, parent=0),
        span("grandchild", 5.0, 6.0, parent=2),
        span("worker", 2.0, 9.0, tid=2),  # another thread: no parent
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 7.0]


def test_covered_is_the_union_clipped_to_the_interval():
    assert covered([(1.0, 3.0), (2.0, 9.0), (4.0, 5.0)], 0.0, 10.0) == 8.0
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == 4.0
    assert covered([], 0.0, 10.0) == 0.0


def test_wrap_records_nested_spans_and_restore_unwraps():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    ticks = iter(range(100))
    ledger = Ledger(clock=lambda: float(next(ticks)))
    original = Layer.outer
    ledger.wrap(Layer, "outer", "layer.outer", lambda a, kw, r: {"id": r, "x": a[1]})
    ledger.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer(3) == 7
    ledger.restore()
    assert Layer.outer is original

    outer, inner = ledger.spans
    assert (outer.name, inner.name) == ("layer.outer", "layer.inner")
    assert inner.parent == 0 and outer.parent is None
    assert outer.rid == 7 and outer.attrs == {"x": 3}
    assert outer.tid == inner.tid == threading.get_ident()
    assert self_times(ledger.spans) == [outer.dur - inner.dur, inner.dur]
    events = ledger.chrome_trace()
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[1]["args"]["parent"] == 0

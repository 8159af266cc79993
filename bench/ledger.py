"""Span ledger for the traced run: in-memory spans, self time, Chrome trace.

A :class:`Ledger` records one span per call of a wrapped entry point: name,
start, end, thread, parent (the enclosing open span on the same thread) and
a request or batch id.  Spans stay in memory until the run ends, when
:meth:`Ledger.chrome_trace` turns them into a Chrome trace (load it in
``chrome://tracing`` or https://ui.perfetto.dev).

A span's **self time** is its duration minus the part covered by its
same-thread child spans.  Children on one thread are nested calls, so they
never overlap and their durations simply add up.  Work that a call hands to
executor threads shows up as spans on those threads without a parent;
:func:`covered` measures how much of an interval such spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Ledger", "self_times", "covered"]


@dataclass
class Span:
    name: str
    start: float
    tid: int
    parent: int | None
    rid: int
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Ledger:
    """Collects spans from any thread; :meth:`wrap` instruments a callable
    attribute in place and :meth:`restore` undoes every wrap."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: id given to spans opened without an explicit one: the current
        #: batch (set by whoever forms batches)
        self.batch = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: int | None = None) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=self.clock(),
            tid=threading.get_ident(),
            parent=stack[-1] if stack else None,
            rid=self.batch if rid is None else rid,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        self._stack().pop()
        return span

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span after it closes; an ``"id"`` entry becomes the span's request
        or batch id.
        """
        orig = getattr(owner, attr)
        ledger = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            index = ledger.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                span = ledger.close(index)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
                rid = extra.pop("id", None)
                if rid is not None:
                    span.rid = int(rid)
                span.attrs.update(extra)
            return result

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def named(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(prefix)]

    def chrome_trace(self, pid: int = 0, t0: float | None = None) -> list[dict]:
        """Chrome trace ``X`` events (microseconds from ``t0``)."""
        if not self.spans:
            return []
        t0 = min(s.start for s in self.spans) if t0 is None else t0
        return [
            {
                "name": s.name,
                "ph": "X",
                "pid": pid,
                "tid": s.tid,
                "ts": (s.start - t0) * 1e6,
                "dur": s.dur * 1e6,
                "args": {"id": s.rid, "parent": s.parent, **s.attrs},
            }
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its same-thread
    children (spans whose ``parent`` is its index)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total

"""The open-loop load driver of the serve-* workloads.

One driver thread issues every request at its due time, whatever the
server is doing, so a stall delays the requests behind it and the queue can
grow.  Each request's latency runs from its **due** time to the moment
``poll`` hands back its answer, which charges the server for the lateness a
stall imposes; how late the driver itself issued each request is recorded
separately as lag.

The loop sleeps until the next due time or the server's
``next_deadline()``, calls ``submit(q)`` (wall clock) for every request
due, ``tick()`` once a deadline has passed, and ``poll()`` on the oldest
outstanding ticket after every call that may have answered it.  Batches are
answered oldest first, so draining the oldest tickets collects every
answer; draining them before each write means an answer is always judged
against the database it was computed on.

The driver stops ``drain_s`` after the last due time, which bounds a
segment's run time even for a collapsed server.  Requests still unanswered
then are failures.

``clock`` and ``sleep`` are injectable so the tests drive a fake server on
a scripted clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StepLog", "run_open_loop"]


@dataclass
class StepLog:
    """What one open-loop step observed, per request index."""

    #: due offsets from the start, seconds
    due: np.ndarray
    #: due-to-answer seconds; NaN for writes and for requests unanswered
    #: when the driver stopped
    latency: np.ndarray
    #: issue time minus due time, seconds
    lag: np.ndarray
    #: request index -> the ``(dist, idx)`` answer rows
    answers: dict = field(default_factory=dict)
    #: request index -> writes applied when its answer was computed
    writes_at: dict = field(default_factory=dict)
    #: seconds spent inside server and write calls
    busy_s: float = 0.0
    #: seconds spent sleeping
    sleep_s: float = 0.0
    #: seconds from the start to the stop
    wall_s: float = 0.0

    def censored_latency(self) -> np.ndarray:
        """Latency with each unanswered request counted as waiting until
        the stop (a lower bound on what it would have waited)."""
        out = self.latency.copy()
        miss = np.isnan(out)
        out[miss] = self.wall_s - self.due[miss]
        return out


def run_open_loop(
    server,
    due: np.ndarray,
    payloads: np.ndarray,
    *,
    writes: np.ndarray | None = None,
    write=None,
    drain_s: float = 1.0,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> StepLog:
    """Issue ``payloads[i]`` at ``due[i]`` seconds after the start.

    Requests flagged in ``writes`` call ``write(payload)`` instead of
    ``server.submit``.  Returns the :class:`StepLog`.
    """
    due = np.asarray(due, dtype=np.float64)
    n = len(due)
    writes = np.zeros(n, dtype=bool) if writes is None else np.asarray(writes, dtype=bool)
    log = StepLog(due=due, latency=np.full(n, np.nan), lag=np.full(n, np.nan))
    outstanding: deque = deque()
    n_writes = 0
    t0 = clock()
    stop = t0 + (float(due[-1]) if n else 0.0) + drain_s

    def call(fn, *args):
        t = clock()
        try:
            return fn(*args)
        finally:
            log.busy_s += clock() - t

    def collect() -> None:
        while outstanding and clock() < stop:
            i, ticket = outstanding[0]
            ans = call(server.poll, ticket)
            if ans is None:
                return
            outstanding.popleft()
            log.latency[i] = clock() - (t0 + due[i])
            log.answers[i] = ans
            log.writes_at[i] = n_writes

    j = 0
    while True:
        now = clock()
        if j < n and now >= t0 + due[j]:
            # enqueue everything due before polling, so a late driver hands
            # the batcher its whole backlog; answers computed so far are
            # collected before each write
            while j < n and now >= t0 + due[j]:
                log.lag[j] = now - (t0 + due[j])
                if writes[j]:
                    collect()
                    call(write, payloads[j])
                    n_writes += 1
                else:
                    outstanding.append((j, call(server.submit, payloads[j])))
                j += 1
                now = clock()
            collect()
            continue
        if (j >= n and not outstanding) or now >= stop:
            break
        deadline = server.next_deadline()
        if deadline is not None and deadline <= now:
            call(server.tick)
            collect()
            continue
        wake = min(t0 + due[j] if j < n else stop, stop)
        if deadline is not None:
            wake = min(wake, deadline)
        if wake > now:
            t = clock()
            sleep(wake - now)
            log.sleep_s += clock() - t
    log.wall_s = clock() - t0
    return log

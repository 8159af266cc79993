"""Adaptive micro-batching for a streaming query front-end.

The paper's central performance fact is that the brute-force primitive is
GEMM-shaped: per-query cost collapses when queries share a kernel launch
(§3, Table 2).  A serving front-end that dispatches arrivals one at a time
therefore leaves an order of magnitude on the table — but batching buys
throughput with *queueing delay*, so the batch size must be chosen against
a latency budget, and the right size depends on the machine and index at
hand.

:class:`QueryBatcher` measures instead of guessing.  Batch sizes move on a
power-of-two ladder; every dispatched batch reports its measured service
time, which maintains an EWMA throughput estimate per ladder level.  The
controller hill-climbs: grow while the next level's measured rate is
better (or unexplored), shrink when the level below is faster, and never
target a batch whose estimated service time would eat more than a fixed
fraction of the latency budget.  A deadline rule bounds the wait of the
oldest enqueued query: the batch flushes early when the remaining slack —
budget minus age minus a safety-margined service estimate — runs out.

The batcher is a pure policy object driven by an explicit clock (``now``
parameters).  It never sleeps and never reads the wall clock, so the same
code serves the live ``submit()`` path and the reproducible virtual-clock
replay in :meth:`~repro.serving.searcher.StreamingSearcher.search_stream`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["BatchPolicy", "QueryBatcher"]

#: climb threshold: move up the ladder when the level above delivers at
#: least this factor of the current level's measured throughput
GROWTH = 1.05
#: smoothing weight of the per-level throughput estimates (weight of the
#: newest observation)
EWMA = 0.3
#: multiplier on the service-time estimate inside the deadline rule —
#: headroom for estimate error, so a mispredicted batch does not blow the
#: budget
SAFETY = 1.25
#: never target a batch whose estimated service time exceeds this fraction
#: of ``max_delay_ms`` (the rest of the budget is left for queueing)
SERVICE_FRACTION = 0.5


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the adaptive micro-batcher.

    Parameters
    ----------
    max_delay_ms:
        latency budget: no query should wait in the batcher past the point
        where waiting longer would push its answer beyond this deadline.
    max_batch / min_batch:
        hard bounds on the dispatch size (``max_batch=1`` degenerates to
        per-query dispatch — the serving baseline).
    """

    max_delay_ms: float = 50.0
    max_batch: int = 256
    min_batch: int = 1

    def __post_init__(self) -> None:
        if self.max_delay_ms <= 0:
            raise ValueError("max_delay_ms must be positive")
        if not 1 <= self.min_batch <= self.max_batch:
            raise ValueError("need 1 <= min_batch <= max_batch")

    @property
    def max_delay_s(self) -> float:
        return self.max_delay_ms / 1e3

    def ladder(self) -> list[int]:
        """Power-of-two batch sizes from ``min_batch`` to ``max_batch``."""
        levels = []
        size = max(1, int(self.min_batch))
        while size < self.max_batch:
            levels.append(size)
            size *= 2
        levels.append(int(self.max_batch))
        return levels


class QueryBatcher:
    """Latency-budgeted adaptive batching queue (policy only, no I/O).

    Usage protocol, all times in seconds on one caller-supplied clock::

        batcher.add(payload, now)          # enqueue an arrival
        if batcher.ready(now):             # full target, or slack ran out
            items = batcher.take(now)      # -> [(payload, arrival), ...]
            ... dispatch, measure wall ...
            batcher.observe(len(items), service_s)   # feed the controller

    ``next_deadline()`` exposes the time at which ``ready`` would turn true
    with no further arrivals — the event the virtual-clock replay (and a
    live event loop's timeout) waits on.
    """

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()
        self._items: deque = deque()
        self._levels = self.policy.ladder()
        #: ladder index of the current target size
        self._lvl = 0
        #: ladder index -> EWMA throughput (queries / second)
        self._rate: dict[int, float] = {}
        # lifetime counters (the StreamReport's batching observables)
        self.n_batches = 0
        self.n_items = 0
        self.n_deadline_flushes = 0
        self.max_batch_seen = 0
        self.n_backoffs = 0

    # --------------------------------------------------------------- queue
    @property
    def pending(self) -> int:
        return len(self._items)

    def add(self, payload, now: float) -> None:
        """Enqueue one query with its arrival timestamp."""
        self._items.append((payload, float(now)))

    @property
    def target(self) -> int:
        """The batch size the controller currently aims to fill."""
        return self._levels[self._lvl]

    @property
    def level(self) -> int:
        """Current ladder index (0 = ``min_batch``)."""
        return self._lvl

    def backoff(self) -> None:
        """Drop one ladder level immediately (external pressure signal).

        The hook an :class:`~repro.obs.slo.SLOMonitor` breach callback
        pulls: when the error budget burns too fast, the batcher stops
        trusting its throughput estimates and trades batch economies for
        queueing headroom.  The EWMA rates are kept — the controller may
        climb back once measurements justify it.
        """
        if self._lvl > 0:
            self._lvl -= 1
            self.n_backoffs += 1

    # ---------------------------------------------------------- controller
    def _level_of(self, size: int) -> int:
        """Ladder index of the largest level not exceeding ``size``."""
        lvl = 0
        for i, level in enumerate(self._levels):
            if level <= size:
                lvl = i
        return lvl

    def service_estimate(self, size: int) -> float:
        """Estimated seconds to serve a batch of ``size`` (0 when nothing
        has been measured yet — unknown cost never delays a flush)."""
        if size <= 0 or not self._rate:
            return 0.0
        lvl = min(self._rate, key=lambda i: abs(self._levels[i] - size))
        return size / self._rate[lvl]

    def observe(self, size: int, service_s: float) -> None:
        """Feed one dispatched batch's measured service time back."""
        if size <= 0:
            return
        lvl = self._level_of(size)
        rate = size / max(float(service_s), 1e-9)
        prev = self._rate.get(lvl)
        self._rate[lvl] = rate if prev is None else (1 - EWMA) * prev + EWMA * rate
        self._adapt()

    def _adapt(self) -> None:
        rates = self._rate
        cur = rates.get(self._lvl)
        if cur is not None:
            up = self._lvl + 1
            if up < len(self._levels):
                up_rate = rates.get(up)
                # unexplored levels are climbed optimistically: the batched
                # kernel's economies of scale make "bigger is faster" the
                # right prior, and a bad level is measured once and left
                if up_rate is None or up_rate >= GROWTH * cur:
                    self._lvl = up
            down = self._lvl - 1
            if down >= 0 and rates.get(down, 0.0) > rates.get(self._lvl, cur):
                self._lvl = down
        # never target a batch whose service alone would eat the budget
        budget = SERVICE_FRACTION * self.policy.max_delay_s
        while self._lvl > 0 and (
            self.service_estimate(self._levels[self._lvl]) > budget
        ):
            self._lvl -= 1

    # ------------------------------------------------------------- flushing
    def ready(self, now: float, *, more_coming: bool = True) -> bool:
        """Whether a batch should dispatch at time ``now``."""
        if not self._items:
            return False
        if len(self._items) >= self.target:
            return True
        if not more_coming:
            return True
        # the deadline comparison must reuse next_deadline() verbatim: an
        # event loop sleeps until exactly that time, and computing the
        # slack with rearranged arithmetic can leave it one ulp positive
        # at the woken instant — ready() never turns true and the loop
        # spins forever at a frozen virtual clock
        return float(now) >= self.next_deadline()

    def next_deadline(self) -> float | None:
        """Absolute time at which the deadline rule will force a flush
        (assuming no further arrivals); ``None`` when the queue is empty."""
        if not self._items:
            return None
        oldest = self._items[0][1]
        est = self.service_estimate(len(self._items))
        return oldest + self.policy.max_delay_s - SAFETY * est

    def take(self, now: float) -> list[tuple[object, float]]:
        """Pop the batch to dispatch: up to the controller's current
        ``target`` queued items.

        The cap must be the adaptive target, not ``policy.max_batch``:
        whenever the queue is deeper than the target — exactly the
        overload regime where an SLO-breach :meth:`backoff` just shrank
        the ladder — popping ``max_batch`` would silently bypass the
        controller and dispatch a giant batch anyway.  A deep queue
        instead drains as several target-sized batches, each feeding the
        controller a measurement at the size it actually chose.
        ``target`` never exceeds ``policy.max_batch`` (the ladder is
        bounded by it), so the hard cap still holds.
        """
        limit = max(self.target, self.policy.min_batch)
        size = min(len(self._items), limit)
        if size == 0:
            return []
        if size < self.target:
            self.n_deadline_flushes += 1
        self.n_batches += 1
        self.n_items += size
        self.max_batch_seen = max(self.max_batch_seen, size)
        return [self._items.popleft() for _ in range(size)]

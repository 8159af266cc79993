"""The open-loop driver against a fake server on a scripted clock."""

import numpy as np

from driver import run_open_loop


class Clock:
    """Fake time: advances only when someone sleeps or serves.  The tests
    use dyadic times, so every sum is exact and "sleep until t" lands on
    t."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        self.t += dt


class FakeServer:
    """Batches queued queries until the oldest has waited ``delay``, then
    serves up to ``cap`` of them inline, blocking the caller for
    ``service(batch_no)`` seconds.  Tickets in ``never`` are never
    answered."""

    def __init__(self, clock, delay=1 / 16, service=lambda b: 1 / 64, never=(), cap=None):
        self.clock, self.delay, self.service, self.never = clock, delay, service, set(never)
        self.cap = cap
        self.queue, self.done, self.batches, self.next = [], {}, 0, 0

    def submit(self, q):
        ticket = self.next
        self.next += 1
        self.queue.append((ticket, self.clock()))
        return ticket

    def next_deadline(self):
        return self.queue[0][1] + self.delay if self.queue else None

    def tick(self):
        if self.queue and self.clock() >= self.next_deadline():
            self.clock.sleep(self.service(self.batches))
            self.batches += 1
            batch = self.queue[: self.cap]
            del self.queue[: len(batch)]
            for ticket, _ in batch:
                if ticket not in self.never:
                    self.done[ticket] = (np.zeros(1), np.array([ticket]))

    def poll(self, ticket):
        if ticket not in self.done:
            self.tick()
        return self.done.pop(ticket, None)


def run(server, clock, due, **kw):
    return run_open_loop(server, np.array(due), np.zeros((len(due), 2)),
                         clock=clock, sleep=clock.sleep, **kw)


def test_latency_runs_from_due_time():
    clock = Clock()
    log = run(FakeServer(clock), clock, [0.0, 0.125, 0.25])
    assert list(log.latency) == [0.078125] * 3  # batching delay + service
    assert list(log.lag) == [0.0] * 3
    assert sorted(log.answers) == [0, 1, 2]


def test_a_stall_delays_later_requests_and_counts_against_them():
    clock = Clock()
    server = FakeServer(clock, service=lambda b: 0.5 if b == 0 else 1 / 64)
    log = run(server, clock, [0.0, 0.125])
    # the first batch blocks the driver until 0.5625, so the second request
    # is issued 0.4375 s late and its latency still runs from its due time
    assert list(log.latency) == [0.5625, 0.515625]
    assert list(log.lag) == [0.0, 0.4375]
    assert log.busy_s >= 0.5


def test_unanswered_request_is_a_failure_censored_at_the_stop():
    clock = Clock()
    log = run(FakeServer(clock, never={2}), clock, [0.0, 0.125, 0.25], drain_s=1.0)
    assert not np.isnan(log.latency[:2]).any()
    assert np.isnan(log.latency[2])
    # the driver waits until 1 s after the last due time, then stops
    assert log.wall_s == 1.25
    assert log.censored_latency()[2] == 1.0


def test_a_server_that_cannot_keep_up_is_stopped_on_time():
    clock = Clock()
    # one request per 0.25 s batch while requests arrive every 0.125 s:
    # the backlog grows without bound and the driver must still stop
    due = list(np.arange(0, 3, 0.125))
    log = run(FakeServer(clock, service=lambda b: 0.25, cap=1), clock, due, drain_s=0.5)
    assert log.wall_s <= 2.875 + 0.5 + 0.25
    assert not np.isnan(log.lag).any()  # every request was issued
    late = np.isnan(log.latency)
    assert late.any() and not late[0]


def test_writes_are_issued_in_order_and_recorded_per_answer():
    clock = Clock()
    written = []
    log = run(FakeServer(clock), clock, [0.0, 0.125, 0.25],
              writes=np.array([False, True, False]), write=written.append)
    assert len(written) == 1
    assert log.writes_at == {0: 0, 2: 1}
    assert np.isnan(log.latency[1])

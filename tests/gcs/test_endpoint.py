"""Unit tests for the application endpoint and rate-limited consumer."""

import pytest

from repro.core.message import DataMessage, ViewDelivery
from repro.core.obsolescence import ItemTagging
from repro.gcs.endpoint import GroupEndpoint, RateLimitedConsumer
from repro.gcs.stack import GroupStack, StackConfig


def build(n=3, **kwargs):
    stack = GroupStack(ItemTagging(), StackConfig(n=n, consensus="oracle", **kwargs))
    endpoints = {pid: GroupEndpoint(stack[pid]) for pid in stack.members}
    return stack, endpoints


class TestMulticastFacade:
    def test_immediate_multicast(self):
        stack, eps = build()
        assert eps[0].multicast("x", annotation=1)
        stack.run(until=0.1)
        received = []
        eps[1].on_data = lambda m: received.append(m.payload)
        eps[1].poll_all()
        assert "x" in received

    def test_parked_during_view_change_and_flushed(self):
        stack, eps = build()
        stack[0].trigger_view_change()
        stack.run(until=0.0005)  # blocked, change not yet complete
        assert not eps[0].multicast("parked", annotation=1)
        stack.run(until=2.0)  # view installed; outbox flushed
        stack.run(until=2.1)
        received = []
        eps[2].on_data = lambda m: received.append(m.payload)
        eps[2].poll_all()
        assert "parked" in received

    def test_parked_message_sent_in_new_view(self):
        stack, eps = build()
        sent = []
        stack[0].listeners.on_multicast = lambda pid, m: sent.append(m)
        stack[0].trigger_view_change()
        stack.run(until=0.0005)
        eps[0].multicast("parked", annotation=1)
        stack.run(until=2.0)
        assert sent and sent[-1].view_id == 1

    def test_excluded_endpoint_refuses(self):
        stack, eps = build()
        stack[0].trigger_view_change(leave=(2,))
        stack.run(until=2.0)
        assert stack[2].excluded
        assert not eps[2].multicast("zombie", annotation=None)


class TestCallbacks:
    def test_view_callback(self):
        stack, eps = build()
        views = []
        eps[1].on_view = lambda v: views.append(v.vid)
        eps[1].poll_all()
        assert views == [0]

    def test_data_callback(self):
        stack, eps = build()
        eps[0].multicast("d", annotation=None)
        stack.run(until=0.1)
        data = []
        eps[1].on_data = lambda m: data.append(m.payload)
        eps[1].poll_all()
        assert data == ["d"]

    def test_excluded_callback(self):
        stack, eps = build()
        excluded = []
        eps[2].on_excluded = lambda v: excluded.append(v.vid)
        stack[0].trigger_view_change(leave=(2,))
        stack.run(until=2.0)
        assert excluded == [1]

    def test_poll_returns_entry(self):
        stack, eps = build()
        entry = eps[0].poll()
        assert isinstance(entry, ViewDelivery)

    def test_poll_empty_returns_none(self):
        stack, eps = build()
        eps[0].poll_all()
        assert eps[0].poll() is None


class TestMembershipOps:
    def test_leave(self):
        stack, eps = build()
        eps[2].leave()
        stack.run(until=2.0)
        assert stack[0].cv.members == frozenset({0, 1})

    def test_expel(self):
        stack, eps = build()
        eps[0].expel(1)
        stack.run(until=2.0)
        assert stack[0].cv.members == frozenset({0, 2})

    def test_reconfigure_keeps_members(self):
        stack, eps = build()
        eps[0].reconfigure()
        stack.run(until=2.0)
        assert stack[0].cv.vid == 1
        assert stack[0].cv.members == frozenset({0, 1, 2})


class TestRateLimitedConsumer:
    def test_consumes_at_configured_rate(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        for i in range(5):
            eps[0].multicast(i, annotation=None)
        stack.run(until=0.35)
        # At 10 msg/s for 0.35 s: 3 ticks => 3 entries consumed (the first
        # being the view notification).
        assert consumer.consumed == 3

    def test_pause_stops_consumption(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=100.0)
        consumer.start()
        for i in range(10):
            eps[0].multicast(i, annotation=None)
        stack.run(until=0.05)
        consumer.pause()
        before = consumer.consumed
        stack.run(until=0.5)
        assert consumer.consumed == before
        consumer.resume()
        stack.run(until=1.0)
        assert consumer.consumed > before

    def test_invalid_rate_rejected(self):
        stack, eps = build()
        with pytest.raises(ValueError):
            RateLimitedConsumer(stack.sim, eps[0], rate=0.0)

    def test_start_idempotent(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        consumer.start()
        eps[0].multicast("x", annotation=None)
        stack.run(until=0.15)
        assert consumer.consumed == 1


def served_at(stack, pid):
    """``(instant, entry)`` of every delivery at ``pid``, as it happens."""
    log = []
    listeners = stack[pid].listeners
    previous = listeners.on_deliver

    def hook(p, entry):
        if previous is not None:
            previous(p, entry)
        log.append((stack.sim.now, entry))

    listeners.on_deliver = hook
    return log


def lattice(step, k, start=0.0):
    """The k-th service instant after ``start``: accumulated addition."""
    at = start
    for _ in range(k):
        at += step
    return at


class TestWakeOnWork:
    """The consumer sleeps on an empty queue and wakes on the lattice."""

    def test_idle_consumers_schedule_nothing(self):
        def events(consumers):
            stack, eps = build()
            if consumers:
                for pid in stack.members:
                    RateLimitedConsumer(stack.sim, eps[pid], rate=10_000.0).start()
            stack.run(until=100.0)
            return stack.sim.events_processed

        # One tick each serves the initial view and leaves the queue empty;
        # a poll loop would have run three million.
        assert events(True) - events(False) == 3

    def test_arrival_after_sleep_is_served_on_the_lattice(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        stack.run(until=0.55)
        eps[0].multicast("x", annotation=None)  # reaches 1 at 0.551
        stack.run(until=1.0)
        assert [t for t, _ in log] == [lattice(0.1, 1), lattice(0.1, 6)]

    def test_entry_arriving_at_a_service_instant_is_served_then(self):
        # Self-delivery is immediate: the multicast at the lattice instant
        # 0.5 enqueues at 0.5, and the tie rule runs the tick after it.
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[0], rate=10.0)
        consumer.start()
        log = served_at(stack, 0)
        at = lattice(0.1, 5)
        stack.sim.schedule_at(at, eps[0].multicast, "x", None)
        stack.run(until=1.0)
        assert [t for t, _ in log] == [lattice(0.1, 1), at]

    def test_pause_while_asleep_then_resume_with_a_backlog(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        stack.run(until=0.25)
        consumer.pause()
        eps[0].multicast("a", annotation=None)
        stack.run(until=0.63)
        assert consumer.consumed == 1  # the arrival did not wake it
        pending = stack.sim.pending_events
        consumer.resume()
        assert stack.sim.pending_events == pending + 1
        stack.run(until=1.0)
        assert [t for t, _ in log] == [lattice(0.1, 1), lattice(0.1, 7)]

    def test_pause_while_asleep_then_resume_without_a_backlog(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        stack.run(until=0.25)
        consumer.pause()
        stack.run(until=0.45)
        pending = stack.sim.pending_events
        consumer.resume()
        assert stack.sim.pending_events == pending  # nothing to wake for
        stack.run(until=0.55)
        eps[0].multicast("a", annotation=None)
        stack.run(until=1.0)
        assert [t for t, _ in log] == [lattice(0.1, 1), lattice(0.1, 6)]


class TestRestart:
    """A crash a tick observed kills the loop and restart() re-bases the
    lattice; a crash no tick observed leaves it running."""

    def test_crash_while_serving_rebases_at_restart(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        for i in range(20):
            eps[0].multicast(i, annotation=None)
        stack.sim.schedule_at(0.25, stack[1].crash)
        stack.run(until=0.42)
        assert consumer.consumed == 2  # the 0.3 tick observed the crash
        stack.rejoin(1)
        consumer.restart()
        stack.run(until=1.0)
        instant, entry = log[2]
        assert isinstance(entry, ViewDelivery) and entry.view.vid == 1
        assert instant == lattice(0.1, 1, start=0.42)

    def test_crash_while_asleep_longer_than_a_period_rebases(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        # Asleep from 0.2; the crash wakes it so the 0.4 tick observes it.
        stack.sim.schedule_at(0.33, stack[1].crash)
        stack.run(until=0.57)
        stack.rejoin(1)
        consumer.restart()
        stack.run(until=1.5)
        assert [t for t, _ in log] == [
            lattice(0.1, 1),
            lattice(0.1, 1, start=0.57),
        ]

    def test_crash_while_asleep_shorter_than_a_period_keeps_the_lattice(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        stack.sim.schedule_at(0.33, stack[1].crash)
        stack.run(until=0.36)
        stack.rejoin(1)
        consumer.restart()  # no tick saw the crash: a no-op
        stack.run(until=1.5)
        instants = [t for t, _ in log]
        assert instants[0] == lattice(0.1, 1)
        assert len(instants) == 2
        assert instants[1] in {lattice(0.1, k) for k in range(4, 16)}

    def test_crash_inside_the_poll_is_observed_by_the_next_tick(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        log = served_at(stack, 1)
        eps[1].on_data = lambda msg: stack[1].crash()
        eps[0].multicast("boom", annotation=None)
        # 0.1 serves view 0, 0.2 serves "boom" and crashes, 0.3 observes.
        stack.run(until=0.42)
        stack.rejoin(1)
        consumer.restart()
        stack.run(until=1.0)
        assert [t for t, _ in log] == [
            lattice(0.1, 1),
            lattice(0.1, 2),
            lattice(0.1, 1, start=0.42),
        ]

    def test_restart_before_start_is_a_no_op(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        pending = stack.sim.pending_events
        consumer.restart()
        assert stack.sim.pending_events == pending
        stack.run(until=1.0)
        assert consumer.consumed == 0

    def test_restart_while_alive_is_a_no_op(self):
        stack, eps = build()
        consumer = RateLimitedConsumer(stack.sim, eps[1], rate=10.0)
        consumer.start()
        for i in range(5):
            eps[0].multicast(i, annotation=None)
        consumer.restart()
        stack.run(until=0.35)
        consumer.restart()
        stack.run(until=0.45)
        assert consumer.consumed == 4  # one tick per 0.1 s, never two

"""Unit tests for simulated processes."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess


class Echo(SimProcess):
    """Records everything it receives; replies when asked."""

    def __init__(self, pid, sim, network):
        super().__init__(pid, sim, network)
        self.received = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_message(self, sender, payload):
        self.received.append((sender, payload))
        if payload == "ping":
            self.send(sender, "pong")


def build_pair():
    sim = Simulator()
    net = Network(sim)
    a = Echo(0, sim, net)
    b = Echo(1, sim, net)
    return sim, net, a, b


class TestLifecycle:
    def test_start_invokes_on_start(self):
        sim, net, a, b = build_pair()
        a.start()
        sim.run()
        assert a.started

    def test_send_and_receive(self):
        sim, net, a, b = build_pair()
        a.send(1, "hello")
        sim.run()
        assert b.received == [(0, "hello")]

    def test_request_reply(self):
        sim, net, a, b = build_pair()
        a.send(1, "ping")
        sim.run()
        assert (1, "pong") in a.received

    def test_crashed_process_drops_deliveries(self):
        sim, net, a, b = build_pair()
        a.send(1, "one")
        b.crash()
        sim.run()
        assert b.received == []

    def test_crashed_process_does_not_send(self):
        sim, net, a, b = build_pair()
        a.crash()
        a.send(1, "x")
        sim.run()
        assert b.received == []

    def test_crash_records_time(self):
        sim, net, a, b = build_pair()
        sim.schedule(2.0, a.crash)
        sim.run()
        assert a.crash_time == 2.0

    def test_crash_is_idempotent(self):
        sim, net, a, b = build_pair()
        a.crash()
        first = a.crash_time
        a.crash()
        assert a.crash_time == first

    def test_on_crash_hook_runs_once(self):
        sim = Simulator()
        net = Network(sim)
        calls = []

        class Hooked(SimProcess):
            def on_message(self, sender, payload):
                pass

            def on_crash(self):
                calls.append(1)

        p = Hooked(0, sim, net)
        p.crash()
        p.crash()
        assert calls == [1]


class TestTimers:
    def test_timer_fires(self):
        sim, net, a, b = build_pair()
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_rearming_replaces_previous(self):
        sim, net, a, b = build_pair()
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append("first"))
        a.set_timer("t", 2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["second"]

    def test_cancel_timer(self):
        sim, net, a, b = build_pair()
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(1))
        a.cancel_timer("t")
        sim.run()
        assert fired == []

    def test_has_timer(self):
        sim, net, a, b = build_pair()
        a.set_timer("t", 1.0, lambda: None)
        assert a.has_timer("t")
        a.cancel_timer("t")
        assert not a.has_timer("t")

    def test_crash_cancels_timers(self):
        sim, net, a, b = build_pair()
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_timer_name_cleared_after_firing(self):
        sim, net, a, b = build_pair()
        a.set_timer("t", 1.0, lambda: None)
        sim.run()
        assert not a.has_timer("t")

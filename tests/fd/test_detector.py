"""Unit tests for the failure detectors."""

import pytest

from repro.core.message import Envelope
from repro.fd.detector import (
    FD_STREAM,
    Heartbeat,
    HeartbeatFailureDetector,
    OracleFailureDetector,
)
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.process import SimProcess


class FDHost(SimProcess):
    """A process that runs a heartbeat detector and nothing else."""

    def __init__(self, pid, sim, network, **fd_kwargs):
        super().__init__(pid, sim, network)
        self.fd = HeartbeatFailureDetector(self, **fd_kwargs)

    def on_message(self, sender, payload):
        if isinstance(payload, Envelope) and payload.stream == FD_STREAM:
            self.fd.on_message(sender, payload.body)


def build_hosts(n=2, latency=0.001, **fd_kwargs):
    sim = Simulator(seed=1)
    net = Network(sim, ConstantLatency(latency))
    hosts = [FDHost(i, sim, net, **fd_kwargs) for i in range(n)]
    pids = [h.pid for h in hosts]
    for host in hosts:
        host.fd.monitor(pids)
        host.fd.start()
    return sim, net, hosts


class TestHeartbeatDetector:
    def test_no_suspicion_among_healthy_processes(self):
        sim, net, hosts = build_hosts()
        sim.run(until=2.0)
        assert hosts[0].fd.suspected() == frozenset()
        assert hosts[1].fd.suspected() == frozenset()

    def test_crashed_peer_suspected(self):
        sim, net, hosts = build_hosts()
        sim.schedule(1.0, hosts[1].crash)
        sim.run(until=2.0)
        assert hosts[0].fd.suspects(1)

    def test_suspicion_latency_bounded_by_timeout(self):
        sim, net, hosts = build_hosts(timeout=0.25)
        changes = []
        hosts[0].fd.subscribe(lambda pid, s: changes.append((sim.now, pid, s)))
        sim.schedule(1.0, hosts[1].crash)
        sim.run(until=3.0)
        assert changes, "no suspicion raised"
        when, pid, suspected = changes[0]
        assert pid == 1 and suspected
        assert 1.0 < when < 1.5

    def test_false_suspicion_recanted_with_backoff(self):
        sim, net, hosts = build_hosts(timeout=0.15, backoff=0.1)
        # Delay all heartbeats from 1 to 0 long enough to cause suspicion,
        # then heal; the detector must recant and increase the timeout.
        net.set_delay_filter(
            lambda src, dst, payload: 0.5 if (src, dst) == (1, 0) else 0.0
        )
        sim.run(until=0.4)
        assert hosts[0].fd.suspects(1)
        net.set_delay_filter(None)
        sim.run(until=3.0)
        assert not hosts[0].fd.suspects(1)
        assert hosts[0].fd._timeouts[1] > 0.15

    def test_does_not_monitor_self(self):
        sim, net, hosts = build_hosts()
        sim.run(until=2.0)
        assert not hosts[0].fd.suspects(0)

    def test_monitor_set_can_shrink(self):
        sim, net, hosts = build_hosts(n=3)
        sim.run(until=0.5)
        hosts[0].fd.monitor([0, 1])  # stop watching 2
        hosts[2].crash()
        sim.run(until=2.0)
        assert not hosts[0].fd.suspects(2)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        net = Network(sim)
        proc = FDHost(0, sim, net)
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(proc, period=0.0)

    def test_heartbeats_from_unmonitored_peer_ignored(self):
        sim, net, hosts = build_hosts(n=2)
        hosts[0].fd.monitor([])
        hosts[0].fd.on_message(1, Heartbeat(0))
        assert 1 not in hosts[0].fd._last_heard


class TestOracleDetector:
    def build(self, n=3, delay=0.1):
        sim = Simulator()
        net = Network(sim)

        class Plain(SimProcess):
            def on_message(self, sender, payload):
                pass

        procs = {i: Plain(i, sim, net) for i in range(n)}
        oracle = OracleFailureDetector(sim, procs, detection_delay=delay)
        oracle.start()
        return sim, procs, oracle

    def test_detects_after_exact_delay(self):
        sim, procs, oracle = self.build(delay=0.1)
        changes = []
        oracle.subscribe(lambda pid, s: changes.append((sim.now, pid)))
        sim.schedule(1.0, procs[2].crash)
        sim.run(until=2.0)
        when, pid = changes[0]
        assert pid == 2
        assert 1.1 <= when < 1.15  # delay plus at most one scan period

    def test_never_suspects_live_processes(self):
        sim, procs, oracle = self.build()
        sim.run(until=1.0)
        assert oracle.suspected() == frozenset()

    def test_multiple_crashes_all_detected(self):
        sim, procs, oracle = self.build()
        sim.schedule(0.5, procs[0].crash)
        sim.schedule(0.7, procs[1].crash)
        sim.run(until=2.0)
        assert oracle.suspected() == frozenset({0, 1})

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            OracleFailureDetector(sim, {}, detection_delay=-1.0)
        with pytest.raises(ValueError):
            OracleFailureDetector(sim, {}, scan_period=0.0)

    def test_subscription_fires_once_per_change(self):
        sim, procs, oracle = self.build()
        changes = []
        oracle.subscribe(lambda pid, s: changes.append(pid))
        procs[0].crash()
        sim.run(until=1.0)
        assert changes == [0]


class TestDeferredBeatsOnTiedInstants:
    """Latency, period and timeout all equal: every beat lands exactly on a
    check instant, before or after the check in kernel order, and a check
    that misjudged one would suspect a live peer a period early or late.
    Process 0 ticks first, so once it crashes its last beats tie with its
    peers' checks with no later send to settle them.  Deferred beats must
    give the suspicion log of eager ones to the bit."""

    def run(self, eager):
        sim = Simulator(seed=1)
        net = Network(sim, ConstantLatency(0.05))
        hosts = [
            FDHost(i, sim, net, period=0.05, timeout=0.05, backoff=0.05)
            for i in range(3)
        ]
        log = []
        for host in hosts:
            if eager:
                host.fd._lanes = None  # every beat an event, as before deferral
            host.fd.subscribe(
                lambda peer, flag, pid=host.pid: log.append(
                    (pid, peer, flag, sim.now.hex())
                )
            )
            host.fd.monitor(range(3))
            host.fd.start()
        sim.schedule(1.0, net.set_delay_filter,
                     lambda src, dst, payload: 0.2 if src == 1 else 0.0)
        sim.schedule(1.5, net.set_delay_filter, None)
        sim.schedule(3.0, hosts[0].crash)  # its last beats tie with checks
        sim.run(until=4.0)
        return log, net.messages_delivered

    def test_same_suspicions_as_eager_beats(self):
        log, delivered = self.run(eager=False)
        assert (log, delivered) == self.run(eager=True)
        # At the first check, beats ordered after the checker's timer raise
        # suspicions their own (materialized) arrival recants at once.
        first = {change[:3] for change in log if change[3] == (0.05).hex()}
        assert first == {(0, 1, True), (0, 1, False), (0, 2, True),
                         (0, 2, False), (1, 2, True), (1, 2, False)}
        assert len(log) > len(first)


class TestLiveHeartbeats:
    """On a live network there are no deferred lanes: every beat of every
    emission goes out as a real frame and comes back through the full
    delivery path."""

    @pytest.mark.timeout(60)
    def test_every_beat_is_a_real_message(self):
        from repro.scenario import Scenario
        from repro.transport.network import TransportNetwork

        n = 3
        live = (
            Scenario()
            .group(n=n, fd="heartbeat", consensus="chandra-toueg")
            .transport("loopback")
            .build()
        )
        network = live.stack.network
        assert isinstance(network, TransportNetwork)
        assert not hasattr(network, "lane")
        sent, received = {}, {}

        def count(into):
            def observer(src, dst, payload):
                if isinstance(payload, Envelope) and payload.stream == FD_STREAM:
                    into[src] = into.get(src, 0) + 1
            return observer

        network.add_send_observer(count(sent))
        network.add_receive_observer(count(received))
        # Building started the detectors: their first emission is out.
        before = {pid: proc.fd._epoch for pid, proc in live.stack.processes.items()}
        live.run(until=0.5)
        for pid, proc in live.stack.processes.items():
            detector = proc.fd
            assert detector._lanes is None
            assert detector._epoch - before[pid] > 10
            # One frame per peer per emission, none held back.
            assert sent[pid] == (detector._epoch - before[pid]) * (n - 1)
        # Loopback without loss delivers what it sent, bar beats in flight.
        assert sum(sent.values()) - sum(received.values()) <= n * (n - 1)
        assert not any(proc.fd.suspected() for proc in live.stack.processes.values())

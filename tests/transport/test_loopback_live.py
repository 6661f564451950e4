"""Live loopback integration: wall-clock runs against the executable spec.

This is the cross-check lane promised by ``docs/transport.md``: the same
protocol code, driven by the real-time runtime instead of the kernel, must
still satisfy every applicable specification check — and, modulo timing,
agree with a kernel run on *what* was delivered.
"""

import pytest

from repro.core.spec import LOSSY_CHECKS
from repro.scenario.builder import Scenario, ScenarioError
from repro.scenario.result import ScenarioResult
from repro.transport.clock import WallClock
from repro.transport.loopback import LoopbackTransport


def delivered_ids(result):
    """Per-process multiset of delivered (sender, sn) data ids."""
    return {
        pid: sorted(
            (e["sender"], e["sn"]) for e in hist if e["kind"] == "data"
        )
        for pid, hist in result.histories.items()
    }


def live_scenario(n=3, relation="item-tagging", seed=0, **transport):
    s = Scenario().group(n=n, relation=relation, seed=seed)
    s.transport("loopback", **transport)
    for i in range(12):
        s.inject(
            0.03 + i * 0.015,
            payload=f"m{i}",
            annotation=f"item{i % 3}",
            sender=i % n,
        )
    return s


class TestLiveLoopbackSpec:
    @pytest.mark.timeout(60)
    def test_live_run_satisfies_spec(self):
        result = live_scenario().collect("throughput", "network").run(until=1.0)
        assert isinstance(result, ScenarioResult)
        assert result.ok, result.violations
        assert result.metrics["throughput"]["offered"] == 12
        assert result.metrics["network"]["sent"] > 0

    @pytest.mark.timeout(60)
    def test_live_run_with_consumers_and_queue_metric(self):
        s = live_scenario().consumers(rate=500).collect("queue_depth")
        result = s.run(until=1.0)
        assert result.ok, result.violations
        assert set(result.metrics["queue_depth"]["mean"]) == {"0", "1", "2"}

    @pytest.mark.timeout(60)
    def test_sleeping_consumers_wake_on_the_wall_clock(self):
        # Consumers sleep between arrivals and wake on enqueue; on a wall
        # clock the wake-up must schedule relative to a ``now`` that keeps
        # moving.  Every multicast reaches every application, served by
        # the consumers themselves (no end-of-run drain).
        s = Scenario().group(n=3, relation="empty")
        s.transport("loopback", latency=0.002)
        for i in range(30):
            s.inject(0.05 + i * 0.025, payload=f"m{i}", sender=i % 3)
        s.consumers(rate=5000).collect("throughput")
        result = s.run(until=1.0, drain=False)
        assert result.ok, result.violations
        throughput = result.metrics["throughput"]
        assert throughput["offered"] == 30
        for pid in ("0", "1", "2"):
            # The 30 data messages plus the initial view.
            assert throughput["delivered"][pid] == 31
            assert throughput["consumed"][pid] == 31

    @pytest.mark.timeout(90)
    def test_lossy_loopback_satisfies_lossy_checks(self):
        s = live_scenario(latency=0.001, jitter=0.002, loss=0.08, duplicate=0.03)
        s.check(checks=LOSSY_CHECKS)
        result = s.run(until=1.5)
        assert result.ok, result.violations

    @pytest.mark.timeout(90)
    def test_live_view_change_under_loss(self):
        s = Scenario().group(n=4, relation="item-tagging")
        s.transport("loopback", latency=0.001, loss=0.1)
        s.check(checks=LOSSY_CHECKS)
        for i in range(8):
            s.inject(0.02 + i * 0.01, payload=i, annotation=f"i{i % 2}", sender=i % 4)
        s.crash(pid=3, at=0.25)
        s.view_change(at=0.4, pid=0)
        live = s.build()
        result = live.run(until=2.5)
        assert result.ok, result.violations
        survivors = [
            p for p in live.stack.processes.values() if not p.crashed
        ]
        # The change completed despite 10% loss: INIT/PRED/consensus
        # retransmission carried it.
        assert all(p.cv.vid >= 1 and not p.blocked for p in survivors)
        assert all(3 not in p.cv.members for p in survivors)


class TestLoopbackFifo:
    @pytest.mark.timeout(30)
    def test_a_burst_on_one_channel_arrives_in_send_order(self):
        # The FIFO clamp gives most of a jittered burst the same deadline;
        # those ties must still be delivered in the order they were sent.
        clock = WallClock(seed=3)
        wire = LoopbackTransport(clock, latency=0.002, jitter=0.001)
        received = []
        wire.bind(1, lambda pid, data: received.append(data))
        clock.add_runner(wire)
        frames = [index.to_bytes(2, "big") for index in range(256)]

        def burst():
            for frame in frames:
                wire.send(0, 1, frame)

        clock.schedule_at(0.01, burst)
        clock.run(until=0.05)
        assert received == frames


class TestKernelCrossCheck:
    @pytest.mark.timeout(90)
    def test_delivered_sets_match_kernel_run(self):
        # Classic VS (empty relation): no purging, so kernel and live runs
        # must deliver exactly the same message sets — only timing differs.
        def spec(live):
            s = Scenario().group(n=3, relation="empty")
            if live:
                s.transport("loopback")
            for i in range(15):
                s.inject(0.04 + i * 0.02, payload=f"m{i}", sender=i % 3)
            return s

        kernel = spec(live=False).run(until=2.0)
        live = spec(live=True).run(until=2.0)
        assert kernel.ok and live.ok
        assert delivered_ids(live) == delivered_ids(kernel)

    @pytest.mark.timeout(90)
    def test_purging_relation_delivers_subset_of_kernel_offers(self):
        live = live_scenario().run(until=1.0)
        assert live.ok, live.violations
        for pid, ids in delivered_ids(live).items():
            # Purging may drop covered messages but never invents ids.
            assert len(ids) == len(set(ids))
            assert all(0 <= sender < 3 and sn >= 0 for sender, sn in ids)


class TestLiveScenarioSurface:
    def test_unknown_backend_fails_fast_with_suggestion(self):
        with pytest.raises(Exception, match="did you mean 'loopback'"):
            Scenario().transport("loopbak")

    def test_latency_model_conflicts_with_transport(self):
        s = Scenario().latency("lognormal", mean=0.001).transport("loopback")
        with pytest.raises(ScenarioError, match="transport backend"):
            s.build()

    def test_bad_transport_params_fail_at_build(self):
        s = Scenario().transport("loopback", loss=1.5)
        with pytest.raises(ScenarioError, match="invalid transport configuration"):
            s.build()

    @pytest.mark.timeout(60)
    def test_settle_refused_on_live_runs(self):
        live = Scenario().group(n=2, relation="empty").transport("loopback").build()
        with pytest.raises(ScenarioError, match="one-shot"):
            live.settle()

    @pytest.mark.timeout(60)
    def test_live_session_exposes_transport_objects(self):
        live = live_scenario().build()
        assert live.clock is not None
        assert live.runtime is not None
        assert live.network is live.stack.network
        result = live.run(until=0.5)
        assert result.ok, result.violations
        assert live.runtime.stats.beacons_sent > 0
        with pytest.raises(ScenarioError, match="already ran"):
            live.run(until=0.5)

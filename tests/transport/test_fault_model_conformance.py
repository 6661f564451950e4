"""One fault model, two networks.

:class:`~repro.sim.network.Network` and
:class:`~repro.transport.network.TransportNetwork` share their topology and
fault API (``cut``/``heal``/``partition``/``heal_all``/``set_link_fault``)
through :class:`~repro.sim.network.NetworkBase`.  Every behaviour below runs
against both: the simulated network over a :class:`Simulator`, the live one
over a :class:`WallClock` and a transport that records frames instead of
moving them.  A message "arrives" when the sim network delivers it or the
live network hands its frame to the transport.  Both also read their
per-channel counters the same way, without mutating them.
"""

import math

import pytest

from repro.sim.kernel import Simulator
from repro.sim.network import ChannelStats, Network
from repro.sim.process import SimProcess
from repro.transport.clock import WallClock
from repro.transport.framing import unpack
from repro.transport.interface import Transport
from repro.transport.network import TransportNetwork


class Sink(SimProcess):
    """Appends every delivery to a log shared by the whole group."""

    def __init__(self, pid, sim, net, log):
        super().__init__(pid, sim, net)
        self.log = log

    def on_message(self, sender, payload):
        self.log.append((sender, self.pid, payload))


class RecordingTransport(Transport):
    """In-memory backend: records frames instead of moving them."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def send(self, src, dst, data):
        self.frames.append((src, dst, data))


class SimWorld:
    def __init__(self, seed, n):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self._log = []
        for pid in range(n):
            Sink(pid, self.sim, self.net, self._log)

    def arrivals(self):
        self.sim.run()
        return list(self._log)


class LiveWorld:
    def __init__(self, seed, n):
        self.clock = WallClock(seed=seed)
        self.transport = RecordingTransport()
        self.net = TransportNetwork(self.clock, self.transport)
        for pid in range(n):
            SimProcess(pid, self.clock, self.net)

    def arrivals(self):
        return [
            (src, dst, unpack(data)[1])
            for src, dst, data in self.transport.frames
        ]


WORLDS = {"sim": SimWorld, "live": LiveWorld}


@pytest.fixture(params=sorted(WORLDS))
def make_world(request):
    return lambda seed=0, n=4: WORLDS[request.param](seed, n)


def edges(arrivals):
    return {(src, dst) for src, dst, _ in arrivals}


def send_all_pairs(net, n=4, payload="m"):
    for src in range(n):
        for dst in range(n):
            if src != dst:
                net.send(src, dst, payload)


class TestCut:
    def test_one_way_cut_and_heal_touch_one_direction(self, make_world):
        world = make_world()
        world.net.cut(0, 1, bidirectional=False)
        world.net.send(0, 1, "lost")
        world.net.send(1, 0, "kept")
        world.net.cut(1, 0, bidirectional=False)
        world.net.heal(0, 1, bidirectional=False)
        world.net.send(0, 1, "healed")
        world.net.send(1, 0, "still cut")
        assert world.arrivals() == [(1, 0, "kept"), (0, 1, "healed")]

    def test_two_way_cut_and_heal(self, make_world):
        world = make_world()
        world.net.cut(0, 1)
        world.net.send(0, 1, "a")
        world.net.send(1, 0, "b")
        world.net.send(0, 2, "c")
        world.net.heal(0, 1)
        world.net.send(1, 0, "d")
        assert world.arrivals() == [(0, 2, "c"), (1, 0, "d")]

    def test_heal_all_restores_every_cut(self, make_world):
        world = make_world()
        world.net.cut(0, 1)
        world.net.cut(2, 3, bidirectional=False)
        world.net.heal_all()
        send_all_pairs(world.net)
        assert len(world.arrivals()) == 12
        assert world.net.messages_dropped == 0

    def test_partition_cuts_exactly_the_crossing_pairs(self, make_world):
        world = make_world()
        world.net.partition({0, 1}, {2, 3})
        send_all_pairs(world.net)
        assert edges(world.arrivals()) == {(0, 1), (1, 0), (2, 3), (3, 2)}
        assert world.net.messages_dropped == 8


class TestLinkFaultPolicy:
    def test_most_specific_policy_wins(self, make_world):
        world = make_world()
        net = world.net
        net.set_link_fault(loss=1.0)             # default: drop everything
        net.set_link_fault(None, 2)              # dst wildcard: shield 2
        net.set_link_fault(1, None, loss=1.0)    # src wildcard beats it
        net.set_link_fault(1, 0)                 # the edge beats both
        send_all_pairs(net)
        assert edges(world.arrivals()) == {(0, 2), (3, 2), (1, 0)}

    def test_inert_edge_policy_shields_and_takes_no_draw(self, make_world):
        world = make_world(seed=3)
        net = world.net
        net.set_link_fault(loss=0.5)
        net.set_link_fault(0, 1)
        for i in range(40):
            net.send(0, 1, f"shielded{i}")
            net.send(0, 2, f"exposed{i}")
        arrived = world.arrivals()
        assert sum(dst == 1 for _, dst, _ in arrived) == 40
        assert 0 < sum(dst == 2 for _, dst, _ in arrived) < 40
        # The shielded edge's stream is still at its first draw.
        fresh = Simulator(seed=3).rng("faults.0.1").random()
        assert net.sim.rng("faults.0.1").random() == fresh

    def test_filter_limits_the_policy_to_matching_payloads(self, make_world):
        world = make_world()
        world.net.set_link_fault(
            loss=1.0, filter=lambda payload: payload.startswith("data")
        )
        for i in range(3):
            world.net.send(0, 1, f"data{i}")
            world.net.send(0, 1, f"ctl{i}")
        assert [p for _, _, p in world.arrivals()] == ["ctl0", "ctl1", "ctl2"]
        assert world.net.messages_dropped == 3

    @pytest.mark.parametrize("rate", [1.5, math.nan])
    @pytest.mark.parametrize("name", ["loss", "duplicate"])
    def test_bad_rates_raise_and_install_nothing(self, make_world, name, rate):
        world = make_world()
        with pytest.raises(ValueError, match=name):
            world.net.set_link_fault(0, 1, **{name: rate})
        world.net.send(0, 1, "m")
        assert world.arrivals() == [(0, 1, "m")]

    def test_sent_dropped_duplicated_accounting(self, make_world):
        world = make_world(seed=11)
        net = world.net
        net.set_link_fault(0, 1, loss=0.3, duplicate=0.3)
        net.cut(0, 2)
        for i in range(60):
            net.send(0, 1, i)
        for i in range(5):
            net.send(0, 2, i)
        arrived = world.arrivals()
        one = net.channel_stats(0, 1)
        two = net.channel_stats(0, 2)
        assert (one.sent, two.sent) == (60, 5)
        assert two.dropped == 5 and two.duplicated == 0
        assert one.dropped > 0 and one.duplicated > 0
        assert net.messages_sent == 65
        assert net.messages_dropped == one.dropped + 5
        assert net.messages_duplicated == one.duplicated
        assert len(arrived) == 60 - one.dropped + one.duplicated


class TestChannelStatsZeroView:
    """Reading a channel's counters never mutates what it reports."""

    def test_read_does_not_insert(self, make_world):
        net = make_world().net
        assert net.channel_stats(0, 1) == ChannelStats()
        assert net._stats == {}, "introspection fabricated a stats entry"

    def test_repeated_reads_do_not_grow_the_table(self, make_world):
        net = make_world().net
        for dst in range(50):
            net.channel_stats(0, dst)
        assert len(net._stats) == 0

    def test_zero_view_is_disconnected_from_later_traffic(self, make_world):
        net = make_world().net
        zero = net.channel_stats(0, 1)
        net.send(0, 1, "ping")
        assert zero.sent == 0, "zero view aliased the live entry"
        assert net.channel_stats(0, 1).sent == 1

    def test_used_channels_still_share_the_live_entry(self, make_world):
        net = make_world().net
        net.send(0, 1, "ping")
        live = net.channel_stats(0, 1)
        net.send(0, 1, "pong")
        assert live.sent == 2
        assert len(net._stats) == 1


@pytest.mark.parametrize("seed", [0, 7])
def test_both_networks_drop_and_duplicate_the_same_messages(seed):
    """Same seed, same sends: the same indices lost and copied."""
    runs = {}
    for name, world_cls in WORLDS.items():
        world = world_cls(seed, 3)
        world.net.set_link_fault(loss=0.25, duplicate=0.25)
        world.net.set_link_fault(2, 0, loss=0.5)
        for i in range(50):
            world.net.send(i % 3, (i + 1) % 3, i)
            world.net.send(2, 0, 100 + i)
        runs[name] = world.arrivals()
    assert runs["sim"] == runs["live"]
    indices = [p for _, _, p in runs["sim"]]
    assert len(set(indices)) < 100, "nothing was dropped"
    assert len(indices) > len(set(indices)), "nothing was duplicated"

"""The deferral contract: a deferred arrival is an eager one, settled later.

:meth:`Network.send` with ``defer=True`` records a reliable arrival on the
receiver's open :class:`~repro.sim.network.DeferredLane` instead of
scheduling it.  Hypothesis draws per-channel send schedules mixing
deferred and eager sends with lane close/reopen, crash, loss, delay-filter
and cut episodes, counter reads inside events (tied to arrivals on a
dyadic time grid) and between paused runs, and checks the deferred run
against the same script with no lane open:

* every handler call of the deferred run is the eager run's call for the
  same message, in the same order, at the same instant — the deferred run
  only lacks the calls of arrivals settled on a lane;
* a settled arrival arrived in the eager run before the read that
  settled it, and each read's ``lane.latest`` is the eager arrival time of
  the latest of them;
* ``messages_delivered`` and every channel's counters are equal at every
  read, the last one after a run to a horizon past every arrival.

The kernel half — an event scheduled at a reserved sequence number runs
where an event scheduled at reservation time would have — is pinned by
unit tests at the bottom.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, Network, UniformLatency
from repro.sim.process import SimProcess

_N = 3
#: Dyadic time grid: op instants and the constant latency are exact
#: binary fractions, so reads and sends tie with arrivals to the bit.
_TICK = 1.0 / 1024
_CHANNELS = [(s, d) for s in range(_N) for d in range(_N) if s != d]
#: Past every op, arrival and in-event read a script can schedule.
_HORIZON = 1024 * _TICK


class _Recorder(SimProcess):
    """Logs every delivery the network hands it, crashed or not."""

    def __init__(self, pid, sim, network, calls):
        super().__init__(pid, sim, network)
        self.calls = calls

    def _deliver(self, sender, payload):
        self.calls.append((self.sim.now, sender, self.pid, payload, self.crashed))
        super()._deliver(sender, payload)

    def on_message(self, sender, payload):
        pass


_CHANNEL = st.sampled_from(_CHANNELS)
_OP = st.one_of(
    st.tuples(st.just("send"), _CHANNEL, st.booleans()),
    st.tuples(st.just("send"), _CHANNEL, st.just(True)),
    st.tuples(st.just("close"), _CHANNEL),
    st.tuples(st.just("reopen"), _CHANNEL),
    st.tuples(st.just("read"), _CHANNEL),
    st.tuples(st.just("read_in"), _CHANNEL, st.integers(0, 6)),
    st.tuples(st.just("cut"), _CHANNEL),
    st.tuples(st.just("heal"), _CHANNEL),
    st.tuples(st.just("loss"), _CHANNEL, st.sampled_from([0.0, 0.5])),
    st.tuples(st.just("delay"), st.sampled_from([None, 3 * _TICK])),
    st.tuples(st.just("crash"), st.integers(0, _N - 1)),
)
_SCRIPT = st.lists(st.tuples(st.integers(0, 6), _OP), min_size=1, max_size=40)


def _run(script, deferred, latency_model, pauses):
    """Run ``script`` (``(gap in ticks, op)`` pairs), pausing at the
    ``pauses`` grid instants; counters are read after every op and pause.
    With ``deferred``, every channel's receiver opens a lane first."""
    sim = Simulator(seed=5)
    latency = (
        ConstantLatency(4 * _TICK) if latency_model == "constant"
        else UniformLatency(sim, _TICK, 6 * _TICK)
    )
    net = Network(sim, latency)
    calls = []
    procs = [_Recorder(pid, sim, net, calls) for pid in range(_N)]
    lanes = {ch: net.lane(*ch) for ch in _CHANNELS} if deferred else {}
    recorded, reads, counters = set(), [], []

    def observe():
        counters.append((
            net.messages_sent, net.messages_delivered, net.messages_dropped,
            [repr(net.channel_stats(*ch)) for ch in _CHANNELS],
        ))

    def apply(index, op):
        kind = op[0]
        if kind == "send":
            (src, dst), defer = op[1], op[2]
            payload = f"m{index}"
            if not procs[src].crashed:
                net.send(src, dst, payload, defer=defer)
                lane = lanes.get((src, dst))
                if lane is not None and lane.pending and lane.pending[-1][2] == payload:
                    recorded.add(payload)
        elif kind == "close":
            if op[1] in lanes:
                lanes[op[1]].close()
        elif kind == "reopen":
            if op[1] in lanes:
                lanes[op[1]].open = True
        elif kind == "read":
            lane = lanes.get(op[1])
            reads.append((len(calls), op[1], lane.settle() if lane else None))
        elif kind == "read_in":
            # Scheduled now, so it orders after every arrival sent so far
            # that lands on the same instant.
            sim.schedule(op[2] * _TICK, apply, index, ("read", op[1]))
        elif kind == "cut":
            net.cut(*op[1])
        elif kind == "heal":
            net.heal(*op[1])
        elif kind == "loss":
            net.set_link_fault(*op[1], loss=op[2])
        elif kind == "delay":
            extra = op[1]
            net.set_delay_filter(None if extra is None else (lambda s, d, p: extra))
        else:
            procs[op[1]].crash()
        observe()

    at = 0.0
    for index, (gap, op) in enumerate(script):
        at += gap * _TICK
        sim.schedule_at(at, apply, index, op)
    # Pause on grid instants and read between runs, then run out.
    for tick in sorted(pauses):
        sim.run(until=tick * _TICK)
        observe()
    sim.run(until=_HORIZON)
    assert sim.pending_events == 0
    observe()
    return dict(calls=calls, recorded=recorded, reads=reads,
                counters=counters)


class TestDeferredEqualsEager:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_SCRIPT, latency=st.sampled_from(["constant", "uniform"]),
           pauses=st.sets(st.integers(0, 160), max_size=4))
    # A read tied with an arrival: ordered before it, after it, and a pause
    # that stops exactly on it.
    @example(script=[(0, ("send", (0, 1), True)), (4, ("read", (0, 1)))],
             latency="constant", pauses=set())
    @example(script=[(0, ("send", (0, 1), True)), (0, ("read_in", (0, 1), 4))],
             latency="constant", pauses=set())
    @example(script=[(0, ("send", (0, 1), True)), (9, ("read", (0, 1)))],
             latency="constant", pauses={4})
    def test_same_story(self, script, latency, pauses):
        eager = _run(script, False, latency, pauses)
        deferred = _run(script, True, latency, pauses)
        settled = deferred["recorded"] - {c[3] for c in deferred["calls"]}
        # Handler calls: the eager ones minus the settled arrivals.
        assert deferred["calls"] == [
            c for c in eager["calls"] if c[3] not in settled
        ]
        # Counters at every read.
        assert deferred["counters"] == eager["counters"]
        # Each settled arrival arrived (eagerly) before a read settled it,
        # and the lane's latest time is the latest such arrival.
        arrived = {c[3]: (i, c[0], (c[1], c[2])) for i, c in enumerate(eager["calls"])}
        assert all(payload in arrived for payload in settled)
        for (done, channel, latest), (eager_done, _, _) in zip(
            deferred["reads"], eager["reads"]
        ):
            times = [
                at for payload, (i, at, ch) in arrived.items()
                if payload in settled and ch == channel and i < eager_done
            ]
            assert latest == max(times, default=float("-inf"))


class TestReservedSequence:
    def test_reserved_event_runs_where_it_was_reserved(self):
        def trace(reserve):
            sim, log = Simulator(), []
            sim.schedule_at(1.0, log.append, "before")
            if reserve:
                seq = sim.reserve_seq()
            else:
                sim.schedule_at(1.0, log.append, "held")
            sim.schedule_at(1.0, log.append, "after")
            sim.schedule_at(0.5, lambda: None)
            if reserve:
                sim.run(until=0.75)
                sim.schedule_at(1.0, log.append, "held", seq=seq)
            sim.run()
            return log

        assert trace(True) == trace(False) == ["before", "held", "after"]

    def test_reserved_event_inside_the_active_slot(self):
        sim, log = Simulator(), []
        seq = sim.reserve_seq()
        sim.schedule_at(0.001, log.append, "later")

        def materialize():
            sim.schedule_at(0.001, log.append, "reserved", seq=seq)

        sim.schedule_at(0.0005, materialize)
        sim.run()
        assert log == ["reserved", "later"]

    def test_passed_follows_the_executing_event(self):
        sim, seen = Simulator(), []
        early, late = sim.reserve_seq(), None
        sim.schedule_at(1.0, lambda: seen.append(
            (sim.passed(1.0, early), sim.passed(1.0, late))
        ))
        late = sim.reserve_seq()
        assert not sim.passed(1.0, early)
        sim.run(until=2.0)
        assert seen == [(True, False)]
        # A run that reached ``until`` passed every instant up to it.
        assert sim.passed(2.0, late) and not sim.passed(2.5, late)

    def test_position_never_moves_back(self):
        sim = Simulator()
        seq = sim.reserve_seq()
        sim.run(until=5.0)
        sim.run(until=3.0)  # an earlier horizon un-runs nothing
        assert sim.passed(4.0, seq)

    def test_capped_run_keeps_its_clock(self):
        # Every instant before ``now`` has run, which settling relies on: a
        # run cut short by ``max_events`` does not jump to ``until``.
        sim = Simulator()
        seq = sim.reserve_seq()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(3.0, lambda: None)
        sim.run(until=5.0, max_events=1)
        assert sim.now == 1.0 and not sim.passed(2.0, seq)
        sim.run(until=5.0)
        assert sim.now == 5.0 and sim.passed(5.0, seq)

    def test_priority_orders_against_reserved_keys(self):
        sim, seen = Simulator(), []
        seq = sim.reserve_seq()
        sim.schedule_at(1.0, lambda: seen.append(sim.passed(1.0, seq)), priority=1)
        sim.schedule_at(1.0, lambda: seen.append(sim.passed(1.0, seq)), priority=-1)
        sim.run()
        assert seen == [False, True]


def test_zero_delay_arrivals_are_never_deferred():
    sim = Simulator()
    net = Network(sim, ConstantLatency(0.0))
    calls = []
    _Recorder(0, sim, net, calls), _Recorder(1, sim, net, calls)
    lane = net.lane(0, 1)
    net.send(0, 1, "x", defer=True)
    assert not lane.pending
    sim.run()
    assert [c[3] for c in calls] == ["x"]


@pytest.mark.parametrize("model", ["constant", "uniform"])
def test_lane_holds_only_arrivals_in_flight(model):
    sim = Simulator(seed=2)
    latency = (
        ConstantLatency(0.002) if model == "constant"
        else UniformLatency(sim, 0.001, 0.003)
    )
    net = Network(sim, latency)
    calls, held = [], []
    _Recorder(0, sim, net, calls), _Recorder(1, sim, net, calls)
    lane = net.lane(0, 1)

    def beat(k):
        net.send(0, 1, k, defer=True)
        held.append(len(lane.pending))

    for k in range(200):
        sim.schedule_at(k * 0.01, beat, k)
    sim.run(until=5.0)
    # Settle on append: each send found the previous beat arrived.
    assert max(held) == 1 and len(lane.pending) == 1 and not calls
    # A read settles the last one too; no handler ever ran.
    assert net.channel_stats(0, 1).delivered == 200 == net.messages_delivered
    assert not lane.pending and 1.99 < lane.latest < 1.995 and not calls

"""Property tests for the kernel's dispatch order and the batched fan-out.

``tests/sim/test_kernel_diff.py`` replays recorded whole-stack runs; this
suite attacks the same claims at the component level, where the failure
modes are nameable:

* **kernel dispatch order** — random schedule/cancel interleavings
  (same-instant events, priorities, same-slot late arrivals, overflow
  horizons, mid-slot ``run(until=...)`` pauses) must produce the exact
  callback trace of :class:`HeapReference`, the ordering contract written
  as one plain ``heapq``;
* **lazy cancellation** — cancelling entries that already sit in the
  sorted slot being drained must skip them precisely where the
  reference's pop-time check would;
* **batched fan-out** — random multicast/cut/heal/loss/crash/attach
  interleavings must leave a pristine :class:`Network` byte-identical
  (traces, counters, per-channel stats) to one latched to the
  per-destination loop at t=0, i.e. the one-event fan-out, its deferred
  stats fold, the one-way latch and its FIFO-clamp backfill lose nothing;
* **per-edge RNG streams** — delivery times do not depend on the latency
  refill size, on either path.

The shared-stream contract between the simulated and wall-clock
substrates (``rng(name)``) is pinned here too.
"""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import EventHandle, Simulator, derive_stream_seed
from repro.sim.network import ConstantLatency, Network, UniformLatency
from repro.sim.process import SimProcess


class HeapReference:
    """The kernel's ordering contract with no queue design at all: one
    heap of ``[time, priority, seq, callback, args, cancelled]`` entries,
    cancelled ones dropped when they surface."""

    def __init__(self, seed=0):
        self.now, self.events_processed = 0.0, 0
        self._heap, self._seq = [], 0

    def schedule(self, delay, callback, *args, priority=0):
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(self, time, callback, *args, priority=0):
        entry = EventHandle((time, priority, self._seq, callback, args, False))
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    @property
    def pending_events(self):
        return len(self._heap)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._heap:
            entry = self._heap[0]
            if not entry[5]:
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
            heapq.heappop(self._heap)
            if not entry[5]:
                self.now, executed = entry[0], executed + 1
                entry[3](*entry[4])
        self.events_processed += executed
        if until is not None and self.now < until:
            self.now = until
        return executed

    def step(self):
        return self.run(max_events=1) == 1


# ----------------------------------------------------------------------
# Kernel dispatch order under random schedule/cancel interleavings
# ----------------------------------------------------------------------

#: Delays chosen to land same-instant (0.0), inside the current 8 ms slot,
#: exactly on slot boundaries, a few slots out, and past the 4096-slot
#: horizon (forcing the overflow re-bucketing path).
_DELAYS = [0.0, 1e-4, 0.004, 0.0079, 0.008, 0.05, 1.0, 40.0]

_EVENT = st.tuples(
    st.sampled_from(_DELAYS),
    st.integers(min_value=-1, max_value=2),  # priority (ties + negatives)
    st.lists(  # children spawned when the event fires
        st.tuples(
            st.sampled_from(_DELAYS),
            st.integers(min_value=-1, max_value=2),
            st.integers(min_value=0, max_value=2),  # respawn count
        ),
        max_size=3,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=255)),  # cancel
)

PROGRAMS = st.lists(_EVENT, min_size=1, max_size=16)

RUN_MODES = st.sampled_from(["run", "step", "until", "max_events"])


def _execute(sim_cls, program, mode):
    """Run one schedule/cancel program; return everything observable.

    Every event appends ``(now, tag, pending_events)`` to the trace, may
    cancel one earlier handle (index taken modulo the handle count, so
    both kernels resolve it identically as long as their orders agree —
    which is the assertion), and spawns its children; a child with a
    respawn budget re-schedules itself, so same-instant chains recurse
    through the drain-time merge path.
    """
    sim = sim_cls(seed=7)
    trace = []
    handles = []
    snapshots = []

    def fire(tag, children, cancel):
        trace.append((sim.now, tag, sim.pending_events))
        if cancel is not None and handles:
            handles[cancel % len(handles)].cancel()
        for j, (delay, prio, respawn) in enumerate(children):
            handles.append(
                sim.schedule(delay, respawn_fire, (tag, j), delay, prio, respawn,
                             priority=prio)
            )

    def respawn_fire(tag, delay, prio, respawn):
        trace.append((sim.now, tag, sim.pending_events))
        if respawn:
            handles.append(
                sim.schedule(delay, respawn_fire, (tag, "r", respawn), delay,
                             prio, respawn - 1, priority=prio)
            )

    for i, (delay, prio, children, cancel) in enumerate(program):
        handles.append(sim.schedule(delay, fire, i, children, cancel,
                                    priority=prio))

    if mode == "run":
        sim.run()
    elif mode == "step":
        while sim.step():
            pass
    elif mode == "until":
        # Pause mid-stream (possibly mid-slot: re-entry must pick up the
        # half-drained slot), snapshot, then drain.
        sim.run(until=0.006)
        snapshots.append((len(trace), sim.now, sim.pending_events,
                          sim.events_processed))
        sim.run(until=0.9)
        snapshots.append((len(trace), sim.now, sim.pending_events))
        sim.run()
    else:  # max_events
        sim.run(max_events=3)
        snapshots.append((len(trace), sim.now, sim.events_processed))
        sim.run()

    return {
        "trace": trace,
        "snapshots": snapshots,
        "now": sim.now,
        "events_processed": sim.events_processed,
        "pending": sim.pending_events,
    }


class TestDispatchOrderEquivalence:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=PROGRAMS, mode=RUN_MODES)
    def test_random_interleavings_trace_identical(self, program, mode):
        assert _execute(Simulator, program, mode) == \
            _execute(HeapReference, program, mode)

    def test_same_instant_priority_order(self):
        """Ties at one instant resolve by (priority, seq)."""
        def trace_of(sim_cls):
            sim = sim_cls()
            out = []
            for i, prio in enumerate([2, 0, -1, 0, 1]):
                sim.schedule(0.001, out.append, (prio, i), priority=prio)
            sim.run()
            return out

        a, b = trace_of(Simulator), trace_of(HeapReference)
        assert a == b
        assert a == sorted(a)  # (priority, insertion order)

    def test_pending_events_inside_a_callback_counts_down(self):
        """An executing event has left the queue: five same-slot events
        each see one fewer pending than the one before."""
        def trace_of(sim_cls):
            sim = sim_cls()
            out = []
            for i in range(5):
                sim.schedule(0.001 * i, lambda: out.append(sim.pending_events))
            sim.run()
            return out

        assert trace_of(Simulator) == trace_of(HeapReference) == [4, 3, 2, 1, 0]

    def test_event_cancels_later_same_slot_event(self):
        """A firing event cancels a sibling already inside the sorted
        slot being drained — it must be skipped when it surfaces."""
        def trace_of(sim_cls):
            sim = sim_cls()
            out = []
            victim = sim.schedule(0.002, out.append, "victim")
            sim.schedule(0.001, lambda: (out.append("killer"),
                                         victim.cancel()))
            sim.schedule(0.003, out.append, "after")
            sim.run()
            return out, sim.events_processed

        assert trace_of(Simulator) == trace_of(HeapReference) == \
            (["killer", "after"], 2)

    def test_late_arrival_merges_into_draining_slot(self):
        """An event scheduled *during* the drain, at a time inside the
        slot already loaded, must run in this pass, ordered against the
        remaining slot entries."""
        def trace_of(sim_cls):
            sim = sim_cls()
            out = []

            def first():
                out.append("first")
                # Lands between "first" (0.001) and "third" (0.004), in
                # the slot currently being drained.
                sim.schedule(0.002, out.append, "late")
                # Same instant as "third" but lower priority value: must
                # run *before* it despite being scheduled later.
                sim.schedule_at(0.004, out.append, "late-prio",
                                priority=-1)

            sim.schedule(0.001, first)
            sim.schedule(0.004, out.append, "third")
            sim.run()
            return out

        assert trace_of(Simulator) == trace_of(HeapReference) == \
            ["first", "late", "late-prio", "third"]


# ----------------------------------------------------------------------
# Shared stream contract: Simulator / WallClock
# ----------------------------------------------------------------------


class TestStreamRngContract:
    def test_derive_stream_seed_pinned(self):
        """Literal pins: the SHA-256 derivation is part of the on-disk
        reproducibility contract (golden fixtures bake these streams)."""
        assert derive_stream_seed(0, "default") == 1112831937369694780
        assert derive_stream_seed(42, "network.0.1") == 12248474279277685243
        assert derive_stream_seed(2002, "consumer.3") == 12967646813682972167

    def test_simulator_and_wallclock_share_streams(self):
        """``rng(name)`` answers identically on the discrete-event kernel
        and the live wall clock — one implementation, one stream per
        (seed, name), whatever the substrate."""
        from repro.transport.clock import WallClock

        for seed in (0, 99):
            sim = Simulator(seed=seed)
            clock = WallClock(seed=seed)
            for name in ("default", "network.0.1", "faults.2.3", "jitter"):
                assert [sim.rng(name).random() for _ in range(16)] == \
                    [clock.rng(name).random() for _ in range(16)]

    def test_streams_are_memoized_and_independent(self):
        sim = Simulator(seed=5)
        first = sim.rng("a")
        first.random()
        # Same object back, with its consumed position.
        assert sim.rng("a") is first
        # A sibling stream is unperturbed by draws on "a".
        fresh = Simulator(seed=5)
        assert sim.rng("b").random() == fresh.rng("b").random()


# ----------------------------------------------------------------------
# Batched fan-out ≡ per-destination loop
# ----------------------------------------------------------------------


class _Recorder(SimProcess):
    """Process that logs every delivery with its exact timestamp."""

    def __init__(self, pid, sim, network):
        super().__init__(pid, sim, network)
        self.log = []

    def on_message(self, sender, payload):
        self.log.append((self.sim.now, sender, payload))


def _network(sim, latency, latched):
    """A network on either arm of the comparison.

    ``latched`` touches a fault knob with its no-op value at t=0: the
    network behaves as if nothing happened, but has left the batched path
    for good, so every multicast is the per-destination ``send`` loop.
    """
    net = Network(sim, latency)
    if latched:
        net.set_drop_filter(None)
    assert net._batched == (not latched and type(latency) is ConstantLatency)
    return net


def _observe(net, procs, n):
    return {
        "logs": [p.log for p in procs],
        "sent": net.messages_sent,
        "delivered": net.messages_delivered,
        "dropped": net.messages_dropped,
        "stats": {
            (s, d): repr(net.channel_stats(s, d))
            for s in range(n) for d in range(n) if s != d
        },
    }


_N = 4

_FAULT_OP = st.one_of(
    st.tuples(st.just("mcast"), st.integers(0, _N - 1)),
    st.tuples(st.just("cut"), st.integers(0, _N - 1), st.integers(0, _N - 1)),
    st.tuples(st.just("heal"), st.integers(0, _N - 1), st.integers(0, _N - 1)),
    st.tuples(st.just("loss"), st.integers(0, _N - 1), st.integers(0, _N - 1),
              st.sampled_from([0.0, 0.3, 1.0])),
    st.tuples(st.just("crash"), st.integers(0, _N - 1)),
    st.tuples(st.just("attach")),
    st.tuples(st.just("stats"), st.integers(0, _N - 1), st.integers(0, _N - 1)),
)

_FAULT_SCRIPT = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0005, 0.001, 0.0035]), _FAULT_OP),
    min_size=1,
    max_size=12,
)


def _run_fault_script(latched, script):
    """Execute the timed op script; return every observable the two
    paths could disagree on.  Multicasts address pids ``0.._N`` — one more
    than exist at t=0 — so an ``attach`` op (which brings pid ``_N`` up)
    lands before, between or *during* fan-outs to it."""
    sim = Simulator(seed=13)
    net = _network(sim, ConstantLatency(0.001), latched)
    procs = [_Recorder(pid, sim, net) for pid in range(_N)]
    probes = []

    def apply(op):
        kind = op[0]
        if kind == "mcast":
            src = op[1]
            dsts = [d for d in range(_N + 1) if d != src]
            procs[src].send_multicast(dsts, f"m@{sim.now:.4f}",
                                      token=(src, 0))
        elif kind == "cut":
            net.cut(op[1], op[2])
        elif kind == "heal":
            net.heal(op[1], op[2])
        elif kind == "loss":
            net.set_link_fault(src=op[1], dst=op[2], loss=op[3])
        elif kind == "crash":
            procs[op[1]].crash()
        elif kind == "attach":
            if len(procs) == _N:
                procs.append(_Recorder(_N, sim, net))
        else:  # stats: a mid-run read folds the deferred counters early
            probes.append((sim.now, repr(net.channel_stats(op[1], op[2]))))

    at = 0.0
    for gap, op in script:
        at += gap  # gap 0.0 keeps ops (and fan-outs) at the same instant
        sim.schedule_at(at, apply, op)
    sim.run()
    return dict(_observe(net, procs, _N + 1), probes=probes)


class TestFanoutEquivalence:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_FAULT_SCRIPT)
    def test_interleaved_faults_byte_identical(self, script):
        """Whatever the cut/loss/crash/attach timing — before, between, or
        at the same instant as fan-outs — the batched network tells the
        same story as the loop: traces, counters and per-channel stats."""
        assert _run_fault_script(False, script) == \
            _run_fault_script(True, script)

    def test_latch_backfills_fifo_clamp(self):
        """Leaving the batched path mid-stream reconstructs the
        per-channel FIFO clamp from the last batched fan-out, so
        post-latch deliveries can never be scheduled before pre-latch
        ones."""
        script = [
            (0.0, ("mcast", 0)),       # batched fan-out at t=0
            (0.0, ("cut", 2, 3)),      # latch at the same instant
            (0.0, ("mcast", 0)),       # now on the per-destination loop
            (0.001, ("mcast", 1)),
        ]
        a = _run_fault_script(True, script)
        b = _run_fault_script(False, script)
        assert a == b
        # Delivery timestamps per process are non-decreasing (FIFO held).
        for log in b["logs"]:
            times = [t for t, _, _ in log]
            assert times == sorted(times)

    @pytest.mark.parametrize("latched", [True, False])
    def test_process_attached_mid_flight_receives_the_fanout(self, latched):
        """pid 0 multicasts to [1, 2] at t=0 with latency 0.01; pid 2
        only attaches at t=0.005.  The message is still in the channel, so
        it reaches pid 2 on both paths — a fan-out in flight must resolve
        its destinations when it is delivered, not when it was sent."""
        sim = Simulator()
        net = _network(sim, ConstantLatency(0.01), latched)
        procs = [_Recorder(0, sim, net), _Recorder(1, sim, net)]
        procs[0].send_multicast([1, 2], "m1")
        sim.schedule_at(0.005, lambda: procs.append(_Recorder(2, sim, net)))
        sim.schedule_at(0.006, procs[0].send_multicast, [1, 2], "m2")
        sim.run()
        assert procs[2].log == [(0.01, 0, "m1"), (0.006 + 0.01, 0, "m2")]
        assert net.messages_delivered == 4
        assert net.channel_stats(0, 2).delivered == 2
        assert net.channel_stats(0, 2).sent == 2


def _drain_network(batch, latched):
    """1500+ sends per hot edge under uniform latency, drawn ``batch`` at
    a time; per-edge stream order makes the delivery times identical."""
    sim = Simulator(seed=5)
    net = _network(sim, UniformLatency(sim, 0.0005, 0.0015), latched)
    net.DRAW_BATCH = batch
    procs = [_Recorder(pid, sim, net) for pid in range(3)]
    for i in range(1500):
        sim.schedule_at(i * 0.0001, net.send, 0, 1, i)
        if i % 7 == 0:  # interleaved traffic on a second edge
            sim.schedule_at(i * 0.0001, net.multicast, 2, [0, 1], ("b", i))
    sim.run()
    return _observe(net, procs, 3)


class TestBatchedLatencyDraws:
    def test_draw_order_invariant_under_batch_size(self):
        reference = _drain_network(Network.DRAW_BATCH, latched=True)
        assert reference["delivered"] == 1500 + 2 * 215
        for batch in (1, 1024):
            assert _drain_network(batch, latched=False) == reference

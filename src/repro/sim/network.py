"""Simulated network: a full mesh of point-to-point FIFO channels.

The paper assumes processes are "fully connected by a network of
point-to-point message passing channels" that are *reliable and FIFO
ordered* (Section 3.1), with no bound on transmission time.  The evaluation
additionally models the network as "n x n queues fully connecting all
processes ... configured with unlimited bandwidth" (Section 5.3).

:class:`Network` implements exactly that: one logical queue per ordered pair
of processes.  Latency is pluggable per run; FIFO order is preserved even
under jittery latency by never scheduling a delivery earlier than the
previous delivery on the same channel.

For failure-detector and liveness tests the network also supports *fault
injection* (drops, partitions, extra delay), and for the
:mod:`repro.faults` subsystem a declarative **lossy link layer**: per-edge
(or network-wide) probabilistic loss, duplication and reordering
(:meth:`Network.set_link_fault`), with every draw taken from a dedicated
``faults.<src>.<dst>`` RNG stream so runs stay byte-reproducible and the
fault draws of one edge never perturb another edge (or the latency
streams).  All knobs are off by default so the core protocol runs over the
paper's assumed reliable channels.

While the network is *pristine* — exact :class:`ConstantLatency`, no fault
knob ever touched — :meth:`Network.multicast` schedules one kernel event
per fan-out instead of one per destination (see "Batched fan-out" in
``docs/kernel.md``); the first fault call latches it back to the
per-destination loop for good.

A receiver may open a :class:`DeferredLane` on a channel to have reliable
arrivals sent with ``defer=True`` recorded instead of scheduled (see
"Deferred arrivals" in ``docs/kernel.md``).

The topology and the fault model live in :class:`NetworkBase`, which the
live :class:`~repro.transport.network.TransportNetwork` shares, so a cut,
a partition or a link-fault policy means the same in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.registry import latency_models
from repro.sim.kernel import Simulator
from repro.sim.process import ProcessId, SimProcess

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "LinkFaultPolicy",
    "NetworkBase",
    "Network",
    "ChannelStats",
    "DeferredLane",
]


class LatencyModel:
    """Strategy producing a one-way latency for each message.

    Random models draw from a **per-edge** child generator (stream
    ``"network.<src>.<dst>"`` of the simulator's seed), so the latency
    sequence of one channel is deterministic per seed and independent of
    how sends on *other* channels interleave with it — adding traffic on
    one edge never perturbs the draws of another.

    :meth:`sample_batch` returns ``n`` draws at once (in stream order);
    the network requests draws in batches and hands them out one per send,
    which amortises the per-draw dispatch overhead on the hot path.
    """

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        raise NotImplementedError

    def sample_batch(self, src: ProcessId, dst: ProcessId, n: int) -> List[float]:
        """``n`` consecutive draws for the (src, dst) edge.

        This is the path the network actually uses: draws are requested
        in batches per edge and handed out one per send.  A model whose
        ``sample`` consumes a *shared* stream therefore sees its draws
        grouped by edge rather than interleaved in send order — override
        this (or use per-edge streams, as the built-ins do) if the exact
        draw interleaving matters to you.
        """
        return [self.sample(src, dst) for _ in range(n)]


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``latency`` time units."""

    latency: float = 0.001

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        return self.latency

    def sample_batch(self, src: ProcessId, dst: ProcessId, n: int) -> List[float]:
        return [self.latency] * n


class _EdgeRandomLatency(LatencyModel):
    """Shared plumbing for randomised models: one RNG stream per edge."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._edge_rngs: Dict[Tuple[ProcessId, ProcessId], Any] = {}

    def _rng_for(self, src: ProcessId, dst: ProcessId):
        key = (src, dst)
        rng = self._edge_rngs.get(key)
        if rng is None:
            rng = self._sim.rng(f"network.{src}.{dst}")
            self._edge_rngs[key] = rng
        return rng


class UniformLatency(_EdgeRandomLatency):
    """Latency drawn uniformly from ``[low, high]`` via the simulator RNG.

    Draws come from per-edge child generators derived from the simulator
    seed, so they are deterministic per seed and independent of other
    random consumers (and of other edges).
    """

    def __init__(self, sim: Simulator, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid latency range [{low}, {high}]")
        super().__init__(sim)
        self.low = low
        self.high = high

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        return self._rng_for(src, dst).uniform(self.low, self.high)

    def sample_batch(self, src: ProcessId, dst: ProcessId, n: int) -> List[float]:
        uniform = self._rng_for(src, dst).uniform
        low, high = self.low, self.high
        return [uniform(low, high) for _ in range(n)]


class LognormalLatency(_EdgeRandomLatency):
    """Heavy-tailed latency: log-normal with a given distribution mean.

    The paper assumes channels with "no bound on transmission time"
    (Section 3.1); a log-normal is the standard heavy-tailed stand-in for
    such links.  ``mean`` is the mean of the *resulting* distribution (so
    swapping ``ConstantLatency(x)`` for ``LognormalLatency(sim, mean=x)``
    keeps the average load identical); ``sigma`` is the shape parameter of
    the underlying normal — larger means a heavier tail.
    """

    def __init__(self, sim: Simulator, mean: float = 0.001, sigma: float = 1.0) -> None:
        if mean <= 0:
            raise ValueError(f"mean latency must be positive: {mean}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive: {sigma}")
        super().__init__(sim)
        self.mean = mean
        self.sigma = sigma
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean.
        self._mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        return self._rng_for(src, dst).lognormvariate(self._mu, self.sigma)

    def sample_batch(self, src: ProcessId, dst: ProcessId, n: int) -> List[float]:
        draw = self._rng_for(src, dst).lognormvariate
        mu, sigma = self._mu, self.sigma
        return [draw(mu, sigma) for _ in range(n)]


@latency_models.register("constant")
def _constant_latency(sim: Simulator, latency: float = 0.001) -> ConstantLatency:
    if latency < 0:
        raise ValueError(f"latency must be non-negative: {latency}")
    return ConstantLatency(latency)


@latency_models.register("uniform")
def _uniform_latency(
    sim: Simulator, low: float = 0.0005, high: float = 0.0015
) -> UniformLatency:
    return UniformLatency(sim, low, high)


@latency_models.register("lognormal")
def _lognormal_latency(
    sim: Simulator, mean: float = 0.001, sigma: float = 1.0
) -> LognormalLatency:
    return LognormalLatency(sim, mean, sigma)


@dataclass(frozen=True)
class LinkFaultPolicy:
    """Probabilistic fault rates applied to messages on a link.

    ``loss``, ``duplicate`` and ``reorder`` are independent per-message
    probabilities in ``[0, 1]``.  A reordered message is delivered at
    ``latency + U(0, reorder_spread)`` *without* the FIFO clamp, so later
    sends on the same channel may overtake it.  ``filter`` (optional)
    restricts the policy to payloads it returns true for — e.g. "data
    messages only", keeping the control plane reliable.

    A policy whose rates are all zero is *inert but present*: it shadows a
    broader policy in the resolution order (exact edge > source wildcard >
    destination wildcard > network-wide default) without consuming any
    randomness, so installing it cannot change event order.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_spread: float = 0.004
    filter: Optional[Callable[[Any], bool]] = None

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            rate = getattr(self, name)
            # NaN fails the range check too (all comparisons are false).
            if not (isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0):
                raise ValueError(f"{name} rate must be in [0, 1]: {rate!r}")
        if not (self.reorder_spread > 0) or math.isinf(self.reorder_spread):
            raise ValueError(
                f"reorder_spread must be positive and finite: "
                f"{self.reorder_spread!r}"
            )

    @property
    def inert(self) -> bool:
        return not (self.loss or self.duplicate or self.reorder)


@dataclass
class ChannelStats:
    """Per-channel counters, used by tests and the metrics layer."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0


class DeferredLane:
    """Reliable arrivals on one channel, recorded instead of scheduled.

    Owned by the receiver (see :meth:`Network.lane`).  While ``open``, a
    ``defer=True`` arrival on the reliable path is kept, in arrival order,
    as ``(deliver_at, reserved seq, payload)`` and calls no handler;
    :meth:`settle` counts those the kernel has passed as delivered.
    """

    __slots__ = ("network", "channel", "open", "pending", "latest")

    def __init__(
        self, network: "Network", channel: Tuple[ProcessId, ProcessId]
    ) -> None:
        self.network, self.channel, self.open = network, channel, True
        self.pending: List[Tuple[float, int, Any]] = []
        self.latest = -math.inf

    def settle(self) -> float:
        """Settle the passed arrivals; return the latest arrival time
        settled so far (``-inf`` if none)."""
        pending, sim = self.pending, self.network.sim
        n = 0
        for deliver_at, seq, _ in pending:
            # Everything before ``now`` has run; a tie asks the kernel.
            if deliver_at > sim.now or (
                deliver_at == sim.now and not sim.passed(deliver_at, seq)
            ):
                break
            n += 1
        if n:
            self.latest = pending[n - 1][0]
            del pending[:n]
            self.network._stats[self.channel].delivered += n
            self.network._delivered += n
        return self.latest

    def close(self) -> None:
        """Make the arrivals in flight delivery events at their own
        ``(time, seq)``; defer nothing until ``open`` is set again."""
        self.settle()
        net = self.network
        for deliver_at, seq, payload in self.pending:
            net.sim.schedule_at(
                deliver_at, net._deliver, *self.channel, payload, seq=seq
            )
        self.pending, self.open = [], False


class _FanoutGroup:
    """Memoized state of one ``(src, destination list)`` multicast group.

    ``attached``/``handlers`` are the destinations that exist and one
    pre-bound delivery callable for each (the process's fast handler when
    it provides one, its generic ``_deliver`` otherwise), resolved against
    the network's attach epoch when a fan-out is delivered.
    ``sent``/``delivered_runs`` count whole fan-outs and are folded into the
    per-channel :class:`ChannelStats` lazily; ``last_now`` is the send time
    of the latest batched fan-out, from which the exact FIFO clamp
    (``last_now + constant latency``) is reconstructed when the network
    leaves the batched path.
    """

    __slots__ = (
        "src", "dsts", "attached", "handlers", "epoch",
        "sent", "delivered_runs", "last_now",
    )

    def __init__(self, src: ProcessId, dsts: Tuple[ProcessId, ...]) -> None:
        self.src = src
        self.dsts = dsts
        self.attached: Tuple[ProcessId, ...] = ()
        self.handlers: List[Callable[[ProcessId, Any], None]] = []
        self.epoch = -1  # never resolved
        self.sent = 0
        self.delivered_runs = 0
        self.last_now: Optional[float] = None

    def resolve(self, procs: Dict[ProcessId, SimProcess], epoch: int) -> None:
        attached: List[ProcessId] = []
        handlers: List[Callable[[ProcessId, Any], None]] = []
        for dst in self.dsts:
            proc = procs.get(dst)
            if proc is not None:
                attached.append(dst)
                fast = proc._fast_handler
                handlers.append(fast if fast is not None else proc._deliver)
        self.attached = tuple(attached)
        self.handlers = handlers
        self.epoch = epoch


class NetworkBase:
    """The topology and fault model every network shares.

    Holds the attached processes, the message counters (each subclass
    counts deliveries its own way), the cut set and the link-fault
    policies.  :class:`Network` moves messages as kernel events and
    :class:`~repro.transport.network.TransportNetwork` as framed
    datagrams; both consult the fault state through
    :meth:`_resolve_policy` and :meth:`_fault_rng`, so a fault profile
    written for simulation applies to a live run unmodified.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self._procs: Dict[ProcessId, SimProcess] = {}
        self._stats: Dict[Tuple[ProcessId, ProcessId], ChannelStats] = {}
        # Fault state (all empty by default = reliable channels).  Link-fault
        # policies are keyed by (src|None, dst|None); the per-channel
        # resolution is cached until a policy changes.  Fault draws come
        # from per-edge "faults.<src>.<dst>" RNG streams.
        self._cut: Set[Tuple[ProcessId, ProcessId]] = set()
        self._link_faults: Dict[
            Tuple[Optional[ProcessId], Optional[ProcessId]], LinkFaultPolicy
        ] = {}
        self._policy_cache: Dict[
            Tuple[ProcessId, ProcessId], Optional[LinkFaultPolicy]
        ] = {}
        self._fault_rngs: Dict[Tuple[ProcessId, ProcessId], Any] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, proc: SimProcess) -> None:
        if proc.pid in self._procs:
            raise ValueError(f"pid {proc.pid} already attached")
        self._procs[proc.pid] = proc

    def process(self, pid: ProcessId) -> SimProcess:
        return self._procs[pid]

    @property
    def pids(self) -> List[ProcessId]:
        return sorted(self._procs)

    # ------------------------------------------------------------------
    # Fault injection (default off)
    # ------------------------------------------------------------------

    def _before_fault(self) -> None:
        """Called before a cut or a link-fault policy takes effect."""

    def cut(self, a: ProcessId, b: ProcessId, bidirectional: bool = True) -> None:
        """Drop all future messages on the (a, b) channel(s)."""
        self._before_fault()
        self._cut.add((a, b))
        if bidirectional:
            self._cut.add((b, a))

    def heal(self, a: ProcessId, b: ProcessId, bidirectional: bool = True) -> None:
        """Undo :meth:`cut`."""
        self._cut.discard((a, b))
        if bidirectional:
            self._cut.discard((b, a))

    def partition(self, side_a: Set[ProcessId], side_b: Set[ProcessId]) -> None:
        """Cut every channel crossing the two sides."""
        for a in side_a:
            for b in side_b:
                self.cut(a, b)

    def heal_all(self) -> None:
        self._cut.clear()

    def set_link_fault(
        self,
        src: Optional[ProcessId] = None,
        dst: Optional[ProcessId] = None,
        *,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        reorder_spread: float = 0.004,
        filter: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Install (or replace) a :class:`LinkFaultPolicy`.

        ``src``/``dst`` select the scope: both ``None`` is the network-wide
        default, one of them wildcards that end, both given names one
        directed edge.  Resolution per message is most-specific-first:
        ``(src, dst)`` > ``(src, *)`` > ``(*, dst)`` > default — so an
        explicit all-zero policy on an edge shields it from a lossy
        default.  Every probabilistic draw comes from the edge's own
        ``faults.<src>.<dst>`` RNG stream, independent of latency draws
        and of every other edge.
        """
        self._before_fault()
        self._link_faults[(src, dst)] = LinkFaultPolicy(
            loss=loss,
            duplicate=duplicate,
            reorder=reorder,
            reorder_spread=reorder_spread,
            filter=filter,
        )
        self._policy_cache.clear()

    def _resolve_policy(
        self, channel: Tuple[ProcessId, ProcessId], payload: Any
    ) -> Optional[LinkFaultPolicy]:
        """The policy that applies to ``payload`` on ``channel``, or
        ``None`` when the channel's policy is inert or filters it out."""
        try:
            policy = self._policy_cache[channel]
        except KeyError:
            src, dst = channel
            faults = self._link_faults
            policy = (
                faults.get((src, dst))
                or faults.get((src, None))
                or faults.get((None, dst))
                or faults.get((None, None))
            )
            # An inert policy shadows broader ones but never applies.
            if policy is not None and policy.inert:
                policy = None
            self._policy_cache[channel] = policy
        if policy is None or (
            policy.filter is not None and not policy.filter(payload)
        ):
            return None
        return policy

    def _fault_rng(self, channel: Tuple[ProcessId, ProcessId]):
        rng = self._fault_rngs.get(channel)
        if rng is None:
            rng = self.sim.rng(f"faults.{channel[0]}.{channel[1]}")
            self._fault_rngs[channel] = rng
        return rng

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def channel_stats(self, src: ProcessId, dst: ProcessId) -> ChannelStats:
        """Counters of one channel; a zero view for never-used channels.

        Reading must not mutate ``_stats``: inserting on lookup would make
        introspection fabricate entries, inflating iteration and ``repr``.
        The zero object is fresh per call and deliberately disconnected —
        traffic on the channel later starts its own entry.
        """
        stats = self._stats.get((src, dst))
        return stats if stats is not None else ChannelStats()


class Network(NetworkBase):
    """Full mesh of reliable FIFO channels over a :class:`Simulator`.

    Processes attach themselves on construction (see
    :class:`~repro.sim.process.SimProcess`).  ``send`` enqueues a delivery
    event; FIFO order per ordered pair is enforced by tracking the last
    scheduled delivery time per channel.

    **Batched fan-out.**  :meth:`multicast` is one ``send`` per destination;
    while the network is *pristine* it performs that loop inside one kernel
    event.  ``docs/kernel.md`` has the full argument; the conditions are:

    * Pristine: the latency model is exactly :class:`ConstantLatency` and
      no cut, drop filter, delay filter or link-fault policy has ever been
      installed.  Under constant latency ``d`` the FIFO clamp never binds,
      so all deliveries of a fan-out share ``deliver_at = now + d``, and
      the loop would have given them consecutive sequence numbers — no
      other event could order between them.
    * The one assumption the code cannot check: no event scheduled later
      at that same instant uses a negative priority.  Nothing in the stack
      does.
    * The first fault-injection call permanently latches the network to
      the per-destination loop, after folding the deferred per-channel
      stats and backfilling the FIFO clamps.

    On the batched path per-channel :class:`ChannelStats` are folded from
    per-group counters on demand; ``messages_sent``/``messages_delivered``
    stay exact at all times.
    """

    #: Latency draws requested from the model per (src, dst) edge at a
    #: time.  Purely a performance knob — draw order per edge is identical
    #: for any batch size.
    DRAW_BATCH = 64

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__(sim)
        self.latency = latency or ConstantLatency()
        self._last_delivery: Dict[Tuple[ProcessId, ProcessId], float] = {}
        # Constant models short-circuit sampling entirely; random models
        # are drawn in per-edge batches (consumed in stream order).
        # Exact-type check: a ConstantLatency *subclass* may override
        # sample()/sample_batch() and must keep being consulted.
        self._constant: Optional[float] = (
            self.latency.latency
            if type(self.latency) is ConstantLatency
            else None
        )
        self._draws: Dict[Tuple[ProcessId, ProcessId], List[float]] = {}
        # Batched fan-out: on until the first fault knob is touched.
        # Groups are keyed by the caller's token (or (src, dsts)); a
        # group whose epoch is behind ``_attach_epoch`` re-resolves its
        # handlers before its next delivery.
        self._batched = self._constant is not None
        self._groups: Dict[Any, _FanoutGroup] = {}
        self._attach_epoch = 0
        self._lanes: Dict[Tuple[ProcessId, ProcessId], DeferredLane] = {}
        # Simulation-only fault knobs (None by default = reliable net).
        self._drop_filter: Optional[Callable[[ProcessId, ProcessId, Any], bool]] = None
        self._delay_filter: Optional[Callable[[ProcessId, ProcessId, Any], float]] = None
        self._delivered = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, proc: SimProcess) -> None:
        super().attach(proc)
        if self._groups:
            # Deliveries counted so far belong to the old attachment; a
            # fan-out already in flight must still reach the newcomer.
            self._flush_groups()
            self._attach_epoch += 1

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any, defer: bool = False
    ) -> None:
        """Send ``payload`` from ``src`` to ``dst``.

        Unknown destinations are ignored (a message to a process that never
        existed just disappears, as on a real network).  With ``defer``, a
        reliable arrival goes to the channel's open :class:`DeferredLane`.
        """
        channel = (src, dst)
        stats = self._stats.get(channel)
        if stats is None:
            stats = self._stats[channel] = ChannelStats()
        stats.sent += 1
        self.messages_sent += 1

        if self._cut and channel in self._cut:
            stats.dropped += 1
            self.messages_dropped += 1
            return
        if self._drop_filter is not None and self._drop_filter(src, dst, payload):
            stats.dropped += 1
            self.messages_dropped += 1
            return

        # Lossy link layer (repro.faults).  Policy resolution is a cached
        # dict lookup; draws are only taken for non-zero rates, so an
        # all-zero policy is byte-identical to no policy at all.
        policy = None
        if self._link_faults:
            policy = self._resolve_policy(channel, payload)
        if policy is not None and policy.loss:
            if self._fault_rng(channel).random() < policy.loss:
                stats.dropped += 1
                self.messages_dropped += 1
                return

        delay = self._constant
        if delay is None:
            # Batched per-edge draws, consumed in the model's stream order.
            draws = self._draws.get(channel)
            if not draws:
                draws = self.latency.sample_batch(src, dst, self.DRAW_BATCH)
                draws.reverse()
                self._draws[channel] = draws
            delay = draws.pop()
        if self._delay_filter is not None:
            delay += self._delay_filter(src, dst, payload)

        if policy is None:
            # Fast path: reliable FIFO channel, exactly as before faults
            # existed.  Never deliver before the previously scheduled
            # delivery on this channel, regardless of the sampled latency.
            now = self.sim.now
            deliver_at = max(now + delay, self._last_delivery.get(channel, 0.0))
            self._last_delivery[channel] = deliver_at
            if defer and deliver_at > now:
                lane = self._lanes.get(channel)
                if lane is not None and lane.open:
                    lane.settle()  # so it holds only arrivals in flight
                    seq = self.sim.reserve_seq()
                    lane.pending.append((deliver_at, seq, payload))
                    return
            self.sim.schedule_at(deliver_at, self._deliver, src, dst, payload)
            return

        rng = self._fault_rng(channel)
        duplicated = bool(policy.duplicate) and rng.random() < policy.duplicate
        reordered = bool(policy.reorder) and rng.random() < policy.reorder
        if reordered:
            # Extra delay *without* the FIFO clamp: later sends on this
            # channel may overtake the straggler, and the straggler does
            # not advance the clamp for them.
            stats.reordered += 1
            self.messages_reordered += 1
            deliver_at = self.sim.now + delay + rng.random() * policy.reorder_spread
        else:
            deliver_at = max(
                self.sim.now + delay, self._last_delivery.get(channel, 0.0)
            )
            self._last_delivery[channel] = deliver_at
        self.sim.schedule_at(deliver_at, self._deliver, src, dst, payload)
        if duplicated:
            # The copy is scheduled at the same instant but with a later
            # sequence number, so it arrives right after the original and
            # never violates FIFO on its own.
            stats.duplicated += 1
            self.messages_duplicated += 1
            self.sim.schedule_at(deliver_at, self._deliver, src, dst, payload)

    def multicast(
        self,
        src: ProcessId,
        dsts: Any,
        payload: Any,
        token: Optional[Any] = None,
    ) -> None:
        """Send ``payload`` from ``src`` to every destination, in order.

        Semantically this *is* ``for dst in dsts: self.send(...)`` — one
        FIFO unicast per destination, in iteration order.  On a pristine
        network the loop runs inside one kernel event (see the class
        docstring).

        ``token``, when given, must uniquely identify the ``(src, dsts)``
        pair for the lifetime of the network (the SVS layer passes
        ``(pid, view id)``); it lets the batched path memoize per-group
        state without hashing the destination list on every call.
        """
        if not self._batched:
            for dst in dsts:
                self.send(src, dst, payload)
            return
        key = token if token is not None else (src, tuple(dsts))
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _FanoutGroup(src, tuple(dsts))
        group.sent += 1
        self.messages_sent += len(group.dsts)
        now = self.sim.now
        group.last_now = now
        self.sim.schedule_at(
            now + self._constant, self._deliver_group, group, payload
        )

    def _deliver_group(self, group: _FanoutGroup, payload: Any) -> None:
        # One kernel event delivers the whole fan-out in destination order
        # (== the loop's consecutive-seq order).  Crash checks happen per
        # destination inside the handlers, exactly where the per-event
        # deliveries perform them.
        if group.epoch != self._attach_epoch:
            group.resolve(self._procs, self._attach_epoch)
        group.delivered_runs += 1
        handlers = group.handlers
        self._delivered += len(handlers)
        src = group.src
        for handler in handlers:
            handler(src, payload)

    def _flush_groups(self) -> None:
        """Fold deferred group counters into per-channel state.

        Safe to call at any time, any number of times: counters are reset
        after folding and in-flight batch events keep accumulating on the
        group objects.
        """
        d = self._constant
        stats_map = self._stats
        last = self._last_delivery
        for group in self._groups.values():
            src = group.src
            sent = group.sent
            if sent:
                for dst in group.dsts:
                    ch = (src, dst)
                    stats = stats_map.get(ch)
                    if stats is None:
                        stats = stats_map[ch] = ChannelStats()
                    stats.sent += sent
                group.sent = 0
            delivered = group.delivered_runs
            if delivered:
                for dst in group.attached:
                    stats_map[(src, dst)].delivered += delivered
                group.delivered_runs = 0
            if group.last_now is not None:
                clamp = group.last_now + d
                for dst in group.dsts:
                    ch = (src, dst)
                    if clamp > last.get(ch, 0.0):
                        last[ch] = clamp
                group.last_now = None

    def _before_fault(self) -> None:
        """Permanently fall back to the per-destination loop.

        Called before the first fault-injection knob takes effect; the
        latch is one-way because a cleared delay filter or healed link
        may have pushed a channel's FIFO clamp beyond ``now + d``, which
        the clamp-free batched path could then violate.
        """
        if self._batched:
            self._batched = False
            self._flush_groups()

    def _deliver(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        proc = self._procs.get(dst)
        if proc is None:
            return
        self._stats[(src, dst)].delivered += 1
        self._delivered += 1
        proc._deliver(src, payload)

    # ------------------------------------------------------------------
    # Deferred arrivals
    # ------------------------------------------------------------------

    def lane(self, src: ProcessId, dst: ProcessId) -> DeferredLane:
        """The :class:`DeferredLane` of ``(src, dst)`` (created open), for ``dst``."""
        lane = self._lanes.get((src, dst))
        if lane is None:
            lane = self._lanes[(src, dst)] = DeferredLane(self, (src, dst))
        return lane

    @property
    def messages_delivered(self) -> int:
        """Deliveries so far, passed deferred arrivals included."""
        for lane in self._lanes.values():
            lane.settle()
        return self._delivered

    # ------------------------------------------------------------------
    # Simulation-only fault knobs
    # ------------------------------------------------------------------

    def set_drop_filter(
        self, predicate: Optional[Callable[[ProcessId, ProcessId, Any], bool]]
    ) -> None:
        """Drop messages for which ``predicate(src, dst, payload)`` is true."""
        self._before_fault()
        self._drop_filter = predicate

    def set_delay_filter(
        self, extra: Optional[Callable[[ProcessId, ProcessId, Any], float]]
    ) -> None:
        """Add ``extra(src, dst, payload)`` seconds of latency per message.

        Note: added delay interacts with the FIFO guarantee — a delayed
        message also delays everything behind it on the same channel, which
        is exactly how a slow link behaves.
        """
        self._before_fault()
        self._delay_filter = extra

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def channel_stats(self, src: ProcessId, dst: ProcessId) -> ChannelStats:
        self._flush_groups()
        for lane in self._lanes.values():
            lane.settle()
        return super().channel_stats(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network(procs={len(self._procs)}, sent={self.messages_sent}, "
            f"delivered={self.messages_delivered}, "
            f"batched={'on' if self._batched else 'off'})"
        )

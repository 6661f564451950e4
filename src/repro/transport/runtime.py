"""Wall-clock runtime services: sync beacons, suppression, retransmission.

The simulated network is reliable-by-default, so Figure 1 can assume one
transmission suffices.  A live datagram transport cannot: UDP loses frames,
and the loopback backend is asked to emulate loss on purpose.  This module
restores liveness *around* the unchanged protocol, in the state-vector
sync idiom (each member periodically announces a per-sender sequence-number
vector; peers detect gaps and the *origin* retransmits what the peer is
missing):

* :class:`SyncScheduler` — jittered periodic timer: each interval is
  ``interval ± uniform(0, rand_percent) * interval`` so beacons desynchronise
  instead of thundering.  ``skip_interval()`` fires now; ``reset(delay)``
  suppresses the pending beacon and re-arms.
* sync beacons — per local member, a :class:`SyncMessage` carrying the
  member's per-origin max sequence numbers, multicast on the transport-level
  ``transport.sync`` stream.  The stream is consumed by
  :class:`~repro.transport.network.TransportNetwork` before process
  delivery, so :class:`~repro.core.svs.SVSProcess` never sees it.
* suppression — a beacon proving a peer already holds our exact state
  resets our scheduler (nothing new to tell); a beacon *fresher* than our
  state makes us announce immediately (``skip_interval``) so origins learn
  of our gaps without waiting a full interval.
* data retransmission — each member keeps a bounded log of its own
  multicasts; when a beacon shows a peer behind on our messages, the
  missing ones are re-sent directly to that peer (receivers are
  idempotent: t3 drops duplicates by id/coverage).
* view-change retransmission — observed INIT/PRED sends are re-sent with
  exponential backoff (``base * factor^k``, capped) while the sender stays
  blocked in the same view, so a lost PRED cannot stall a view change
  forever.  This is the wall-clock analogue of the kernel's fixed-period
  ``viewchange_retry`` option, and equally outcome-neutral on loss-free
  links.

Everything here observes the stack from outside (send/receive observers on
the network); no protocol code knows the runtime exists.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.consensus.chandra_toueg import Decide
from repro.consensus.interface import CONSENSUS_STREAM
from repro.core.message import DataMessage, Envelope, InitMessage, PredMessage
from repro.core.svs import SVS_STREAM
from repro.sim.process import ProcessId
from repro.transport.clock import WallClock
from repro.transport.framing import register_codec
from repro.transport.network import TransportNetwork

__all__ = [
    "SYNC_STREAM",
    "SyncMessage",
    "SyncScheduler",
    "LiveRuntime",
    "RuntimeStats",
    "jittered_interval",
    "next_backoff",
]

SYNC_STREAM = "transport.sync"


@dataclass(frozen=True)
class SyncMessage:
    """State-vector announcement: ``{origin pid: max sequence number}``."""

    vector: Dict[ProcessId, int]


register_codec(
    SyncMessage,
    "tsync",
    lambda m: [[k, v] for k, v in sorted(m.vector.items())],
    lambda v: SyncMessage({k: sn for k, sn in v}),
)


def jittered_interval(interval: float, rand_percent: float, rng) -> float:
    """One scheduler period: ``interval ± uniform(0, rand_percent) * interval``.

    Pure so the jitter bounds are testable without a clock; ``rng`` only
    needs ``uniform``.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive: {interval!r}")
    if not 0.0 <= rand_percent < 1.0:
        raise ValueError(f"rand_percent must be in [0, 1): {rand_percent!r}")
    if rand_percent == 0.0:
        return interval
    return interval + rng.uniform(-rand_percent, rand_percent) * interval


def next_backoff(delay: float, factor: float = 2.0, cap: float = 1.0) -> float:
    """The delay following ``delay`` in an exponential backoff capped at
    ``cap``.  Pure, for the same reason as :func:`jittered_interval`."""
    if delay <= 0 or factor < 1.0 or cap <= 0:
        raise ValueError(
            f"need delay > 0, factor >= 1, cap > 0: {delay!r}/{factor!r}/{cap!r}"
        )
    return min(delay * factor, cap)


class SyncScheduler:
    """Jittered periodic timer in the SVS scheduler idiom.

    Calls ``callback()`` every :func:`jittered_interval` seconds.
    ``skip_interval()`` fires the callback as soon as possible;
    ``reset(delay)`` cancels the pending fire and re-arms (suppression).
    """

    def __init__(
        self,
        clock: WallClock,
        callback: Callable[[], None],
        interval: float,
        rand_percent: float = 0.1,
        stream: str = "sync.scheduler",
    ) -> None:
        # Validate by computing one period now.
        self._rng = clock.rng(stream)
        jittered_interval(interval, rand_percent, self._rng)
        self.clock = clock
        self.callback = callback
        self.interval = interval
        self.rand_percent = rand_percent
        self._handle = None
        self._stopped = False

    def start(self) -> None:
        self._stopped = False
        self.reset()

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def skip_interval(self) -> None:
        """Fire now (well, next tick) instead of waiting out the interval."""
        self.reset(0.0)

    def reset(self, delay: Optional[float] = None) -> None:
        """Re-arm: cancel the pending fire and wait ``delay`` (or a fresh
        jittered interval) before the next one."""
        if self._stopped:
            return
        if self._handle is not None:
            self._handle.cancel()
        if delay is None:
            delay = jittered_interval(self.interval, self.rand_percent, self._rng)
        self._handle = self.clock.schedule(delay, self._fire)

    def _fire(self) -> None:
        self._handle = None
        self.callback()
        self.reset()


@dataclass
class RuntimeStats:
    """Counters for the liveness layer (per :class:`LiveRuntime`)."""

    beacons_sent: int = 0
    beacons_suppressed: int = 0
    skips: int = 0
    data_retransmits: int = 0
    vc_retransmits: int = 0


@dataclass
class _MemberState:
    """Per-local-member runtime bookkeeping."""

    scheduler: SyncScheduler
    #: Per-origin max sequence number this member has seen.
    seen: Dict[ProcessId, int] = field(default_factory=dict)
    #: Bounded log of this member's own multicasts: sn -> Envelope.
    log: "OrderedDict[int, Envelope]" = field(default_factory=OrderedDict)
    #: Active view-change retransmission (None when not blocked).
    vc_vid: Optional[int] = None
    vc_init: Optional[Envelope] = None
    vc_pred: Optional[Envelope] = None
    vc_delay: float = 0.0
    vc_handle: Any = None
    #: Consensus envelopes in flight for the open change, keyed by
    #: (destination, message type, round) — NOT last-per-destination: a
    #: lost round-r proposal must keep being repaired even after a
    #: round-r+1 message to the same peer supersedes it in time.
    vc_consensus: "OrderedDict[Any, Tuple[ProcessId, Envelope]]" = field(
        default_factory=OrderedDict
    )
    #: Last DECIDE broadcast per consensus instance (kept after install to
    #: repair peers whose DECIDE was lost).
    decides: Dict[int, Envelope] = field(default_factory=dict)
    #: Rate limiter for decide replays: (peer, instance) -> last replay time.
    decide_replay: Dict[Any, float] = field(default_factory=dict)


class LiveRuntime:
    """Liveness services for one live :class:`~repro.gcs.stack.GroupStack`.

    Construct after the stack is wired, then :meth:`start` before the
    clock runs.  All parameters are wall-clock seconds.

    Parameters
    ----------
    sync_interval / sync_jitter:
        Beacon period and its ± jitter fraction (``rand_percent``).
    retransmit_base / retransmit_factor / retransmit_cap:
        Exponential backoff for INIT/PRED retransmission.
    send_log_limit:
        Own-multicast frames kept per member for gap repair (oldest
        evicted first; an evicted message can no longer be repaired by
        the runtime — the view-change flush remains the backstop).
    retransmit_burst:
        Max data frames re-sent to one peer per beacon processed.
    """

    def __init__(
        self,
        stack,
        network: TransportNetwork,
        sync_interval: float = 0.05,
        sync_jitter: float = 0.1,
        retransmit_base: float = 0.05,
        retransmit_factor: float = 2.0,
        retransmit_cap: float = 1.0,
        send_log_limit: int = 1024,
        retransmit_burst: int = 32,
    ) -> None:
        if send_log_limit < 1 or retransmit_burst < 1:
            raise ValueError("send_log_limit and retransmit_burst must be >= 1")
        next_backoff(retransmit_base, retransmit_factor, retransmit_cap)
        self.stack = stack
        self.network = network
        self.clock: WallClock = network.sim
        self.sync_interval = sync_interval
        self.sync_jitter = sync_jitter
        self.retransmit_base = retransmit_base
        self.retransmit_factor = retransmit_factor
        self.retransmit_cap = retransmit_cap
        self.send_log_limit = send_log_limit
        self.retransmit_burst = retransmit_burst
        self.stats = RuntimeStats()
        self._members: Dict[ProcessId, _MemberState] = {}
        for pid in stack.processes:
            self._members[pid] = _MemberState(
                scheduler=SyncScheduler(
                    self.clock,
                    (lambda pid=pid: self._beacon(pid)),
                    sync_interval,
                    sync_jitter,
                    stream=f"runtime.sync.{pid}",
                )
            )
        network.register_stream(SYNC_STREAM, self._on_sync)
        network.add_send_observer(self._on_send)
        network.add_receive_observer(self._on_receive)

    def start(self) -> None:
        for state in self._members.values():
            state.scheduler.start()

    def stop(self) -> None:
        for state in self._members.values():
            state.scheduler.stop()
            if state.vc_handle is not None:
                state.vc_handle.cancel()
                state.vc_handle = None

    # ------------------------------------------------------------------
    # Beacons
    # ------------------------------------------------------------------

    def _beacon(self, pid: ProcessId) -> None:
        proc = self.stack.processes[pid]
        if proc.crashed or proc.excluded or proc.joining:
            return
        state = self._members[pid]
        beacon = Envelope(stream=SYNC_STREAM, body=SyncMessage(dict(state.seen)))
        self.stats.beacons_sent += 1
        for member in sorted(proc.cv.members):
            if member != pid:
                self.network.send(pid, member, beacon)

    def _on_sync(self, src: ProcessId, dst: ProcessId, body: Any) -> None:
        if not isinstance(body, SyncMessage):
            return
        state = self._members.get(dst)
        if state is None:
            return
        proc = self.stack.processes[dst]
        if proc.crashed or proc.excluded or proc.joining:
            return
        theirs = body.vector
        # Gap repair: the peer is behind on *our own* messages — we are the
        # origin, so we hold them in the log and can re-send directly.
        have = state.seen.get(dst, -1)
        behind_from = theirs.get(dst, -1) + 1
        if behind_from <= have:
            sent = 0
            for sn in range(behind_from, have + 1):
                env = state.log.get(sn)
                if env is None:
                    continue  # evicted; the view-change flush is the backstop
                self.network.send(dst, src, env)
                self.stats.data_retransmits += 1
                sent += 1
                if sent >= self.retransmit_burst:
                    break
        fresher = any(sn > state.seen.get(origin, -1) for origin, sn in theirs.items())
        if fresher:
            # The peer knows messages we have not seen.  Announce our (now
            # provably stale) vector immediately so the origins repair us.
            self.stats.skips += 1
            state.scheduler.skip_interval()
        elif theirs == state.seen:
            # The peer mirrors our state exactly; our own pending beacon
            # would tell the group nothing — suppress it for one interval.
            self.stats.beacons_suppressed += 1
            state.scheduler.reset()

    # ------------------------------------------------------------------
    # Network observation
    # ------------------------------------------------------------------

    def _on_send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        if not isinstance(payload, Envelope):
            return
        state = self._members.get(src)
        if state is None:
            return
        body = payload.body
        if payload.stream == CONSENSUS_STREAM:
            if isinstance(body, Decide):
                state.decides[payload.instance] = payload
                while len(state.decides) > 4:
                    state.decides.pop(min(state.decides))
            if payload.instance == state.vc_vid:
                key = (dst, type(body).__name__, getattr(body, "round", None))
                state.vc_consensus[key] = (dst, payload)
                while len(state.vc_consensus) > 32:
                    state.vc_consensus.popitem(last=False)
            return
        if payload.stream != SVS_STREAM:
            return
        if isinstance(body, DataMessage):
            if body.mid.sender != src or body.sn in state.log:
                return  # a retransmission (ours or the protocol's)
            state.seen[src] = max(state.seen.get(src, -1), body.sn)
            state.log[body.sn] = payload
            while len(state.log) > self.send_log_limit:
                state.log.popitem(last=False)
        elif isinstance(body, (InitMessage, PredMessage)):
            self._note_vc_send(state, src, payload)

    def _on_receive(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        if not isinstance(payload, Envelope):
            return
        state = self._members.get(dst)
        if state is None:
            return
        body = payload.body
        if payload.stream == CONSENSUS_STREAM:
            # A peer still running consensus for a view we already closed
            # lost the DECIDE; replay ours (idempotent: the CT instance
            # forwards a duplicate DECIDE at most once, then ignores).
            proc = self.stack.processes[dst]
            key = payload.instance
            decide = state.decides.get(key)
            if (
                decide is not None
                and isinstance(key, int)
                and key < proc.cv.vid
                and not isinstance(body, Decide)
            ):
                now = self.clock.now
                last = state.decide_replay.get((src, key))
                if last is None or now - last >= self.retransmit_base:
                    state.decide_replay[(src, key)] = now
                    self.network.send(dst, src, decide)
                    self.stats.vc_retransmits += 1
            return
        if payload.stream != SVS_STREAM or not isinstance(body, DataMessage):
            return
        origin = body.mid.sender
        if body.sn > state.seen.get(origin, -1):
            state.seen[origin] = body.sn

    # ------------------------------------------------------------------
    # View-change retransmission (exponential backoff)
    # ------------------------------------------------------------------

    def _note_vc_send(
        self, state: _MemberState, pid: ProcessId, payload: Envelope
    ) -> None:
        body = payload.body
        vid = body.view_id
        if state.vc_vid != vid:
            # A new view change: reset the backoff sequence.
            if state.vc_handle is not None:
                state.vc_handle.cancel()
            state.vc_vid = vid
            state.vc_init = None
            state.vc_pred = None
            state.vc_consensus.clear()
            state.vc_delay = self.retransmit_base
            state.vc_handle = self.clock.schedule(
                state.vc_delay, self._vc_fire, pid
            )
        if isinstance(body, InitMessage):
            state.vc_init = payload
        else:
            state.vc_pred = payload
        # (Observing our own _vc_fire re-sends is fine: same vid, so the
        # timer is left alone and the envelopes are simply re-recorded.)

    def _vc_fire(self, pid: ProcessId) -> None:
        state = self._members[pid]
        state.vc_handle = None
        proc = self.stack.processes[pid]
        vid = state.vc_vid
        if (
            vid is None
            or proc.crashed
            or proc.excluded
            or proc.joining
            or not proc.blocked
            or proc.cv.vid != vid
        ):
            # The change closed (or the member left); stand down.
            state.vc_vid = None
            state.vc_init = None
            state.vc_pred = None
            state.vc_consensus.clear()
            return
        for env in (state.vc_init, state.vc_pred):
            if env is None:
                continue
            for member in sorted(proc.cv.members):
                if member != pid:
                    self.network.send(pid, member, env)
                    self.stats.vc_retransmits += 1
        for dst, env in list(state.vc_consensus.values()):
            if dst != pid:
                self.network.send(pid, dst, env)
                self.stats.vc_retransmits += 1
        state.vc_delay = next_backoff(
            state.vc_delay, self.retransmit_factor, self.retransmit_cap
        )
        state.vc_handle = self.clock.schedule(state.vc_delay, self._vc_fire, pid)

"""Failure detectors.

The paper's system model (Section 3.1) is the asynchronous model augmented
with an unreliable failure detector in the Chandra–Toueg sense.  Two
implementations are provided:

* :class:`HeartbeatFailureDetector` — the realistic one: every monitored
  process periodically multicasts heartbeats; a peer is suspected when no
  heartbeat arrives within the current timeout.  A false suspicion (a
  heartbeat from a suspected peer) lifts the suspicion and *increases* the
  timeout, giving the eventually-perfect (◇P) behaviour that Chandra–Toueg
  consensus needs for liveness.
* :class:`OracleFailureDetector` — a test/experiment convenience that knows
  the ground truth: a process is suspected exactly ``detection_delay`` after
  it actually crashes.  Zero network cost, never wrong, fully deterministic.

Both expose the same query/subscription interface (:class:`FailureDetector`),
so the consensus and SVS layers are agnostic to which one they run over.

On the simulated network a beat from an unsuspected peer is not an event:
it lands on the receiver's :class:`~repro.sim.network.DeferredLane` for that
peer, settled when a check finds the peer overdue.  A suspected peer's lane
is closed, so its beats recant as events, and a joiner, which drops beats,
closes every lane (see "Deferred arrivals" in ``docs/kernel.md``).  One
timer emits, then checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.message import Envelope
from repro.registry import FDWiring, failure_detectors as _fd_registry
from repro.sim.kernel import Simulator
from repro.sim.network import DeferredLane, Network
from repro.sim.process import ProcessId, SimProcess

__all__ = [
    "FailureDetector",
    "Heartbeat",
    "HeartbeatFailureDetector",
    "OracleFailureDetector",
]

#: callback(pid, suspected) — invoked on every suspicion status change.
SuspicionListener = Callable[[ProcessId, bool], None]

FD_STREAM = "fd"


class FailureDetector:
    """Query/subscription interface shared by all detector implementations."""

    def suspects(self, pid: ProcessId) -> bool:
        raise NotImplementedError

    def suspected(self) -> FrozenSet[ProcessId]:
        raise NotImplementedError

    def subscribe(self, listener: SuspicionListener) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Heartbeat:
    """The periodic liveness beacon; ``epoch`` counts beats for debugging."""

    epoch: int


class _ListenerMixin:
    def __init__(self) -> None:
        self._listeners: List[SuspicionListener] = []
        self._suspected: Set[ProcessId] = set()

    def subscribe(self, listener: SuspicionListener) -> None:
        self._listeners.append(listener)

    def suspects(self, pid: ProcessId) -> bool:
        return pid in self._suspected

    def suspected(self) -> FrozenSet[ProcessId]:
        return frozenset(self._suspected)

    def _set_suspected(self, pid: ProcessId, flag: bool) -> None:
        if flag and pid not in self._suspected:
            self._suspected.add(pid)
        elif not flag and pid in self._suspected:
            self._suspected.discard(pid)
        else:
            return
        for listener in list(self._listeners):
            listener(pid, flag)


class HeartbeatFailureDetector(_ListenerMixin, FailureDetector):
    """Heartbeat-based eventually-perfect detector component.

    Owned by a :class:`~repro.sim.process.SimProcess`; the owner must route
    incoming :class:`~repro.core.message.Envelope` messages with stream
    ``"fd"`` into :meth:`on_message`.

    Parameters
    ----------
    owner:
        The process this detector runs inside.
    period:
        Heartbeat emission period.
    timeout:
        Initial suspicion timeout; must exceed ``period`` plus the one-way
        network latency or everybody is suspected immediately.
    backoff:
        Added to a peer's timeout each time it is falsely suspected —
        the standard trick that makes the detector eventually perfect under
        unknown-but-finite delays.
    """

    def __init__(
        self,
        owner: SimProcess,
        period: float = 0.05,
        timeout: float = 0.25,
        backoff: float = 0.05,
    ) -> None:
        if period <= 0 or timeout <= 0 or backoff < 0:
            raise ValueError("period/timeout must be positive, backoff >= 0")
        _ListenerMixin.__init__(self)
        self.owner = owner
        self.period = period
        self.initial_timeout = timeout
        self.backoff = backoff
        self._peers: Set[ProcessId] = set()
        self._timeouts: Dict[ProcessId, float] = {}
        self._last_heard: Dict[ProcessId, float] = {}
        # One lane per peer on a simulated network; None on a live one.
        self._lanes: Optional[Dict[ProcessId, DeferredLane]] = (
            {} if isinstance(owner.network, Network) else None
        )
        self._epoch = 0
        self._started = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def monitor(self, peers: Iterable[ProcessId]) -> None:
        """Set the peer set to watch (excluding the owner itself)."""
        now = self.owner.sim.now
        new_peers = {p for p in peers if p != self.owner.pid}
        for p in new_peers - self._peers:
            self._last_heard[p] = now
            self._timeouts.setdefault(p, self.initial_timeout)
            if self._lanes is not None:
                lane = self._lanes[p] = self.owner.network.lane(p, self.owner.pid)
                lane.open = True
        for p in self._peers - new_peers:
            self._last_heard.pop(p, None)
            self._suspected.discard(p)
        self._peers = new_peers

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._tick()

    # ------------------------------------------------------------------
    # Heartbeat emission and checking (one owner timer drives both)
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        owner = self.owner
        if owner.crashed:
            return
        beat = Envelope(stream=FD_STREAM, body=Heartbeat(self._epoch))
        self._epoch += 1
        if self._lanes is None:
            for peer in self._peers:
                owner.send(peer, beat)
        else:
            send, pid = owner.network.send, owner.pid
            for peer in self._peers:
                send(pid, peer, beat, True)
        owner.set_timer("fd", self.period, self._tick)
        self._check()

    def _check(self) -> None:
        now = self.owner.sim.now
        last_heard, timeouts, lanes = self._last_heard, self._timeouts, self._lanes
        for peer in self._peers:
            if now < last_heard[peer] + timeouts[peer] or peer in self._suspected:
                continue
            if lanes is not None:
                # Settling only raises last_heard, so only a deadline that
                # looks expired needs the beats ordered before this check.
                heard = lanes[peer].settle()
                if heard > last_heard[peer]:
                    last_heard[peer] = heard
                    if now < heard + timeouts[peer]:
                        continue
                lanes[peer].close()
            self._set_suspected(peer, True)

    # ------------------------------------------------------------------
    # Incoming heartbeats
    # ------------------------------------------------------------------

    def on_message(self, sender: ProcessId, body: Heartbeat) -> None:
        if sender not in self._peers:
            return
        self._last_heard[sender] = self.owner.sim.now
        if self.suspects(sender):
            # False suspicion: recant and back off this peer's timeout.
            self._timeouts[sender] = (
                self._timeouts.get(sender, self.initial_timeout) + self.backoff
            )
            if self._lanes is not None:
                self._lanes[sender].open = True
            self._set_suspected(sender, False)

    # ------------------------------------------------------------------
    # Recovery (the rejoin extension, see repro.faults)
    # ------------------------------------------------------------------

    def pause(self) -> None:
        """The owner drops every beat until :meth:`resume` (it is joining).

        An excluded joiner's timer still runs, so its checks must not see
        the beats it drops: closing the lanes makes them events again.
        """
        for lane in (self._lanes or {}).values():
            lane.close()

    def resume(self) -> None:
        """Re-arm emission and checking after the owner recovered.

        A crash cancels the owner's timer, killing the loop.  The grace
        reset of ``last_heard`` keeps the recovered process from instantly
        suspecting every peer it has not heard from while it was down.
        """
        if not self._started or self.owner.crashed:
            return
        now = self.owner.sim.now
        for peer in self._peers:
            self._last_heard[peer] = now
            if self._lanes is not None and peer not in self._suspected:
                self._lanes[peer].open = True
        self._tick()


class OracleFailureDetector(_ListenerMixin, FailureDetector):
    """Ground-truth detector: suspects exactly ``detection_delay`` after a crash.

    Implemented as a periodic scan over a pid→process mapping so it needs
    no cooperation from the processes.  Deterministic and message-free,
    which keeps protocol traces clean in unit tests.
    """

    def __init__(
        self,
        sim: Simulator,
        processes: Dict[ProcessId, SimProcess],
        detection_delay: float = 0.1,
        scan_period: float = 0.01,
    ) -> None:
        if detection_delay < 0 or scan_period <= 0:
            raise ValueError("delay must be >= 0 and scan period positive")
        _ListenerMixin.__init__(self)
        self.sim = sim
        self.processes = processes
        self.detection_delay = detection_delay
        self.scan_period = scan_period
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._scan()

    def _scan(self) -> None:
        now = self.sim.now
        for pid, proc in self.processes.items():
            if (
                proc.crashed
                and proc.crash_time is not None
                and now >= proc.crash_time + self.detection_delay
            ):
                self._set_suspected(pid, True)
            elif getattr(proc, "joining", False):
                # A recovered process that is still *joining* cannot take
                # part in any protocol yet, so the ground-truth detector
                # suspects it outright — even when it recovered before the
                # crash suspicion ever fired (otherwise t7 would wait
                # forever for a PRED the joiner will never send).  It is
                # unsuspected the moment its WELCOME installs.
                self._set_suspected(pid, True)
            elif not proc.crashed and pid in self._suspected:
                # Ground truth again: alive and participating.
                self._set_suspected(pid, False)
        self.sim.schedule(self.scan_period, self._scan)


# ----------------------------------------------------------------------
# Registry entries: how each detector wires into a GroupStack
# (see repro.registry for the FDWiring contract)
# ----------------------------------------------------------------------


@_fd_registry.register("oracle")
def _oracle_fd(stack) -> FDWiring:
    """One omniscient detector shared by the whole group."""
    fd = OracleFailureDetector(
        stack.sim, {}, detection_delay=stack.config.fd_delay
    )

    def finalize(stack) -> None:
        fd.processes = dict(stack.processes)
        fd.start()

    return FDWiring(fd=fd, finalize=finalize)


@_fd_registry.register("heartbeat")
def _heartbeat_fd(stack) -> FDWiring:
    """One heartbeat detector per process, over the real network."""

    def per_process(proc) -> HeartbeatFailureDetector:
        return HeartbeatFailureDetector(
            proc,
            period=stack.config.heartbeat_period,
            timeout=stack.config.heartbeat_timeout,
        )

    def finalize(stack) -> None:
        for proc in stack.processes.values():
            detector = proc.fd
            assert isinstance(detector, HeartbeatFailureDetector)
            detector.monitor(stack.initial_view.members)
            detector.start()

    return FDWiring(fd=per_process, finalize=finalize)

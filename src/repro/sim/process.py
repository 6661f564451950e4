"""Simulated processes.

The paper's system model (Section 3.1) is a set of sequential processes
that can send a message, receive a message, perform local computation, and
crash (crash-stop).  :class:`SimProcess` is that model: a single-threaded
event handler attached to a :class:`~repro.sim.kernel.Simulator`, reachable
through a :class:`~repro.sim.network.Network`.

Crash semantics: once :meth:`SimProcess.crash` is called the process silently
drops every subsequent delivery and timer tick.  Nothing is un-sent — messages
already in channels may still be delivered to others, exactly as in an
asynchronous network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.sim.kernel import EventHandle, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

__all__ = ["ProcessId", "SimProcess"]

#: Process identifiers are small integers throughout the reproduction; the
#: alias documents intent at call sites.
ProcessId = int


class SimProcess:
    """Base class for protocol participants.

    Subclasses override :meth:`on_message` (and optionally :meth:`on_start`)
    and use :meth:`send`, :meth:`set_timer` and :meth:`cancel_timer` to
    interact with the world.  All interaction is mediated by the simulator,
    so a process is fully deterministic given its inputs.
    """

    #: Optional delivery shortcut used by the network's batched fan-out:
    #: a callable with the exact semantics of :meth:`_deliver` (crash
    #: check included) that a subclass may bind per instance to skip its
    #: own message-routing dispatch on the hot path.  ``None`` means "use
    #: :meth:`_deliver`"; per-destination sends never consult it.
    _fast_handler: Optional[Callable[[ProcessId, Any], None]] = None

    def __init__(self, pid: ProcessId, sim: Simulator, network: "Network") -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.crashed = False
        self.crash_time: Optional[float] = None
        self._timers: Dict[str, EventHandle] = {}
        network.attach(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule :meth:`on_start` at the current simulated time."""
        self.sim.schedule(0.0, self._run_start)

    def _run_start(self) -> None:
        if not self.crashed:
            self.on_start()

    def crash(self) -> None:
        """Crash-stop this process: cancel timers, ignore future events."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_time = self.sim.now
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self.on_crash()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the process starts.  Default: nothing."""

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        """Called for each message delivered by the network."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Called once when the process crashes.  Default: nothing."""

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def send(self, dst: ProcessId, payload: Any) -> None:
        """Send ``payload`` to ``dst`` over the network.

        Sending to ``self.pid`` is allowed and goes through the network like
        any other message (the SVS protocol instead short-circuits
        self-delivery explicitly, as in Figure 1 t2).
        """
        if self.crashed:
            return
        self.network.send(self.pid, dst, payload)

    def send_multicast(
        self, dsts: Any, payload: Any, token: Optional[Any] = None
    ) -> None:
        """Send ``payload`` to every destination, in iteration order.

        Exactly a loop of :meth:`send` (one crash check up front — the
        flag cannot change mid-call), but routed through
        :meth:`Network.multicast <repro.sim.network.Network.multicast>`
        so a pristine network can batch the whole fan-out into one event.
        ``token`` is the optional memoization token forwarded to the
        network (see ``Network.multicast``).
        """
        if self.crashed:
            return
        self.network.multicast(self.pid, dsts, payload, token)

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        """(Re-)arm the named timer; a previous timer of that name is
        cancelled first."""
        if self.crashed:
            return
        self.cancel_timer(name)

        def fire() -> None:
            if self.crashed:
                return
            self._timers.pop(name, None)
            callback()

        self._timers[name] = self.sim.schedule(delay, fire)

    def cancel_timer(self, name: str) -> None:
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()

    def has_timer(self, name: str) -> bool:
        return name in self._timers

    # ------------------------------------------------------------------
    # Network entry point
    # ------------------------------------------------------------------

    def _deliver(self, sender: ProcessId, payload: Any) -> None:
        """Entry point used by the network; drops deliveries after crash."""
        if self.crashed:
            return
        self.on_message(sender, payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}(pid={self.pid}, {state})"

"""The live counterpart of :class:`repro.sim.network.Network`.

:class:`TransportNetwork` presents the exact surface the stack wires
against — ``attach``, ``send``, the message counters, and the fault API
consumed by :class:`~repro.faults.plan.FaultPlan` (``cut``/``heal``/
``partition``/``set_link_fault``) — but moves every message as a framed
datagram over a pluggable :class:`~repro.transport.interface.Transport`.
Because :class:`~repro.core.svs.SVSProcess` only ever calls
``network.send``, swapping this in for the simulated network requires no
protocol change whatsoever.

The topology and the fault model are not re-implemented here: both
networks inherit them from :class:`~repro.sim.network.NetworkBase` — the
same cut set, :class:`~repro.sim.network.LinkFaultPolicy` resolution and
seeded ``faults.<src>.<dst>`` RNG streams — so a fault profile written for
simulation (``Scenario.faults("lossy-links")``) applies to a live loopback
run unmodified.  ``reorder`` is the one policy rate not emulated: a live
transport reorders on its own terms.

The network also exposes two integration points the wall-clock runtime
uses without touching the protocol:

* **send/receive observers** — called for every outgoing and every
  delivered (src, dst, envelope); the runtime's retransmitter and
  state-vector tracker subscribe here;
* **stream handlers** — transport-layer control streams (the sync
  beacons) are consumed at delivery time and never reach the processes,
  keeping :meth:`SVSProcess.on_message` oblivious to the live plumbing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.message import Envelope
from repro.sim.network import ChannelStats, NetworkBase
from repro.sim.process import ProcessId, SimProcess
from repro.transport.clock import WallClock
from repro.transport.framing import FramingError, pack, unpack
from repro.transport.interface import Transport

__all__ = ["TransportNetwork"]

SendObserver = Callable[[ProcessId, ProcessId, Any], None]
StreamHandler = Callable[[ProcessId, ProcessId, Any], None]


class TransportNetwork(NetworkBase):
    """Frame-and-forward network over a live transport backend."""

    def __init__(self, clock: WallClock, transport: Transport) -> None:
        super().__init__(clock)
        self.transport = transport
        self._send_observers: List[SendObserver] = []
        self._receive_observers: List[SendObserver] = []
        self._stream_handlers: Dict[str, StreamHandler] = {}
        self.messages_delivered = 0
        #: Frames that failed to decode (malformed/foreign datagrams).
        self.decode_errors = 0
        self.last_decode_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, proc: SimProcess) -> None:
        super().attach(proc)
        self.transport.bind(proc.pid, self._on_datagram)

    # ------------------------------------------------------------------
    # Runtime integration
    # ------------------------------------------------------------------

    def add_send_observer(self, observer: SendObserver) -> None:
        self._send_observers.append(observer)

    def add_receive_observer(self, observer: SendObserver) -> None:
        self._receive_observers.append(observer)

    def register_stream(self, stream: str, handler: StreamHandler) -> None:
        """Consume envelopes of ``stream`` at the network layer; they are
        never delivered to the destination process."""
        if stream in self._stream_handlers:
            raise ValueError(f"stream already registered: {stream!r}")
        self._stream_handlers[stream] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        channel = (src, dst)
        stats = self._stats.get(channel)
        if stats is None:
            stats = self._stats[channel] = ChannelStats()
        stats.sent += 1
        self.messages_sent += 1
        for observer in self._send_observers:
            observer(src, dst, payload)

        if self._cut and channel in self._cut:
            stats.dropped += 1
            self.messages_dropped += 1
            return
        # Emulated lossy links — the fault model shared with the
        # simulated network.
        policy = None
        if self._link_faults:
            policy = self._resolve_policy(channel, payload)
        duplicated = False
        if policy is not None:
            rng = self._fault_rng(channel)
            if policy.loss and rng.random() < policy.loss:
                stats.dropped += 1
                self.messages_dropped += 1
                return
            duplicated = bool(policy.duplicate) and rng.random() < policy.duplicate
            # ``reorder`` is not re-emulated here: a live transport (UDP,
            # jittered loopback) reorders on its own terms.

        data = pack(src, payload)
        self.transport.send(src, dst, data)
        if duplicated:
            stats.duplicated += 1
            self.messages_duplicated += 1
            self.transport.send(src, dst, data)

    def multicast(
        self, src: ProcessId, dsts: Any, payload: Any, token: Any = None
    ) -> None:
        """One datagram per destination, in order — the live network has
        no batched fast path (each send really is a separate wire write).
        ``token`` is accepted for surface compatibility with
        :meth:`repro.sim.network.Network.multicast` and ignored."""
        for dst in dsts:
            self.send(src, dst, payload)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _on_datagram(self, dst: ProcessId, data: bytes) -> None:
        try:
            src, payload = unpack(data)
        except FramingError as exc:
            self.decode_errors += 1
            self.last_decode_error = str(exc)
            return
        if isinstance(payload, Envelope):
            handler = self._stream_handlers.get(payload.stream)
            if handler is not None:
                handler(src, dst, payload.body)
                return
        proc = self._procs.get(dst)
        if proc is None:
            return
        self._stats.setdefault((src, dst), ChannelStats()).delivered += 1
        self.messages_delivered += 1
        for observer in self._receive_observers:
            observer(src, dst, payload)
        proc._deliver(src, payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransportNetwork(procs={len(self._procs)}, "
            f"sent={self.messages_sent}, delivered={self.messages_delivered})"
        )

"""In-process loopback transport: clock events as the wire.

The loopback backend runs a whole group inside one OS process and one
event loop.  Each frame is a :class:`~repro.transport.clock.WallClock`
event due after an emulated one-way latency, so deliveries share the
clock's one timer heap (and count in its ``events_processed``).  It exists
for two reasons:

* **integration lane** — live runs that are fast, portable and
  socket-free, so CI can drive the full wall-clock runtime (scheduler,
  suppression, retransmission, framing round-trips on every message) and
  cross-check the resulting history against the executable spec;
* **emulated WAN conditions** — per-frame latency jitter, loss and
  duplication drawn from seeded RNG streams (same derivation as the
  kernel's), giving reproducible *decision* sequences even though timing
  is wall-clock.

FIFO: like the simulated :class:`~repro.sim.network.Network`, a frame is
never delivered before the previously scheduled frame on the same ordered
channel unless it was explicitly selected for reordering by ``jitter``
overtake (``reorder=True``).  With ``reorder=False`` (default) channels
are FIFO, matching the paper's channel assumption.  A clamped frame is
due no earlier than its predecessor, and the clock fires same-time events
in scheduling order, so a tie cannot reorder a channel.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.process import ProcessId
from repro.transport.clock import WallClock
from repro.transport.interface import Transport, TransportError, transports

__all__ = ["LoopbackTransport"]


class LoopbackTransport(Transport):
    """Event-loop-local datagram fabric with emulated link conditions.

    Parameters
    ----------
    clock:
        The owning :class:`~repro.transport.clock.WallClock`; supplies the
        seeded per-edge RNG streams (``transport.<src>.<dst>``).
    latency / jitter:
        One-way delay is ``latency + U(0, jitter)`` seconds.
    loss / duplicate:
        Independent per-frame probabilities in [0, 1].
    reorder:
        When true, jittered frames skip the FIFO clamp so a later frame
        can overtake — UDP-like behaviour for stress runs.
    """

    def __init__(
        self,
        clock: WallClock,
        latency: float = 0.0005,
        jitter: float = 0.0,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: bool = False,
    ) -> None:
        super().__init__()
        if latency < 0 or jitter < 0:
            raise TransportError(
                f"latency/jitter must be non-negative: {latency!r}/{jitter!r}"
            )
        for name, rate in (("loss", loss), ("duplicate", duplicate)):
            if not (isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0):
                raise TransportError(f"{name} rate must be in [0, 1]: {rate!r}")
        self._clock = clock
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.loss = float(loss)
        self.duplicate = float(duplicate)
        self.reorder = bool(reorder)
        self._last_delivery: Dict[Tuple[ProcessId, ProcessId], float] = {}

    def send(self, src: ProcessId, dst: ProcessId, data: bytes) -> None:
        if self._closed or not self._started:
            return  # frames in flight at teardown just disappear
        self.stats.sent += 1
        rng = self._clock.rng(f"transport.{src}.{dst}")
        if self.loss and rng.random() < self.loss:
            self.stats.dropped += 1
            return
        delay = self.latency
        jittered = False
        if self.jitter:
            delay += rng.random() * self.jitter
            jittered = True
        channel = (src, dst)
        fifo = not (self.reorder and jittered)
        clock = self._clock
        if fifo:
            # FIFO clamp, exactly as the simulated network applies it.
            delay = max(delay, self._last_delivery.get(channel, 0.0) - clock.now)
        # Relative scheduling: the clock reads `now` again, so the frame is
        # due at or after its clamped deadline, never before.
        due = clock.schedule(delay, self._dispatch, dst, data).time
        if self.duplicate and rng.random() < self.duplicate:
            self.stats.duplicated += 1
            due = clock.schedule(max(0.0, due - clock.now), self._dispatch, dst, data).time
        if fifo:
            self._last_delivery[channel] = due


@transports.register("loopback")
def _loopback_transport(clock: WallClock, **params) -> LoopbackTransport:
    return LoopbackTransport(clock, **params)

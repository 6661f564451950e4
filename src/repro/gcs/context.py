"""The validated construction input of a group stack.

A :class:`StackConfig` holds every option
:class:`~repro.gcs.stack.GroupStack` is built from and checks them when it
is created: bad values raise ``ValueError`` and unknown backend names raise
with the list of registered ones, before any part of a stack exists.
:mod:`repro.gcs.stack` re-exports it, so ``from repro.gcs.stack import
StackConfig`` keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.registry import consensus_protocols, failure_detectors, latency_models
from repro.sim.failure import check_positive

__all__ = ["StackConfig"]


@dataclass
class StackConfig:
    """Construction options for :class:`GroupStack`."""

    n: int = 3
    seed: int = 0
    latency: float = 0.001
    consensus: str = "chandra-toueg"  # any registered consensus protocol
    consensus_delay: float = 0.0  # oracle only
    fd: str = "oracle"  # any registered failure detector
    fd_delay: float = 0.05  # oracle detection delay
    heartbeat_period: float = 0.02
    heartbeat_timeout: float = 0.1
    record_history: bool = True
    stability_interval: Optional[float] = None
    """Enable stability tracking (watermark gossip + stable-message GC)
    at this period; None reproduces the paper's protocol exactly."""

    viewchange_retry: Optional[float] = None
    """Re-send INIT/PRED for an open view change at this period; None (the
    default, matching the paper's reliable channels) never retransmits.
    Set it when running over the lossy links of :mod:`repro.faults`."""

    latency_model: str = "constant"
    """Named latency model; ``"constant"`` reads its value from ``latency``."""

    latency_params: Optional[Dict[str, Any]] = None
    """Extra keyword arguments for the latency-model factory."""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a group needs at least one member")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative: {self.latency!r}")
        if self.consensus_delay < 0:
            raise ValueError(
                f"consensus_delay must be non-negative: {self.consensus_delay!r}"
            )
        if self.fd_delay < 0:
            raise ValueError(f"fd_delay must be non-negative: {self.fd_delay!r}")
        if self.heartbeat_period <= 0:
            raise ValueError(
                f"heartbeat_period must be positive: {self.heartbeat_period!r}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive: {self.heartbeat_timeout!r}"
            )
        # Validated here as well as in SVSProcess, so a bad config fails
        # before any part of the stack is built.
        if self.stability_interval is not None:
            check_positive(self.stability_interval, "stability_interval")
        if self.viewchange_retry is not None:
            check_positive(self.viewchange_retry, "viewchange_retry")
        # Raise early (with the list of registered names) on unknown backends.
        consensus_protocols.get(self.consensus)
        failure_detectors.get(self.fd)
        latency_models.get(self.latency_model)

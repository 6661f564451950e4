"""Workloads: the calibrated game-trace generator and trace tooling."""

from typing import Any

from repro.workload.game import GameConfig, GameTraceGenerator, generate_game_trace
from repro.workload.patterns import mixed_stream, periodic_updates, single_item_stream
from repro.workload.trace import (
    MessageKind,
    Trace,
    TraceMessage,
    TraceStats,
    compute_stats,
    item_rank_profile,
    obsolescence_distances,
    to_data_messages,
)

def portable_workload(name: str, **params: Any) -> Trace:
    """Create the registered workload ``name`` with ``params``.

    Generation is deterministic in ``params``, so two calls with the same
    arguments build byte-identical traces.
    """
    from repro.registry import workloads

    return workloads.create(name, **params)


__all__ = [
    "GameConfig",
    "portable_workload",
    "GameTraceGenerator",
    "generate_game_trace",
    "MessageKind",
    "Trace",
    "TraceMessage",
    "TraceStats",
    "compute_stats",
    "item_rank_profile",
    "obsolescence_distances",
    "to_data_messages",
    "periodic_updates",
    "single_item_stream",
    "mixed_stream",
]

"""Evaluation: the slow-receiver throughput model, the loaded view-change
experiment, and the per-figure harness."""

from repro.analysis.experiments import (
    ablation_k,
    ablation_players,
    ablation_representation,
    churn_table,
    default_trace,
    figure_3a,
    figure_3b,
    figure_4_sweep,
    figure_4a,
    figure_4b,
    figure_5a,
    figure_5b,
    view_change_latency_table,
    workload_stats,
)
from repro.analysis.throughput import (
    ThroughputConfig,
    ThroughputResult,
    perturbation_tolerance,
    run_slow_receiver,
    threshold_rate,
)
from repro.analysis.viewchange import (
    ViewChangeLatencyResult,
    measure_view_change_latency,
)

__all__ = [
    "ThroughputConfig",
    "ThroughputResult",
    "run_slow_receiver",
    "threshold_rate",
    "perturbation_tolerance",
    "ViewChangeLatencyResult",
    "measure_view_change_latency",
    "default_trace",
    "workload_stats",
    "figure_3a",
    "figure_3b",
    "figure_4_sweep",
    "figure_4a",
    "figure_4b",
    "figure_5a",
    "figure_5b",
    "view_change_latency_table",
    "churn_table",
    "ablation_k",
    "ablation_representation",
    "ablation_players",
]

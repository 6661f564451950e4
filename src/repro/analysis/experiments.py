"""Per-figure experiment harness.

One entry point per table/figure of the paper's evaluation (Section 5).
Each function returns structured rows and can print them in the shape the
paper reports, with the paper's own numbers alongside for comparison.
``EXPERIMENTS.md`` at the repository root records a full run.

All experiments run on the calibrated synthetic game trace (see
:mod:`repro.workload.game` for the substitution rationale), resolved
through the workload registry so any registered generator can stand in;
pass your own :class:`~repro.workload.trace.Trace` to reproduce them on
other workloads.  The full-stack experiments (the view-change table) are
assembled with the declarative :class:`~repro.scenario.Scenario` builder.

Every grid-shaped experiment (Figures 4 and 5, the view-change table, the
ablations) is expressed as a :class:`~repro.sweep.Sweep` over a
module-level cell function, so each accepts ``workers=N`` to farm its
cells out to a process pool — ``figure_5a(workers=4)`` reproduces the
paper's buffer sweep in a quarter of the serial wall-clock, with the trace
shipped to each worker once.  The cell functions double as reusable sweep
runners: ``Sweep(...).run(_figure_4_cell, context=trace)`` is the raw form
of :func:`figure_4a`.  Results are identical for any worker count.

Every grid experiment also accepts ``cache=`` — a directory path or
:class:`~repro.sweep.cache.SweepCache` — to memoise (cell, replicate)
runs by content address: ``figure_4a(cache=".sweep-cache")`` computes
nothing the second time, and one cache serves all figures of a
``reproduce_figures.py --cache DIR`` run (Figures 4(a) and 4(b) share
their grid outright).  The trace context is folded into the keys via
:meth:`~repro.workload.trace.Trace.cache_token`, so a ``--fast`` trace
can never hit full-trace shards.

Every entry point also accepts ``report=`` — a
:class:`repro.report.ReportBuilder` — and appends its tables (with
Student-t ``ci95_t`` confidence intervals for the sweep-backed figures)
and figure-style charts to it; ``examples/reproduce_figures.py --report
DIR`` threads one builder through every figure and writes the combined
markdown + HTML report.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.throughput import (
    ThroughputConfig,
    perturbation_tolerance,
    run_slow_receiver,
    threshold_rate,
)
from repro.analysis.viewchange import (
    ViewChangeLatencyResult,
    measure_view_change_latency,
)
from repro.registry import workloads
from repro.sweep import Sweep, SweepResult
from repro.workload.game import GameConfig, generate_game_trace
from repro.workload.trace import (
    Trace,
    compute_stats,
    item_rank_profile,
    obsolescence_distances,
    to_data_messages,
)

__all__ = [
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

_default_trace: Optional[Trace] = None

#: The paper's reported aggregates for the 5-player Quake session.
PAPER_WORKLOAD = {
    "rounds": 11696,
    "message_rate": 42.0,  # ≈ 1.39 items/round × 30 fps
    "mean_modified_per_round": 1.39,
    "mean_active_items": 42.33,
    "never_obsolete_pct": 41.88,
}

#: Paper data points read off Figure 5 for the comparison columns.
PAPER_FIG5A = {15: (73, 28)}  # buffer -> (reliable, semantic) threshold
PAPER_FIG5B = {24: (342.0, 857.0)}  # buffer -> (reliable, semantic) ms


def default_trace() -> Trace:
    """The calibrated 5-player session trace (generated once, cached).

    Built through :func:`repro.workload.portable_workload`, so the trace
    carries its rebuild recipe and can serve as the shared context of a
    dispatched sweep (``dispatch="subprocess"``/``"ssh"``): workers
    regenerate it deterministically instead of receiving it over the wire.
    """
    global _default_trace
    if _default_trace is None:
        from repro.workload import portable_workload

        _default_trace = portable_workload("game")
    return _default_trace


def _report_rows(
    report: Any,
    heading: str,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: Optional[str] = None,
    series: Optional[Sequence[Tuple[str, int]]] = None,
    x_label: Optional[str] = None,
    y_label: Optional[str] = None,
    kind: str = "line",
) -> None:
    """Append one figure's table — and optionally a chart — to a builder.

    ``series`` maps chart series names to row column indexes; column 0 is
    the x axis.  NaN points are dropped from charts (they still show in
    the table).  No-op when ``report`` is ``None`` so entry points can
    thread the argument unconditionally.
    """
    if report is None:
        return
    report.add_table(heading, header, rows, notes=notes)
    if series:
        from repro.report.model import Chart

        chart_series = []
        for name, col in series:
            points = [
                (float(row[0]), float(row[col]))
                for row in rows
                if float(row[col]) == float(row[col])
            ]
            chart_series.append((name, points))
        report.add_chart(
            f"{heading} — chart",
            Chart(
                title=heading,
                series=chart_series,
                x_label=x_label or str(header[0]),
                y_label=y_label or "",
                kind=kind,
            ),
        )


def _report_sweep(
    report: Any,
    heading: str,
    sweep: SweepResult,
    metrics: Optional[Sequence[str]] = None,
    x: Optional[str] = None,
    series: Optional[str] = None,
    chart_metric: Optional[str] = None,
    notes: Optional[str] = None,
) -> None:
    """Append a sweep's Student-t CI table (and chart) to a builder."""
    if report is None:
        return
    report.add_sweep(
        heading,
        sweep,
        metrics=metrics,
        x=x,
        series=series,
        chart_metric=chart_metric,
        notes=notes,
    )


def _print_rows(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    print(f"\n== {title} ==")
    print("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:>14.2f}")
            else:
                cells.append(f"{value!s:>14}")
        print("  ".join(cells))


# ----------------------------------------------------------------------
# Section 5.2 — workload characterisation
# ----------------------------------------------------------------------


def workload_stats(
    trace: Optional[Trace] = None,
    show: bool = False,
    report: Any = None,
):
    """In-text numbers of Section 5.2: paper vs. this reproduction."""
    trace = trace or default_trace()
    stats = compute_stats(trace)
    rows = [
        ("rounds", PAPER_WORKLOAD["rounds"], stats.rounds),
        ("messages/s", PAPER_WORKLOAD["message_rate"], round(stats.message_rate, 2)),
        (
            "modified items/round",
            PAPER_WORKLOAD["mean_modified_per_round"],
            round(stats.mean_modified_per_round, 2),
        ),
        (
            "active items",
            PAPER_WORKLOAD["mean_active_items"],
            round(stats.mean_active_items, 2),
        ),
        (
            "never obsolete (%)",
            PAPER_WORKLOAD["never_obsolete_pct"],
            round(100 * stats.never_obsolete_share, 2),
        ),
    ]
    if show:
        _print_rows(
            "Section 5.2 workload characterisation",
            ("metric", "paper", "measured"),
            rows,
        )
    _report_rows(
        report,
        "Section 5.2 — workload characterisation",
        ("metric", "paper", "measured"),
        rows,
        notes="Paper values are the 5-player Quake session aggregates.",
    )
    return rows


def figure_3a(
    trace: Optional[Trace] = None,
    top: int = 50,
    show: bool = False,
    report: Any = None,
) -> List[Tuple[int, float]]:
    """Figure 3(a): frequency of item modifications by rank."""
    trace = trace or default_trace()
    rows = item_rank_profile(trace, top=top)
    if show:
        _print_rows(
            "Figure 3(a) — item rank vs % of rounds modified",
            ("rank", "% of rounds"),
            rows,
        )
    _report_rows(
        report,
        "Figure 3(a) — item rank vs % of rounds modified",
        ("rank", "% of rounds"),
        rows,
        series=[("% of rounds modified", 1)],
        x_label="item rank",
        y_label="% of rounds",
    )
    return rows


def figure_3b(
    trace: Optional[Trace] = None,
    max_distance: int = 20,
    show: bool = False,
    report: Any = None,
) -> List[Tuple[int, float]]:
    """Figure 3(b): obsolescence distance distribution."""
    trace = trace or default_trace()
    hist = obsolescence_distances(trace, max_distance=max_distance)
    rows = [(d, round(p, 2)) for d, p in hist.percentages()]
    if show:
        _print_rows(
            "Figure 3(b) — distance to closest related message",
            ("distance", "% of messages"),
            rows,
        )
    _report_rows(
        report,
        "Figure 3(b) — distance to closest related message",
        ("distance", "% of messages"),
        rows,
        series=[("% of messages", 1)],
        x_label="distance (messages)",
        y_label="% of messages",
        kind="bar",
    )
    return rows


# ----------------------------------------------------------------------
# Section 5.4 — Figure 4: sample runs at one buffer size
# ----------------------------------------------------------------------

DEFAULT_RATES = (140, 120, 100, 80, 73, 60, 50, 40, 30, 28, 20)


def _figure_4_cell(
    params: Mapping[str, Any], seed: int, trace: Trace
) -> Dict[str, float]:
    """One (consumer rate × protocol) point of the Figure 4 grid."""
    result = run_slow_receiver(
        trace,
        ThroughputConfig(
            buffer_size=params["buffer_size"],
            consumer_rate=float(params["consumer_rate"]),
            semantic=params["semantic"],
        ),
    )
    return {
        "producer_idle_pct": result.producer_idle_pct,
        "mean_occupancy": result.mean_occupancy,
        "max_occupancy": result.max_occupancy,
        "purge_ratio": result.purge_ratio,
    }


def figure_4_sweep(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    rates: Sequence[int] = DEFAULT_RATES,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """The full Figure 4 grid (both panels read from it)."""
    trace = trace or default_trace()
    return (
        Sweep(base={"buffer_size": buffer_size})
        .axis("consumer_rate", list(rates))
        .axis("semantic", [False, True])
        .run(
            _figure_4_cell,
            workers=workers,
            context=trace,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )


def _figure_4_rows(
    sweep: SweepResult, rates: Sequence[int], metric: str
) -> List[Tuple[int, float, float]]:
    return [
        (
            rate,
            round(sweep.select(consumer_rate=rate, semantic=False).value(metric), 2),
            round(sweep.select(consumer_rate=rate, semantic=True).value(metric), 2),
        )
        for rate in rates
    ]


def figure_4a(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    rates: Sequence[int] = DEFAULT_RATES,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Figure 4(a): producer idle % vs consumer rate, reliable vs semantic."""
    sweep = figure_4_sweep(
        trace, buffer_size, rates, workers, cache, dispatch, dispatch_params,
    )
    rows = _figure_4_rows(sweep, rates, "producer_idle_pct")
    if show:
        _print_rows(
            f"Figure 4(a) — producer idle % (buffer={buffer_size})",
            ("consumer msg/s", "reliable", "semantic"),
            rows,
        )
    _report_sweep(
        report,
        f"Figure 4(a) — producer idle % (buffer={buffer_size})",
        sweep,
        metrics=["producer_idle_pct"],
        x="consumer_rate",
        series="semantic",
        chart_metric="producer_idle_pct",
    )
    return rows


def figure_4b(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    rates: Sequence[int] = DEFAULT_RATES,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Figure 4(b): mean buffer occupancy vs consumer rate."""
    sweep = figure_4_sweep(
        trace, buffer_size, rates, workers, cache, dispatch, dispatch_params,
    )
    rows = _figure_4_rows(sweep, rates, "mean_occupancy")
    if show:
        _print_rows(
            f"Figure 4(b) — buffer occupancy in messages (buffer={buffer_size})",
            ("consumer msg/s", "reliable", "semantic"),
            rows,
        )
    _report_sweep(
        report,
        f"Figure 4(b) — buffer occupancy in messages (buffer={buffer_size})",
        sweep,
        metrics=["mean_occupancy"],
        x="consumer_rate",
        series="semantic",
        chart_metric="mean_occupancy",
    )
    return rows


# ----------------------------------------------------------------------
# Section 5.4 — Figure 5: sweeps over buffer size
# ----------------------------------------------------------------------

DEFAULT_BUFFERS = (4, 8, 12, 16, 20, 24, 28)


def _figure_5a_cell(
    params: Mapping[str, Any], seed: int, trace: Trace
) -> Dict[str, float]:
    """One buffer-size point: a whole threshold-rate bisection."""
    return {
        "threshold_rate": threshold_rate(
            trace, params["buffer_size"], semantic=params["semantic"],
        )
    }


def figure_5a(
    trace: Optional[Trace] = None,
    buffers: Sequence[int] = DEFAULT_BUFFERS,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[int, int, int]]:
    """Figure 5(a): minimum tolerable consumer rate vs buffer size."""
    trace = trace or default_trace()
    sweep = (
        Sweep()
        .axis("buffer_size", list(buffers))
        .axis("semantic", [False, True])
        .run(
            _figure_5a_cell,
            workers=workers,
            context=trace,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = [
        (
            buffer_size,
            int(sweep.select(buffer_size=buffer_size, semantic=False).value("threshold_rate")),
            int(sweep.select(buffer_size=buffer_size, semantic=True).value("threshold_rate")),
        )
        for buffer_size in buffers
    ]
    if show:
        mean_rate = trace.message_rate
        _print_rows(
            f"Figure 5(a) — threshold consumer rate (mean input "
            f"{mean_rate:.1f} msg/s; paper at B=15: reliable 73, semantic 28)",
            ("buffer (msg)", "reliable", "semantic"),
            rows,
        )
    _report_sweep(
        report,
        "Figure 5(a) — threshold consumer rate vs buffer size",
        sweep,
        metrics=["threshold_rate"],
        x="buffer_size",
        series="semantic",
        chart_metric="threshold_rate",
        notes="Paper at B=15: reliable 73 msg/s, semantic 28 msg/s.",
    )
    return rows


def _figure_5b_cell(
    params: Mapping[str, Any], seed: int, trace: Trace
) -> Dict[str, float]:
    """One buffer-size point: all perturbation probes for one protocol."""
    return {
        "tolerance_s": perturbation_tolerance(
            trace,
            params["buffer_size"],
            semantic=params["semantic"],
            probes=params["probes"],
        )
    }


def figure_5b(
    trace: Optional[Trace] = None,
    buffers: Sequence[int] = DEFAULT_BUFFERS,
    probes: int = 8,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Figure 5(b): tolerated full-stop perturbation length vs buffer size."""
    trace = trace or default_trace()
    sweep = (
        Sweep(base={"probes": probes})
        .axis("buffer_size", list(buffers))
        .axis("semantic", [False, True])
        .run(
            _figure_5b_cell,
            workers=workers,
            context=trace,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = [
        (
            buffer_size,
            round(sweep.select(buffer_size=buffer_size, semantic=False).value("tolerance_s") * 1000, 1),
            round(sweep.select(buffer_size=buffer_size, semantic=True).value("tolerance_s") * 1000, 1),
        )
        for buffer_size in buffers
    ]
    if show:
        _print_rows(
            "Figure 5(b) — tolerated perturbation in ms "
            "(paper at B=24: reliable 342, semantic 857)",
            ("buffer (msg)", "reliable (ms)", "semantic (ms)"),
            rows,
        )
    _report_sweep(
        report,
        "Figure 5(b) — tolerated perturbation vs buffer size",
        sweep,
        metrics=["tolerance_s"],
        x="buffer_size",
        series="semantic",
        chart_metric="tolerance_s",
        notes="Paper at B=24: reliable 342 ms, semantic 857 ms.",
    )
    return rows


# ----------------------------------------------------------------------
# Section 5.4 — view change latency claim
# ----------------------------------------------------------------------


def _view_change_cell(
    params: Mapping[str, Any], seed: int, trace: Trace
) -> Dict[str, float]:
    """One protocol's full-stack view-change measurement (Scenario-based,
    so the run is invariant-checked inside the measurement harness)."""
    result = measure_view_change_latency(
        trace,
        semantic=params["semantic"],
        slow_rate=params["slow_rate"],
        load_time=params["load_time"],
    )
    return {
        "backlog_at_trigger": result.backlog_at_trigger,
        "purged_at_slow": result.purged_at_slow,
        "slow_app_latency": result.slow_app_latency,
    }


def view_change_latency_table(
    trace: Optional[Trace] = None,
    slow_rate: float = 25.0,
    load_time: float = 30.0,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[str, int, int, float]]:
    """View change under load: backlog, purges, app-perceived latency."""
    trace = trace or default_trace()
    sweep = (
        Sweep(base={"slow_rate": slow_rate, "load_time": load_time})
        .axis("semantic", [False, True])
        .run(
            _view_change_cell,
            workers=workers,
            context=trace,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = []
    for semantic in (False, True):
        cell = sweep.select(semantic=semantic)
        rows.append(
            (
                "semantic" if semantic else "reliable",
                int(cell.value("backlog_at_trigger")),
                int(cell.value("purged_at_slow")),
                round(cell.value("slow_app_latency"), 3),
            )
        )
    if show:
        _print_rows(
            f"View change under load (slow consumer at {slow_rate} msg/s)",
            ("protocol", "backlog (msg)", "purged", "app latency (s)"),
            rows,
        )
    _report_sweep(
        report,
        f"View change under load (slow consumer at "
        f"{slow_rate:g} msg/s)",
        sweep,
    )
    return rows


# ----------------------------------------------------------------------
# Churn (ours): throughput and view-change latency under partition-heal
# churn — the fault regime repro.faults opens up
# ----------------------------------------------------------------------

#: Fixed shape of the churn cells (kept module-level so the golden
#: fixture pins one unambiguous configuration).
CHURN_DEFAULTS = {
    "n": 5,
    "side": (4,),
    "at": 1.0,
    "cycles": 3,
    "closed_fraction": 0.5,
    "rounds": 360,
    "consumer_rate": 150.0,
    "until": 10.0,
    "viewchange_retry": 0.1,
}


def _churn_cell(
    params: Mapping[str, Any], seed: int, context: Any = None
) -> Dict[str, float]:
    """One full-stack churn run: partition-heal cycles with the view
    change triggered *during* each partition, so its latency measures how
    long the cut stalls the reconfiguration plus the flush repair after
    the heal.  Invariant-checked with the lossy-regime subset (loss and
    partitions legitimately break per-sender total order; see
    :data:`repro.core.spec.LOSSY_CHECKS`)."""
    from repro.core.spec import LOSSY_CHECKS
    from repro.faults import churn_trigger_times
    from repro.scenario import Scenario

    d = CHURN_DEFAULTS
    semantic = bool(params["semantic"])
    result = (
        Scenario()
        .group(
            n=d["n"],
            relation="item-tagging" if semantic else "empty",
            consensus="oracle",
            seed=seed,
            viewchange_retry=d["viewchange_retry"],
        )
        .workload("game", rounds=d["rounds"])
        .consumers(rate=d["consumer_rate"])
        .faults(
            "partition-churn",
            side=list(d["side"]),
            at=d["at"],
            period=float(params["period"]),
            cycles=d["cycles"],
            closed_fraction=d["closed_fraction"],
            loss=float(params["loss"]),
            trigger_during_partition=True,
        )
        .check(checks=LOSSY_CHECKS)
        .collect("throughput", "view_changes", "network", "purges")
        .run(until=d["until"])
    )
    if not result.ok:
        raise AssertionError(
            f"churn cell violated the executable spec: {result.violations}"
        )
    triggers = churn_trigger_times(
        d["at"],
        float(params["period"]),
        d["cycles"],
        d["closed_fraction"],
        trigger_during_partition=True,
    )
    installs = result.metrics["view_changes"]["installs"]
    latencies = []
    for k, trigger in enumerate(triggers):
        vid = k + 1
        times = [
            time
            for per_pid in installs.values()
            for v, time in per_pid
            if v == vid
        ]
        if times:
            latencies.append(max(times) - trigger)
    delivered = result.metrics["throughput"]["delivered"]
    return {
        "delivered_total": float(sum(delivered.values())),
        "delivered_min": float(min(delivered.values())),
        "view_changes": float(len(latencies)),
        "vc_latency_mean_ms": (
            1000.0 * sum(latencies) / len(latencies) if latencies else float("nan")
        ),
        "purged": float(result.metrics["purges"]["total"]),
        "net_dropped": float(result.metrics["network"]["dropped"]),
    }


def churn_table(
    periods: Sequence[float] = (1.0, 2.0),
    losses: Sequence[float] = (0.0, 0.05),
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[float, float, int, int, float, float, int]]:
    """SVS under partition-heal churn: reliable vs semantic, per cell.

    For each (churn period, data loss) the partitioned member is cut off
    for half the period, three times, with the view change triggered
    mid-partition; columns report delivered messages at the slowest member
    and the mean trigger-to-full-installation latency for both protocols,
    plus the semantic run's purge count.  The latency scales with the
    partition length (the change cannot complete before the heal), and the
    semantic relation keeps the slow member's delivery count lower-but-
    fresher exactly as in the paper's perturbation experiments.
    """
    sweep = (
        Sweep()
        .axis("period", list(periods))
        .axis("loss", list(losses))
        .axis("semantic", [False, True])
        .run(
            _churn_cell,
            workers=workers,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = []
    for period in periods:
        for loss in losses:
            reliable = sweep.select(period=period, loss=loss, semantic=False)
            semantic = sweep.select(period=period, loss=loss, semantic=True)
            rows.append(
                (
                    period,
                    loss,
                    int(reliable.value("delivered_min")),
                    int(semantic.value("delivered_min")),
                    round(reliable.value("vc_latency_mean_ms"), 1),
                    round(semantic.value("vc_latency_mean_ms"), 1),
                    int(semantic.value("purged")),
                )
            )
    if show:
        _print_rows(
            "Churn — partition-heal cycles, view change triggered "
            "mid-partition (3 cycles, half-period cuts)",
            (
                "period (s)",
                "loss",
                "rel dlvd/min",
                "sem dlvd/min",
                "rel vc (ms)",
                "sem vc (ms)",
                "sem purged",
            ),
            rows,
        )
    _report_rows(
        report,
        "Churn — partition-heal cycles, view change mid-partition",
        (
            "period (s)",
            "loss",
            "rel dlvd/min",
            "sem dlvd/min",
            "rel vc (ms)",
            "sem vc (ms)",
            "sem purged",
        ),
        rows,
        notes="3 cycles, half-period cuts; latency is trigger to full "
        "installation.",
    )
    return rows


# ----------------------------------------------------------------------
# Ablations (ours)
# ----------------------------------------------------------------------


def _ablation_cell(
    params: Mapping[str, Any], seed: int, trace: Trace
) -> Dict[str, float]:
    """Shared slow-receiver cell for the k and representation ablations."""
    result = run_slow_receiver(
        trace,
        ThroughputConfig(
            buffer_size=params["buffer_size"],
            consumer_rate=float(params["consumer_rate"]),
            semantic=True,
            representation=params.get("representation", "k-enumeration"),
            k=params.get("k"),
        ),
    )
    return {
        "purge_ratio": result.purge_ratio,
        "producer_idle_pct": result.producer_idle_pct,
    }


def ablation_k(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    ks: Sequence[int] = (2, 5, 10, 15, 30, 60, 120),
    consumer_rate: int = 30,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Sensitivity to the k-enumeration window (paper picks k = 2×buffer).

    Too-small k cannot express the obsolescence of distant pairs, so the
    purge ratio — and with it the idle percentage — collapses.
    """
    trace = trace or default_trace()
    sweep = (
        Sweep(base={"buffer_size": buffer_size, "consumer_rate": consumer_rate})
        .axis("k", list(ks))
        .run(
            _ablation_cell,
            workers=workers,
            context=trace,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = [
        (
            k,
            round(sweep.select(k=k).value("purge_ratio"), 3),
            round(sweep.select(k=k).value("producer_idle_pct"), 2),
        )
        for k in ks
    ]
    if show:
        _print_rows(
            f"Ablation — k-enumeration window (buffer={buffer_size}, "
            f"consumer={consumer_rate} msg/s; paper's k = {2 * buffer_size})",
            ("k", "purge ratio", "producer idle %"),
            rows,
        )
    _report_sweep(
        report,
        f"Ablation — k-enumeration window (buffer={buffer_size})",
        sweep,
        notes=f"Paper's choice is k = 2×buffer = {2 * buffer_size}.",
    )
    return rows


def ablation_representation(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    consumer_rate: int = 30,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[str, float, float]]:
    """Compare the three obsolescence representations of Section 4.2.

    Item tagging and message enumeration express unbounded-distance
    relations; k-enumeration trades a little purging power for O(k) state.
    """
    trace = trace or default_trace()
    representations = ("tagging", "enumeration", "k-enumeration")
    sweep = (
        Sweep(base={"buffer_size": buffer_size, "consumer_rate": consumer_rate})
        .axis("representation", list(representations))
        .run(
            _ablation_cell,
            workers=workers,
            context=trace,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = [
        (
            representation,
            round(sweep.select(representation=representation).value("purge_ratio"), 3),
            round(sweep.select(representation=representation).value("producer_idle_pct"), 2),
        )
        for representation in representations
    ]
    if show:
        _print_rows(
            f"Ablation — representation (buffer={buffer_size}, "
            f"consumer={consumer_rate} msg/s)",
            ("representation", "purge ratio", "producer idle %"),
            rows,
        )
    _report_sweep(
        report,
        f"Ablation — obsolescence representation (buffer={buffer_size})",
        sweep,
    )
    return rows


def _players_cell(
    params: Mapping[str, Any], seed: int, context: Any = None
) -> Dict[str, float]:
    """Generate and characterise one player-count trace (self-contained:
    workers regenerate the trace deterministically from the cell params)."""
    config = GameConfig(rounds=params["rounds"]).scaled_for_players(
        params["players"]
    )
    stats = compute_stats(generate_game_trace(config))
    return {
        "message_rate": stats.message_rate,
        "never_obsolete_pct": 100 * stats.never_obsolete_share,
        "mean_obsolescence_distance": stats.mean_obsolescence_distance,
    }


def ablation_players(
    players: Sequence[int] = (2, 5, 10, 16),
    rounds: int = 6000,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    dispatch: Any = None,
    dispatch_params: Optional[Mapping[str, Any]] = None,
    report: Any = None,
) -> List[Tuple[int, float, float, float]]:
    """Player-count scaling (Section 5.2, last paragraph).

    The paper observes: with more players the message rate increases, the
    never-obsolete share decreases, and the distance between related
    messages increases.
    """
    sweep = (
        Sweep(base={"rounds": rounds})
        .axis("players", list(players))
        .run(
            _players_cell,
            workers=workers,
            cache=cache,
            dispatch=dispatch,
            dispatch_params=dispatch_params,
        )
    )
    rows = [
        (
            count,
            round(sweep.select(players=count).value("message_rate"), 1),
            round(sweep.select(players=count).value("never_obsolete_pct"), 1),
            round(sweep.select(players=count).value("mean_obsolescence_distance"), 1),
        )
        for count in players
    ]
    if show:
        _print_rows(
            "Ablation — player-count scaling",
            ("players", "msg/s", "never-obs %", "mean distance"),
            rows,
        )
    _report_sweep(report, "Ablation — player-count scaling", sweep)
    return rows

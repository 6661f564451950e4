"""Per-figure experiment harness.

One entry point per table/figure of the paper's evaluation (Section 5).
Each function returns structured rows and can print them in the shape the
paper reports, with the paper's own numbers alongside for comparison.
``examples/reproduce_figures.py`` runs them all; the paper's shape claims
are asserted at full trace length in ``tests/analysis/test_paper_claims.py``.

All experiments run on the calibrated synthetic game trace (see
:mod:`repro.workload.game` for the substitution rationale), resolved
through the workload registry so any registered generator can stand in;
pass your own :class:`~repro.workload.trace.Trace` to reproduce them on
other workloads.  The full-stack experiments (the view-change table) are
assembled with the declarative :class:`~repro.scenario.Scenario` builder.

Each entry point is one row of :data:`FIGURES`, in paper order: the row
holds its printed title, its report heading, the column header, the notes
and the chart, and :func:`_present` is the one code path that prints the
rows (``show=True``) or appends them — as a Student-t CI table for the
sweep-backed figures — to a :class:`repro.report.ReportBuilder`
(``report=``).  Every entry point except :func:`workload_stats`,
:func:`figure_3a` and :func:`figure_3b` is a :class:`~repro.sweep.Sweep`
over a module-level cell function, so it also takes ``workers=N`` (a
process pool; results are identical for any worker count) and ``cache=``
(a directory or :class:`~repro.sweep.cache.SweepCache`, keyed on the
trace's :meth:`~repro.workload.trace.Trace.cache_token`).
``examples/reproduce_figures.py`` calls each row once, in table order.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.throughput import (
    ThroughputConfig,
    perturbation_tolerance,
    run_slow_receiver,
    threshold_rate,
)
from repro.analysis.viewchange import measure_view_change_latency
from repro.sweep import Sweep, SweepResult
from repro.workload.game import GameConfig, generate_game_trace
from repro.workload.trace import (
    Trace,
    compute_stats,
    item_rank_profile,
    obsolescence_distances,
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
    """The calibrated 5-player session trace (generated once, cached)."""
    global _default_trace
    if _default_trace is None:
        from repro.workload import portable_workload

        _default_trace = portable_workload("game")
    return _default_trace


@dataclass(frozen=True)
class RowChart:
    """Chart the returned rows: ``series`` pairs each line's name with its
    row column; column 0 is the x axis."""

    series: Tuple[Tuple[str, int], ...]
    x_label: str
    y_label: str
    kind: str = "line"


@dataclass(frozen=True)
class SweepChart:
    """Chart a sweep's ``metric`` along ``x``, one line per protocol."""

    x: str
    metric: str


@dataclass(frozen=True)
class Figure:
    """How one entry point presents its rows: ``title`` is printed and
    ``heading`` (by default the title) heads its report section; both,
    like ``notes``, are :meth:`str.format` templates over the entry
    point's arguments."""

    name: str
    title: str
    header: Tuple[str, ...]
    heading: Optional[str] = None
    notes: Optional[str] = None
    chart: Union[RowChart, SweepChart, None] = None


#: One row per entry point, in the paper's order — the order
#: ``examples/reproduce_figures.py`` calls them in.
FIGURES = (
    Figure(
        "workload_stats",
        "Section 5.2 workload characterisation",
        ("metric", "paper", "measured"),
        heading="Section 5.2 — workload characterisation",
        notes="Paper values are the 5-player Quake session aggregates.",
    ),
    Figure(
        "figure_3a",
        "Figure 3(a) — item rank vs % of rounds modified",
        ("rank", "% of rounds"),
        chart=RowChart((("% of rounds modified", 1),), "item rank", "% of rounds"),
    ),
    Figure(
        "figure_3b",
        "Figure 3(b) — distance to closest related message",
        ("distance", "% of messages"),
        chart=RowChart(
            (("% of messages", 1),), "distance (messages)", "% of messages", "bar"
        ),
    ),
    Figure(
        "figure_4a",
        "Figure 4(a) — producer idle % (buffer={buffer_size})",
        ("consumer msg/s", "reliable", "semantic"),
        chart=SweepChart("consumer_rate", "producer_idle_pct"),
    ),
    Figure(
        "figure_4b",
        "Figure 4(b) — buffer occupancy in messages (buffer={buffer_size})",
        ("consumer msg/s", "reliable", "semantic"),
        chart=SweepChart("consumer_rate", "mean_occupancy"),
    ),
    Figure(
        "figure_5a",
        "Figure 5(a) — threshold consumer rate (mean input "
        "{mean_rate:.1f} msg/s; paper at B=15: reliable 73, semantic 28)",
        ("buffer (msg)", "reliable", "semantic"),
        heading="Figure 5(a) — threshold consumer rate vs buffer size",
        notes="Paper at B=15: reliable 73 msg/s, semantic 28 msg/s.",
        chart=SweepChart("buffer_size", "threshold_rate"),
    ),
    Figure(
        "figure_5b",
        "Figure 5(b) — tolerated perturbation in ms "
        "(paper at B=24: reliable 342, semantic 857)",
        ("buffer (msg)", "reliable (ms)", "semantic (ms)"),
        heading="Figure 5(b) — tolerated perturbation vs buffer size",
        notes="Paper at B=24: reliable 342 ms, semantic 857 ms.",
        chart=SweepChart("buffer_size", "tolerance_s"),
    ),
    Figure(
        "view_change_latency_table",
        "View change under load (slow consumer at {slow_rate} msg/s)",
        ("protocol", "backlog (msg)", "purged", "app latency (s)"),
        heading="View change under load (slow consumer at {slow_rate:g} msg/s)",
    ),
    Figure(
        "churn_table",
        "Churn — partition-heal cycles, view change triggered "
        "mid-partition (3 cycles, half-period cuts)",
        ("period (s)", "loss", "rel dlvd/min", "sem dlvd/min",
         "rel vc (ms)", "sem vc (ms)", "sem purged"),
        heading="Churn — partition-heal cycles, view change mid-partition",
        notes="3 cycles, half-period cuts; latency is trigger to full "
        "installation.",
    ),
    Figure(
        "ablation_k",
        "Ablation — k-enumeration window (buffer={buffer_size}, "
        "consumer={consumer_rate} msg/s; paper's k = {paper_k})",
        ("k", "purge ratio", "producer idle %"),
        heading="Ablation — k-enumeration window (buffer={buffer_size})",
        notes="Paper's choice is k = 2×buffer = {paper_k}.",
    ),
    Figure(
        "ablation_representation",
        "Ablation — representation (buffer={buffer_size}, "
        "consumer={consumer_rate} msg/s)",
        ("representation", "purge ratio", "producer idle %"),
        heading="Ablation — obsolescence representation (buffer={buffer_size})",
    ),
    Figure(
        "ablation_players",
        "Ablation — player-count scaling",
        ("players", "msg/s", "never-obs %", "mean distance"),
    ),
)

_BY_NAME = {figure.name: figure for figure in FIGURES}


def _present(figure, rows, *, show, report, sweep=None, **fields) -> List[Any]:
    """Print ``rows`` and append them to ``report`` — the only code that
    does either — and return them.  ``fields`` fill the templates; given
    ``sweep``, the report holds its Student-t CI table rather than the
    rows.  NaN points are left out of row charts, not of tables.
    """
    if show:
        print(f"\n== {figure.title.format(**fields)} ==")
        print("  ".join(f"{h:>14}" for h in figure.header))
        for row in rows:
            print("  ".join(
                f"{v:>14.2f}" if isinstance(v, float) else f"{v!s:>14}"
                for v in row
            ))
    if report is None:
        return rows
    heading = (figure.heading or figure.title).format(**fields)
    notes = figure.notes and figure.notes.format(**fields)
    chart = figure.chart
    if sweep is not None:
        axes = {} if chart is None else dict(
            metrics=[chart.metric], x=chart.x, series="semantic",
            chart_metric=chart.metric,
        )
        report.add_sweep(heading, sweep, notes=notes, **axes)
        return rows
    report.add_table(heading, figure.header, rows, notes=notes)
    if chart is not None:
        from repro.report.model import Chart

        series = [
            (name, [(float(r[0]), float(r[col])) for r in rows
                    if not math.isnan(r[col])])
            for name, col in chart.series
        ]
        report.add_chart(f"{heading} — chart", Chart(
            heading, series, chart.x_label, chart.y_label, chart.kind
        ))
    return rows


def _grid(cell, context, workers, cache, base=None, **axes) -> SweepResult:
    """Run ``cell`` over ``base`` × ``axes``, axes in keyword order."""
    return Sweep(base, axes).run(cell, workers=workers, context=context, cache=cache)


def _by_protocol(sweep, axis, values, metric, convert) -> List[Tuple]:
    """Rows ``(value, reliable, semantic)`` of ``metric`` along ``axis``."""
    return [
        (value, *(
            convert(sweep.select(**{axis: value}, semantic=semantic).value(metric))
            for semantic in (False, True)
        ))
        for value in values
    ]


def _along(sweep, axis, values, **digits) -> List[Tuple]:
    """Rows ``(value, metric, …)``, each metric rounded to its digits."""
    return [
        (value, *(
            round(sweep.select(**{axis: value}).value(metric), places)
            for metric, places in digits.items()
        ))
        for value in values
    ]


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
        (label, PAPER_WORKLOAD[key], round(value, 2))
        for label, key, value in (
            ("rounds", "rounds", stats.rounds),
            ("messages/s", "message_rate", stats.message_rate),
            ("modified items/round", "mean_modified_per_round",
             stats.mean_modified_per_round),
            ("active items", "mean_active_items", stats.mean_active_items),
            ("never obsolete (%)", "never_obsolete_pct",
             100 * stats.never_obsolete_share),
        )
    ]
    return _present(_BY_NAME["workload_stats"], rows, show=show, report=report)


def figure_3a(
    trace: Optional[Trace] = None,
    top: int = 50,
    show: bool = False,
    report: Any = None,
) -> List[Tuple[int, float]]:
    """Figure 3(a): frequency of item modifications by rank."""
    trace = trace or default_trace()
    rows = item_rank_profile(trace, top=top)
    return _present(_BY_NAME["figure_3a"], rows, show=show, report=report)


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
    return _present(_BY_NAME["figure_3b"], rows, show=show, report=report)


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
) -> SweepResult:
    """The full Figure 4 grid (both panels read from it)."""
    trace = trace or default_trace()
    return _grid(
        _figure_4_cell, trace, workers, cache,
        base={"buffer_size": buffer_size},
        consumer_rate=rates, semantic=[False, True],
    )


#: ``(weak reference to the trace, buffer_size, rates, sweep)`` of the last
#: Figure 4 grid: panel (b) reads the grid panel (a) just ran.
_last_figure_4: Optional[Tuple[Any, int, Tuple[int, ...], SweepResult]] = None


def _figure_4(name, trace, buffer_size, rates, show, workers, cache, report):
    """Both Figure 4 panels: the same grid, one metric each."""
    global _last_figure_4
    figure = _BY_NAME[name]
    trace = trace or default_trace()
    key = (buffer_size, tuple(rates))
    last = _last_figure_4
    if last is not None and last[0]() is trace and last[1:3] == key:
        sweep = last[3]
    else:
        sweep = figure_4_sweep(trace, buffer_size, rates, workers, cache)
        _last_figure_4 = (weakref.ref(trace), *key, sweep)
    rows = _by_protocol(
        sweep, "consumer_rate", rates, figure.chart.metric,
        lambda value: round(value, 2),
    )
    return _present(
        figure, rows, show=show, report=report, sweep=sweep,
        buffer_size=buffer_size,
    )


def figure_4a(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    rates: Sequence[int] = DEFAULT_RATES,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Figure 4(a): producer idle % vs consumer rate, reliable vs semantic."""
    return _figure_4("figure_4a", trace, buffer_size, rates,
                     show, workers, cache, report)


def figure_4b(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    rates: Sequence[int] = DEFAULT_RATES,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Figure 4(b): mean buffer occupancy vs consumer rate."""
    return _figure_4("figure_4b", trace, buffer_size, rates,
                     show, workers, cache, report)


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
    report: Any = None,
) -> List[Tuple[int, int, int]]:
    """Figure 5(a): minimum tolerable consumer rate vs buffer size."""
    trace = trace or default_trace()
    sweep = _grid(
        _figure_5a_cell, trace, workers, cache,
        buffer_size=buffers, semantic=[False, True],
    )
    rows = _by_protocol(sweep, "buffer_size", buffers, "threshold_rate", int)
    return _present(
        _BY_NAME["figure_5a"], rows, show=show, report=report, sweep=sweep,
        mean_rate=trace.message_rate,
    )


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
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Figure 5(b): tolerated full-stop perturbation length vs buffer size."""
    trace = trace or default_trace()
    sweep = _grid(
        _figure_5b_cell, trace, workers, cache,
        base={"probes": probes}, buffer_size=buffers, semantic=[False, True],
    )
    rows = _by_protocol(
        sweep, "buffer_size", buffers, "tolerance_s",
        lambda seconds: round(seconds * 1000, 1),
    )
    return _present(
        _BY_NAME["figure_5b"], rows, show=show, report=report, sweep=sweep
    )


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
    report: Any = None,
) -> List[Tuple[str, int, int, float]]:
    """View change under load: backlog, purges, app-perceived latency."""
    trace = trace or default_trace()
    sweep = _grid(
        _view_change_cell, trace, workers, cache,
        base={"slow_rate": slow_rate, "load_time": load_time},
        semantic=[False, True],
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
    return _present(
        _BY_NAME["view_change_latency_table"], rows, show=show, report=report,
        sweep=sweep, slow_rate=slow_rate,
    )


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
    sweep = _grid(
        _churn_cell, None, workers, cache,
        period=periods, loss=losses, semantic=[False, True],
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
    return _present(_BY_NAME["churn_table"], rows, show=show, report=report)


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
    report: Any = None,
) -> List[Tuple[int, float, float]]:
    """Sensitivity to the k-enumeration window (paper picks k = 2×buffer).

    Too-small k cannot express the obsolescence of distant pairs, so the
    purge ratio — and with it the idle percentage — collapses.
    """
    trace = trace or default_trace()
    sweep = _grid(
        _ablation_cell, trace, workers, cache,
        base={"buffer_size": buffer_size, "consumer_rate": consumer_rate},
        k=ks,
    )
    rows = _along(sweep, "k", ks, purge_ratio=3, producer_idle_pct=2)
    return _present(
        _BY_NAME["ablation_k"], rows, show=show, report=report, sweep=sweep,
        buffer_size=buffer_size, consumer_rate=consumer_rate,
        paper_k=2 * buffer_size,
    )


def ablation_representation(
    trace: Optional[Trace] = None,
    buffer_size: int = 15,
    consumer_rate: int = 30,
    show: bool = False,
    workers: Optional[int] = None,
    cache: Any = None,
    report: Any = None,
) -> List[Tuple[str, float, float]]:
    """Compare the three obsolescence representations of Section 4.2.

    Item tagging and message enumeration express unbounded-distance
    relations; k-enumeration trades a little purging power for O(k) state.
    """
    trace = trace or default_trace()
    representations = ("tagging", "enumeration", "k-enumeration")
    sweep = _grid(
        _ablation_cell, trace, workers, cache,
        base={"buffer_size": buffer_size, "consumer_rate": consumer_rate},
        representation=representations,
    )
    rows = _along(
        sweep, "representation", representations,
        purge_ratio=3, producer_idle_pct=2,
    )
    return _present(
        _BY_NAME["ablation_representation"], rows, show=show, report=report,
        sweep=sweep, buffer_size=buffer_size, consumer_rate=consumer_rate,
    )


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
    report: Any = None,
) -> List[Tuple[int, float, float, float]]:
    """Player-count scaling (Section 5.2, last paragraph).

    The paper observes: with more players the message rate increases, the
    never-obsolete share decreases, and the distance between related
    messages increases.
    """
    sweep = _grid(
        _players_cell, None, workers, cache,
        base={"rounds": rounds}, players=players,
    )
    rows = _along(
        sweep, "players", players,
        message_rate=1, never_obsolete_pct=1, mean_obsolescence_distance=1,
    )
    return _present(
        _BY_NAME["ablation_players"], rows, show=show, report=report,
        sweep=sweep,
    )

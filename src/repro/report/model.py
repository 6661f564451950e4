"""Report document model: typed sections assembled by a builder.

A report is a flat list of typed sections — text, tables, charts,
violation summaries, cache/dispatch statistics — that the renderers in
:mod:`repro.report.render` turn into markdown and HTML.  The split
matters because the two outputs have different contracts:

* the **markdown** report contains only *deterministic* sections, so the
  same sweep rendered from a serial or a pooled run is
  byte-identical and can be pinned by a golden fixture (CI does exactly
  that, see ``tests/report/``);
* the **HTML** report additionally includes the *volatile* sections —
  cache hit counters, pool wall times — that legitimately
  differ between runs.

Sections carry a ``volatile`` flag; :meth:`ReportBuilder.add_cache_dir`
is the only built-in producer of volatile sections.

Numbers are formatted once, deterministically, at section-build time
(:func:`fmt_value`), so renderers never re-round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "Chart",
    "ChartSection",
    "ReportBuilder",
    "Section",
    "StatsSection",
    "TableSection",
    "TextSection",
    "ViolationsSection",
    "fmt_value",
    "slugify",
]


def fmt_value(value: Any) -> str:
    """One deterministic string per cell value.

    Floats use ``%.6g`` (enough for every figure of the paper, no
    platform-dependent tail digits); bools print as ``yes``/``no`` so
    protocol columns read naturally; everything else is ``str``.
    """
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def slugify(text: str) -> str:
    """Filesystem-safe slug for chart filenames (deterministic)."""
    out = []
    for ch in text.lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-") or "section"


@dataclass
class Section:
    """Base section: a heading plus the volatility contract."""

    heading: str
    volatile: bool = False


@dataclass
class TextSection(Section):
    body: str = ""


@dataclass
class TableSection(Section):
    header: Sequence[str] = ()
    rows: List[List[str]] = field(default_factory=list)
    notes: Optional[str] = None


@dataclass
class Chart:
    """One figure-style chart: named series of (x, y) points."""

    title: str
    series: List[Tuple[str, List[Tuple[float, float]]]]
    x_label: str = ""
    y_label: str = ""
    kind: str = "line"  #: ``line`` or ``bar`` (bar uses the first series)


@dataclass
class ChartSection(Section):
    chart: Optional[Chart] = None


@dataclass
class ViolationsSection(Section):
    """Spec-violation summary: the verdicts of the executable spec."""

    violations: List[str] = field(default_factory=list)
    checked: bool = True  #: False when property checking was disabled


@dataclass
class StatsSection(Section):
    """Key/value stats (cache counters, dispatch aggregates) — volatile."""

    pairs: List[Tuple[str, str]] = field(default_factory=list)
    table: Optional[TableSection] = None

    def __post_init__(self) -> None:
        self.volatile = True


class ReportBuilder:
    """Accumulates sections; the entry points in
    :mod:`repro.analysis.experiments` append to one of these when called
    with ``report=builder``, and ``reproduce_figures.py --report DIR``
    hands the same builder to every figure.
    """

    def __init__(self, title: str, subtitle: Optional[str] = None) -> None:
        self.title = title
        self.subtitle = subtitle
        self.sections: List[Section] = []

    # ------------------------------------------------------------------
    # Deterministic sections
    # ------------------------------------------------------------------

    def add_text(self, heading: str, body: str) -> "ReportBuilder":
        self.sections.append(TextSection(heading=heading, body=body))
        return self

    def add_table(
        self,
        heading: str,
        header: Sequence[str],
        rows: Sequence[Sequence[Any]],
        notes: Optional[str] = None,
    ) -> "ReportBuilder":
        self.sections.append(
            TableSection(
                heading=heading,
                header=[str(h) for h in header],
                rows=[[fmt_value(v) for v in row] for row in rows],
                notes=notes,
            )
        )
        return self

    def add_chart(self, heading: str, chart: Chart) -> "ReportBuilder":
        self.sections.append(ChartSection(heading=heading, chart=chart))
        return self

    def add_violations(
        self, heading: str, violations: Optional[Sequence[str]]
    ) -> "ReportBuilder":
        self.sections.append(
            ViolationsSection(
                heading=heading,
                violations=list(violations or []),
                checked=violations is not None,
            )
        )
        return self

    def add_sweep(
        self,
        heading: str,
        sweep: Any,
        metrics: Optional[Sequence[str]] = None,
        x: Optional[str] = None,
        series: Optional[str] = None,
        chart_metric: Optional[str] = None,
        notes: Optional[str] = None,
    ) -> "ReportBuilder":
        """One section per sweep: a CI table, the chart, the violations.

        The CI table quotes ``mean ± ci95_t`` — the Student-t interval of
        :func:`repro.sweep.result.summarise`, correct at the 3–5
        replicates sweeps actually run — with the legacy normal-z
        ``ci95`` available in the raw JSON for comparison.  With ``x``,
        ``series`` and ``chart_metric`` given, a figure-style line chart
        (one line per ``series`` value, e.g. reliable vs semantic) is
        added alongside.
        """
        from repro.report.sources import sweep_ci_table, sweep_chart

        table = sweep_ci_table(sweep, metrics=metrics)
        self.sections.append(
            TableSection(
                heading=heading,
                header=table[0],
                rows=table[1],
                notes=notes,
            )
        )
        if x and series and chart_metric:
            chart = sweep_chart(
                sweep, x=x, series=series, metric=chart_metric,
                title=heading,
            )
            if chart is not None:
                self.sections.append(
                    ChartSection(heading=f"{heading} — chart", chart=chart)
                )
        if not sweep.ok:
            self.add_violations(f"{heading} — spec violations", sweep.violations)
        return self

    def add_golden_delta(
        self,
        heading: str,
        header: Sequence[str],
        golden_rows: Sequence[Sequence[Any]],
        measured_rows: Sequence[Sequence[Any]],
        notes: Optional[str] = None,
    ) -> "ReportBuilder":
        """Before/after table against a golden fixture.

        Rows are matched positionally; numeric columns gain a ``Δ``
        column.  The section states outright whether the measured table
        is identical to the fixture — the sentence CI greps for.
        """
        from repro.report.sources import golden_delta_table

        head, rows, identical = golden_delta_table(
            header, golden_rows, measured_rows
        )
        verdict = (
            "Measured table matches the golden fixture exactly."
            if identical
            else "Measured table DIFFERS from the golden fixture."
        )
        self.sections.append(
            TableSection(
                heading=heading,
                header=head,
                rows=rows,
                notes=f"{verdict}" + (f" {notes}" if notes else ""),
            )
        )
        return self

    # ------------------------------------------------------------------
    # Volatile sections (HTML only)
    # ------------------------------------------------------------------

    def add_stats(
        self,
        heading: str,
        pairs: Sequence[Tuple[str, Any]],
        table: Optional[TableSection] = None,
    ) -> "ReportBuilder":
        self.sections.append(
            StatsSection(
                heading=heading,
                pairs=[(str(k), fmt_value(v)) for k, v in pairs],
                table=table,
            )
        )
        return self

    def add_cache_dir(self, path: Any) -> "ReportBuilder":
        """Cache and dispatch observability sections for one cache dir.

        Reads ``cache-stats.json`` and ``dispatch-stats.json`` (the PR 6/8
        trails).  Volatile by definition — these differ between a serial
        and a pooled run of the very same sweep — so they render in
        the HTML report only, keeping the markdown deterministic.
        """
        from repro.report.sources import cache_sections

        for section in cache_sections(path):
            self.sections.append(section)
        return self

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_markdown(self) -> str:
        from repro.report.render import render_markdown

        return render_markdown(self)

    def to_html(self) -> str:
        from repro.report.render import render_html

        return render_html(self)

    def write(self, outdir: Any, basename: str = "report") -> dict:
        """Write ``<basename>.md``, ``<basename>.html`` and the chart
        SVGs under ``outdir``; returns the written paths by kind."""
        from repro.report.render import write_report

        return write_report(self, outdir, basename=basename)

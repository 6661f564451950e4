"""Self-contained HTML/markdown reports and a live sweep dashboard.

``python -m repro.report render FILE... --out DIR`` renders any result
artefact the pipeline produces — :class:`~repro.sweep.result.SweepResult`
dumps, :class:`~repro.scenario.result.ScenarioResult` / fault-run dumps,
or plain JSON — into one report directory: ``report.md`` (deterministic,
golden-pinnable), ``report.html`` (complete, self-contained) and
``charts/*.svg``.

``python -m repro.report watch DIR`` tails a sweep cache directory while
a pooled sweep runs against it — see :mod:`repro.report.dashboard`.

Programmatic use starts at :class:`ReportBuilder`; the entry points in
:mod:`repro.analysis.experiments` accept ``report=builder`` and
``examples/reproduce_figures.py --report DIR`` assembles the full figure
report.
"""

from repro.report.charts import render_chart_svg
from repro.report.dashboard import read_state, render_dashboard, watch
from repro.report.model import (
    Chart,
    ChartSection,
    ReportBuilder,
    Section,
    StatsSection,
    TableSection,
    TextSection,
    ViolationsSection,
    fmt_value,
    slugify,
)
from repro.report.render import render_html, render_markdown, write_report
from repro.report.sources import (
    cache_sections,
    classify_payload,
    golden_delta_table,
    load_payload,
    payload_sections,
    sweep_chart,
    sweep_ci_table,
)

__all__ = [
    "Chart",
    "ChartSection",
    "ReportBuilder",
    "Section",
    "StatsSection",
    "TableSection",
    "TextSection",
    "ViolationsSection",
    "cache_sections",
    "classify_payload",
    "fmt_value",
    "golden_delta_table",
    "load_payload",
    "payload_sections",
    "read_state",
    "render_chart_svg",
    "render_dashboard",
    "render_html",
    "render_markdown",
    "slugify",
    "sweep_chart",
    "sweep_ci_table",
    "watch",
    "write_report",
]

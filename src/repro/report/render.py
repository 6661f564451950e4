"""Markdown and HTML rendering of a :class:`~repro.report.model.ReportBuilder`.

Markdown is the *deterministic* artefact: volatile sections (cache and
dispatch statistics) are skipped, charts are referenced as relative SVG
files, and no timestamps or environment details are emitted — the same
sweep reported from a serial or a pooled run produces the same
bytes, which is what the golden report fixture and the CI ``figure-report``
lane pin.

HTML is the *complete* artefact: one self-contained file with inline SVG,
inline CSS and the volatile observability sections included.
"""

from __future__ import annotations

import html
import pathlib
from typing import Any, Dict, List

from repro.report.charts import render_chart_svg
from repro.report.model import (
    ChartSection,
    ReportBuilder,
    Section,
    StatsSection,
    TableSection,
    TextSection,
    ViolationsSection,
    slugify,
)

__all__ = ["render_markdown", "render_html", "write_report"]

_CSS = """
body{font-family:Helvetica,Arial,sans-serif;margin:2em auto;max-width:60em;
 color:#222;line-height:1.45}
h1{border-bottom:2px solid #1f77b4;padding-bottom:.3em}
h2{margin-top:1.6em;color:#1f77b4}
table{border-collapse:collapse;margin:.8em 0}
th,td{border:1px solid #ccc;padding:.3em .7em;text-align:right}
th:first-child,td:first-child{text-align:left}
th{background:#f0f4f8}
.ok{color:#2a7a2a}.bad{color:#c22}
.notes{color:#666;font-style:italic}
.volatile{background:#fbfbf4;border:1px solid #eee;padding:.2em 1em;
 margin:1em 0}
dl.stats dt{font-weight:bold;float:left;clear:left;width:14em}
dl.stats dd{margin-left:15em}
""".strip()


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------


def _md_table(section: TableSection) -> List[str]:
    lines = []
    header = list(section.header)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in section.rows:
        cells = list(row) + [""] * (len(header) - len(row))
        lines.append(
            "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"
        )
    if section.notes:
        lines.append("")
        lines.append(f"*{section.notes}*")
    return lines


def render_markdown(report: ReportBuilder) -> str:
    """The deterministic markdown report (volatile sections skipped)."""
    lines: List[str] = [f"# {report.title}", ""]
    if report.subtitle:
        lines += [report.subtitle, ""]
    for section in report.sections:
        if section.volatile:
            continue
        lines.append(f"## {section.heading}")
        lines.append("")
        if isinstance(section, TextSection):
            lines.append(section.body)
        elif isinstance(section, TableSection):
            lines += _md_table(section)
        elif isinstance(section, ChartSection) and section.chart is not None:
            slug = slugify(section.heading)
            lines.append(f"![{section.chart.title}](charts/{slug}.svg)")
        elif isinstance(section, ViolationsSection):
            if not section.checked:
                lines.append("Property checking was disabled for this run.")
            elif not section.violations:
                lines.append(
                    "No violations — every check of the executable "
                    "specification passed."
                )
            else:
                lines.append(
                    f"**{len(section.violations)} violation(s):**"
                )
                lines.append("")
                for violation in section.violations:
                    lines.append(f"- `{violation}`")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------


def _html_table(section: TableSection) -> List[str]:
    out = ["<table>", "<tr>"]
    for h in section.header:
        out.append(f"<th>{html.escape(h)}</th>")
    out.append("</tr>")
    for row in section.rows:
        out.append("<tr>")
        cells = list(row) + [""] * (len(section.header) - len(row))
        for c in cells:
            out.append(f"<td>{html.escape(c)}</td>")
        out.append("</tr>")
    out.append("</table>")
    if section.notes:
        out.append(f'<p class="notes">{html.escape(section.notes)}</p>')
    return out


def render_html(report: ReportBuilder) -> str:
    """The complete self-contained HTML report (volatile sections too)."""
    out: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(report.title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(report.title)}</h1>",
    ]
    if report.subtitle:
        out.append(f"<p>{html.escape(report.subtitle)}</p>")
    for section in report.sections:
        classes = ' class="volatile"' if section.volatile else ""
        out.append(f"<section{classes}>")
        out.append(f"<h2>{html.escape(section.heading)}</h2>")
        if isinstance(section, TextSection):
            out.append(f"<p>{html.escape(section.body)}</p>")
        elif isinstance(section, StatsSection):
            if section.pairs:
                out.append('<dl class="stats">')
                for key, value in section.pairs:
                    out.append(
                        f"<dt>{html.escape(key)}</dt>"
                        f"<dd>{html.escape(value)}</dd>"
                    )
                out.append("</dl>")
            if section.table is not None:
                out += _html_table(section.table)
        elif isinstance(section, TableSection):
            out += _html_table(section)
        elif isinstance(section, ChartSection) and section.chart is not None:
            out.append(render_chart_svg(section.chart))
        elif isinstance(section, ViolationsSection):
            if not section.checked:
                out.append("<p>Property checking was disabled.</p>")
            elif not section.violations:
                out.append(
                    '<p class="ok">No violations — every check of the '
                    "executable specification passed.</p>"
                )
            else:
                out.append(
                    f'<p class="bad">{len(section.violations)} '
                    "violation(s):</p><ul>"
                )
                for violation in section.violations:
                    out.append(f"<li><code>{html.escape(violation)}</code></li>")
                out.append("</ul>")
        out.append("</section>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def write_report(
    report: ReportBuilder, outdir: Any, basename: str = "report"
) -> Dict[str, Any]:
    """Write ``report.md``, ``report.html`` and ``charts/*.svg``.

    Returns ``{"markdown": path, "html": path, "charts": [paths]}``.  The
    markdown file references the SVGs relatively, so the directory is
    self-contained and publishable as a CI artifact.
    """
    root = pathlib.Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    charts: List[pathlib.Path] = []
    chart_dir = root / "charts"
    for section in report.sections:
        if isinstance(section, ChartSection) and section.chart is not None:
            chart_dir.mkdir(parents=True, exist_ok=True)
            path = chart_dir / f"{slugify(section.heading)}.svg"
            path.write_text(render_chart_svg(section.chart), encoding="utf-8")
            charts.append(path)
    md_path = root / f"{basename}.md"
    md_path.write_text(render_markdown(report), encoding="utf-8")
    html_path = root / f"{basename}.html"
    html_path.write_text(render_html(report), encoding="utf-8")
    return {"markdown": md_path, "html": html_path, "charts": charts}

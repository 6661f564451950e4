"""Artefact-to-section conversion: CI tables, payload dispatch, cache dirs."""

import json

import pytest

from repro.report import (
    ReportBuilder,
    cache_sections,
    classify_payload,
    payload_sections,
    sweep_chart,
    sweep_ci_table,
)
from repro.report.model import StatsSection, TableSection, ViolationsSection
from repro.sweep import Sweep, run_sweep
from repro.sweep.cells import arithmetic_cell
from repro.sweep.result import summarise, t_critical


def small_sweep(seeds=3):
    return (
        Sweep(base={"k": 7}, seeds=seeds)
        .axis("x", [1, 2])
        .axis("semantic", [False, True])
        .run(arithmetic_cell)
    )


class TestSweepCiTable:
    def test_quotes_student_t_interval(self):
        sweep = small_sweep(seeds=3)
        header, rows = sweep_ci_table(sweep, metrics=["value"])
        assert header == ["cell", "value (±95% t)"]
        cell = sweep.cells[0]
        stats = cell.stats("value")
        # The quoted half-width is the t-based one (df=2 → 4.303), not
        # the legacy z interval.
        expected = summarise(
            [run.metrics["value"] for run in cell.runs]
        )
        assert stats.ci95_t == pytest.approx(
            t_critical(2) / 1.96 * stats.ci95
        )
        assert f"{expected.ci95_t:.6g}"[:6] in rows[0][1]
        assert "(n=3)" in rows[0][1]

    def test_single_replicate_shows_n1_and_no_interval(self):
        _header, rows = sweep_ci_table(small_sweep(seeds=1), metrics=["value"])
        assert all("±" not in row[1] and "(n=1)" in row[1] for row in rows)

    def test_cell_labels_show_only_swept_axes(self):
        _header, rows = sweep_ci_table(small_sweep(seeds=1))
        assert rows[0][0] == "x=1, semantic=no"
        assert "k=" not in rows[0][0]

    def test_default_metric_order_is_sorted(self):
        header, _rows = sweep_ci_table(small_sweep(seeds=1))
        assert header[1:] == ["seed_echo (±95% t)", "value (±95% t)"]

    def test_missing_metric_renders_dash(self):
        _header, rows = sweep_ci_table(small_sweep(seeds=1), metrics=["nope"])
        assert rows[0][1] == "—"


class TestSweepChart:
    def test_series_per_axis_value_with_protocol_names(self):
        chart = sweep_chart(
            small_sweep(seeds=1), x="x", series="semantic",
            metric="value", title="t",
        )
        names = [name for name, _pts in chart.series]
        assert names == ["reliable", "semantic"]
        assert all(len(pts) == 2 for _name, pts in chart.series)

    def test_non_boolean_series_axis_is_labelled_explicitly(self):
        chart = sweep_chart(
            small_sweep(seeds=1), x="semantic", series="x",
            metric="value", title="t",
        )
        assert [name for name, _pts in chart.series] == ["x=1", "x=2"]


class TestPayloadDispatch:
    def test_classify_sweep_scenario_generic(self):
        sweep = small_sweep(seeds=1)
        assert classify_payload(sweep.to_dict()) == "sweep"
        assert (
            classify_payload({"histories": {}, "metrics": {}, "config": {}})
            == "scenario"
        )
        assert classify_payload({"anything": 1}) == "json"

    def test_sweep_payload_sections(self):
        sections = payload_sections("fig", small_sweep(seeds=2).to_dict())
        tables = [s for s in sections if isinstance(s, TableSection)]
        assert tables and "value (±95% t)" in tables[0].header
        assert any(isinstance(s, ViolationsSection) for s in sections)

    def test_generic_json_sections(self):
        sections = payload_sections("bench", {"rate": 42.5, "tags": [1, 2]})
        (table,) = sections
        flat = {row[0]: row[1] for row in table.rows}
        assert flat["rate"] == "42.5"
        assert "list" in flat["tags"]


class TestCacheSections:
    def test_all_sections_are_volatile(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(
            Sweep(base={"k": 1}, seeds=1).axis("x", [1, 2]),
            arithmetic_cell,
            cache=str(cache_dir),
        )
        sections = cache_sections(cache_dir)
        assert sections and all(s.volatile for s in sections)
        cache = sections[0]
        assert isinstance(cache, StatsSection)
        pairs = dict(cache.pairs)
        assert pairs["shards"] == "2"
        assert pairs["misses"] == "2"

    def test_dispatch_trail_contributes_sections(self, tmp_path):
        from repro.sweep.dispatch import record_dispatch

        cache_dir = tmp_path / "cache"
        run_sweep(
            Sweep(base={"k": 1}, seeds=1).axis("x", [1]),
            arithmetic_cell,
            cache=str(cache_dir),
        )
        record_dispatch(
            cache_dir,
            {
                "backend": "local-pool",
                "workers": 2,
                "wall_s": 1.5,
                "dispatched": 4,
                "stolen": 1,
                "reissued": 0,
                "duplicates": 0,
                "cells_total": 4,
                "cells_cached": 0,
            },
        )
        headings = [s.heading for s in cache_sections(cache_dir)]
        assert "Dispatch stats" in headings

    def test_older_trail_records_render_without_per_worker_table(
        self, tmp_path
    ):
        from repro.sweep.dispatch import record_dispatch

        cache_dir = tmp_path / "cache"
        run_sweep(
            Sweep(base={"k": 1}, seeds=1).axis("x", [1]),
            arithmetic_cell,
            cache=str(cache_dir),
        )
        record_dispatch(
            cache_dir,
            {
                "backend": "ssh",
                "workers": 2,
                "wall_s": 1.5,
                "dispatched": 4,
                "stolen": 1,
                "reissued": 1,
                "duplicates": 0,
                "cells_total": 4,
                "cells_cached": 0,
                "per_worker": {"host/0": {"cells": 4, "busy_s": 1.0}},
            },
        )
        sections = cache_sections(cache_dir)
        headings = [s.heading for s in sections]
        assert "Dispatch stats" in headings
        assert not [h for h in headings if "per worker" in h]

    def test_pooled_sweep_trail_contributes_sections(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(
            Sweep(base={"k": 1}, seeds=2).axis("x", [1, 2]),
            arithmetic_cell,
            cache=str(cache_dir),
            workers=2,
        )
        headings = [s.heading for s in cache_sections(cache_dir)]
        assert "Dispatch stats" in headings

    def test_report_markdown_stays_deterministic_with_cache_dir(
        self, tmp_path
    ):
        """The observability sections must never leak into the markdown."""
        cache_dir = tmp_path / "cache"
        run_sweep(
            Sweep(base={"k": 1}, seeds=1).axis("x", [1]),
            arithmetic_cell,
            cache=str(cache_dir),
        )
        builder = ReportBuilder("T").add_text("h", "b")
        before = builder.to_markdown()
        builder.add_cache_dir(cache_dir)
        assert builder.to_markdown() == before
        assert "Sweep cache" in builder.to_html()

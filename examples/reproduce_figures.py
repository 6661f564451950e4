#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

This is the one-shot driver of the evaluation: it prints, for each of
the paper's tables/figures plus our ablations, the rows a plotting tool
would consume (``tests/analysis/test_paper_claims.py`` asserts the
paper's claims on the same rows).  On a 2-vCPU machine the paper-scale
run takes about 10 s (the Figure 5 sweeps bisect threshold rates across
seven buffer sizes at full trace length) and ``--fast`` about 2 s.

Run:  python examples/reproduce_figures.py [--fast] [--workers N]
          [--cache DIR] [--report DIR]

``--workers N`` fans the grid-shaped experiments (Figures 4–5, the
view-change table, the ablations) out to N worker processes via the sweep
engine (see ``docs/sweeps-dispatch.md``); results are identical to the
serial run.

``--cache DIR`` memoises every (cell, replicate) run in a content-addressed
on-disk store (see ``docs/sweeps-cache.md``): the first run populates it,
a warm re-run computes zero cells and prints byte-identical tables in
seconds, and editing any module under ``src/repro`` invalidates exactly
everything (``repro-sweep gc DIR`` reclaims the stale shards).

``--report DIR`` additionally assembles every table and chart into a
self-contained report (see ``docs/reports.md``): ``DIR/report.md`` holds
only deterministic sections — the markdown is byte-identical whether the
sweeps ran serially or pooled, which CI's ``figure-report`` lane
asserts — while ``DIR/report.html`` adds the volatile cache/dispatch
observability sections.  The report includes a golden
delta section comparing a freshly computed Figure 4(a) grid against the
committed ``tests/fixtures/golden_figure_4a.json``.
"""

import argparse
import time

import repro.analysis.experiments as exp
from repro.sweep import SweepCache
from repro.workload import portable_workload


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--cache", default=None, metavar="DIR")
    parser.add_argument("--report", default=None, metavar="DIR")
    args = parser.parse_args()
    fast = args.fast
    workers = args.workers
    report = None
    if args.report:
        from repro.report import ReportBuilder

        report = ReportBuilder(
            "Semantically Reliable Multicast — figure reproduction",
            subtitle="Every table and figure of the paper's evaluation "
            "(Section 5), regenerated from the calibrated synthetic "
            "trace."
            + (" Fast mode: shortened trace, coarser grids." if fast else ""),
        )
    # One cache serves every figure: its session counters accumulate
    # across all the sweeps below and flush once per sweep.
    cache = SweepCache(args.cache) if args.cache else None
    if fast:
        trace = portable_workload("game", rounds=2000)
        buffers = (4, 12, 20, 28)
        probes = 4
    else:
        trace = exp.default_trace()
        buffers = exp.DEFAULT_BUFFERS
        probes = 8
    grid = dict(workers=workers, cache=cache, report=report)

    start = time.time()
    before = _counters(args.cache) if cache else None
    exp.workload_stats(trace, show=True, report=report)
    exp.figure_3a(trace, top=50, show=True, report=report)
    exp.figure_3b(trace, show=True, report=report)
    exp.figure_4a(trace, show=True, **grid)
    exp.figure_4b(trace, show=True, **grid)
    exp.figure_5a(trace, buffers=buffers, show=True, **grid)
    exp.figure_5b(trace, buffers=buffers, probes=probes, show=True, **grid)
    exp.view_change_latency_table(show=True, **grid)
    exp.churn_table(show=True, **grid)
    exp.ablation_k(trace, show=True, **grid)
    exp.ablation_representation(trace, show=True, **grid)
    exp.ablation_players(show=True, **grid)
    if report is not None:
        _golden_delta(report, workers=workers, cache=cache)
    print(f"\ntotal wall-clock: {time.time() - start:.1f}s")
    if report is not None:
        if args.cache:
            report.add_cache_dir(args.cache)
        written = report.write(args.report)
        print(f"report: {written['markdown']} and {written['html']}")
    if cache:
        after = _counters(args.cache)
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "n/a"
        print(
            f"cache {args.cache}: {hits} hits / {misses} computed "
            f"({rate} hit rate this run)"
        )


def _golden_delta(report, workers, cache):
    """Recompute the golden Figure 4(a) grid and report the delta.

    The grid is the committed fixture's own configuration (1500-round
    trace, seed 2002, three rates), so the section deterministically
    reads "matches the golden fixture exactly" unless the pipeline
    drifted — the same property ``tests/analysis/test_golden_figures.py``
    asserts, now visible in the published report.
    """
    import json
    import pathlib

    fixture_path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "tests" / "fixtures" / "golden_figure_4a.json"
    )
    try:
        with open(fixture_path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
    except OSError:
        report.add_text(
            "Golden fixture delta",
            "Fixture tests/fixtures/golden_figure_4a.json not found — "
            "delta section skipped.",
        )
        return
    trace = portable_workload(
        golden["trace"]["generator"],
        rounds=golden["trace"]["rounds"],
        seed=golden["trace"]["seed"],
    )
    measured = exp.figure_4a(
        trace,
        buffer_size=golden["buffer_size"],
        rates=golden["rates"],
        workers=workers,
        cache=cache,
    )
    report.add_golden_delta(
        "Golden fixture delta — Figure 4(a), 1500-round trace",
        ("consumer msg/s", "reliable", "semantic"),
        golden["rows"],
        measured,
        notes="Fixture: tests/fixtures/golden_figure_4a.json.",
    )


def _counters(cache_dir):
    from repro.sweep.cache import cache_stats

    return cache_stats(cache_dir)["counters"]


if __name__ == "__main__":
    main()

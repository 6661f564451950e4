"""Golden report fixture: the markdown bytes must never drift.

``golden_report.md`` pins the rendered markdown of a small Figure 4(a)
sweep (600-round trace, two consumer rates).  The same bytes must come
out of a serial run, a pooled run, and a cold or warm cached run — the
determinism contract of :mod:`repro.report.render`: the markdown holds
only deterministic sections, so execution strategy cannot show through.

If a change is *supposed* to alter the report format, regenerate the
fixture (run this file with ``REGEN_GOLDEN_REPORT=1``) and say so in the
commit message.

``tests/fixtures/figures_fast_stdout.txt`` and ``figures_fast_report.md``
pin a whole ``examples/reproduce_figures.py --fast --report DIR`` run the
same way: regenerate them from that command (``PYTHONHASHSEED=0``; drop
the ``total wall-clock`` and ``report:`` lines of stdout) when a figure
is meant to change.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.analysis.experiments as exp
from repro.report import ReportBuilder
from repro.workload.game import GameConfig, generate_game_trace

GOLDEN = pathlib.Path(__file__).parent / "golden_report.md"
REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = REPO / "tests" / "fixtures"

ROUNDS = 600
SEED = 2002
BUFFER = 15
RATES = (80, 30)


def build_markdown(**grid) -> str:
    trace = generate_game_trace(GameConfig(rounds=ROUNDS, seed=SEED))
    builder = ReportBuilder(
        "Golden report — Figure 4(a), 600-round trace",
        subtitle="Fixture for tests/report/test_golden_report.py.",
    )
    exp.figure_4a(
        trace, buffer_size=BUFFER, rates=RATES, report=builder, **grid
    )
    return builder.to_markdown()


class TestGoldenReport:
    def test_serial_matches_fixture(self):
        markdown = build_markdown()
        if os.environ.get("REGEN_GOLDEN_REPORT"):
            GOLDEN.write_text(markdown, encoding="utf-8")
        assert markdown == GOLDEN.read_text(encoding="utf-8")

    def test_pooled_run_is_byte_identical(self):
        assert build_markdown(workers=2) == GOLDEN.read_text(encoding="utf-8")

    def test_pooled_cached_run_is_byte_identical(self, tmp_path):
        markdown = build_markdown(workers=2, cache=str(tmp_path / "cache"))
        assert markdown == GOLDEN.read_text(encoding="utf-8")

    def test_warm_cache_rerun_is_byte_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = build_markdown(workers=2, cache=cache)
        warm = build_markdown(workers=2, cache=cache)
        assert first == warm == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.slow
def test_figures_fast_run_matches_its_fixtures(tmp_path):
    """Every title, heading and number of ``reproduce_figures.py --fast``:
    stdout (less the wall-clock and report-path lines) and ``report.md``
    are pinned byte for byte, as CI's figure-report lane diffs them."""
    env = dict(
        os.environ, PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8",
        PYTHONPATH=str(REPO / "src"),
    )
    out = subprocess.run(
        [sys.executable, str(REPO / "examples" / "reproduce_figures.py"),
         "--fast", "--report", str(tmp_path)],
        env=env, check=True, capture_output=True, encoding="utf-8",
    ).stdout
    kept = "".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith(("total wall-clock", "report:"))
    )
    assert kept == (FIXTURES / "figures_fast_stdout.txt").read_text(
        encoding="utf-8"
    )
    assert (tmp_path / "report.md").read_bytes() == (
        FIXTURES / "figures_fast_report.md"
    ).read_bytes()

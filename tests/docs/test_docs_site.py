"""The docs tree must stay buildable and complete.

CI runs ``mkdocs build --strict`` (which fails on broken links); these
tests enforce the pieces strict mode cannot know about — above all that
the paper-to-code map in ``docs/architecture.md`` covers **every** public
experiment function, so a new figure cannot land undocumented — and keep
the structural checks runnable in environments without mkdocs installed.
"""

import pathlib
import re

import pytest
import yaml

import repro.analysis.experiments as experiments

REPO = pathlib.Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"


def load_nav_files():
    config = yaml.safe_load((REPO / "mkdocs.yml").read_text())
    files = []
    for entry in config["nav"]:
        for _title, path in entry.items():
            files.append(path)
    return config, files


class TestMkdocsConfig:
    def test_config_parses_and_is_strict(self):
        config, _files = load_nav_files()
        assert config["strict"] is True
        assert config["site_name"]

    def test_nav_files_exist(self):
        _config, files = load_nav_files()
        assert files, "empty nav"
        for path in files:
            assert (DOCS / path).is_file(), f"nav names missing file {path}"

    def test_required_pages_present(self):
        _config, files = load_nav_files()
        assert "architecture.md" in files
        assert "kernel.md" in files
        assert "index.md" in files
        assert "faults.md" in files
        assert "transport.md" in files
        assert "sweeps-cache.md" in files
        assert "sweeps-dispatch.md" in files
        assert "reports.md" in files


class TestInternalLinks:
    def test_relative_doc_links_resolve(self):
        link = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")
        for page in DOCS.glob("*.md"):
            for target in link.findall(page.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                resolved = (page.parent / target).resolve()
                assert resolved.exists(), f"{page.name} links to missing {target}"

    def test_readme_links_docs_site(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/architecture.md" in readme
        assert "docs/kernel.md" in readme


class TestPaperToCodeMap:
    def test_map_covers_every_experiment_function(self):
        """Acceptance criterion: the architecture page's paper-to-code map
        names every figure/experiment entry point in __all__."""
        text = (DOCS / "architecture.md").read_text()
        missing = [
            name for name in experiments.__all__ if f"`{name}`" not in text
        ]
        assert not missing, (
            f"paper-to-code map in docs/architecture.md misses: {missing}"
        )

    def test_map_names_real_modules(self):
        """Module paths cited in the map must import."""
        import importlib

        text = (DOCS / "architecture.md").read_text()
        cited = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        assert cited, "map cites no modules?"
        for dotted in cited:
            parts = dotted.split(".")
            # Strip trailing attribute names until the module imports.
            for cut in range(len(parts), 1, -1):
                try:
                    importlib.import_module(".".join(parts[:cut]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                raise AssertionError(f"docs cite unimportable {dotted}")


class TestFaultsDocMatchesCode:
    def test_every_fault_event_documented(self):
        """The event taxonomy in docs/faults.md must name every event type
        the plan module exports, so a new fault kind cannot land
        undocumented."""
        from repro.faults import plan

        text = (DOCS / "faults.md").read_text()
        event_names = [
            name
            for name in plan.__all__
            if isinstance(getattr(plan, name), type)
            and issubclass(getattr(plan, name), plan.FaultEvent)
            and getattr(plan, name) is not plan.FaultEvent
        ]
        assert event_names, "no fault event types exported?"
        missing = [n for n in event_names if f"`{n}`" not in text]
        assert not missing, f"docs/faults.md misses event types: {missing}"

    def test_every_builtin_profile_documented(self):
        from repro.faults import fault_profiles

        text = (DOCS / "faults.md").read_text()
        missing = [
            name for name in fault_profiles.names() if f"`{name}`" not in text
        ]
        assert not missing, f"docs/faults.md misses fault profiles: {missing}"

    def test_entry_points_in_paper_to_code_map(self):
        """churn_table is covered by the generic map test; the subsystem
        itself and the rejoin entry point must also be cited."""
        text = (DOCS / "architecture.md").read_text()
        assert "`repro.faults`" in text
        assert "rejoin" in text

    def test_lossy_checks_documented_and_real(self):
        from repro.core.spec import CHECKS, LOSSY_CHECKS

        text = (DOCS / "faults.md").read_text()
        assert "LOSSY_CHECKS" in text
        for name in LOSSY_CHECKS:
            assert name in CHECKS


class TestTransportDocMatchesCode:
    def test_every_backend_documented(self):
        """A new transport backend cannot land without a mention in
        docs/transport.md."""
        import repro.transport  # noqa: F401  (registers the backends)
        from repro.registry import transports

        text = (DOCS / "transport.md").read_text()
        missing = [n for n in transports.names() if f"`{n}`" not in text]
        assert not missing, f"docs/transport.md misses backends: {missing}"

    def test_documented_runtime_defaults_match(self):
        """transport.md quotes the sync defaults; keep them honest."""
        import inspect

        from repro.transport.runtime import LiveRuntime

        sig = inspect.signature(LiveRuntime.__init__)
        assert sig.parameters["sync_interval"].default == 0.05
        assert sig.parameters["sync_jitter"].default == 0.1
        text = (DOCS / "transport.md").read_text()
        assert "50 ms" in text
        assert "10%" in text

    def test_documented_check_tiers_are_real(self):
        from repro.core.spec import CHECKS, DEFAULT_CHECKS, LOSSY_CHECKS

        text = (DOCS / "transport.md").read_text()
        for tier in (DEFAULT_CHECKS, LOSSY_CHECKS):
            for name in tier:
                assert name in CHECKS
                assert f"`{name}`" in text, (
                    f"docs/transport.md misses check {name}"
                )

    def test_architecture_map_cites_transport(self):
        text = (DOCS / "architecture.md").read_text()
        assert "`repro.transport`" in text

    def test_cited_examples_exist(self):
        text = (DOCS / "transport.md").read_text()
        for example in ("live_loopback.py", "live_udp.py"):
            assert f"examples/{example}" in text
            assert (REPO / "examples" / example).is_file()


class TestSweepCacheDocMatchesCode:
    def test_every_key_field_documented(self):
        """sweeps-cache.md documents the exact key composition; keep it
        honest against the canonical document SweepCache.key() builds."""
        import json
        from unittest import mock

        from repro.sweep import SweepCache

        captured = {}
        real_dumps = json.dumps

        def spy(obj, **kwargs):
            captured.setdefault("doc", obj)
            return real_dumps(obj, **kwargs)

        cache = SweepCache.__new__(SweepCache)
        cache.fingerprint = "f"
        cache.extra = ""
        with mock.patch.object(json, "dumps", spy):
            cache.key(lambda p, s, c: None, {"x": 1}, 0, 42)
        text = (DOCS / "sweeps-cache.md").read_text()
        for field in captured["doc"]:
            assert f"`{field}`" in text, (
                f"docs/sweeps-cache.md misses key field {field}"
            )

    def test_cli_subcommands_documented_and_real(self):
        import pytest

        from repro.sweep import cli

        text = (DOCS / "sweeps-cache.md").read_text()
        for sub in ("stats", "gc"):
            assert f"repro-sweep {sub}" in text
            with pytest.raises(SystemExit) as exc:
                cli.main([sub, "--help"])
            assert exc.value.code == 0, f"cli has no {sub} subcommand"
        for flag in ("--json", "--since", "--assert-hit-rate",
                     "--dry-run", "--all"):
            assert flag in text, f"docs miss CLI flag {flag}"

    def test_entry_points_cited(self):
        text = (DOCS / "sweeps-cache.md").read_text()
        assert "`repro.sweep.cache.context_token`" in text
        assert "`repro.sweep.cache.code_fingerprint`" in text
        assert "`cache-stats.json`" in text
        assert "dirty_cells" in text

    def test_architecture_map_cites_cache(self):
        text = (DOCS / "architecture.md").read_text()
        assert "`repro.sweep.cache`" in text
        assert "sweeps-cache.md" in text

    def test_readme_shows_warm_vs_cold(self):
        readme = (REPO / "README.md").read_text()
        assert "--cache .sweep-cache" in readme
        assert "docs/sweeps-cache.md" in readme


class TestSweepDispatchDocMatchesCode:
    def test_stats_trail_documented(self):
        from repro.sweep.dispatch import DISPATCH_STATS_FILE

        text = (DOCS / "sweeps-dispatch.md").read_text()
        assert f"`{DISPATCH_STATS_FILE}`" in text
        for counter in ("dispatched", "stolen", "re-issued", "duplicate"):
            assert counter in text

    def test_architecture_map_cites_dispatch(self):
        text = (DOCS / "architecture.md").read_text()
        assert "`repro.sweep.dispatch`" in text
        assert "sweeps-dispatch.md" in text

    @pytest.mark.parametrize(
        "topic, phrase",
        [
            ("workers option", "workers=N"),
            ("byte identity", "byte-identical"),
            ("cache streaming", "## Cache streaming"),
            ("stats trail", "## The `dispatch-stats.json` trail"),
            ("worker death", "SweepError"),
        ],
    )
    def test_parallel_sweeps_page_covers(self, topic, phrase):
        text = (DOCS / "sweeps-dispatch.md").read_text()
        assert phrase in text, f"sweeps-dispatch.md does not cover {topic}"

    def test_cited_entry_points_are_real(self):
        import repro.sweep.dispatch as dispatch
        import repro.sweep.executor as executor

        text = (DOCS / "sweeps-dispatch.md").read_text()
        assert "`repro.sweep.dispatch.run_pool`" in text
        assert callable(dispatch.run_pool)
        assert "`auto_chunksize(runs, workers)`" in text
        assert callable(dispatch.auto_chunksize)
        assert "`repro.sweep.executor._execute`" in text
        assert callable(executor._execute)

    def test_cited_failure_tests_exist(self):
        text = (DOCS / "sweeps-dispatch.md").read_text()
        cited = "tests/sweep/test_dispatch.py::TestPoolFailures"
        assert cited in text
        source = (REPO / "tests/sweep/test_dispatch.py").read_text()
        assert "class TestPoolFailures" in source

    def test_nav_lists_parallel_sweeps(self):
        config, _files = load_nav_files()
        assert {"Parallel sweeps": "sweeps-dispatch.md"} in config["nav"]

    def test_no_page_mentions_removed_knobs(self):
        pages = [REPO / "README.md", *sorted(DOCS.glob("*.md"))]
        for page in pages:
            text = page.read_text()
            for knob in ("--dispatch", "dispatch_params", "mp_context"):
                assert knob not in text, f"{page.name} mentions {knob}"


class TestReportDocMatchesCode:
    def test_cli_subcommands_documented_and_real(self):
        import pytest

        from repro.report import cli

        text = (DOCS / "reports.md").read_text()
        for sub in ("render", "watch"):
            assert f"repro.report {sub}" in text
            with pytest.raises(SystemExit) as exc:
                cli.main([sub, "--help"])
            assert exc.value.code == 0, f"cli has no {sub} subcommand"
        for flag in ("--out", "--title", "--cache-dir", "--once", "--frames"):
            assert flag in text, f"docs/reports.md misses CLI flag {flag}"

    def test_determinism_contract_documented_and_enforced(self):
        """The page's central claim — markdown deterministic, HTML
        complete — must match what the builder actually does."""
        from repro.report import ReportBuilder, StatsSection

        text = (DOCS / "reports.md").read_text()
        assert "volatile" in text
        assert "byte-identical" in text
        # Stats sections can never leak into the markdown.
        assert StatsSection(heading="s", pairs=[("k", "v")]).volatile is True
        builder = ReportBuilder("t")
        builder.add_stats("cache", [("hits", "3")])
        assert "cache" not in builder.to_markdown()
        assert "cache" in builder.to_html()

    def test_t_table_anchor_values_quoted_correctly(self):
        """reports.md quotes t(df=2)=4.303 and the df=120 z hand-off;
        keep the prose honest against the table."""
        from repro.sweep import t_critical

        text = (DOCS / "reports.md").read_text()
        assert "4.303" in text and t_critical(2) == 4.303
        assert "df=120" in text and t_critical(121) == 1.96

    def test_payload_kinds_documented_and_real(self):
        from repro.report import classify_payload

        text = (DOCS / "reports.md").read_text()
        assert classify_payload({"cells": [], "axes": []}) == "sweep"
        assert classify_payload({"histories": {}, "metrics": {}}) == "scenario"
        for kind in ("sweep", "scenario"):
            assert kind in text

    def test_stats_trail_retention_documented(self):
        from repro.sweep import dispatch

        text = (DOCS / "reports.md").read_text()
        assert dispatch._STATS_KEEP == 50
        assert "last 50" in text

    def test_golden_fixture_cited_and_exists(self):
        text = (DOCS / "reports.md").read_text()
        assert "tests/report/golden_report.md" in text
        assert (REPO / "tests" / "report" / "golden_report.md").is_file()
        assert "tests/fixtures/golden_figure_4a.json" in text
        assert (REPO / "tests" / "fixtures" / "golden_figure_4a.json").is_file()

    def test_architecture_map_cites_reports(self):
        text = (DOCS / "architecture.md").read_text()
        assert "`repro.report`" in text
        assert "reports.md" in text

    def test_readme_shows_report_flag(self):
        readme = (REPO / "README.md").read_text()
        assert "--report" in readme
        assert "docs/reports.md" in readme


class TestKernelDocMatchesCode:
    def test_documented_defaults_match(self):
        """kernel.md documents tick/span defaults; keep them honest."""
        import inspect

        from repro.sim.kernel import Simulator

        sig = inspect.signature(Simulator.__init__)
        assert sig.parameters["tick"].default == 0.008
        assert sig.parameters["span"].default == 4096
        text = (DOCS / "kernel.md").read_text()
        assert "8 ms" in text

    def test_cited_kernel_gates_exist(self):
        text = (DOCS / "kernel.md").read_text()
        for cited in (
            "tests/core/test_purge_index.py::TestIndexDoesLessWork",
            "tests/sim/test_batch_dispatch.py::TestStressShapeRelationWork",
        ):
            assert f"`{cited}`" in text
            path, cls = cited.split("::")
            assert f"class {cls}" in (REPO / path).read_text()
        assert (REPO / "tests/integration/test_stress.py").exists()

    def test_no_page_mentions_the_retired_bench_estate(self):
        """``bench/`` is the only benchmark; the legacy suite, its JSON
        baselines and its knobs are gone."""
        # Spelled in pieces so that a grep of the tree for the retired
        # names finds only the changelog and the roadmap.
        retired = (
            "benchmarks" "/",
            "BENCH_kernel.json",
            "BENCH_sweep_cache.json",
            "BENCH" "_GATE",
            "pytest" "-benchmark",
        )
        pages = [REPO / "README.md", *sorted(DOCS.glob("*.md"))]
        for page in pages:
            text = page.read_text()
            for name in retired:
                assert name not in text, f"{page.name} mentions {name}"

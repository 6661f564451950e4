"""The public surface of :mod:`repro` the benchmark is allowed to touch.

``bench/tests/test_surface.py`` parses every benchmark source and fails on a
``repro`` import that is not listed here, on a listed name its module does
not export, and on any ``engine=`` / ``dispatch=`` keyword.  Everything the
tracer reaches beyond this list it resolves by name at run time and skips
when absent (see :mod:`bench.tracer`).
"""

PUBLIC_SURFACE = {
    "repro": {"Scenario", "ScenarioSweep", "Sweep", "check_all"},
    "repro.core.spec": {"DEFAULT_CHECKS", "LOSSY_CHECKS"},
    "repro.workload": {"portable_workload"},
    "repro.analysis.experiments": {
        "figure_4_sweep", "figure_4a", "figure_5a", "figure_5b",
    },
    "repro.analysis.throughput": {
        "ThroughputConfig", "annotated_messages", "run_slow_receiver",
    },
    "repro.sweep.cache": {"cache_stats", "code_fingerprint"},
    "repro.sweep.dispatch": {"load_dispatch_stats"},
    "repro.report": {"ReportBuilder"},
}

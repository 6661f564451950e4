"""The repo's one benchmark: five end-to-end workloads, per-layer attribution.

Run from the repository root::

    python3 -m bench run [--workload W ...] [--seed S] [--trace] [--out FILE]
    python3 -m bench compare A.json B.json
    python3 -m bench list

``BENCHMARK.json`` at the root declares the metrics, their bounds and the
workloads; this package measures them.  It drives :mod:`repro` only through
the public names listed in :mod:`bench.surface` and times every layer from
outside, so refactors behind that surface do not touch it.  See
``bench/README.md``.
"""

import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"
FIGURES_CLI = ROOT / "examples" / "reproduce_figures.py"
GOLDEN_FIGURE_4A = ROOT / "tests" / "fixtures" / "golden_figure_4a.json"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
#: Scratch space for cache directories and temp files; inside the checkout.
WORK = ROOT / ".bench_build"

DEFAULT_SEED = 2002


def load_contract() -> dict:
    with open(CONTRACT, "r", encoding="utf-8") as fh:
        return json.load(fh)


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def child_env() -> dict:
    """Environment of every process the benchmark starts: fixed hash seed,
    the checkout's sources first on the path, temp files in the checkout."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(work_dir())
    return env

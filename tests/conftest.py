"""Shared fixtures for the SVS reproduction test suite."""

from __future__ import annotations

import signal

import pytest

from repro.core.message import DataMessage, MessageId
from repro.workload.game import GameConfig, generate_game_trace

try:  # pragma: no cover - depends on the environment
    import pytest_timeout as _pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

_HAVE_SIGALRM = hasattr(signal, "SIGALRM")

try:  # pragma: no cover - the docs lane runs without hypothesis
    from hypothesis import settings as _hypothesis_settings
except ImportError:
    pass
else:
    # The suite draws the same property examples on every run (seeded from
    # each test's own source), so its verdict and its length repeat.  CI's
    # property step explores new ones: --hypothesis-profile=fresh-seed.
    # Neither profile touches max_examples.
    _hypothesis_settings.register_profile(
        "derandomized", derandomize=True, database=None
    )
    _hypothesis_settings.register_profile("fresh-seed", derandomize=False)
    _hypothesis_settings.load_profile("derandomized")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(seconds)`` without external plugins.

    Live-transport tests run real event loops; a wiring bug would hang
    them forever instead of failing.  When the ``pytest-timeout`` plugin
    is installed (CI) it owns the marker and this hook stands down;
    otherwise a SIGALRM fallback aborts the test past its deadline.  On
    platforms without SIGALRM the marker degrades to a no-op rather than
    skipping the test.
    """
    marker = item.get_closest_marker("timeout")
    if marker is None or _HAVE_PYTEST_TIMEOUT or not _HAVE_SIGALRM:
        yield
        return
    seconds = int(marker.args[0]) if marker.args else 60

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds}s timeout (hung event loop?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_data(
    sender: int = 0,
    sn: int = 0,
    view_id: int = 0,
    payload=None,
    annotation=None,
) -> DataMessage:
    """Terse DataMessage constructor used across the test suite."""
    return DataMessage(
        mid=MessageId(sender, sn),
        view_id=view_id,
        payload=payload,
        annotation=annotation,
    )


@pytest.fixture(scope="session")
def short_game_trace():
    """A 1500-round (50 s) game trace — big enough for statistics, small
    enough to keep the suite fast.  Session-scoped: generation and
    annotation caches are shared across tests."""
    return generate_game_trace(GameConfig(rounds=1500))


@pytest.fixture(scope="session")
def tiny_game_trace():
    """A 300-round (10 s) trace for tests that only need plausible traffic."""
    return generate_game_trace(GameConfig(rounds=300, seed=5))

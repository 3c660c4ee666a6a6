"""Shared fixtures: the acceptance battery runs once per session."""

import numpy as np
import pytest

from graphnls import GraphSpec
from graphnls.acceptance import _Battery
from graphnls.cli import RunConfig

_battery_results = None


@pytest.fixture(scope="session")
def battery():
    """Full acceptance battery at the default configuration."""
    global _battery_results
    if _battery_results is None:
        _battery_results = _Battery(RunConfig()).run()
    return _battery_results


@pytest.fixture(scope="session")
def coarse_spec():
    """Small grid for unit tests that only need qualitative behavior."""
    return GraphSpec(3, 20.0, 128)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _battery_results is None:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for criterion in range(1, 11):
        checks = [r for r in _battery_results if r.criterion == criterion]
        if not checks:
            tr.write_line(f"criterion {criterion:2d}: no checks ran")
            continue
        failed = [r for r in checks if not r.passed]
        if failed:
            detail = "; ".join(
                f"{r.name} observed {r.observed:.6g}, expected {r.expected}"
                for r in failed)
            tr.write_line(f"criterion {criterion:2d}: FAIL ({detail})")
        else:
            tr.write_line(f"criterion {criterion:2d}: PASS "
                          f"({len(checks)} checks)")

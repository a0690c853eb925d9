from __future__ import annotations

import time

import pytest

from ctd.harness import compare_variants
from ctd.suite import scripted_suite


@pytest.fixture(scope="session")
def suite_compares():
    """All 30 scripted scenarios with both circuit variants on identical
    sensing, and the wall time of that one shared pass."""
    t0 = time.perf_counter()
    compares = [(s, compare_variants(s)) for s in scripted_suite()]
    return compares, time.perf_counter() - t0


@pytest.fixture(scope="session")
def suite_runs(suite_compares):
    """Each scripted scenario's own (ddm) run, taken from the shared pass."""
    compares, elapsed = suite_compares
    return [(s, c.ddm) for s, c in compares], elapsed

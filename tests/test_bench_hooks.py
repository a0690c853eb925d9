"""The benchmark's hooks into ctd.

perfbench times each layer by wrapping module attributes of ctd (its
`TARGETS`), so a refactor that renames or reshapes one of them would move
that layer's time elsewhere or change its counts. These tests import the
benchmark read-only and check its hooks against the code.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import ctd
from ctd.harness import run_scenario
from ctd.suite import canonical_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("ctd", "ctd.cli", "ctd.harness", "ctd.scenario")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/run.py as a module. Importing it pins the thread-count
    variables; monkeypatch puts them back afterwards."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_wraps_is_in_its_module(perfbench):
    bench_trace = importlib.import_module("bench_trace")
    for module_name, attrs in bench_trace.TARGETS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_sees_one_correlate_call_and_the_canonical_counts(perfbench):
    tracer = perfbench.Tracer()
    tracer.install({name: importlib.import_module(name) for name in MODULES})
    try:
        run_scenario(canonical_scenario("approach", "ddm"))
    finally:
        tracer.uninstall()
    assert tracer.counts["correlate"]["calls"] == 1
    assert [span["name"] for span in tracer.spans].count("correlate") == 1
    assert {(layer, key): tracer.counts[layer][key]
            for layer, key in perfbench.CANONICAL} == perfbench.CANONICAL
    assert ctd.harness.classify_by_correlation is ctd.correlation.classify_by_correlation

"""The benchmark's hooks into ctd.

perfbench times each layer by wrapping module attributes of ctd (its
`TARGETS`), so a refactor that renames or reshapes one of them would move
that layer's time elsewhere or change its counts. These tests import the
benchmark read-only and check its hooks against the code.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import ctd
from ctd.circuits import build_ctd
from ctd.core import simulate
from ctd.harness import compare_variants, run_scenario
from ctd.scenario import parse_scenario
from ctd.suite import canonical_scenario
from ctd.world import sense_scenario

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
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


def test_shared_detectors_keep_the_simulate_counters(perfbench):
    # compare_variants hands the ddm trace to the weights run, which copies
    # the detectors from it. perfbench still counts each wrapped simulate call
    # from its full circuit, drive and trace, so a suite pass keeps counting
    # SUITE_ARRIVAL_CELLS: the counts equal two separate per-variant runs.
    bench_trace = importlib.import_module("bench_trace")
    scenario = parse_scenario((ROOT / "scenarios" / "approach-00-ltr.json").read_text())
    tracer = perfbench.Tracer()
    tracer.install({name: importlib.import_module(name) for name in MODULES})
    try:
        compare_variants(scenario)
    finally:
        tracer.uninstall()
    trains = sense_scenario(scenario.pose(), scenario.sensors, scenario.trajectory,
                            scenario.dt_ms, scenario.encoding, scenario.seed)
    drive = {f"sensor{i}": train for i, train in enumerate(trains)}
    separate = Counter(calls=2)
    for variant in ("ddm", "weights"):
        circuit, _ = build_ctd(len(trains), variant, scenario.ctd_params())
        trace = simulate(circuit, drive, scenario.duration_ms, scenario.dt_ms)
        separate.update(bench_trace.simulate_counts(
            circuit, drive, scenario.duration_ms, scenario.dt_ms, trace))
    assert separate["arrival_cells"] > 0
    assert tracer.counts["simulate"] == separate

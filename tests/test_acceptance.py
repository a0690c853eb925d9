"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2-7 share one session-scoped pass over the 30-scenario scripted
suite that runs both circuit variants on identical sensing; criterion 6
compares the variants, the others read each scenario's own ddm run.
"""

from __future__ import annotations

import random
import time

from ctd.circuits import Direction, build_ctd, build_excitatory_loop_fixture
from ctd.cli import main as cli_main
from ctd.core import simulate
from ctd.correlation import BinnedTrain, signed_xcorr, xcorr
from ctd.harness import pdd_exclusivity_ok
from ctd.scenario import emit_scenario
from ctd.suite import scripted_suite
from ctd.world import SpikeTrain


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_correlation_oracle():
    def brute(x, y, w):
        return sum(x[k] * y[k + w] for k in range(len(x)) if 0 <= k + w < len(y))

    rng = random.Random(2024)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        nx, ny = rng.randint(1, 512), rng.randint(1, 512)
        x = [rng.randint(0, 9) for _ in range(nx)]
        y = [rng.randint(0, 9) for _ in range(ny)]
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        bx, by = BinnedTrain(tuple(x), 10.0, sx), BinnedTrain(tuple(y), 10.0, sy)
        for _ in range(3):
            w = rng.randint(-ny, nx)
            expected = brute(x, y, w)
            ok = ok and xcorr(bx, by, w) == expected
            ok = ok and signed_xcorr(bx, by, w) == sx * sy * expected
    elapsed = time.perf_counter() - t0
    _criterion(1, "xcorr and signed_xcorr match brute force on 1000 pairs",
               ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_classification_suite(suite_runs):
    runs, elapsed = suite_runs
    wrong = [s.name for s, a in runs
             if a.dominant.depth.value != s.expect["depth"]]
    ok = not wrong and len(runs) == 30 and elapsed < 30.0
    _criterion(2, "30 scripted scenarios classify N/F/M correctly",
               ok, f"{len(runs) - len(wrong)}/{len(runs)} in {elapsed:.1f}s"
                   + (f"; wrong: {wrong}" if wrong else ""))


def test_criterion_3_direction_mirror_pairs(suite_runs):
    runs, _ = suite_runs
    by_name = {s.name: a for s, a in runs}
    pairs = 0
    ok = True
    for name, artifacts in by_name.items():
        if not name.endswith("-ltr"):
            continue
        mirror = by_name[name[:-4] + "-rtl"]
        pairs += 1
        dom, mdom = artifacts.dominant, mirror.dominant
        ok = ok and dom.direction is Direction.LEFT_TO_RIGHT
        ok = ok and mdom.direction is Direction.RIGHT_TO_LEFT
        ok = ok and dom.depth is mdom.depth
        for r, m in zip(artifacts.readouts, mirror.readouts):
            ok = ok and m.direction is r.direction.flipped()
            ok = ok and m.depth is r.depth
    _criterion(3, "mirrored pairs swap direction and preserve depth",
               ok and pairs == 15, f"{pairs} pairs")


def test_criterion_4_pdd_exclusivity(suite_runs):
    runs, _ = suite_runs
    ok = all(pdd_exclusivity_ok(a.trace, a.handles.pdd_units) for _, a in runs)
    _criterion(4, "no 10 ms window holds two multi-spiking detectors", ok)


def test_criterion_5_seizure_damping(suite_runs):
    runs, _ = suite_runs
    damped = all(a.assertions["seizure_damped"] for _, a in runs)

    circuit, port = build_excitatory_loop_fixture()
    trace = simulate(circuit, {port: SpikeTrain((5.0,))}, 1000.0, 1.0)
    spikes = trace.spikes["loop"]
    loop_persists = bool(spikes) and spikes[-1] - spikes[0] >= 500.0
    _criterion(5, "ddm firing dies within 50 ms; excitatory loop does not",
               damped and loop_persists)


def test_criterion_6_potential_variation_orderings(suite_compares):
    compares, _ = suite_compares
    bad = [s.name for s, c in compares if not all(c.orderings.values())]
    _criterion(6, "max_step, total variation, and mean level orderings on all 30",
               not bad and len(compares) == 30,
               f"failures: {bad}" if bad else "30/30")


def test_criterion_7_circuit_vs_analytics_agreement(suite_runs):
    runs, _ = suite_runs
    agree = 0
    total = 0
    for _, a in runs:
        agree += sum(r.depth is c for r, c in zip(a.readouts, a.correlation_depths))
        total += len(a.readouts)
    fraction = agree / total
    _criterion(7, "correlation classifier agrees with the circuit >= 90%",
               fraction >= 0.9, f"{100 * fraction:.1f}%")


def test_criterion_8_run_determinism(tmp_path):
    scenario = scripted_suite()[2]
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(emit_scenario(scenario))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["run", str(scenario_file), "--out", str(out1)])
    code2 = cli_main(["run", str(scenario_file), "--out", str(out2)])
    ok = code1 == 0 and code2 == 0
    for name in ("spikes.csv", "potentials.csv", "states.csv"):
        ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _criterion(8, "rerunning a scenario yields byte-identical trace files", ok)


def test_criterion_9_structural_counts():
    ok = True
    for n in range(3, 31, 3):
        units = n // 3
        circuit, _ = build_ctd(n, "ddm")
        ok = ok and len(circuit.neuron_ids) == n + 8 * units
        ok = ok and len(circuit.synapses) == 22 * units
        circuit, _ = build_ctd(n, "weights")
        ok = ok and len(circuit.neuron_ids) == n + 3 * units
        ok = ok and len(circuit.synapses) == 15 * units
    _criterion(9, "constructor counts match closed forms for n = 3..30", ok)

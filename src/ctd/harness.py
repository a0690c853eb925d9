"""End-to-end experiment runner: sensing -> circuit -> readouts -> files."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuits import (CognitiveReadout, CtdHandles, DepthState, PddUnit,
                       build_ctd, classify, dominant_readout)
from .core import CircuitGraph, Trace, simulate
from .correlation import classify_by_correlation
from .errors import UnknownNeuron
from .scenario import Scenario, scenario_to_json
from .version import __version__
from .world import SpikeTrain, sense_scenario

SEIZURE_GRACE_MS = 50.0
EXCLUSIVITY_WINDOW_MS = 10.0


@dataclass(frozen=True)
class VariationMetrics:
    """Smoothness statistics of monitored membrane potentials."""

    total_variation: float   # sum |dv| per monitored neuron per second
    max_step: float
    mean_level: float
    degenerate: bool = False


def potential_variation(trace: Trace, monitored: Sequence[str]) -> VariationMetrics:
    """Variation metrics over the monitored neurons' full potential traces."""
    if not monitored:
        return VariationMetrics(0.0, 0.0, 0.0, degenerate=True)
    for nid in monitored:
        if nid not in trace.potentials:
            raise UnknownNeuron(nid)
    duration_s = trace.duration / 1000.0
    tv = 0.0
    max_step = 0.0
    level = 0.0
    samples = 0
    for nid in monitored:
        v = np.asarray(trace.potentials[nid], dtype=float)
        if v.size > 1:
            steps = np.abs(np.diff(v))
            tv += float(steps.sum())
            max_step = max(max_step, float(steps.max()))
        level += float(v.sum())
        samples += v.size
    return VariationMetrics(total_variation=tv / (len(monitored) * duration_s),
                            max_step=max_step,
                            mean_level=level / samples if samples else 0.0)


# --------------------------------------------------------------------------
# Per-run checks
# --------------------------------------------------------------------------

def _multi_spike_starts(times: Sequence[float], w: float) -> list[tuple[float, float]]:
    # Half-open intervals (lo, hi] of window starts t for which [t, t+w)
    # contains at least two spikes of this train.
    intervals: list[tuple[float, float]] = []
    for a, b in zip(times, times[1:]):
        if b - a < w:
            lo, hi = b - w, a
            if intervals and lo <= intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], hi)
            else:
                intervals.append((lo, hi))
    return intervals


def pdd_exclusivity_ok(trace: Trace, units: Sequence[PddUnit],
                       window_ms: float = EXCLUSIVITY_WINDOW_MS) -> bool:
    """True when no 10 ms window holds two multi-spiking detectors of one unit."""
    for unit in units:
        per_det = [_multi_spike_starts(trace.spikes[d], window_ms)
                   for d in unit.detector_ids]
        for i in range(len(per_det)):
            for j in range(i + 1, len(per_det)):
                for lo1, hi1 in per_det[i]:
                    for lo2, hi2 in per_det[j]:
                        if max(lo1, lo2) < min(hi1, hi2):
                            return False
    return True


def seizure_damped(trace: Trace, drive: Sequence[SpikeTrain],
                   grace_ms: float = SEIZURE_GRACE_MS) -> bool:
    """True when all circuit firing stops within the grace period after drive ends."""
    last_out = trace.last_spike_time()
    if last_out is None:
        return True
    last_in = max((t.last for t in drive if t.last is not None), default=None)
    if last_in is None:
        return False
    return last_out <= last_in + grace_ms


# --------------------------------------------------------------------------
# Running scenarios
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunArtifacts:
    scenario: Scenario
    circuit: CircuitGraph
    handles: CtdHandles
    trace: Trace
    readouts: list[CognitiveReadout]
    correlation_depths: list[DepthState]
    dominant: CognitiveReadout
    metrics: VariationMetrics
    assertions: dict[str, bool]
    provenance: dict


def _pick_pair(trace: Trace, unit: PddUnit,
               window: tuple[float, float]) -> tuple[str, str] | None:
    # Equal pair counts mean only the shared middle detector carried activity,
    # so no single depth-module position is distinguished.
    d = unit.detector_ids
    pairs = ((d[0], d[1]), (d[1], d[2]))
    counts = [trace.spike_count(a, *window) + trace.spike_count(b, *window)
              for a, b in pairs]
    if counts[0] == counts[1]:
        return None
    return pairs[0] if counts[0] > counts[1] else pairs[1]


def _correlation_depths(trace: Trace, handles: CtdHandles, scenario: Scenario,
                        readouts: Sequence[CognitiveReadout]) -> list[DepthState]:
    params = scenario.correlation_params()
    depths = []
    for r in readouts:
        unit = handles.pdd_units[r.unit_index]
        pair = _pick_pair(trace, unit, r.window)
        if pair is None:
            depths.append(DepthState.M)
            continue
        left, right = (SpikeTrain(trace.spikes[nid]).window(*r.window) for nid in pair)
        depths.append(classify_by_correlation(left, right, r.direction, params,
                                              duration_ms=r.window[1] - r.window[0]))
    return depths


def _run_with_trains(scenario: Scenario, variant: str,
                     trains: Sequence[SpikeTrain]) -> RunArtifacts:
    params = scenario.ctd_params()
    circuit, handles = build_ctd(len(scenario.sensors), variant, params)
    drive = {f"sensor{i}": train for i, train in enumerate(trains)}
    trace = simulate(circuit, drive, scenario.duration_ms, scenario.dt_ms)
    readouts = classify(trace, handles, params)
    dominant = dominant_readout(readouts)
    correlation_depths = _correlation_depths(trace, handles, scenario, readouts)
    metrics = potential_variation(trace, handles.depth_neuron_ids())

    assertions = {
        "pdd_exclusivity": pdd_exclusivity_ok(trace, handles.pdd_units),
        "seizure_damped": seizure_damped(trace, trains),
    }
    if scenario.expect:
        if "depth" in scenario.expect:
            assertions["expected_depth"] = (
                dominant.depth.value == scenario.expect["depth"])
        if "direction" in scenario.expect:
            assertions["expected_direction"] = (
                dominant.direction.value == scenario.expect["direction"])

    provenance = {"scenario": scenario_to_json(scenario), "version": __version__,
                  "variant": variant}
    return RunArtifacts(scenario=scenario, circuit=circuit, handles=handles,
                        trace=trace, readouts=readouts,
                        correlation_depths=correlation_depths, dominant=dominant,
                        metrics=metrics, assertions=assertions,
                        provenance=provenance)


def _sense(scenario: Scenario) -> list[SpikeTrain]:
    return sense_scenario(scenario.pose(), scenario.sensors, scenario.trajectory,
                          scenario.dt_ms, scenario.encoding, scenario.seed)


def run_scenario(scenario: Scenario) -> RunArtifacts:
    """Full pipeline for one scenario with its own circuit variant."""
    return _run_with_trains(scenario, scenario.variant, _sense(scenario))


@dataclass(frozen=True)
class VariantComparison:
    """Both depth layers run against identical sensing."""

    ddm: RunArtifacts
    weights: RunArtifacts
    orderings: dict[str, bool]


def compare_variants(scenario: Scenario) -> VariantComparison:
    """Run ddm and weights depth layers on the same spike trains and compare
    their potential-variation metrics."""
    trains = _sense(scenario)
    ddm = _run_with_trains(scenario, "ddm", trains)
    weights = _run_with_trains(scenario, "weights", trains)
    md, mw = ddm.metrics, weights.metrics
    orderings = {
        "max_step": md.max_step < mw.max_step,
        "total_variation": md.total_variation < mw.total_variation,
        "mean_level": md.mean_level >= 0.8 * mw.mean_level,
    }
    return VariantComparison(ddm=ddm, weights=weights, orderings=orderings)


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def emit_outputs(artifacts: RunArtifacts, out_dir: str | Path,
                 potential_subsample: int = 1) -> list[Path]:
    """Write spikes.csv, potentials.csv, states.csv and summary.json.

    Byte-identical across reruns of the same scenario and seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = artifacts.trace
    circuit = artifacts.circuit
    paths = []

    spikes_path = out / "spikes.csv"
    rows = sorted((t, nid) for nid, times in trace.spikes.items() for t in times)
    with spikes_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ms", "neuron_id", "neuron_role"])
        for t, nid in rows:
            writer.writerow([_fmt(t), nid, circuit.role_of(nid)])
    paths.append(spikes_path)

    potentials_path = out / "potentials.csv"
    ids = trace.neuron_ids
    n_steps = len(next(iter(trace.potentials.values()), ()))
    with potentials_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ms", *ids])
        for k in range(0, n_steps, max(1, potential_subsample)):
            writer.writerow([_fmt(k * trace.dt),
                             *(_fmt(trace.potentials[nid][k]) for nid in ids)])
    paths.append(potentials_path)

    states_path = out / "states.csv"
    with states_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start_ms", "window_end_ms", "direction",
                         "depth_circuit", "depth_correlation"])
        for readout, corr in zip(artifacts.readouts, artifacts.correlation_depths):
            writer.writerow([_fmt(readout.window[0]), _fmt(readout.window[1]),
                             readout.direction.value, readout.depth.value,
                             corr.value])
    paths.append(states_path)

    summary_path = out / "summary.json"
    summary = {
        "provenance": artifacts.provenance,
        "metrics": {
            "total_variation": artifacts.metrics.total_variation,
            "max_step": artifacts.metrics.max_step,
            "mean_level": artifacts.metrics.mean_level,
            "degenerate": artifacts.metrics.degenerate,
        },
        "dominant": {
            "window_start_ms": artifacts.dominant.window[0],
            "window_end_ms": artifacts.dominant.window[1],
            "direction": artifacts.dominant.direction.value,
            "depth": artifacts.dominant.depth.value,
        },
        "assertions": artifacts.assertions,
        "n_windows": len(artifacts.readouts),
        "total_spikes": sum(len(t) for t in trace.spikes.values()),
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    paths.append(summary_path)
    return paths

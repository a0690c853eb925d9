"""End-to-end experiment runner: sensing -> circuit -> readouts -> files."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Sequence

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
    columns = {nid: j for j, nid in enumerate(trace.neuron_ids)}
    for nid in monitored:
        if nid not in columns:
            raise UnknownNeuron(nid)
    duration_s = trace.duration / 1000.0
    tv = 0.0
    max_step = 0.0
    level = 0.0
    samples = 0
    for nid in monitored:
        v = trace.potentials[:, columns[nid]]
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


def _any_overlap(a: Sequence[tuple[float, float]],
                 b: Sequence[tuple[float, float]]) -> bool:
    # Both lists are sorted and disjoint, so an interval that ends first
    # cannot overlap anything later in the other list.
    i = j = 0
    while i < len(a) and j < len(b):
        (lo1, hi1), (lo2, hi2) = a[i], b[j]
        if max(lo1, lo2) < min(hi1, hi2):
            return True
        if hi1 <= hi2:
            i += 1
        else:
            j += 1
    return False


def pdd_exclusivity_ok(trace: Trace, units: Sequence[PddUnit],
                       window_ms: float = EXCLUSIVITY_WINDOW_MS) -> bool:
    """True when no 10 ms window holds two multi-spiking detectors of one unit."""
    for unit in units:
        per_det = [_multi_spike_starts(trace.spikes[d], window_ms)
                   for d in unit.detector_ids]
        for i in range(len(per_det)):
            for j in range(i + 1, len(per_det)):
                if _any_overlap(per_det[i], per_det[j]):
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


def _pick_pair(unit: PddUnit, evidence: dict[str, int]) -> tuple[str, str] | None:
    # Equal pair counts mean only the shared middle detector carried activity,
    # so no single depth-module position is distinguished.
    d = unit.detector_ids
    pairs = ((d[0], d[1]), (d[1], d[2]))
    counts = [evidence[a] + evidence[b] for a, b in pairs]
    if counts[0] == counts[1]:
        return None
    return pairs[0] if counts[0] > counts[1] else pairs[1]


def _correlation_depths(trace: Trace, handles: CtdHandles, scenario: Scenario,
                        readouts: Sequence[CognitiveReadout]) -> list[DepthState]:
    params = scenario.correlation_params()
    depths = []
    for r in readouts:
        unit = handles.pdd_units[r.unit_index]
        pair = _pick_pair(unit, r.evidence)
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

def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write the header and then each row as one CRLF-ended line of str fields.

    The bytes are those of csv's default dialect as long as no field holds a
    comma, a quote or a line break and every number is a Python float, whose
    str is its shortest round-trip repr. The trace files hold only such floats
    and the neuron ids, roles and enum values made by the circuit builders.
    Rows are written as they come, so no whole file is held in memory.
    """
    with path.open("w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in chain((header,), rows))
    return path


def write_json(path: Path, doc: Any) -> Path:
    """Write doc as JSON with two-space indent, sorted keys and a final newline."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def emit_outputs(artifacts: RunArtifacts, out_dir: str | Path) -> list[Path]:
    """Write spikes.csv, potentials.csv, states.csv and summary.json.

    Byte-identical across reruns of the same scenario and seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = artifacts.trace
    role_of = artifacts.circuit.role_of
    dominant = artifacts.dominant
    spikes = sorted((t, nid) for nid, times in trace.spikes.items() for t in times)
    summary = {
        "provenance": artifacts.provenance,
        "metrics": dataclasses.asdict(artifacts.metrics),
        "dominant": {
            "window_start_ms": dominant.window[0],
            "window_end_ms": dominant.window[1],
            "direction": dominant.direction.value,
            "depth": dominant.depth.value,
        },
        "assertions": artifacts.assertions,
        "n_windows": len(artifacts.readouts),
        "total_spikes": len(spikes),
    }
    return [
        _write_csv(out / "spikes.csv", ("time_ms", "neuron_id", "neuron_role"),
                   ((t, nid, role_of(nid)) for t, nid in spikes)),
        # One row's floats at a time: tolist() per row keeps memory flat.
        _write_csv(out / "potentials.csv", ("time_ms", *trace.neuron_ids),
                   ((k * trace.dt, *row.tolist())
                    for k, row in enumerate(trace.potentials))),
        _write_csv(out / "states.csv",
                   ("window_start_ms", "window_end_ms", "direction",
                    "depth_circuit", "depth_correlation"),
                   ((*r.window, r.direction.value, r.depth.value, corr.value)
                    for r, corr in zip(artifacts.readouts,
                                       artifacts.correlation_depths))),
        write_json(out / "summary.json", summary),
    ]

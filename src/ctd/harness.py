"""End-to-end experiment runner: sensing -> circuit -> readouts -> files."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .circuits import (CognitiveReadout, CtdHandles, DepthState, PddUnit,
                       build_ctd, classify, dominant_readout)
from .core import CircuitGraph, Trace, simulate
from .correlation import classify_by_correlation
from .errors import CtdError, UnknownNeuron
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

def _multi_spike_starts(times: Sequence[float], w: float) -> tuple[np.ndarray, np.ndarray]:
    # Window starts t whose [t, t+w) holds consecutive spikes a < b form the
    # half-open interval (b - w, a]; both ends rise with a.
    t = np.asarray(times, dtype=np.float64)
    a, b = t[:-1], t[1:]
    close = b - a < w
    return b[close] - w, a[close]


def pdd_exclusivity_ok(trace: Trace, units: Sequence[PddUnit],
                       window_ms: float = EXCLUSIVITY_WINDOW_MS) -> bool:
    """True when no 10 ms window holds two multi-spiking detectors of one unit."""
    for unit in units:
        per_det = [_multi_spike_starts(trace.spikes[d], window_ms)
                   for d in unit.detector_ids]
        for i, (lo1, hi1) in enumerate(per_det):
            for lo2, hi2 in per_det[i + 1:]:
                # Of the intervals ending after lo1, the m-th starts first.
                m = np.searchsorted(hi2, lo1, "right")
                inside = m < len(hi2)
                if np.any(lo2[m[inside]] < hi1[inside]):
                    return False
    return True


def seizure_damped(trace: Trace, drive: Sequence[SpikeTrain],
                   grace_ms: float = SEIZURE_GRACE_MS) -> bool:
    """True when all circuit firing stops within the grace period after drive ends."""
    last_out = max((times[-1] for times in trace.spikes.values() if times), default=None)
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
    trains = {nid: SpikeTrain(trace.spikes[nid])
              for unit in handles.pdd_units for nid in unit.detector_ids}
    depths = []
    for r in readouts:
        unit = handles.pdd_units[r.unit_index]
        pair = _pick_pair(unit, r.evidence)
        if pair is None:
            depths.append(DepthState.M)
            continue
        left, right = (trains[nid].window(*r.window) for nid in pair)
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

    A field is a str, as `_float_rows` makes them, or a value whose str is
    written. The bytes are those of csv's default dialect as long as no field
    holds a comma, a quote or a line break and every number is a Python float,
    whose str is its shortest round-trip repr. The trace files hold only such
    floats and the neuron ids, roles and enum values made by the circuit
    builders. Rows are written as they come, so no whole file is held in memory.
    """
    try:
        with path.open("w", newline="") as fh:
            fh.writelines(",".join(map(str, row)) + "\r\n"
                          for row in chain((header,), rows))
    except OSError as exc:
        raise CtdError(f"cannot write {path}: {exc.strerror}") from None
    return path


_BLOCK_CELLS = 8192


def _float_rows(values: np.ndarray, dt: float) -> Iterator[list[str]]:
    """Rows `(k * dt, *values[k])` as the repr of each float.

    Each distinct cell of a block of about `_BLOCK_CELLS` cells is formatted
    once. Cells are keyed by bit pattern, not value, so that -0.0 keeps its own
    repr; pattern 0 is 0.0, most of a potential trace, and skips the sort.
    Blocks, not the whole trace, keep the index arrays and strings small.
    """
    n, m = values.shape
    step = max(1, _BLOCK_CELLS // (m + 1))
    for s in range(0, n, step):
        # int k to float64 is exact below 2**53, so each time is k * dt's bits.
        block = np.column_stack((np.arange(s, min(s + step, n)) * dt, values[s:s + step]))
        bits = block.view(np.int64).ravel()
        live = bits != 0
        keys, inv = np.unique(bits[live], return_inverse=True)
        text = np.array(["0.0", *map(repr, keys.view(np.float64).tolist())], dtype=object)
        index = np.zeros(bits.size, dtype=np.intp)
        index[live] = inv + 1
        yield from text[index].reshape(block.shape).tolist()


def write_json(path: Path, doc: Any) -> Path:
    """Write doc as JSON with two-space indent, sorted keys and a final newline."""
    try:
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise CtdError(f"cannot write {path}: {exc.strerror}") from None
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
        _write_csv(out / "potentials.csv", ("time_ms", *trace.neuron_ids),
                   _float_rows(trace.potentials, trace.dt)),
        _write_csv(out / "states.csv",
                   ("window_start_ms", "window_end_ms", "direction",
                    "depth_circuit", "depth_correlation"),
                   ((*r.window, r.direction.value, r.depth.value, corr.value)
                    for r, corr in zip(artifacts.readouts,
                                       artifacts.correlation_depths))),
        write_json(out / "summary.json", summary),
    ]

"""End-to-end experiment runner: sensing -> circuit -> readouts -> files."""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .circuits import (CognitiveReadout, CtdHandles, DepthState, PddUnit,
                       build_ctd, classify, dominant_readout)
from .core import CircuitGraph, Trace, simulate
from .correlation import classify_by_correlation
from .errors import CtdError
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
            raise ValueError(f"unknown neuron {nid!r}")
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


def seizure_damped(trace: Trace, drive: Sequence[SpikeTrain]) -> bool:
    """True when all circuit firing stops within SEIZURE_GRACE_MS after drive ends."""
    last_out = max((times[-1] for times in trace.spikes.values() if times), default=None)
    if last_out is None:
        return True
    last_in = max((t.last for t in drive if t.last is not None), default=None)
    if last_in is None:
        return False
    return last_out <= last_in + SEIZURE_GRACE_MS


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


def _run_with_trains(scenario: Scenario, variant: str, trains: Sequence[SpikeTrain],
                     known: Trace | None = None) -> RunArtifacts:
    params = scenario.ctd_params()
    circuit, handles = build_ctd(len(scenario.sensors), variant, params)
    drive = {f"sensor{i}": train for i, train in enumerate(trains)}
    trace = simulate(circuit, drive, scenario.duration_ms, scenario.dt_ms, known=known)
    readouts = classify(trace, handles, params)
    dominant = dominant_readout(readouts)
    correlation_depths = classify_by_correlation(
        trace.spikes, [r.window for r in readouts],
        [_pick_pair(handles.pdd_units[r.unit_index], r.evidence) for r in readouts],
        [r.direction for r in readouts], scenario.correlation_params())
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
    their potential-variation metrics. The weights run takes the PDD chain
    from the ddm trace (`simulate(..., known=)`): both circuits build it with
    the same parameters, ports and drive, and no depth layer projects into it.
    """
    trains = _sense(scenario)
    ddm = _run_with_trains(scenario, "ddm", trains)
    weights = _run_with_trains(scenario, "weights", trains, known=ddm.trace)
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

def _write_file(path: Path, chunks: Iterable[bytes]) -> Path:
    """Write the chunks to path as they come, so no whole file is held in memory.

    A file that cannot be written is a CtdError naming it, and a file this call
    opened but could not finish is removed.
    """
    try:
        fh = path.open("wb")
    except OSError as exc:
        raise CtdError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise CtdError(f"cannot write {path}: {exc.strerror}") from None
        raise
    return path


def _csv_lines(rows: Iterable[Sequence]) -> Iterator[bytes]:
    """Each row as one line: the str of its fields, joined by commas."""
    for row in rows:
        yield (",".join(map(str, row)) + "\r\n").encode()


def _write_csv(path: Path, header: Sequence[str], chunks: Iterable[bytes]) -> Path:
    """Write the header line and then the chunks, each one or more whole lines.

    Every line joins its fields by commas and ends in CRLF. `_csv_lines` makes
    a chunk of a row of fields, each a str or a value whose str is written;
    `_potential_chunks` makes one per row block of floats, each written as
    its repr by orjson and the layout translations the block's magnitudes
    call for. The bytes are those of csv's default dialect as long as no
    field holds a comma, a quote or a line break and every number is a
    Python float, whose str is its shortest round-trip repr. The trace files
    hold only such floats and the neuron ids, roles and enum values made by
    the circuit builders.
    """
    return _write_file(path, chain(_csv_lines((header,)), chunks))


_BLOCK_CELLS = 4096
# orjson writes each float's shortest round-trip digits, those of repr, in
# Ryu's layout. repr lays them out otherwise in [1e-5, 1e-4) (orjson writes
# 0.0000D..), in [1e-9, 1e-5) (a one-digit exponent) and from 1e16 up, and a
# block is scanned only for the layouts its cells take. The bounds are exact:
# x >= 1e-k compares x with the double nearest 10**-k, which no shortest
# round-trip string crosses, so repr's exponent changes where the comparison
# does. Each pattern starts with a literal, so a scan jumps to its candidates,
# and none consumes the next field. The lookbehind keeps 10.00001 whole.
_FIFTH_PLACE = re.compile(rb"0\.0000(?<!\d0\.0000)(\d)(\d*)")  # 0.0000Dd.. -> D.d..e-05
_ONE_DIGIT_DOWN = re.compile(rb"e-(?=\d(?!\d))")               # e-N -> e-0N


def _fifth_place(match: re.Match) -> bytes:
    first, rest = match.groups()
    return first + b"." + rest + b"e-05" if rest else first + b"e-05"


def _potential_chunks(values: np.ndarray, dt: float) -> Iterator[bytes]:
    """The lines `(k * dt, *values[k])` of each row block, as one chunk.

    A block holds about `_BLOCK_CELLS` cells and is one `orjson.dumps`. The
    block's magnitudes pick which of the patterns above it needs to lay its
    digits out as repr does. Cells from 1e16 up, NaN and the infinities are
    dumped as NaN, which orjson writes as null, and take their repr in its
    place.
    """
    n, m = values.shape
    step = max(1, _BLOCK_CELLS // (m + 1))
    for s in range(0, n, step):
        # orjson takes only C-contiguous arrays, whatever the layout of values.
        block = np.empty((min(step, n - s), m + 1))
        # int k to float64 is exact below 2**53, so each time is k * dt's bits.
        block[:, 0] = np.arange(s, s + len(block)) * dt
        block[:, 1:] = values[s:s + step]
        a = np.abs(block)
        wide = ~(a < 1e16)  # from 1e16 up, NaN and the infinities
        reprs = None
        if wide.any():
            reprs = [repr(x).encode() for x in block[wide].tolist()]
            block[wide] = np.nan
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
        if ((a >= 1e-5) & (a < 1e-4)).any():
            text = _FIFTH_PLACE.sub(_fifth_place, text)
        if ((a >= 1e-9) & (a < 1e-5)).any():
            text = _ONE_DIGIT_DOWN.sub(b"e-0", text)
        if reprs:
            text = b"".join(chain.from_iterable(zip(text.split(b"null"), [*reprs, b""])))
        yield b"\r\n".join([*text.split(b"],["), b""])


def write_json(path: Path, doc: Any) -> Path:
    """Write doc as JSON with two-space indent, sorted keys and a final newline."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return _write_file(path, (text.encode(),))


def emit_outputs(artifacts: RunArtifacts, out_dir: str | Path) -> list[Path]:
    """Write spikes.csv, potentials.csv, states.csv and summary.json.

    Byte-identical across reruns of the same scenario and seed. If a write
    fails, the files this call wrote are removed before the CtdError is raised.
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
    written: list[Path] = []
    try:
        written.append(_write_csv(out / "spikes.csv", ("time_ms", "neuron_id", "neuron_role"),
                                  _csv_lines((t, nid, role_of(nid)) for t, nid in spikes)))
        written.append(_write_csv(out / "potentials.csv", ("time_ms", *trace.neuron_ids),
                                  _potential_chunks(trace.potentials, trace.dt)))
        written.append(_write_csv(
            out / "states.csv",
            ("window_start_ms", "window_end_ms", "direction", "depth_circuit",
             "depth_correlation"),
            _csv_lines((*r.window, r.direction.value, r.depth.value, corr.value)
                       for r, corr in zip(artifacts.readouts, artifacts.correlation_depths))))
        written.append(write_json(out / "summary.json", summary))
    except BaseException:
        # A failed call leaves none of its files, so no run directory is left
        # half written.
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written

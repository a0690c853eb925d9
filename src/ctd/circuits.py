"""Constructors and readouts for the three detector circuits.

A PDD unit is a ternary ring of mutually inhibiting detector neurons, one per
sensor channel; it carries the direction evidence. Depth is read either from
cascaded 4-neuron depth modules (a mutually inhibiting regulatory pair feeding
a cross-wired assessing pair) or from a bank of three excitatory-only judge
neurons, the weight-tuned baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .core import CircuitGraph, ConnectionKind, NeuronParams, Trace

EXC = ConnectionKind.EXCITATORY
INH = ConnectionKind.INHIBITORY


@dataclass(frozen=True)
class CtdParams:
    """Canonical magnitudes for every circuit variant; all scenario-overridable."""

    w_ext: float = 1.1            # port injection per sensor spike
    w_inh: float = 0.6            # PDD lateral inhibition
    detector_tau: float = 20.0
    reg_w_in: float = 0.35        # detector -> regulatory excitation
    reg_w_mutual: float = 0.8     # regulatory mutual inhibition
    reg_tau: float = 20.0
    reg_threshold: float = 0.75   # regulators wake around 80 Hz of drive
    assess_w_exc: float = 0.35    # regulatory -> assessing, straight side
    assess_w_inh: float = 0.35    # regulatory -> assessing, crossed side
    assess_tau: float = 25.0
    assess_threshold: float = 0.55  # assessing wakes around 40 Hz of regulatory firing
    assess_reset: float = 0.15
    assess_floor: float = 0.0     # shunting-style: inhibition cancels but never
                                  # drives the assessing pair below rest
    judge_tau: float = 8.0
    judge_reset: float = -0.8     # deep after-spike dip keeps judges exclusive
    refractory: float = 2.0
    v_floor: float = -1.0
    theta_active: int = 2         # assessing spikes per window that count as active
    window_ms: float = 250.0
    stride_ms: float = 125.0

    def detector_neuron(self) -> NeuronParams:
        return NeuronParams(tau_m=self.detector_tau, refractory=self.refractory,
                            v_floor=self.v_floor)

    def regulatory_neuron(self) -> NeuronParams:
        return NeuronParams(tau_m=self.reg_tau, v_threshold=self.reg_threshold,
                            refractory=self.refractory, v_floor=self.v_floor)

    def assessing_neuron(self) -> NeuronParams:
        return NeuronParams(tau_m=self.assess_tau, v_threshold=self.assess_threshold,
                            v_reset=self.assess_reset, refractory=self.refractory,
                            v_floor=self.assess_floor)

    def judge_neuron(self) -> NeuronParams:
        return NeuronParams(tau_m=self.judge_tau, v_reset=self.judge_reset,
                            refractory=self.refractory,
                            v_floor=min(self.v_floor, self.judge_reset))


# Frozen fixture: offline grid search over the three canonical scenarios picked
# this bank (rows N, M, F over a unit's detectors listed left to right). The
# all-zero M row makes M the no-evidence tie state of the argmax readout; the
# suprathreshold outer weights key N to the right detector and F to the left.
DEFAULT_JUDGE_MATRIX: tuple[tuple[float, float, float], ...] = (
    (0.0, 0.0, 1.45),
    (0.0, 0.0, 0.0),
    (1.45, 0.0, 0.0),
)


class Direction(Enum):
    LEFT_TO_RIGHT = "left_to_right"
    RIGHT_TO_LEFT = "right_to_left"
    UNDETERMINED = "undetermined"

    def flipped(self) -> "Direction":
        if self is Direction.LEFT_TO_RIGHT:
            return Direction.RIGHT_TO_LEFT
        if self is Direction.RIGHT_TO_LEFT:
            return Direction.LEFT_TO_RIGHT
        return self


class DepthState(Enum):
    N = "N"
    M = "M"
    F = "F"


@dataclass(frozen=True)
class PddUnit:
    index: int
    detector_ids: tuple[str, str, str]
    port_names: tuple[str, str, str]


@dataclass(frozen=True)
class DdmUnit:
    index: int
    g_left: str
    g_right: str
    a_up: str
    a_down: str


@dataclass(frozen=True)
class JudgeBank:
    index: int
    judge_ids: tuple[str, str, str]  # (N, M, F)


@dataclass(frozen=True)
class CognitiveReadout:
    """Per-window classification with the spike evidence it was based on:
    `evidence` counts the winning unit's detectors, then its depth layer's
    neurons, and `read_depth` decides depth and decisiveness from it alone."""

    window: tuple[float, float]
    direction: Direction
    depth: DepthState
    evidence: dict[str, int]
    unit_index: int
    decisiveness: int
    detector_count: int


# A PDD unit's depth stage: its pair of depth modules, or its judge bank.
DepthLayer = tuple[DdmUnit, ...] | JudgeBank


def _depth_layer_ids(layer: DepthLayer) -> tuple[str, ...]:
    """Every neuron of a depth layer: g_left, g_right, a_up, a_down per
    module, or the N, M, F judges."""
    if isinstance(layer, JudgeBank):
        return layer.judge_ids
    return tuple(nid for d in layer for nid in (d.g_left, d.g_right, d.a_up, d.a_down))


@dataclass(frozen=True)
class CtdHandles:
    pdd_units: tuple[PddUnit, ...]
    depth_layers: tuple[DepthLayer, ...]   # one per PDD unit, in the same order

    def depth_neuron_ids(self) -> tuple[str, ...]:
        """The neurons depth is read from: a_up, a_down per module, or N, M, F."""
        ids: list[str] = []
        for layer in self.depth_layers:
            ids.extend(layer.judge_ids if isinstance(layer, JudgeBank)
                       else (n for d in layer for n in (d.a_up, d.a_down)))
        return tuple(ids)


# --------------------------------------------------------------------------
# Constructors
# --------------------------------------------------------------------------

def build_pdd_unit(circuit: CircuitGraph, port_names: Sequence[str],
                   params: CtdParams = CtdParams(), *, index: int) -> PddUnit:
    """Three port-driven detectors with full pairwise lateral inhibition."""
    if len(port_names) != 3:
        raise ValueError(f"a PDD unit takes exactly 3 ports, got {len(port_names)}")
    det_params = params.detector_neuron()
    ids = tuple(f"pdd{index}.det{j}" for j in range(3))
    for nid, port in zip(ids, port_names):
        circuit.add_neuron(nid, det_params, role="detector")
        circuit.add_input_port(port, nid, weight=params.w_ext)
    for a in ids:
        for b in ids:
            if a != b:
                circuit.add_synapse(a, b, INH, params.w_inh, delay=1)
    return PddUnit(index=index, detector_ids=ids, port_names=tuple(port_names))


def build_pdd_chain(circuit: CircuitGraph, n_channels: int,
                    params: CtdParams = CtdParams()) -> list[PddUnit]:
    """One PDD unit per consecutive sensor triple, left to right."""
    if n_channels <= 0 or n_channels % 3 != 0:
        raise ValueError(f"sensor count {n_channels} is not a positive multiple of 3")
    units = []
    for u in range(n_channels // 3):
        ports = tuple(f"sensor{3 * u + j}" for j in range(3))
        units.append(build_pdd_unit(circuit, ports, params, index=u))
    return units


def build_ddm_unit(circuit: CircuitGraph, left_id: str, right_id: str,
                   params: CtdParams = CtdParams(), *, index: int) -> DdmUnit:
    """Atomic depth module between two adjacent detector outputs.

    The regulatory pair races on mutual inhibition; the assessing pair sees
    the race outcome with reversed stimulating effect (winner excites its own
    side, suppresses the other), so balanced inputs leave both silent.
    """
    for nid in (left_id, right_id):
        if nid not in circuit:
            raise ValueError(f"unknown neuron {nid!r}")
    reg = params.regulatory_neuron()
    assess = params.assessing_neuron()
    g_left = f"ddm{index}.g_left"
    g_right = f"ddm{index}.g_right"
    a_up = f"ddm{index}.a_up"
    a_down = f"ddm{index}.a_down"
    circuit.add_neuron(g_left, reg, role="regulatory")
    circuit.add_neuron(g_right, reg, role="regulatory")
    circuit.add_neuron(a_up, assess, role="assessing")
    circuit.add_neuron(a_down, assess, role="assessing")

    circuit.add_synapse(left_id, g_left, EXC, params.reg_w_in, delay=1)
    circuit.add_synapse(right_id, g_right, EXC, params.reg_w_in, delay=1)
    circuit.add_synapse(g_left, g_right, INH, params.reg_w_mutual, delay=1)
    circuit.add_synapse(g_right, g_left, INH, params.reg_w_mutual, delay=1)
    circuit.add_synapse(g_right, a_up, EXC, params.assess_w_exc, delay=1)
    circuit.add_synapse(g_left, a_up, INH, params.assess_w_inh, delay=1)
    circuit.add_synapse(g_left, a_down, EXC, params.assess_w_exc, delay=1)
    circuit.add_synapse(g_right, a_down, INH, params.assess_w_inh, delay=1)
    return DdmUnit(index=index, g_left=g_left, g_right=g_right, a_up=a_up, a_down=a_down)


def build_judge_bank(circuit: CircuitGraph, pdd_unit: PddUnit,
                     weights: Sequence[Sequence[float]],
                     params: CtdParams = CtdParams()) -> JudgeBank:
    """Three excitatory-only judge neurons over one unit's detectors, numbered
    after the unit."""
    rows = tuple(tuple(float(w) for w in row) for row in weights)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("judge weights must be a 3x3 matrix")
    negative = [w for row in rows for w in row if w < 0]
    if negative:
        raise ValueError(f"judge weight {negative[0]} must be nonnegative")
    judge_params = params.judge_neuron()
    ids = tuple(f"judge{pdd_unit.index}.{s}" for s in ("n", "m", "f"))
    for nid in ids:
        circuit.add_neuron(nid, judge_params, role="judge")
    for i, nid in enumerate(ids):
        for j, det in enumerate(pdd_unit.detector_ids):
            circuit.add_synapse(det, nid, EXC, rows[i][j], delay=1)
    return JudgeBank(index=pdd_unit.index, judge_ids=ids)


def build_ctd(n_sensors: int, variant: str,
              params: CtdParams = CtdParams()) -> tuple[CircuitGraph, CtdHandles]:
    """Full detector: PDD chain plus one depth layer per unit.

    With the ddm variant a unit's layer is two depth modules, one per adjacent
    detector pair; with the weights variant it is a judge bank. Unit u owns
    pdd{u}, ddm{2u} and ddm{2u+1}, or judge{u}.
    """
    if variant not in ("ddm", "weights"):
        raise ValueError(f"unknown variant {variant!r}")
    circuit = CircuitGraph()
    pdd_units = build_pdd_chain(circuit, n_sensors, params)
    layers: list[DepthLayer] = []
    for u, unit in enumerate(pdd_units):
        d = unit.detector_ids
        if variant == "ddm":
            layers.append((build_ddm_unit(circuit, d[0], d[1], params, index=2 * u),
                           build_ddm_unit(circuit, d[1], d[2], params, index=2 * u + 1)))
        else:
            layers.append(build_judge_bank(circuit, unit, DEFAULT_JUDGE_MATRIX, params))
    return circuit, CtdHandles(pdd_units=tuple(pdd_units), depth_layers=tuple(layers))


# --------------------------------------------------------------------------
# Readouts
# --------------------------------------------------------------------------

def read_direction(firsts: Sequence[float | None]) -> Direction:
    """Order of a unit's first detector spikes, left to right (None if silent).

    Strictly increasing first-spike times across the active detectors (at
    least two active) reads left-to-right; strictly decreasing reads
    right-to-left; anything else is undetermined.
    """
    times = [t for t in firsts if t is not None]
    if len(times) < 2:
        return Direction.UNDETERMINED
    if all(a < b for a, b in zip(times, times[1:])):
        return Direction.LEFT_TO_RIGHT
    if all(a > b for a, b in zip(times, times[1:])):
        return Direction.RIGHT_TO_LEFT
    return Direction.UNDETERMINED


_DEPTH_TABLE = {
    ("up", Direction.LEFT_TO_RIGHT): DepthState.N,
    ("down", Direction.LEFT_TO_RIGHT): DepthState.F,
    ("up", Direction.RIGHT_TO_LEFT): DepthState.F,
    ("down", Direction.RIGHT_TO_LEFT): DepthState.N,
}


def read_depth(layer: DepthLayer, counts: Mapping[str, int], direction: Direction,
               theta_active: int = CtdParams.theta_active) -> tuple[DepthState, int]:
    """Depth state and decisiveness of one depth layer from per-neuron spike counts.

    Depth modules: their assessing counts are pooled; both sides below
    theta_active, or tied, reads M; otherwise the dominant side combined with
    the travel direction picks N or F (approaching is always N). Decisiveness
    is the absolute imbalance. Judge bank: strict argmax of the N, M, F
    counts, ties M; decisiveness is the margin of the top count over the next.
    """
    if isinstance(layer, JudgeBank):
        judged = [counts[j] for j in layer.judge_ids]
        best, runner_up = sorted(judged, reverse=True)[:2]
        if best == runner_up:
            return DepthState.M, 0
        depth = (DepthState.N, DepthState.M, DepthState.F)[judged.index(best)]
        return depth, best - runner_up

    up = sum(counts[d.a_up] for d in layer)
    down = sum(counts[d.a_down] for d in layer)
    if (up < theta_active and down < theta_active) or up == down:
        return DepthState.M, abs(up - down)
    side = "up" if up > down else "down"
    return _DEPTH_TABLE.get((side, direction), DepthState.M), abs(up - down)


def trace_direction(trace: Trace, units: Sequence[PddUnit]) -> Direction:
    """Whole-trace direction: most active unit first, then the others."""
    ranked = sorted(
        units,
        key=lambda u: (-sum(len(trace.spikes[d]) for d in u.detector_ids), u.index))
    for unit in ranked:
        d = read_direction([trace.spikes[nid][0] if trace.spikes[nid] else None
                            for nid in unit.detector_ids])
        if d is not Direction.UNDETERMINED:
            return d
    return Direction.UNDETERMINED


def classify(trace: Trace, handles: CtdHandles,
             params: CtdParams = CtdParams()) -> list[CognitiveReadout]:
    """Sliding-window readout over the whole trace.

    Per window the PDD unit with the most detector spikes wins; its direction
    (falling back to the whole-trace direction when the window alone cannot
    order the detectors) and its depth layer produce the states. Decisiveness
    is the absolute assessing imbalance (or the judge count margin), used to
    pick the dominant window of a run.
    """
    w = params.window_ms
    s = params.stride_ms
    if w > trace.duration:
        raise ValueError(
            f"window {w} ms exceeds trace duration {trace.duration} ms")
    units = handles.pdd_units
    global_dir = trace_direction(trace, units)
    starts = [0.0]
    while starts[-1] + s + w <= trace.duration + 1e-9:
        starts.append(starts[-1] + s)
    edges = np.array(starts), np.add(starts, w)
    detectors = {d for u in units for d in u.detector_ids}
    # One sorted search per neuron and window edge: every window's count, and
    # each detector's first spike.
    counts, firsts = {}, {}
    for nid, times in trace.spikes.items():
        lo, hi = np.asarray(times, dtype=np.float64).searchsorted(edges)
        counts[nid] = hi - lo
        if nid in detectors:
            firsts[nid] = [times[j] if j < k else None
                           for j, k in zip(lo.tolist(), hi.tolist())]
    # Per window the first unit with the most detector spikes wins, so a tie
    # goes to the lowest index.
    best = np.array([sum(counts[d] for d in u.detector_ids) for u in units]).argmax(axis=0)
    readouts = [None] * len(starts)
    for k, (unit, layer) in enumerate(zip(units, handles.depth_layers)):
        cols = np.flatnonzero(best == k)
        ids = (*unit.detector_ids, *_depth_layer_ids(layer))
        rows = np.array([counts[nid][cols] for nid in ids]).T.tolist()
        for i, row in zip(cols.tolist(), rows):
            det_count = row[0] + row[1] + row[2]
            direction = read_direction([firsts[d][i] for d in unit.detector_ids])
            if direction is Direction.UNDETERMINED and det_count > 0:
                direction = global_dir
            evidence = dict(zip(ids, row))
            depth, decisiveness = read_depth(layer, evidence, direction,
                                             params.theta_active)
            readouts[i] = CognitiveReadout(window=(starts[i], starts[i] + w),
                                           direction=direction, depth=depth,
                                           evidence=evidence, unit_index=unit.index,
                                           decisiveness=decisiveness,
                                           detector_count=det_count)
    return readouts


def dominant_readout(readouts: Sequence[CognitiveReadout]) -> CognitiveReadout:
    """The run's single most decisive window; detector evidence breaks ties."""
    if not readouts:
        raise ValueError("no readout windows")
    return max(readouts,
               key=lambda r: (r.decisiveness, r.detector_count, -r.window[0]))

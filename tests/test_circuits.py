"""Circuit constructors, readout rules, and the qualitative circuit behaviors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctd.circuits import (CtdParams, DEFAULT_JUDGE_MATRIX, DepthState, Direction,
                          build_ctd, build_ddm_unit, build_excitatory_loop_fixture,
                          build_judge_bank, build_pdd_chain, build_pdd_unit,
                          classify, dominant_readout, read_depth, read_direction)
from ctd.core import CircuitGraph, ConnectionKind, Trace, simulate
from ctd.errors import BadArity, DuplicatePort, NegativeWeight, UnknownNeuron
from ctd.harness import pdd_exclusivity_ok
from ctd.world import SpikeTrain, encode_spikes

P = CtdParams()


def _drive_pdd(rates: dict[int, float], duration: float = 1000.0,
               with_inhibition: bool = True):
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    if not with_inhibition:
        circuit.synapses.clear()
    drive = {f"s{i}": encode_spikes([r] * int(duration), 1.0)
             for i, r in rates.items()}
    trace = simulate(circuit, drive, duration, 1.0)
    return unit, trace


def test_pdd_unit_structure():
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    assert len(circuit.neuron_ids) == 3
    assert len(circuit.synapses) == 6
    assert all(s.kind is ConnectionKind.INHIBITORY for s in circuit.synapses)
    assert set(circuit.input_ports) == {"s0", "s1", "s2"}
    with pytest.raises(DuplicatePort):
        build_pdd_unit(circuit, ("s0", "x", "y"), P, index=1)


def test_pdd_single_driven_detector_is_the_only_one_animated():
    unit, trace = _drive_pdd({1: 150.0})
    assert len(trace.spikes[unit.detector_ids[1]]) > 0
    assert trace.spikes[unit.detector_ids[0]] == ()
    assert trace.spikes[unit.detector_ids[2]] == ()


def test_pdd_lateral_inhibition_suppresses_the_weaker_detector():
    # Oracle: rerun the same drive without the inhibitory ring and compare.
    unit, inhibited = _drive_pdd({0: 200.0, 1: 50.0})
    _, free = _drive_pdd({0: 200.0, 1: 50.0}, with_inhibition=False)
    strong, weak = unit.detector_ids[0], unit.detector_ids[1]
    assert len(inhibited.spikes[strong]) > len(inhibited.spikes[weak])
    assert len(inhibited.spikes[weak]) < len(free.spikes[weak])


def test_pdd_chain_arities():
    circuit = CircuitGraph()
    assert len(build_pdd_chain(circuit, 3, P)) == 1
    circuit = CircuitGraph()
    units = build_pdd_chain(circuit, 6, P)
    assert len(units) == 2
    assert units[0].port_names == ("sensor0", "sensor1", "sensor2")
    assert units[1].port_names == ("sensor3", "sensor4", "sensor5")
    with pytest.raises(BadArity):
        build_pdd_chain(CircuitGraph(), 4, P)
    with pytest.raises(BadArity):
        build_pdd_chain(CircuitGraph(), 0, P)


def _ddm_with_drive(rate_left: float, rate_right: float, duration: float = 1000.0):
    circuit = CircuitGraph()
    circuit.add_neuron("left", P.detector_neuron(), role="detector")
    circuit.add_neuron("right", P.detector_neuron(), role="detector")
    circuit.add_input_port("L", "left", P.w_ext)
    circuit.add_input_port("R", "right", P.w_ext)
    ddm = build_ddm_unit(circuit, "left", "right", P, index=0)
    drive = {"L": encode_spikes([rate_left] * int(duration), 1.0),
             "R": encode_spikes([rate_right] * int(duration), 1.0)}
    return ddm, simulate(circuit, drive, duration, 1.0)


def test_ddm_structure():
    circuit = CircuitGraph()
    circuit.add_neuron("left", P.detector_neuron())
    circuit.add_neuron("right", P.detector_neuron())
    before_n, before_s = len(circuit.neuron_ids), len(circuit.synapses)
    build_ddm_unit(circuit, "left", "right", P, index=0)
    assert len(circuit.neuron_ids) - before_n == 4
    assert len(circuit.synapses) - before_s == 8
    with pytest.raises(UnknownNeuron):
        build_ddm_unit(circuit, "left", "ghost", P, index=1)


def test_ddm_right_heavy_drive_activates_upper_assessing_neuron():
    ddm, trace = _ddm_with_drive(20.0, 160.0)
    assert len(trace.spikes[ddm.g_right]) > len(trace.spikes[ddm.g_left])
    assert len(trace.spikes[ddm.a_up]) > 0
    assert trace.spikes[ddm.a_down] == ()


def test_ddm_balanced_drive_keeps_assessing_level_silent():
    ddm, trace = _ddm_with_drive(150.0, 150.0)
    assert len(trace.spikes[ddm.g_left]) > 0
    assert len(trace.spikes[ddm.g_right]) > 0
    assert trace.spikes[ddm.a_up] == ()
    assert trace.spikes[ddm.a_down] == ()


def _double_spike_windows(times, width):
    # (lo, hi] intervals of window starts whose [t, t+width) holds >= 2 spikes
    return [(b - width, a) for a, b in zip(times, times[1:]) if b - a < width]


def _exclusive_by_all_pairs(trains, width):
    # Oracle: every double-spike interval of one train against every one of
    # each other train.
    intervals = [_double_spike_windows(t, width) for t in trains]
    return not any(max(lo1, lo2) < min(hi1, hi2)
                   for i, a in enumerate(intervals) for b in intervals[i + 1:]
                   for lo1, hi1 in a for lo2, hi2 in b)


def test_regulatory_pair_never_doubles_up_in_close_race():
    ddm, trace = _ddm_with_drive(180.0, 170.0)
    assert _exclusive_by_all_pairs(
        (trace.spikes[ddm.g_left], trace.spikes[ddm.g_right]), 10.0)


def test_build_ctd_structural_counts():
    circuit, handles = build_ctd(3, "ddm", P)
    assert len(circuit.neuron_ids) == 11
    circuit, handles = build_ctd(6, "ddm", P)
    assert len(circuit.neuron_ids) == 22
    assert len(circuit.synapses) == 44  # (6 ring + 2*8 ddm) per unit
    circuit, handles = build_ctd(3, "weights", P)
    assert len(circuit.neuron_ids) == 6
    depth_synapses = [s for s in circuit.synapses
                      if circuit.role_of(s.post) == "judge"]
    assert len(depth_synapses) == 9
    assert all(s.kind is ConnectionKind.EXCITATORY for s in depth_synapses)
    with pytest.raises(BadArity):
        build_ctd(4, "ddm", P)
    with pytest.raises(ValueError):
        build_ctd(6, "other", P)


def test_judge_bank_zero_matrix_never_fires():
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    bank = build_judge_bank(circuit, unit, [[0.0] * 3] * 3, P)
    drive = {"s1": encode_spikes([180.0] * 500, 1.0)}
    trace = simulate(circuit, drive, 500.0, 1.0)
    assert all(trace.spikes[j] == () for j in bank.judge_ids)


def test_judge_bank_suprathreshold_diagonal_relays_its_detector():
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    diagonal = [[2.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    bank = build_judge_bank(circuit, unit, diagonal, P)
    drive = {"s1": encode_spikes([50.0] * 1000, 1.0)}
    trace = simulate(circuit, drive, 1000.0, 1.0)
    det_spikes = trace.spikes[unit.detector_ids[1]]
    judge_spikes = trace.spikes[bank.judge_ids[1]]
    delivered = [t for t in det_spikes if t + 1.0 < 1000.0]
    assert judge_spikes == tuple(t + 1.0 for t in delivered)
    assert trace.spikes[bank.judge_ids[0]] == ()
    assert trace.spikes[bank.judge_ids[2]] == ()


def test_judge_bank_rejects_negative_weights():
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    with pytest.raises(NegativeWeight):
        build_judge_bank(circuit, unit, [[0.0, 0.0, -0.1]] + [[0.0] * 3] * 2, P)


def _trace_with_first_spikes(ids, firsts) -> Trace:
    spikes = {nid: ((t,) if t is not None else ()) for nid, t in zip(ids, firsts)}
    return Trace(dt=1.0, duration=1000.0, spikes=spikes,
                 potentials=np.zeros((1000, len(spikes))))


def test_read_direction_orderings():
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    ids = unit.detector_ids
    window = (0.0, 1000.0)
    t = _trace_with_first_spikes(ids, (100.0, 180.0, 260.0))
    assert read_direction(t, unit, window) is Direction.LEFT_TO_RIGHT
    t = _trace_with_first_spikes(ids, (260.0, 180.0, 100.0))
    assert read_direction(t, unit, window) is Direction.RIGHT_TO_LEFT
    t = _trace_with_first_spikes(ids, (None, 180.0, None))
    assert read_direction(t, unit, window) is Direction.UNDETERMINED
    t = _trace_with_first_spikes(ids, (100.0, None, 260.0))
    assert read_direction(t, unit, window) is Direction.LEFT_TO_RIGHT
    t = _trace_with_first_spikes(ids, (100.0, 50.0, 260.0))
    assert read_direction(t, unit, window) is Direction.UNDETERMINED


def _ddm_counts(up: int, down: int):
    circuit = CircuitGraph()
    circuit.add_neuron("l", P.detector_neuron())
    circuit.add_neuron("r", P.detector_neuron())
    ddm = build_ddm_unit(circuit, "l", "r", P, index=0)
    counts = {nid: 0 for nid in circuit.neuron_ids}
    counts[ddm.a_up] = up
    counts[ddm.a_down] = down
    return (ddm,), counts


def test_read_depth_mapping_table():
    layer, counts = _ddm_counts(0, 0)
    assert read_depth(layer, counts, Direction.LEFT_TO_RIGHT) == (DepthState.M, 0)

    layer, counts = _ddm_counts(7, 0)
    assert read_depth(layer, counts, Direction.LEFT_TO_RIGHT) == (DepthState.N, 7)
    assert read_depth(layer, counts, Direction.RIGHT_TO_LEFT) == (DepthState.F, 7)
    assert read_depth(layer, counts, Direction.UNDETERMINED) == (DepthState.M, 7)

    layer, counts = _ddm_counts(0, 7)
    assert read_depth(layer, counts, Direction.LEFT_TO_RIGHT) == (DepthState.F, 7)
    assert read_depth(layer, counts, Direction.RIGHT_TO_LEFT) == (DepthState.N, 7)

    layer, counts = _ddm_counts(7, 7)  # tie
    assert read_depth(layer, counts, Direction.LEFT_TO_RIGHT) == (DepthState.M, 0)

    layer, counts = _ddm_counts(1, 0)  # below theta_active
    assert read_depth(layer, counts, Direction.LEFT_TO_RIGHT,
                      theta_active=2) == (DepthState.M, 1)

    # A unit's two modules pool their assessing counts.
    circuit, handles = build_ctd(3, "ddm", P)
    pair = handles.depth_layers[0]
    counts = {nid: 0 for nid in circuit.neuron_ids}
    counts[pair[0].a_up], counts[pair[1].a_up], counts[pair[1].a_down] = 2, 2, 3
    assert read_depth(pair, counts, Direction.LEFT_TO_RIGHT) == (DepthState.N, 1)


def test_read_depth_judge_argmax():
    circuit, handles = build_ctd(3, "weights", P)
    bank = handles.depth_layers[0]
    n, m, f = bank.judge_ids
    for judged, expected in (((5, 2, 1), (DepthState.N, 3)),
                             ((1, 4, 0), (DepthState.M, 3)),
                             ((0, 2, 6), (DepthState.F, 4)),
                             ((3, 0, 3), (DepthState.M, 0)),
                             ((0, 0, 0), (DepthState.M, 0))):
        counts = dict(zip((n, m, f), judged))
        assert read_depth(bank, counts, Direction.LEFT_TO_RIGHT) == expected


def test_classify_empty_trace_reads_undetermined_m_everywhere():
    circuit, handles = build_ctd(6, "ddm", P)
    trace = simulate(circuit, {}, 1000.0, 1.0)
    readouts = classify(trace, handles, P)
    assert len(readouts) == 7  # (1000 - 250) / 125 + 1
    assert all(r.direction is Direction.UNDETERMINED for r in readouts)
    assert all(r.depth is DepthState.M for r in readouts)
    assert dominant_readout(readouts).window == (0.0, 250.0)


def test_ddm_firing_stops_quickly_after_drive_ends():
    ddm, trace = _ddm_with_drive(30.0, 170.0, duration=1500.0)
    # drive both sides only for the first second
    circuit = CircuitGraph()
    circuit.add_neuron("left", P.detector_neuron(), role="detector")
    circuit.add_neuron("right", P.detector_neuron(), role="detector")
    circuit.add_input_port("L", "left", P.w_ext)
    circuit.add_input_port("R", "right", P.w_ext)
    ddm = build_ddm_unit(circuit, "left", "right", P, index=0)
    drive = {"R": encode_spikes([170.0 if k < 1000 else 0.0
                                 for k in range(1500)], 1.0)}
    trace = simulate(circuit, drive, 1500.0, 1.0)
    last_in = drive["R"].last
    last_out = max(t for times in trace.spikes.values() for t in times)
    assert len(trace.spikes[ddm.a_up]) > 0
    assert last_out <= last_in + 50.0


def test_excitatory_loop_fixture_sustains_firing():
    circuit, port = build_excitatory_loop_fixture()
    trace = simulate(circuit, {port: SpikeTrain((5.0,))}, 1000.0, 1.0)
    spikes = trace.spikes["loop"]
    assert spikes[-1] - spikes[0] >= 500.0
    assert len(spikes) > 100


def test_default_judge_matrix_shape():
    assert len(DEFAULT_JUDGE_MATRIX) == 3
    assert all(len(row) == 3 for row in DEFAULT_JUDGE_MATRIX)
    assert all(w >= 0 for row in DEFAULT_JUDGE_MATRIX for w in row)


def test_regulatory_exclusivity_across_the_scripted_suite(suite_runs):
    runs, _ = suite_runs
    for _, a in runs:
        for pair in a.handles.depth_layers:
            for ddm in pair:
                assert _exclusive_by_all_pairs(
                    (a.trace.spikes[ddm.g_left], a.trace.spikes[ddm.g_right]), 10.0)


def test_readouts_are_decided_from_their_evidence_alone(suite_compares):
    compares, _ = suite_compares
    for scenario, comparison in compares:
        theta = scenario.ctd_params().theta_active
        for a in (comparison.ddm, comparison.weights):
            for r in a.readouts:
                layer = a.handles.depth_layers[r.unit_index]
                assert (r.depth, r.decisiveness) == read_depth(
                    layer, r.evidence, r.direction, theta)


_detector_train = st.lists(st.integers(0, 100), unique=True).map(
    lambda ks: tuple(0.5 * k for k in sorted(ks)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_detector_train, min_size=3, max_size=3),
       st.sampled_from([1.0, 2.5, 10.0]))
def test_pdd_exclusivity_matches_all_pairs_oracle(trains, width):
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    trace = Trace(dt=0.5, duration=51.0, spikes=dict(zip(unit.detector_ids, trains)),
                  potentials=np.zeros((1, 3)))
    assert pdd_exclusivity_ok(trace, [unit], width) == _exclusive_by_all_pairs(trains, width)

"""Circuit constructors, readout rules, and the qualitative circuit behaviors."""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctd.circuits import (CtdParams, DEFAULT_JUDGE_MATRIX, DepthState, Direction,
                          build_ctd, build_ddm_unit, build_judge_bank,
                          build_pdd_chain, build_pdd_unit, classify,
                          dominant_readout, read_depth, read_direction)
from ctd.core import CircuitGraph, ConnectionKind, Trace, simulate
from ctd.harness import pdd_exclusivity_ok
from ctd.scenario import Scenario
from ctd.world import (SensorSpec, SpikeTrain, Tangent, Waypoints, encode_spikes,
                       mirror_sensors, mirror_trajectory, sense_scenario)
from fixtures import build_excitatory_loop_fixture
import reference_readout

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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        build_pdd_chain(CircuitGraph(), 4, P)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        build_judge_bank(circuit, unit, [[0.0, 0.0, -0.1]] + [[0.0] * 3] * 2, P)


def test_read_direction_orderings():
    assert read_direction((100.0, 180.0, 260.0)) is Direction.LEFT_TO_RIGHT
    assert read_direction((260.0, 180.0, 100.0)) is Direction.RIGHT_TO_LEFT
    assert read_direction((None, 180.0, None)) is Direction.UNDETERMINED
    assert read_direction((100.0, None, 260.0)) is Direction.LEFT_TO_RIGHT
    assert read_direction((100.0, 50.0, 260.0)) is Direction.UNDETERMINED


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


def _excitatory_latency(circuit: CircuitGraph, dt: float) -> float | None:
    """The most time firing can outlast its drive, or None when the
    excitatory subgraph has a cycle.

    A neuron fires at the latest one refractory period after its last
    excitatory arrival: later input only inhibits, and from below threshold
    decay only falls toward rest. So along the longest excitatory path, in
    time, each neuron adds its refractory period and each hop its delay.
    """
    ids = circuit.neuron_ids
    latency = {nid: circuit.params_of(nid).refractory for nid in ids}
    indegree = dict.fromkeys(ids, 0)
    outgoing: dict[str, list] = {nid: [] for nid in ids}
    for syn in circuit.synapses:
        if syn.kind is ConnectionKind.EXCITATORY:
            outgoing[syn.pre].append(syn)
            indegree[syn.post] += 1
    ready = [nid for nid in ids if indegree[nid] == 0]
    ordered = 0
    while ready:
        pre = ready.pop()
        ordered += 1
        for syn in outgoing[pre]:
            latency[syn.post] = max(latency[syn.post],
                                    latency[pre] + syn.delay * dt
                                    + circuit.params_of(syn.post).refractory)
            indegree[syn.post] -= 1
            if indegree[syn.post] == 0:
                ready.append(syn.post)
    return max(latency.values()) if ordered == len(ids) else None


def test_excitatory_latency_sees_the_loop_fixture_cycle():
    circuit, _ = build_excitatory_loop_fixture()
    assert _excitatory_latency(circuit, 1.0) is None


_OVERRIDES = {
    "w_ext": st.floats(0.0, 3.0), "w_inh": st.floats(0.0, 2.0),
    "detector_tau": st.floats(1.0, 50.0), "reg_w_in": st.floats(0.0, 2.0),
    "reg_w_mutual": st.floats(0.0, 2.0), "reg_tau": st.floats(1.0, 50.0),
    "reg_threshold": st.floats(0.1, 2.0), "assess_w_exc": st.floats(0.0, 2.0),
    "assess_w_inh": st.floats(0.0, 2.0), "assess_tau": st.floats(1.0, 50.0),
    "assess_threshold": st.floats(0.2, 2.0), "assess_reset": st.floats(0.0, 0.15),
    "assess_floor": st.floats(-1.0, 0.0), "judge_tau": st.floats(1.0, 50.0),
    "judge_reset": st.floats(-1.0, 0.5), "refractory": st.floats(0.0, 5.0),
    "v_floor": st.floats(-2.0, 0.0),
}


@settings(max_examples=60, deadline=None)
@given(n_sensors=st.sampled_from(range(3, 25, 3)),
       variant=st.sampled_from(["ddm", "weights"]),
       overrides=st.fixed_dictionaries({}, optional=_OVERRIDES),
       dt=st.sampled_from([0.5, 1.0]), data=st.data())
def test_build_ctd_firing_ends_within_its_longest_excitatory_path(
        n_sensors, variant, overrides, dt, data):
    # Seizure damping holds by structure: build_ctd's excitatory edges run
    # detector -> regulatory -> assessing and detector -> judge, so however the
    # inhibition is set, firing stops a few hops after the drive does.
    params = Scenario(overrides=overrides).ctd_params()
    circuit, _ = build_ctd(n_sensors, variant, params)
    latency = _excitatory_latency(circuit, dt)
    assert latency is not None
    steps = 400
    drive = {f"sensor{i}": SpikeTrain(tuple(k * dt for k in sorted(ks))) for i, ks in
             enumerate(data.draw(st.lists(st.sets(st.integers(0, steps // 2), max_size=120),
                                          min_size=n_sensors, max_size=n_sensors)))}
    last_in = max((t.last for t in drive.values() if t.last is not None), default=None)
    trace = simulate(circuit, drive, steps * dt, dt)
    last_out = max((times[-1] for times in trace.spikes.values() if times), default=None)
    if last_out is not None:
        assert last_out <= last_in + latency


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


# --------------------------------------------------------------------------
# Readout and exclusivity against the per-window bisect reference
# --------------------------------------------------------------------------

@st.composite
def _spiking_traces(draw):
    """Random spikes for every neuron of a ddm or judge-bank circuit, on a dt
    grid and on the readout's own window edges; a neuron may stay silent."""
    circuit, handles = build_ctd(draw(st.sampled_from([3, 6])),
                                 draw(st.sampled_from(["ddm", "weights"])), P)
    dt = draw(st.sampled_from([1.0, 0.1, 0.25, 0.3]))
    w = draw(st.sampled_from([10.0, 3.3, 1.0]))
    stride = w * draw(st.sampled_from([1.0, 0.5, 0.7, 0.45, 1.3]))
    n_steps = draw(st.integers(int(w / dt) + 1, int(4 * w / dt) + 1))
    duration = n_steps * dt
    # The edges come from the readout's own `t0 += stride` sums, so spikes
    # land on window starts and ends exactly.
    edges = []
    t0 = 0.0
    while t0 + w <= duration + 1e-9:
        edges += [t for t in (t0, t0 + w) if t < duration]
        t0 += stride
    times = st.one_of(st.integers(0, n_steps - 1).map(lambda k: k * dt),
                      st.sampled_from(edges))
    spikes = {nid: tuple(sorted(set(draw(st.lists(times, max_size=12)))))
              for nid in circuit.neuron_ids}
    trace = Trace(dt=dt, duration=duration, spikes=spikes,
                  potentials=np.zeros((1, len(spikes))))
    return trace, handles, CtdParams(window_ms=w, stride_ms=stride)


@settings(max_examples=300, deadline=None)
@given(case=_spiking_traces())
def test_classify_matches_per_window_bisect_reference(case):
    trace, handles, params = case
    assert classify(trace, handles, params) == reference_readout.classify(
        trace, handles, params)


@settings(max_examples=300, deadline=None)
@given(case=_spiking_traces())
def test_pdd_exclusivity_matches_interval_merge_reference(case):
    trace, handles, params = case
    units, w = handles.pdd_units, params.window_ms
    assert pdd_exclusivity_ok(trace, units, w) == reference_readout.pdd_exclusivity_ok(
        trace, units, w)


def test_pdd_exclusivity_allows_multi_spike_windows_that_only_touch():
    # The pair (0, 5) fills the 10 ms windows starting in (-5, 0], the pair
    # (8, 10) those starting in (0, 8]: no window holds both. Moving 10 to 9.5
    # adds the starts (-0.5, 0], which both pairs fill.
    circuit = CircuitGraph()
    unit = build_pdd_unit(circuit, ("s0", "s1", "s2"), P, index=0)
    for second, exclusive in (((8.0, 10.0), True), ((8.0, 9.5), False)):
        trace = Trace(dt=0.5, duration=20.0,
                      spikes=dict(zip(unit.detector_ids, ((0.0, 5.0), second, ()))),
                      potentials=np.zeros((1, 3)))
        assert pdd_exclusivity_ok(trace, [unit]) is exclusive
        assert reference_readout.pdd_exclusivity_ok(trace, [unit], 10.0) is exclusive


# --------------------------------------------------------------------------
# Mirrored passes
# --------------------------------------------------------------------------

# Slow passes close ahead of the robot, so depth modules get to fire.
_ahead = st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 1.0))


# Fans of one and of two PDD units.
_FANS = ((-30.0, 0.0, 30.0), (-75.0, -45.0, -15.0, 15.0, 45.0, 75.0))


@st.composite
def _fan_passes(draw):
    sensors = tuple(SensorSpec(mount_deg=m, cone_half_deg=draw(st.floats(5.0, 60.0)))
                    for m in draw(st.sampled_from(_FANS)))
    duration = 1000.0
    if draw(st.booleans()):
        traj = Tangent(closest=draw(_ahead),
                       velocity_mps=draw(st.tuples(st.floats(-0.6, 0.6),
                                                   st.floats(-0.6, 0.6))),
                       t_center_ms=draw(st.floats(0.0, duration)), duration_ms=duration)
    else:
        knots = sorted(draw(st.lists(st.floats(0.0, duration), min_size=1, max_size=5,
                                     unique=True)))
        traj = Waypoints(points=tuple((t, draw(_ahead)) for t in knots),
                         duration_ms=duration)
    return sensors, traj


def _ddm_runs(sensors, traj):
    """The pass and its mirror image: the pass's trace and PDD units, and both readouts."""
    pose = Scenario().pose()
    runs = []
    for fan, path in ((sensors, traj), (mirror_sensors(sensors), mirror_trajectory(pose, traj))):
        circuit, handles = build_ctd(len(fan), "ddm", P)
        trains = sense_scenario(pose, fan, path, 1.0)
        drive = {f"sensor{i}": train for i, train in enumerate(trains)}
        runs.append((simulate(circuit, drive, path.duration_ms, 1.0), handles))
    (trace, handles), (mirror_trace, mirror_handles) = runs
    return (trace, handles.pdd_units, classify(trace, handles, P),
            classify(mirror_trace, mirror_handles, P))


def _unit_spikes(trace, units, start=0.0, end=math.inf):
    """Detector spikes of each PDD unit in [start, end)."""
    return [sum(bisect_left(trace.spikes[d], end) - bisect_left(trace.spikes[d], start)
                for d in unit.detector_ids) for unit in units]


@settings(max_examples=120, deadline=None)
@given(case=_fan_passes())
def test_mirrored_pass_flips_direction_and_keeps_depth(case):
    # Mirroring reverses the PDD units, and classify gives a tie on detector
    # spikes to the lower unit index, as trace_direction does a tie in its
    # whole-trace ranking (ROADMAP item 10). So only windows without a tie, in
    # runs whose ranking has none, are compared.
    trace, units, base, mirrored = _ddm_runs(*case)
    assert len(base) == len(mirrored)
    totals = _unit_spikes(trace, units)
    if len(set(totals)) < len(totals):
        return
    for r, m in zip(base, mirrored):
        counts = _unit_spikes(trace, units, *r.window)
        if counts.count(max(counts)) > 1:
            continue
        assert m.unit_index == len(units) - 1 - r.unit_index
        assert m.direction is r.direction.flipped()
        assert (m.depth, m.decisiveness, m.detector_count) == (
            r.depth, r.decisiveness, r.detector_count)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10 (mirror-symmetric readout on "
                                       "multi-unit fans): classify gives a tie on "
                                       "detector spikes to the lower unit index")
def test_mirrored_pass_keeps_depth_in_a_window_tied_between_units():
    sensors = tuple(SensorSpec(mount_deg=m, cone_half_deg=c)
                    for m, c in zip(_FANS[1], (45.0, 45.0, 45.0, 45.0, 15.0, 30.0)))
    traj = Tangent(closest=(0.043846040808670717, 0.6084613383551407),
                   velocity_mps=(-0.9983120578370837, -0.08134566119329317),
                   t_center_ms=510.839210546878, duration_ms=1000.0)
    _, _, base, mirrored = _ddm_runs(sensors, traj)
    # Both units hold 34 detector spikes in [250, 500); the pass reads F there.
    [(r, m)] = [(r, m) for r, m in zip(base, mirrored) if r.window == (250.0, 500.0)]
    assert (m.direction, m.depth) == (r.direction.flipped(), r.depth)

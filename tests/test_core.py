"""Membrane dynamics, circuit stepping, and simulation contracts."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctd.core import CircuitGraph, ConnectionKind, NeuronParams, Synapse, simulate
from ctd.errors import UnknownPort
from ctd.world import SpikeTrain, encode_spikes
from reference_kernel import reference_simulate

EXC = ConnectionKind.EXCITATORY
INH = ConnectionKind.INHIBITORY


def _single(params: NeuronParams, weight: float = 1.1) -> CircuitGraph:
    c = CircuitGraph()
    c.add_neuron("n", params)
    c.add_input_port("in", "n", weight=weight)
    return c


def _column(trace, nid: str) -> list[float]:
    return trace.potentials[:, trace.neuron_ids.index(nid)].tolist()


def test_rest_is_fixed_point():
    for params in (NeuronParams(), NeuronParams(v_rest=0.3)):
        trace = simulate(_single(params), {}, 50.0, 1.0)
        assert trace.spikes["n"] == ()
        assert _column(trace, "n") == [params.v_rest] * 50


def test_suprathreshold_input_fires_and_resets():
    params = NeuronParams()
    trace = simulate(_single(params, weight=1.2), {"in": SpikeTrain((0.0,))}, 10.0, 1.0)
    assert trace.spikes["n"] == (0.0,)
    assert _column(trace, "n") == [params.v_reset] * 10
    # The refractory period ends exactly refractory ms after the spike.
    trace = simulate(_single(params, weight=1.2),
                     {"in": SpikeTrain((0.0, params.refractory))}, 10.0, 1.0)
    assert trace.spikes["n"] == (0.0, params.refractory)


def test_exponential_decay_matches_closed_form_and_finer_steps():
    # One 1 ms step from v=1.0 must land exactly on the closed form; ten 0.1 ms
    # steps of the same exact-exponential update agree within 1e-3.
    params = NeuronParams(tau_m=20.0, v_threshold=1.5)
    coarse = simulate(_single(params, weight=1.0), {"in": SpikeTrain((0.0,))}, 2.0, 1.0)
    assert coarse.spikes["n"] == ()
    v = _column(coarse, "n")
    assert v[0] == 1.0
    assert v[1] == pytest.approx(math.exp(-1.0 / 20.0), abs=1e-12)

    fine = simulate(_single(params, weight=1.0), {"in": SpikeTrain((0.0,))}, 1.1, 0.1)
    assert abs(_column(fine, "n")[10] - v[1]) < 1e-3


def test_threshold_is_tested_after_decay():
    # v == threshold at the step start does not fire once decay pulls it below:
    # the input at t=1 lands inside the refractory period and holds v at 1.0.
    params = NeuronParams(tau_m=20.0, v_threshold=1.0)
    trace = simulate(_single(params, weight=1.0),
                     {"in": SpikeTrain((0.0, 1.0))}, 4.0, 1.0)
    assert trace.spikes["n"] == (0.0,)
    v = _column(trace, "n")
    assert v[1] == 1.0
    assert v[2] < 1.0


def test_potential_floor_clamps_runaway_inhibition():
    params = NeuronParams(v_floor=-1.0)
    drive = {"in": SpikeTrain(tuple(float(k) for k in range(10)))}
    trace = simulate(_single(params, weight=-5.0), drive, 10.0, 1.0)
    assert _column(trace, "n") == [-1.0] * 10


def test_refractory_blocks_firing():
    params = NeuronParams(refractory=5.0)
    trace = simulate(_single(params, weight=2.0),
                     {"in": SpikeTrain((0.0, 1.0, 5.0))}, 10.0, 1.0)
    assert trace.spikes["n"] == (0.0, 5.0)


def test_synapse_validation():
    with pytest.raises(ValueError):
        Synapse("a", "b", EXC, -0.1)
    with pytest.raises(ValueError):
        Synapse("a", "b", EXC, 0.5, delay=0)
    assert Synapse("a", "b", INH, 0.5).signed_weight == -0.5


def _relay_pair(w_ab: float, kind: ConnectionKind) -> CircuitGraph:
    c = CircuitGraph()
    c.add_neuron("a", NeuronParams())
    c.add_neuron("b", NeuronParams())
    c.add_synapse("a", "b", kind, w_ab, delay=1)
    c.add_input_port("in", "a", weight=1.2)
    return c


def test_empty_circuit_step_is_inert():
    trace = simulate(CircuitGraph(), {}, 5.0, 1.0)
    assert trace.spikes == {}
    assert trace.potentials.shape == (5, 0)


def test_delayed_excitation_fires_next_step():
    c = _relay_pair(1.5, EXC)
    trace = simulate(c, {"in": SpikeTrain((5.0,))}, 20.0, 1.0)
    assert trace.spikes["a"] == (5.0,)
    assert trace.spikes["b"] == (6.0,)


def test_inhibition_subtracts_from_next_potential():
    # Hand evaluation: b is charged to 0.8 at t=0; a fires at t=1, and its
    # inhibitory spike of 0.5 arrives one step later, so b's potential at t=2
    # is its t=1 potential times exp(-1/20), minus 0.5.
    c = CircuitGraph()
    c.add_neuron("a", NeuronParams())
    c.add_neuron("b", NeuronParams())
    c.add_synapse("a", "b", INH, 0.5, delay=1)
    c.add_input_port("in", "a", weight=1.2)
    c.add_input_port("charge", "b", weight=0.8)
    trace = simulate(c, {"charge": SpikeTrain((0.0,)), "in": SpikeTrain((1.0,))},
                     5.0, 1.0)
    assert trace.spikes == {"a": (1.0,), "b": ()}
    b = _column(trace, "b")
    # Observation then commit: a's spike at t=1 does not reach b at t=1.
    assert b[1] == 0.8 * math.exp(-1.0 / 20.0)
    expected = b[1] * math.exp(-1.0 / 20.0) - 0.5
    assert b[2] == pytest.approx(expected, abs=1e-12)
    assert b[2] < b[1] * math.exp(-1.0 / 20.0)


def test_unknown_port_rejected():
    c = _relay_pair(1.0, EXC)
    with pytest.raises(UnknownPort):
        simulate(c, {"nope": SpikeTrain(())}, 10.0, 1.0)
    with pytest.raises(UnknownPort):
        simulate(c, {"nope": SpikeTrain((1.0,))}, 10.0, 1.0)


def test_simulate_empty_drive_is_flat():
    c = _relay_pair(1.0, EXC)
    trace = simulate(c, {}, 50.0, 1.0)
    assert trace.potentials.shape == (50, 2)
    assert all(t == () for t in trace.spikes.values())
    assert (trace.potentials == 0.0).all()


def test_relay_spike_count_matches_event_walk_oracle():
    # 200 Hz suprathreshold drive for 1 s. Oracle: walk the input events and
    # count one output per input not blocked by the refractory window.
    c = CircuitGraph()
    c.add_neuron("n", NeuronParams())
    c.add_input_port("in", "n", weight=1.1)
    drive = encode_spikes([200.0] * 1000, 1.0)
    expected = 0
    last_out = -math.inf
    for t in drive.times:
        if t >= last_out + 2.0:  # refractory
            expected += 1
            last_out = t
    trace = simulate(c, {"in": drive}, 1000.0, 1.0)
    assert len(drive) == 200
    assert len(trace.spikes["n"]) == expected == 200


def test_simulate_is_deterministic():
    c = _relay_pair(1.5, EXC)
    drive = {"in": encode_spikes([80.0] * 500, 1.0)}
    t1 = simulate(c, drive, 500.0, 1.0)
    t2 = simulate(c, drive, 500.0, 1.0)
    assert t1.spikes == t2.spikes
    assert t1.potentials.tobytes() == t2.potentials.tobytes()


def _random_circuit(rng: random.Random, order: list[int]) -> CircuitGraph:
    n = 6
    c = CircuitGraph()
    params = NeuronParams()
    for i in order:
        c.add_neuron(f"n{i}", params)
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(edges)
    for i, j in edges[:12]:
        kind = EXC if (i + j) % 2 else INH
        c.add_synapse(f"n{i}", f"n{j}", kind, 0.2 + 0.1 * ((i * 7 + j) % 5),
                      delay=1 + (i + j) % 3)
    c.add_input_port("in", "n0", weight=1.2)
    return c


def test_trace_independent_of_construction_order():
    rng1, rng2 = random.Random(7), random.Random(7)
    c1 = _random_circuit(rng1, list(range(6)))
    order = list(range(6))
    random.Random(3).shuffle(order)
    c2 = _random_circuit(rng2, order)
    drive = {"in": encode_spikes([150.0] * 400, 1.0)}
    t1 = simulate(c1, drive, 400.0, 1.0)
    t2 = simulate(c2, drive, 400.0, 1.0)
    for nid in t1.spikes:
        assert t1.spikes[nid] == t2.spikes[nid]
        assert _column(t1, nid) == _column(t2, nid)


def test_refractory_gap_holds_on_random_circuits():
    for seed in range(5):
        rng = random.Random(seed)
        c = _random_circuit(rng, list(range(6)))
        drive = {"in": encode_spikes([300.0] * 600, 1.0)}
        trace = simulate(c, drive, 600.0, 1.0)
        for nid, times in trace.spikes.items():
            for a, b in zip(times, times[1:]):
                assert b - a >= 2.0, f"{nid}: {a} -> {b}"


def test_halving_dt_barely_moves_subthreshold_potentials():
    # Synapse-free port-driven neuron over 1 s; drive times sit on both grids.
    drive_times = tuple(float(t) for t in range(10, 1000, 40))
    params = NeuronParams()
    traces = {}
    for dt in (1.0, 0.5):
        c = CircuitGraph()
        c.add_neuron("n", params)
        c.add_input_port("in", "n", weight=0.4)
        traces[dt] = simulate(c, {"in": SpikeTrain(drive_times)}, 1000.0, dt)
    coarse = _column(traces[1.0], "n")
    fine = _column(traces[0.5], "n")
    worst = max(abs(coarse[k] - fine[2 * k + 1]) for k in range(1000))
    assert worst < 0.05 * params.v_threshold


def test_duration_must_divide_by_dt():
    c = _relay_pair(1.0, EXC)
    with pytest.raises(ValueError):
        simulate(c, {}, 10.5, 1.0)
    with pytest.raises(ValueError):
        simulate(c, {}, -5.0, 1.0)


def test_neuron_params_invariants():
    with pytest.raises(ValueError):
        NeuronParams(tau_m=0.0)
    with pytest.raises(ValueError):
        NeuronParams(refractory=-1.0)
    with pytest.raises(ValueError):
        NeuronParams(v_reset=1.0, v_threshold=1.0)
    with pytest.raises(ValueError):
        NeuronParams(v_rest=2.0)


# --------------------------------------------------------------------------
# simulate against the reference kernel in reference_kernel.py
# --------------------------------------------------------------------------

def _assert_matches_reference(circuit, drive, duration, dt):
    trace = simulate(circuit, drive, duration, dt)
    spikes, potentials = reference_simulate(circuit, drive, duration, dt)
    assert trace.spikes == spikes
    assert trace.neuron_ids == circuit.neuron_ids
    for nid in circuit.neuron_ids:
        assert list(map(repr, _column(trace, nid))) == list(map(repr, potentials[nid]))
    return trace


# Rest at zero, of either sign, or not; threshold equal to rest; a low
# threshold with a long refractory period, which input can hold a neuron above;
# a tau so short that a potential underflows to zero in a few steps.
_PARAMS = [
    NeuronParams(),
    NeuronParams(tau_m=5.0, refractory=0.0),
    NeuronParams(tau_m=50.0, v_threshold=0.4, refractory=8.0),
    NeuronParams(v_rest=-0.0, v_reset=-0.0, v_floor=-0.0),
    NeuronParams(v_rest=0.25, v_floor=-1.0),
    NeuronParams(v_threshold=0.0, v_reset=-0.5),
    NeuronParams(v_rest=-0.3, v_threshold=0.5, v_reset=-0.6, v_floor=-2.0),
    NeuronParams(tau_m=0.01, v_floor=-3.0),
]
_MAGNITUDES = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.3]),
                        st.floats(0.0, 2.0))
_PORT_WEIGHTS = st.one_of(st.sampled_from([1.2, 0.3, -0.4, 0.0, -0.0, -5.0]),
                          st.floats(-2.0, 2.0))


@st.composite
def _simulations(draw, zero_rest: bool):
    choices = _PARAMS
    if zero_rest:
        choices = [p for p in _PARAMS if p.v_rest == 0.0 and p.v_threshold > 0.0]
    n = draw(st.integers(1, 6))
    c = CircuitGraph()
    for i in range(n):
        c.add_neuron(f"n{i}", draw(st.sampled_from(choices)))
    for _ in range(draw(st.integers(0, 14))):
        # Repeated pre/post pairs and shared delays make coincident deliveries.
        c.add_synapse(f"n{draw(st.integers(0, n - 1))}", f"n{draw(st.integers(0, n - 1))}",
                      draw(st.sampled_from([EXC, INH])), draw(_MAGNITUDES),
                      delay=draw(st.integers(1, 3)))
    dt = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    n_steps = draw(st.integers(1, 300))
    drive = {}
    for p in range(draw(st.integers(1, 3))):
        c.add_input_port(f"p{p}", f"n{draw(st.integers(0, n - 1))}", draw(_PORT_WEIGHTS))
        steps = draw(st.sets(st.integers(0, n_steps - 1), max_size=60))
        drive[f"p{p}"] = SpikeTrain(tuple(k * dt for k in sorted(steps)))
    return c, drive, n_steps * dt, dt


@settings(max_examples=300, deadline=None)
@given(_simulations(zero_rest=False))
def test_simulate_matches_reference_kernel(case):
    _assert_matches_reference(*case)


@settings(max_examples=200, deadline=None)
@given(_simulations(zero_rest=True))
def test_quiet_span_shortcut_matches_reference_kernel(case):
    # Every neuron rests at zero below threshold, so quiet stretches are
    # filled in blocks rather than stepped.
    _assert_matches_reference(*case)


def test_coincident_mixed_sign_deliveries_use_exact_summation():
    # Three deliveries land on b in one step; naive left-to-right summation of
    # them differs from the correctly rounded sum.
    weights = [(EXC, 0.1), (EXC, 0.2), (INH, 0.3)]
    naive = 0.0
    for kind, w in weights:
        naive += kind.sign * w
    exact = math.fsum(kind.sign * w for kind, w in weights)
    assert naive != exact
    c = CircuitGraph()
    c.add_neuron("a", NeuronParams())
    c.add_neuron("b", NeuronParams())
    for kind, w in weights:
        c.add_synapse("a", "b", kind, w, delay=2)
    c.add_input_port("in", "a", weight=1.2)
    trace = _assert_matches_reference(c, {"in": SpikeTrain((3.0,))}, 10.0, 1.0)
    assert _column(trace, "b")[5] == exact


def test_neuron_held_above_threshold_fires_when_refractory_ends():
    params = NeuronParams(tau_m=50.0, v_threshold=0.4, refractory=8.0)
    drive = {"in": SpikeTrain((0.0, 2.0))}
    trace = _assert_matches_reference(_single(params, weight=1.2), drive, 20.0, 1.0)
    v = _column(trace, "n")
    assert all(x >= params.v_threshold for x in v[2:8])
    assert trace.spikes["n"] == (0.0, 8.0)


@pytest.mark.parametrize("tau_m", [1.0, 20.0])
def test_long_decay_from_floor_matches_reference(tau_m):
    # 20,000 steps from v_floor, nearly all quiet. With decay exp(-1) < 1/2 the
    # potential underflows through the subnormals to -0.0, stored as +0.0;
    # with exp(-1/20) each product rounds back up to the same subnormal.
    params = NeuronParams(tau_m=tau_m, v_floor=-1.0)
    trace = _assert_matches_reference(_single(params, weight=-5.0),
                                      {"in": SpikeTrain((0.0,))}, 20000.0, 1.0)
    v = _column(trace, "n")
    assert v[0] == -1.0
    if tau_m == 1.0:
        assert repr(v[-1]) == "0.0" and v.index(0.0) < 1000
    else:
        assert v[-1] == v[15000] == -5e-323

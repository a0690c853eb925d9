"""Reference LIF kernel: one state object per neuron, every neuron stepped on
every step. `ctd.core.simulate` must reproduce it bit for bit; the property
tests in test_core.py compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ctd.core import CircuitGraph, NeuronParams
from ctd.world import SpikeTrain


@dataclass
class NeuronState:
    v: float
    refractory_until: float = -math.inf


def step_neuron(state: NeuronState, params: NeuronParams, synaptic_input: float,
                t: float, dt: float) -> tuple[NeuronState, bool]:
    """Exact exponential leak toward rest at 0, then the summed input delta,
    then the floor; past the refractory window, reaching threshold fires and
    resets."""
    decay = math.exp(-dt / params.tau_m)
    v = 0.0 + (state.v - 0.0) * decay + synaptic_input
    if v < params.v_floor:
        v = params.v_floor
    if t >= state.refractory_until and v >= params.v_threshold:
        return NeuronState(v=params.v_reset, refractory_until=t + params.refractory), True
    return NeuronState(v=v, refractory_until=state.refractory_until), False


def reference_simulate(circuit: CircuitGraph, drive: Mapping[str, SpikeTrain],
                       duration: float, dt: float,
                       ) -> tuple[dict[str, tuple[float, ...]], dict[str, tuple[float, ...]]]:
    """Spike times and potentials per neuron id, stepping every neuron on
    every step. Deliveries due at a step are summed with math.fsum; spikes
    fired at a step are delivered `delay` steps later."""
    n_steps = int(round(duration / dt))
    pending: dict[int, dict[str, list[float]]] = {}
    for port, train in drive.items():
        spec = circuit.input_ports.get(port)
        if spec is None:
            raise ValueError(f"unknown port {port!r}")
        for s in train.times:
            k = int(math.floor(s / dt + 1e-9))
            pending.setdefault(k, {}).setdefault(spec.neuron, []).append(spec.weight)

    ids = circuit.neuron_ids
    states = {nid: NeuronState(v=0.0) for nid in ids}
    spikes: dict[str, list[float]] = {nid: [] for nid in ids}
    potentials: dict[str, list[float]] = {nid: [] for nid in ids}
    for k in range(n_steps):
        t = k * dt
        arrivals = pending.pop(k, {})
        fired = set()
        for nid in ids:
            inputs = arrivals.get(nid)
            drive_in = math.fsum(inputs) if inputs else 0.0
            states[nid], did_fire = step_neuron(states[nid], circuit.params_of(nid),
                                                drive_in, t, dt)
            potentials[nid].append(states[nid].v)
            if did_fire:
                fired.add(nid)
                spikes[nid].append(t)
        for syn in circuit.synapses:
            if syn.pre in fired:
                slot = pending.setdefault(k + syn.delay, {})
                slot.setdefault(syn.post, []).append(syn.signed_weight)
    return ({nid: tuple(ts) for nid, ts in spikes.items()},
            {nid: tuple(vs) for nid, vs in potentials.items()})

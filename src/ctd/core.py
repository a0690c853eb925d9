"""Discrete-time leaky integrate-and-fire dynamics over a directed circuit graph.

The model is deliberately minimal: exact exponential leak per step, synapses
deliver signed instantaneous current deltas after an integer step delay, and
all deliveries arriving at one step are summed (math.fsum, so the result does
not depend on synapse ordering) before the threshold test. Every neuron rests
at 0 below a positive threshold, and one step of a neuron is

    v <- 0.0 + v * exp(-dt / tau_m) + sum(deliveries)

clamped below at v_floor <= min(v_reset, 0); the neuron fires, resets to
v_reset and starts its refractory period when v reaches v_threshold and t is
at or past the end of the previous refractory period. A spike fired at step k
reaches its targets at step k + delay, never within step k (observation, then
commit); each drive spike delivers its input port's weight once.

`simulate` holds the state in the potentials array and is event driven, in
the hybrid clock/event scheme of Brette et al. (2007). Every row of the array
starts as the neurons' decay factors, and every stretch of steps up to and
including the next event step is decayed in place as one block: its first
row is multiplied by the potentials before it, one np.multiply.accumulate
over (steps, neurons) carries the products down a stretch of more than one
row, and + 0.0 follows. Row k is v * decay + 0.0, which equals the update
above without deliveries, signed zeros included, and is never -0.0. An
event step is one at which some delivery is due, or the step after one that
left a neuron at or above its threshold inside its refractory period; at it,
only the neurons with arrivals or left at threshold are updated, from their
decayed value: x = row + fsum(deliveries), which is the update above bit for
bit. Every other neuron lay below its positive threshold and at or above
v_floor <= 0, so decay alone can neither fire nor clamp it. Rotter &
Diesmann (1999) advance linear stretches with the closed-form propagator
decay**span; the block multiplies the stretch out step by step instead,
because decay**span rounds differently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import DuplicatePort, UnknownNeuron, UnknownPort
from .world import SpikeTrain


@dataclass(frozen=True)
class NeuronParams:
    """Membrane constants; times in ms, potentials dimensionless."""

    tau_m: float = 20.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    refractory: float = 2.0
    v_floor: float = -1.0

    def __post_init__(self) -> None:
        if self.tau_m <= 0:
            raise ValueError("tau_m must be positive")
        if self.refractory < 0:
            raise ValueError("refractory must be nonnegative")
        if not self.v_threshold > 0:
            raise ValueError("v_threshold must lie above the resting potential 0")
        if not self.v_reset < self.v_threshold:
            raise ValueError("v_reset must lie below v_threshold")
        if not self.v_floor <= min(self.v_reset, 0.0):
            raise ValueError("v_floor must lie at or below v_reset and 0")


class ConnectionKind(Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"

    @property
    def sign(self) -> int:
        return 1 if self is ConnectionKind.EXCITATORY else -1


@dataclass(frozen=True)
class Synapse:
    pre: str
    post: str
    kind: ConnectionKind
    magnitude: float
    delay: int = 1

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise ValueError("synapse magnitude must be nonnegative")
        if self.delay < 1:
            raise ValueError("synapse delay must be at least one step")

    @property
    def signed_weight(self) -> float:
        return self.kind.sign * self.magnitude


@dataclass(frozen=True)
class InputPort:
    neuron: str
    weight: float


class CircuitGraph:
    """Neurons, delayed signed synapses, and named injection ports.

    Mutable while circuit constructors run; treated as immutable afterwards.
    """

    def __init__(self) -> None:
        self._params: dict[str, NeuronParams] = {}
        self._roles: dict[str, str] = {}
        self.synapses: list[Synapse] = []
        self.input_ports: dict[str, InputPort] = {}

    @property
    def neuron_ids(self) -> tuple[str, ...]:
        return tuple(self._params)

    def __contains__(self, neuron_id: str) -> bool:
        return neuron_id in self._params

    def params_of(self, neuron_id: str) -> NeuronParams:
        try:
            return self._params[neuron_id]
        except KeyError:
            raise UnknownNeuron(neuron_id) from None

    def role_of(self, neuron_id: str) -> str:
        self.params_of(neuron_id)
        return self._roles[neuron_id]

    def add_neuron(self, neuron_id: str, params: NeuronParams = NeuronParams(),
                   role: str = "") -> None:
        if neuron_id in self._params:
            raise ValueError(f"duplicate neuron id {neuron_id!r}")
        self._params[neuron_id] = params
        self._roles[neuron_id] = role

    def add_synapse(self, pre: str, post: str, kind: ConnectionKind,
                    magnitude: float, delay: int = 1) -> Synapse:
        for endpoint in (pre, post):
            if endpoint not in self._params:
                raise UnknownNeuron(endpoint)
        syn = Synapse(pre, post, kind, magnitude, delay)
        self.synapses.append(syn)
        return syn

    def add_input_port(self, name: str, neuron_id: str, weight: float) -> None:
        if name in self.input_ports:
            raise DuplicatePort(name)
        if neuron_id not in self._params:
            raise UnknownNeuron(neuron_id)
        self.input_ports[name] = InputPort(neuron_id, weight)


@dataclass(frozen=True)
class Trace:
    """Complete record of one simulation: spike times and sampled potentials.

    `potentials[k, j]` is the membrane potential of neuron `neuron_ids[j]`
    after step k, one float64 row per step.
    """

    dt: float
    duration: float
    spikes: dict[str, tuple[float, ...]]
    potentials: np.ndarray

    @property
    def neuron_ids(self) -> tuple[str, ...]:
        return tuple(self.spikes)


def simulate(circuit: CircuitGraph, drive: Mapping[str, SpikeTrain],
             duration: float, dt: float) -> Trace:
    """Run the circuit against per-port drive trains; deterministic end to end.

    Each stretch up to the next event step decays in one block; at the event
    step only the neurons it touches are updated (module docstring).
    """
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ValueError("duration and dt must be positive and finite")
    n_steps = int(round(duration / dt))
    if abs(n_steps * dt - duration) > 1e-9:
        raise ValueError("duration must be an integer multiple of dt")

    ids = circuit.neuron_ids
    index = {nid: i for i, nid in enumerate(ids)}
    # pending[k][i]: the signed weights that arrive at neuron i at step k;
    # `due` is a heap of the keys of `pending`.
    pending: dict[int, dict[int, list[float]]] = {}
    for port, train in drive.items():
        spec = circuit.input_ports.get(port)
        if spec is None:
            raise UnknownPort(port)
        for s in train.times:
            if not (0.0 <= s < duration):
                raise ValueError(f"drive spike {s} outside [0, {duration})")
            k = int(math.floor(s / dt + 1e-9))
            pending.setdefault(k, {}).setdefault(index[spec.neuron], []).append(spec.weight)
    due = list(pending)
    heapq.heapify(due)
    outgoing: list[list[tuple[int, int, float]]] = [[] for _ in ids]
    for syn in circuit.synapses:
        outgoing[index[syn.pre]].append((syn.delay, index[syn.post], syn.signed_weight))

    params = [circuit.params_of(nid) for nid in ids]
    v_threshold = [p.v_threshold for p in params]
    v_reset = [p.v_reset for p in params]
    v_floor = [p.v_floor for p in params]
    refractory = [p.refractory for p in params]

    n = len(ids)
    refractory_until = [-math.inf] * n
    spikes: list[list[float]] = [[] for _ in ids]
    # Every row starts as the decay factors; a stretch multiplies its rows
    # out in place, and no row is written before its stretch.
    potentials = np.empty((n_steps, n))
    potentials[:] = [math.exp(-dt / p.tau_m) for p in params]
    v = np.zeros(n)  # the potentials after the previous step
    hot: list[int] = []  # neurons the previous step left at or above threshold
    k = 0
    while k < n_steps:
        # The next event step, or the last step if none is left.
        event = k if hot else min(due[0], n_steps - 1) if due else n_steps - 1
        # Row j of the block is v * decay**(j+1), multiplied one step at a
        # time; + 0.0 gives a zero the sign the scalar update gives it.
        block = potentials[k:event + 1]
        block[0] *= v
        if event > k:
            np.multiply.accumulate(block, axis=0, out=block)
        block += 0.0
        v = block[-1]
        k = event + 1

        arrivals: dict[int, list[float]] = {}
        if due and due[0] == event:
            heapq.heappop(due)
            arrivals = pending.pop(event)
        t = event * dt
        touched = arrivals.keys() | hot
        hot = []
        fired = []
        for i in touched:
            inputs = arrivals.get(i)
            x = v.item(i) + math.fsum(inputs) if inputs else v.item(i)
            if x < v_floor[i]:
                x = v_floor[i]
            if x >= v_threshold[i]:
                if t >= refractory_until[i]:
                    x = v_reset[i]
                    refractory_until[i] = t + refractory[i]
                    fired.append(i)
                else:
                    hot.append(i)
            v[i] = x

        for i in fired:
            spikes[i].append(t)
            for delay, post, weight in outgoing[i]:
                slot = pending.get(event + delay)
                if slot is None:
                    slot = pending[event + delay] = {}
                    heapq.heappush(due, event + delay)
                slot.setdefault(post, []).append(weight)

    return Trace(dt=dt, duration=duration,
                 spikes={nid: tuple(spikes[i]) for i, nid in enumerate(ids)},
                 potentials=potentials)

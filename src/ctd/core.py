"""Discrete-time leaky integrate-and-fire dynamics over a directed circuit graph.

The model is deliberately minimal: exact exponential leak per step, synapses
deliver signed instantaneous current deltas after an integer step delay, and
all deliveries arriving at one step are summed (math.fsum, so the result does
not depend on synapse ordering) before the threshold test. One step of a
neuron is

    v <- v_rest + (v - v_rest) * exp(-dt / tau_m) + sum(deliveries)

clamped below at v_floor; the neuron fires, resets to v_reset and starts its
refractory period when v reaches v_threshold and t is at or past the end of
the previous refractory period. A spike fired at step k reaches its targets
at step k + delay, never within step k (observation, then commit); each drive
spike delivers its input port's weight once.

`simulate` holds the state as plain per-neuron lists and is event driven. It
applies that update to every neuron, one step at a time, only at event steps:
a step at which some delivery is due, and the step after one that left a
neuron at or above its threshold. Between events every neuron only decays.
When every neuron has v_rest == 0 and v_threshold > v_rest, a decaying neuron
can neither fire nor reach its floor, and the update reduces to
0.0 + v * decay + 0.0. A quiet stretch is then filled with one
np.multiply.accumulate over a (steps, neurons) block, which multiplies in the
same order, followed by + 0.0, which gives a zero the same sign: the
potentials are bit-identical to stepping. A circuit with any other neuron
treats every step as an event. Rotter & Diesmann (1999) advance such linear
stretches with the closed-form propagator decay**span; the block multiplies
the stretch out step by step instead, because decay**span rounds differently.
"""

from __future__ import annotations

import bisect
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
    v_rest: float = 0.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    refractory: float = 2.0
    v_floor: float = -1.0

    def __post_init__(self) -> None:
        if self.tau_m <= 0:
            raise ValueError("tau_m must be positive")
        if self.refractory < 0:
            raise ValueError("refractory must be nonnegative")
        if not self.v_reset < self.v_threshold:
            raise ValueError("v_reset must lie below v_threshold")
        if not self.v_rest <= self.v_threshold:
            raise ValueError("v_rest must not exceed v_threshold")
        if self.v_floor > min(self.v_reset, self.v_rest):
            raise ValueError("v_floor must lie at or below v_reset and v_rest")


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

    def spike_count(self, neuron_id: str, t0: float, t1: float) -> int:
        """Spikes of one neuron in the half-open window [t0, t1)."""
        times = self.spikes[neuron_id]
        return bisect.bisect_left(times, t1) - bisect.bisect_left(times, t0)

    def first_spike(self, neuron_id: str, t0: float, t1: float) -> float | None:
        times = self.spikes[neuron_id]
        lo = bisect.bisect_left(times, t0)
        if lo < len(times) and times[lo] < t1:
            return times[lo]
        return None

    def last_spike_time(self) -> float | None:
        last = None
        for times in self.spikes.values():
            if times and (last is None or times[-1] > last):
                last = times[-1]
        return last


def simulate(circuit: CircuitGraph, drive: Mapping[str, SpikeTrain],
             duration: float, dt: float) -> Trace:
    """Run the circuit against per-port drive trains; deterministic end to end.

    Steps that receive a delivery, and steps after one that left a neuron at
    or above threshold, are stepped one at a time; the quiet stretches between
    them are filled in one block when the circuit allows it (module docstring).
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
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
    decay = [math.exp(-dt / p.tau_m) for p in params]
    v_rest = [p.v_rest for p in params]
    v_threshold = [p.v_threshold for p in params]
    v_reset = [p.v_reset for p in params]
    v_floor = [p.v_floor for p in params]
    refractory = [p.refractory for p in params]
    every_step = not all(p.v_rest == 0.0 and p.v_threshold > p.v_rest for p in params)

    n = len(ids)
    v = list(v_rest)
    refractory_until = [-math.inf] * n
    spikes: list[list[float]] = [[] for _ in ids]
    potentials = np.empty((n_steps, n))
    decay_row = np.array(decay)
    hot = every_step  # whether step k must be stepped even without arrivals
    k = 0
    while k < n_steps:
        quiet_end = k if hot else (min(due[0], n_steps) if due else n_steps)
        if quiet_end > k:
            # Row j of the block is v * decay**(j+1), multiplied one step at a
            # time; + 0.0 gives a zero the sign the scalar update gives it.
            block = potentials[k:quiet_end]
            block[:] = decay_row
            block[0] *= v
            np.multiply.accumulate(block, axis=0, out=block)
            block += 0.0
            v = block[-1].tolist()
            k = quiet_end
            continue

        t = k * dt
        arrivals: dict[int, list[float]] = {}
        if due and due[0] == k:
            heapq.heappop(due)
            arrivals = pending.pop(k)
        hot = every_step
        fired = []
        for i in range(n):
            inputs = arrivals.get(i)
            x = (v_rest[i] + (v[i] - v_rest[i]) * decay[i]
                 + (math.fsum(inputs) if inputs else 0.0))
            if x < v_floor[i]:
                x = v_floor[i]
            if x >= v_threshold[i]:
                if t >= refractory_until[i]:
                    x = v_reset[i]
                    refractory_until[i] = t + refractory[i]
                    fired.append(i)
                else:
                    hot = True
            v[i] = x
        potentials[k] = v

        for i in fired:
            spikes[i].append(t)
            for delay, post, weight in outgoing[i]:
                slot = pending.get(k + delay)
                if slot is None:
                    slot = pending[k + delay] = {}
                    heapq.heappush(due, k + delay)
                slot.setdefault(post, []).append(weight)
        k += 1

    return Trace(dt=dt, duration=duration,
                 spikes={nid: tuple(spikes[i]) for i, nid in enumerate(ids)},
                 potentials=potentials)

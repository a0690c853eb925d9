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

`simulate` holds the state in one buffer and is event driven, in the hybrid
clock/event scheme of Brette et al. (2007). Row k + 1 holds the potentials
after step k and row 0 the rest state; every later row starts as the decay
factors. One numpy call decays each stretch of steps up to and including the
next event step in place: np.multiply by the row before it for one row,
np.multiply.accumulate over the stretch and that row for more. A row is then
v * decay, the update above without deliveries, but may hold -0.0 where the
update gives 0.0: the sign of a zero never changes a product's magnitude, and
one + 0.0 over the finished array fixes it. An event step is one at which
some delivery is due, or the step after one that left a neuron at or above
its threshold inside its refractory period. At it, only the neurons with
arrivals or left at threshold are updated, from their decayed value:
x = row + s + 0.0, with s the one delivery or the fsum of several. That is
the update above bit for bit, + 0.0 giving a sum of two zeros the sign of
0.0 + row + s, and never -0.0; a -0.0 set by a reset or the floor is written
back after the final + 0.0. Every other neuron lay below its positive
threshold and at or above v_floor <= 0, so decay alone can neither fire nor
clamp it. So a synapse of magnitude 0 is never queued: its +-0.0 could
change only the sign of a zero, which the + 0.0 settles. Rotter & Diesmann
(1999) advance linear stretches with the closed-form propagator decay**span,
which rounds differently.

Neurons that a `known` trace also holds are copied from it, not simulated,
since a neuron moves only by its own drive and arrivals: their drive is
skipped, and each of their spikes at step k is queued for the others at
k + delay. A synapse into them from another neuron raises. The result is the
full run bit for bit if `known` was simulated with the same dt and duration,
the shared neurons having the same parameters, ports, drive and synapses
among themselves.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

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
            raise ValueError(f"unknown neuron {neuron_id!r}") from None

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
                raise ValueError(f"unknown neuron {endpoint!r}")
        syn = Synapse(pre, post, kind, magnitude, delay)
        self.synapses.append(syn)
        return syn

    def add_input_port(self, name: str, neuron_id: str, weight: float) -> None:
        if name in self.input_ports:
            raise ValueError(f"duplicate port {name!r}")
        if neuron_id not in self._params:
            raise ValueError(f"unknown neuron {neuron_id!r}")
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
             duration: float, dt: float, known: Trace | None = None) -> Trace:
    """Run the circuit against per-port drive trains; deterministic end to end.

    Each stretch up to the next event step decays in one numpy call; at the
    event step only the neurons it touches are updated. Neurons `known` also
    holds are copied from it (module docstring).
    """
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ValueError("duration and dt must be positive and finite")
    n_steps = int(round(duration / dt))
    if abs(n_steps * dt - duration) > 1e-9:
        raise ValueError("duration must be an integer multiple of dt")

    ids = circuit.neuron_ids
    index = {nid: i for i, nid in enumerate(ids)}
    # shared[nid]: the column in `known` of a neuron taken from it.
    shared = {} if known is None else {
        nid: j for j, nid in enumerate(known.neuron_ids) if nid in index}
    # pending[k][i]: the signed weights that arrive at neuron i at step k;
    # `due` is a heap of the keys of `pending`.
    pending: dict[int, dict[int, list[float]]] = {}
    for port, train in drive.items():
        spec = circuit.input_ports.get(port)
        if spec is None:
            raise ValueError(f"unknown port {port!r}")
        if spec.neuron in shared:
            continue
        for s in train.times:
            if not (0.0 <= s < duration):
                raise ValueError(f"drive spike {s} outside [0, {duration})")
            k = int(math.floor(s / dt + 1e-9))
            pending.setdefault(k, {}).setdefault(index[spec.neuron], []).append(spec.weight)
    outgoing: list[list[tuple[int, int, float]]] = [[] for _ in ids]
    for syn in circuit.synapses:
        if syn.post in shared:
            if syn.pre not in shared:
                raise ValueError(f"synapse {syn.pre} -> {syn.post} drives a known neuron")
            continue
        if syn.magnitude:  # a zero delivery changes no potential (module docstring)
            outgoing[index[syn.pre]].append((syn.delay, index[syn.post], syn.signed_weight))
    for nid in shared:
        for t in known.spikes[nid]:
            for delay, post, weight in outgoing[index[nid]]:
                pending.setdefault(round(t / dt) + delay, {}).setdefault(post, []).append(weight)
    due = list(pending)
    heapq.heapify(due)

    params = [circuit.params_of(nid) for nid in ids]
    v_threshold = [p.v_threshold for p in params]
    v_reset = [p.v_reset for p in params]
    v_floor = [p.v_floor for p in params]
    refractory = [p.refractory for p in params]

    n = len(ids)
    refractory_until = [-math.inf] * n
    spikes: list[list[float]] = [[] for _ in ids]
    # Row k + 1 holds the potentials after step k; a stretch multiplies its
    # rows out in place, and no row is written before its stretch.
    buf = np.empty((n_steps + 1, n))
    buf[0] = 0.0
    buf[1:] = [math.exp(-dt / p.tau_m) for p in params]
    signed: list[tuple[int, int]] = []  # event cells set to -0.0 by reset or floor
    hot: list[int] = []  # neurons the previous step left at or above threshold
    multiply, accumulate = np.multiply, np.multiply.accumulate
    heappop, heappush, fsum, copysign = heapq.heappop, heapq.heappush, math.fsum, math.copysign
    v = buf[0]  # the potentials after the previous step
    k = 0
    while k < n_steps:
        # The next event step, or the last step if none is left.
        event = k if hot else due[0] if due and due[0] < n_steps else n_steps - 1
        # One numpy call decays the stretch from v.
        if event == k:
            row = buf[k + 1]
            v = multiply(v, row, out=row)
        else:
            rows = buf[k:event + 2]
            v = accumulate(rows, axis=0, out=rows)[-1]
        k = event + 1

        if due and due[0] == event:
            heappop(due)
            arrivals = pending.pop(event)
        else:
            arrivals = {}
        t = event * dt
        touched = arrivals.keys() | hot if hot else arrivals
        hot = []
        for i in touched:
            inputs = arrivals.get(i)
            x = v.item(i)
            if inputs:  # + 0.0 gives a zero the sign the scalar update gives it
                x = x + (inputs[0] if len(inputs) == 1 else fsum(inputs)) + 0.0
            if x < v_floor[i]:
                x = v_floor[i]
            if x >= v_threshold[i]:
                if t >= refractory_until[i]:
                    x = v_reset[i]
                    refractory_until[i] = t + refractory[i]
                    spikes[i].append(t)
                    # Every delay is at least 1, so no delivery lands in
                    # `arrivals`.
                    for delay, post, weight in outgoing[i]:
                        slot = pending.get(event + delay)
                        if slot is None:
                            slot = pending[event + delay] = {}
                            heappush(due, event + delay)
                        inbox = slot.get(post)
                        if inbox is None:
                            slot[post] = [weight]
                        else:
                            inbox.append(weight)
                else:
                    hot.append(i)
            v[i] = x
            if not x and copysign(1.0, x) < 0.0:
                signed.append((event, i))

    potentials = buf[1:]
    potentials += 0.0
    for row, i in signed:
        potentials[row, i] = -0.0
    for nid, j in shared.items():
        potentials[:, index[nid]] = known.potentials[:, j]
        spikes[index[nid]] = known.spikes[nid]
    return Trace(dt=dt, duration=duration,
                 spikes={nid: tuple(spikes[i]) for i, nid in enumerate(ids)},
                 potentials=potentials)

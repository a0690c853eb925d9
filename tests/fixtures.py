"""Test-only helpers that the pipeline never calls."""

from __future__ import annotations

import numpy as np

from ctd.core import CircuitGraph, ConnectionKind, NeuronParams
from ctd.errors import CtdError
from ctd.world import Point, Trajectory


class OutOfRange(CtdError):
    """A trajectory was queried outside [0, duration]."""


def agent_position(traj: Trajectory, t_ms: float) -> Point:
    """Agent position at time t, one point of `positions`; raises OutOfRange
    outside [0, duration]."""
    if not (0.0 <= t_ms <= traj.duration_ms):
        raise OutOfRange(f"t={t_ms} outside [0, {traj.duration_ms}]")
    x, y = traj.positions(np.array([t_ms], dtype=np.float64))
    return float(x[0]), float(y[0])


def build_excitatory_loop_fixture(w_loop: float = 1.2) -> tuple[CircuitGraph, str]:
    """Judge-bank-styled neuron with an excitatory feedback synapse.

    One suprathreshold kick makes it re-fire itself forever; the contrast
    fixture for the seizure-damping checks, a circuit `build_ctd` never makes.
    """
    circuit = CircuitGraph()
    circuit.add_neuron("loop", NeuronParams(), role="judge")
    circuit.add_synapse("loop", "loop", ConnectionKind.EXCITATORY, w_loop, delay=3)
    circuit.add_input_port("kick", "loop", weight=w_loop)
    return circuit, "kick"

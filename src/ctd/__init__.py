"""Spiking curved-trajectory detection for a proximity-sensing robot.

Direction comes from ternary rings of mutually inhibiting detectors (PDD);
depth (approaching N, straight M, receding F) comes either from cascaded
4-neuron depth modules (DDM) or from a weight-tuned judge bank, with a signed
cross-correlation classifier as an independent analytic cross-check.
"""

from .circuits import (CognitiveReadout, CtdHandles, CtdParams,
                       DEFAULT_JUDGE_MATRIX, DdmUnit, DepthState, Direction,
                       JudgeBank, PddUnit, build_ctd, build_ddm_unit,
                       build_excitatory_loop_fixture, build_judge_bank,
                       build_pdd_chain, build_pdd_unit, classify,
                       dominant_readout, read_depth, read_direction,
                       trace_direction)
from .core import (CircuitGraph, ConnectionKind, NeuronParams, NeuronState,
                   Synapse, Trace, initial_state, simulate, step_circuit,
                   step_neuron)
from .correlation import (BinnedTrain, CorrelationParams, CorrelationProfile,
                          bin_spikes, classify_by_correlation,
                          normalized_profile, signed_xcorr, xcorr)
from .errors import (BadArity, BinMismatch, CtdError, DuplicatePort,
                     HorizonTooShort, NegativeDistance, NegativeWeight,
                     OutOfRange, ParseError, UnknownKey, UnknownNeuron,
                     UnknownPort, ValidationError)
from .harness import (RunArtifacts, VariantComparison, VariationMetrics,
                      compare_variants, emit_outputs, pdd_exclusivity_ok,
                      potential_variation, run_scenario, seizure_damped)
from .scenario import Scenario, emit_scenario, parse_scenario
from .suite import canonical_scenario, mirror_scenario, scripted_suite, write_suite
from .version import __version__
from .world import (Approach, Encoding, Pose, Recede, SensorSpec, SpikeTrain,
                    Tangent, Trajectory, Waypoints, agent_position,
                    default_fan_config, encode_spikes, mirror_sensors,
                    mirror_trajectory, rate_from_distance, sense_scenario,
                    sensor_distance)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Scenario document parsing, validation, and round-tripping."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

from ctd.errors import CtdError, ParseError, UnknownKey, ValidationError
from ctd.scenario import (OVERRIDE_KEYS, Scenario, default_fan_config,
                          emit_scenario, parse_scenario)
from ctd.suite import scripted_suite
from ctd.world import Approach, Encoding, SensorSpec, Waypoints


def test_minimal_document_takes_defaults():
    s = parse_scenario('{"trajectory": {"kind": "approach"}, '
                       '"time": {"duration_ms": 5000}}')
    assert s.name == "scenario"
    assert s.dt_ms == 1.0
    assert s.duration_ms == 5000.0
    assert s.seed == 0
    assert s.encoding is Encoding.DETERMINISTIC_PHASE
    assert len(s.sensors) == 6
    assert isinstance(s.trajectory, Approach)
    assert s.variant == "ddm"
    assert s.overrides == {}


def test_sensor_count_must_divide_by_three():
    doc = {"trajectory": {"kind": "tangent"}, "sensors": {"fan": 4}}
    with pytest.raises(ValidationError, match="divisible by 3"):
        parse_scenario(json.dumps(doc))


def test_round_trip_is_lossless_for_both_variants():
    for variant in ("ddm", "weights"):
        doc = {
            "name": f"rt-{variant}",
            "time": {"dt_ms": 0.5, "duration_ms": 4000},
            "seed": 9,
            "encoding": "poisson",
            "robot": {"x": 0.25, "y": -1.0, "heading_deg": 90.0},
            "sensors": [{"mount_deg": m} for m in (-30, 0, 30)],
            "trajectory": {"kind": "tangent", "closest": [0.1, 1.2],
                           "velocity_mps": [0.4, 0.0], "t_center_ms": 1500},
            "circuit": variant,
            "overrides": {"w_inh": 0.5, "theta_active": 4},
        }
        first = parse_scenario(json.dumps(doc))
        second = parse_scenario(emit_scenario(first))
        assert first == second
        assert parse_scenario(emit_scenario(second)) == second


def _positive_finite():
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


_SENSORS = st.builds(
    SensorSpec,
    mount_deg=st.floats(allow_nan=False, allow_infinity=False),
    cone_half_deg=st.floats(min_value=0.0, max_value=180.0, exclude_min=True),
    range_m=_positive_finite(),
    r_max_hz=_positive_finite())


@given(st.integers(1, 4).flatmap(
    lambda units: st.lists(_SENSORS, min_size=3 * units, max_size=3 * units)))
def test_explicit_sensor_lists_round_trip(sensors):
    s = Scenario(sensors=tuple(sensors))
    back = parse_scenario(emit_scenario(s))
    assert back == s
    for a, b in zip(back.sensors, s.sensors):
        assert (a.mount_angle, a.cone_half_angle) == (b.mount_angle, b.cone_half_angle)


def test_scripted_suite_round_trips():
    for s in scripted_suite():
        assert parse_scenario(emit_scenario(s)) == s


def test_unknown_keys_are_rejected():
    with pytest.raises(UnknownKey):
        parse_scenario('{"bogus": 1}')
    with pytest.raises(UnknownKey):
        parse_scenario('{"time": {"dt": 1.0}}')
    with pytest.raises(UnknownKey):
        parse_scenario('{"trajectory": {"kind": "tangent", "speed": 1}}')
    with pytest.raises(UnknownKey):
        parse_scenario('{"overrides": {"not_a_knob": 1.0}}')


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_scenario('{"name": }')
    assert info.value.line == 1
    assert info.value.column is not None


def test_type_errors_are_validation_errors():
    bad_docs = [
        '{"name": 3}',
        '{"seed": "x"}',
        '{"seed": true}',
        '{"encoding": "psychic"}',
        '{"time": {"duration_ms": "long"}}',
        '{"time": {"duration_ms": -5}}',
        '{"circuit": "thoughts"}',
        '{"trajectory": {"kind": "spiral"}}',
        '{"trajectory": {"kind": "waypoints"}}',
        '{"trajectory": {"kind": "waypoints", "points": [[0, [0, 0]], [0, [1, 1]]]}}',
        '{"trajectory": {"kind": "approach", "speed_mps": 0}}',
        '{"sensors": []}',
        '{"sensors": [{"cone_half_deg": 15}]}',
        '{"overrides": {"w_inh": "strong"}}',
        '{"expect": {"depth": "X"}}',
        '{"expect": {"direction": "sideways"}}',
        '[1, 2, 3]',
    ]
    for doc in bad_docs:
        with pytest.raises((ValidationError, UnknownKey)):
            parse_scenario(doc)


def test_parser_total_over_junk_inputs():
    rng = random.Random(123)
    alphabet = '{}[]",:0123456789abctrue false\n'
    for _ in range(300):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse_scenario(junk)
        except CtdError:
            pass  # structured failure is the contract; anything else escapes


def test_overrides_reach_the_parameter_sets():
    doc = {"trajectory": {"kind": "tangent"},
           "overrides": {"w_inh": 0.9, "theta_active": 5,
                         "corr_theta_m": 0.8, "corr_lag_bins": 4}}
    s = parse_scenario(json.dumps(doc))
    params = s.ctd_params()
    assert params.w_inh == 0.9
    assert params.theta_active == 5
    corr = s.correlation_params()
    assert corr.theta_m == 0.8
    assert corr.lag_bins == 4
    assert corr.bin_width_ms == 10.0  # untouched default


def test_override_keys_cover_every_circuit_and_correlation_knob():
    assert "w_ext" in OVERRIDE_KEYS
    assert "assess_tau" in OVERRIDE_KEYS
    assert "window_ms" in OVERRIDE_KEYS
    assert "corr_min_rate_hz" in OVERRIDE_KEYS


def test_waypoints_round_trip():
    doc = {"time": {"duration_ms": 2000},
           "trajectory": {"kind": "waypoints",
                          "points": [[0, [0, 0]], [1000, [1, 0]], [2000, [1, 1]]]}}
    s = parse_scenario(json.dumps(doc))
    assert isinstance(s.trajectory, Waypoints)
    assert parse_scenario(emit_scenario(s)) == s


def test_scenario_invariants_checked_on_construction():
    with pytest.raises(ValidationError):
        Scenario(duration_ms=-1.0)
    with pytest.raises(ValidationError):
        Scenario(sensors=default_fan_config(6)[:4])
    with pytest.raises(UnknownKey):
        Scenario(overrides={"mystery": 1.0})

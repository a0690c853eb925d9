"""Scenario document parsing, validation, and round-tripping."""

from __future__ import annotations

import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from ctd import errors
from ctd.errors import CtdError, ParseError, ValidationError
from ctd.scenario import (OVERRIDE_KEYS, Scenario, canonical_trajectory,
                          default_fan_config, emit_scenario, parse_scenario)
from ctd.suite import scripted_suite, write_suite
from ctd.world import (Approach, Encoding, Recede, SensorSpec, Tangent,
                       Waypoints)


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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.tuples(_FINITE, _FINITE)


def _trajectories(duration_ms: float):
    segment = {"start": _POINTS, "goal": _POINTS, "speed_mps": _FINITE,
               "duration_ms": st.just(duration_ms)}
    knot_times = st.lists(_FINITE, min_size=1, max_size=6, unique=True).map(sorted)
    return st.one_of(
        st.builds(Approach, **segment),
        st.builds(Recede, **segment),
        st.builds(Tangent, closest=_POINTS, velocity_mps=_POINTS,
                  t_center_ms=_FINITE, duration_ms=st.just(duration_ms)),
        knot_times.flatmap(lambda times: st.builds(
            Waypoints, points=st.tuples(*(st.tuples(st.just(t), _POINTS) for t in times)),
            duration_ms=st.just(duration_ms))))


# Every value lies inside the bounds Scenario enforces for dt_ms <= 2 and
# duration_ms >= 500.
_OVERRIDES = st.fixed_dictionaries({}, optional={
    "w_inh": st.floats(0.0, 5.0),
    "theta_active": st.integers(0, 10),
    "window_ms": st.sampled_from([100.0, 250.0, 500.0]),
    "stride_ms": st.floats(2.0, 500.0),
    "corr_bin_width_ms": st.floats(2.0, 20.0),
    "corr_lag_bins": st.integers(0, 5),
    "corr_theta_m": st.floats(0.0, 1.0)})

_EXPECT = st.none() | st.fixed_dictionaries({}, optional={
    "depth": st.sampled_from(["N", "M", "F"]),
    "direction": st.sampled_from(["left_to_right", "right_to_left"])})


@st.composite
def _scenarios(draw):
    """Any scenario Scenario accepts; the draws it rejects are discarded."""
    dt_ms = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    duration_ms = draw(st.sampled_from([500.0, 1000.0, 2500.0]))
    units = draw(st.integers(1, 3))
    fields = dict(
        name=draw(st.text()), dt_ms=dt_ms, duration_ms=duration_ms,
        seed=draw(st.integers(0, 2 ** 63)), encoding=draw(st.sampled_from(Encoding)),
        robot_x=draw(_FINITE), robot_y=draw(_FINITE), robot_heading_deg=draw(_FINITE),
        sensors=tuple(draw(st.lists(_SENSORS, min_size=3 * units, max_size=3 * units))),
        trajectory=draw(_trajectories(duration_ms)),
        variant=draw(st.sampled_from(["ddm", "weights"])),
        overrides=draw(_OVERRIDES), expect=draw(_EXPECT))
    try:
        return Scenario(**fields)
    except ValidationError:
        assume(False)


@given(_scenarios())
def test_whole_scenarios_round_trip(s):
    assert parse_scenario(emit_scenario(s)) == s


def test_empty_document_is_the_default_scenario():
    assert parse_scenario("{}") == Scenario()


@pytest.mark.parametrize("trajectory, expected", [
    ({"kind": "approach"}, canonical_trajectory("approach", 5000.0)),
    ({"kind": "recede"}, canonical_trajectory("recede", 5000.0)),
    ({"kind": "tangent"}, canonical_trajectory("tangent", 5000.0)),
    ({"kind": "approach", "speed_mps": 0.8}, canonical_trajectory("approach", 5000.0, 0.8)),
    ({"kind": "recede", "speed_mps": 1.5}, canonical_trajectory("recede", 5000.0, 1.5)),
])
def test_missing_trajectory_keys_take_the_canonical_values(trajectory, expected):
    assert parse_scenario(json.dumps({"trajectory": trajectory})).trajectory == expected


def test_scripted_suite_round_trips():
    for s in scripted_suite():
        assert parse_scenario(emit_scenario(s)) == s


def test_write_suite_reproduces_the_committed_scenarios(tmp_path):
    committed = Path(__file__).resolve().parents[1] / "scenarios"
    written = write_suite(tmp_path)
    assert sorted(p.name for p in written) == sorted(
        p.name for p in committed.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (committed / path.name).read_bytes()


def test_unknown_keys_are_rejected():
    with pytest.raises(ValidationError):
        parse_scenario('{"bogus": 1}')
    with pytest.raises(ValidationError):
        parse_scenario('{"time": {"dt": 1.0}}')
    with pytest.raises(ValidationError):
        parse_scenario('{"trajectory": {"kind": "tangent", "speed": 1}}')
    with pytest.raises(ValidationError):
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
        with pytest.raises(ValidationError):
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


def test_every_error_class_is_raised_in_the_package():
    # A class whose last raise site goes must go with it.
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add(getattr(node.exc.func, "id", None))
    assert classes and classes <= raised, classes - raised


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
    with pytest.raises(ValidationError):
        Scenario(overrides={"mystery": 1.0})
    with pytest.raises(ValidationError, match="trajectory.speed_mps"):
        Scenario(trajectory=canonical_trajectory("approach", 5000.0, 0.0))
    # Values the scenario file cannot hold: emit_scenario would write `true`
    # or a string that parse_scenario rejects.
    with pytest.raises(ValidationError, match="time.dt_ms must be a number"):
        Scenario(dt_ms=True)
    with pytest.raises(ValidationError, match="robot.x must be a number"):
        Scenario(robot_x=True)
    with pytest.raises(ValidationError, match="overrides.theta_active must be a number"):
        Scenario(overrides={"theta_active": True})
    with pytest.raises(ValidationError, match="overrides.w_inh must be a number"):
        Scenario(overrides={"w_inh": "0.5"})
    with pytest.raises(ValidationError, match=r"trajectory.closest\[1\] must be a number"):
        Scenario(trajectory=Tangent(closest=(0.0, True), velocity_mps=(0.5, 0.0),
                                    t_center_ms=2500.0, duration_ms=5000.0))
    with pytest.raises(ValidationError, match="r_max_hz must be a number"):
        Scenario(sensors=(SensorSpec(-30.0), SensorSpec(0.0, r_max_hz=True),
                          SensorSpec(30.0)))
    with pytest.raises(ValidationError, match="mount_deg must be a number"):
        SensorSpec("0")
    # Field types are checked where they are held, not left to fail later in
    # sensing or emission.
    with pytest.raises(ValidationError, match=r"sensors\[0\] must be a SensorSpec"):
        Scenario(sensors=("a", "b", "c"))
    for sensors in (None, 5):
        with pytest.raises(ValidationError, match="sensors must be a list"):
            Scenario(sensors=sensors)
    listed = Scenario(sensors=list(default_fan_config(6)))
    assert listed.sensors == default_fan_config(6)
    assert parse_scenario(emit_scenario(listed)) == listed
    with pytest.raises(ValidationError, match="trajectory must be"):
        Scenario(trajectory="x")
    with pytest.raises(ValidationError, match="unknown encoding 'fast'"):
        Scenario(encoding="fast")
    with pytest.raises(ValidationError, match="overrides must be an object"):
        Scenario(overrides=None)
    assert Scenario(encoding="poisson") == Scenario(encoding=Encoding.POISSON)
    assert type(Scenario(overrides={"theta_active": 3}).overrides["theta_active"]) is float


@pytest.mark.parametrize("overrides, field", [
    ({"stride_ms": 1e-6}, "overrides.stride_ms"),
    ({"corr_bin_width_ms": 1e-7}, "overrides.corr_bin_width_ms"),
    ({"corr_lag_bins": 1e12}, "overrides.corr_lag_bins"),
    ({"corr_lag_bins": 26}, "overrides.corr_lag_bins"),
    ({"window_ms": 95.0, "corr_lag_bins": 11}, "overrides.corr_lag_bins"),
])
def test_overrides_that_would_make_a_run_unbounded_are_rejected(overrides, field):
    doc = {"time": {"duration_ms": 1000}, "trajectory": {"kind": "tangent"},
           "overrides": overrides}
    with pytest.raises(ValidationError, match=field):
        parse_scenario(json.dumps(doc))


def test_override_bounds_admit_their_limits():
    # A stride and a bin width of one step, and one lag per bin of a window.
    doc = {"time": {"dt_ms": 0.5, "duration_ms": 1000},
           "trajectory": {"kind": "tangent"},
           "overrides": {"stride_ms": 0.5, "corr_bin_width_ms": 0.5,
                         "window_ms": 250.0, "corr_lag_bins": 500}}
    assert parse_scenario(json.dumps(doc)).correlation_params().lag_bins == 500
    doc["overrides"] = {"window_ms": 95.0, "corr_lag_bins": 10}
    assert parse_scenario(json.dumps(doc)).correlation_params().lag_bins == 10

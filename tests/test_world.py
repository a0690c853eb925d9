"""World geometry, rate law, spike encoding, and scenario sensing."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctd import world
from ctd.world import (Approach, Encoding, Pose, Recede, SensorSpec, SpikeTrain,
                       Tangent, Waypoints, default_fan_config, encode_spikes,
                       mirror_sensors, mirror_trajectory, sense_scenario,
                       sensor_rates)
from fixtures import OutOfRange, agent_position
from reference_correlation import window
import reference_sensing
from reference_sensing import reference_sense


def test_heading_normalized_to_half_open_interval():
    assert Pose(heading=3 * math.pi).heading == pytest.approx(math.pi)
    assert Pose(heading=-math.pi).heading == pytest.approx(math.pi)
    assert Pose(heading=math.pi / 4).heading == pytest.approx(math.pi / 4)
    assert -math.pi < Pose(heading=-37.0).heading <= math.pi


def test_spike_train_validation():
    with pytest.raises(ValueError):
        SpikeTrain((3.0, 2.0))
    with pytest.raises(ValueError):
        SpikeTrain((1.0, 1.0))
    with pytest.raises(ValueError):
        SpikeTrain((-1.0,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=str(bad)):
            SpikeTrain((0.0, bad))
        with pytest.raises(ValueError, match=str(bad)):
            SpikeTrain((bad,))
    train = SpikeTrain((1.0, 5.0, 9.0))
    assert len(window(train, 1.0, 9.0)) == 2
    assert window(train, 4.0, 10.0).times == (1.0, 5.0)


@pytest.mark.parametrize("mode", list(Encoding))
@pytest.mark.parametrize("bad", [-50.0, math.nan, math.inf, -math.inf])
def test_encode_spikes_rejects_negative_and_nonfinite_rates(mode, bad):
    with pytest.raises(ValueError, match=f"step 2: rate {bad} Hz"):
        encode_spikes([100.0, 0.0, bad, 100.0, bad], 1.0, mode, seed=0)


def _held_spikes(robot: Pose, sensor: SensorSpec, agent: tuple[float, float]) -> int:
    """Spikes in one second of an agent held still at `agent`."""
    traj = Waypoints(points=((0.0, agent),), duration_ms=1000.0)
    return len(sense_scenario(robot, (sensor,), traj, 1.0)[0])


def _on_axis(distances: list[float]) -> list[tuple[float, float, float]]:
    # Robot-frame readings (u, v, d) of an agent straight ahead.
    return [(0.0, d, d) for d in distances]


def test_sensor_sees_agent_on_axis_at_half_range():
    robot = Pose(heading=math.pi / 2)
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0)
    assert _held_spikes(robot, sensor, (0.0, 1.0)) == 100  # 100 Hz for 1 s


def test_sensor_misses_beyond_range_and_outside_cone():
    robot = Pose(heading=math.pi / 2)
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0, cone_half_deg=15.0)
    assert _held_spikes(robot, sensor, (0.0, 4.0)) == 0
    off_axis = math.radians(22.5)  # 1.5x the half angle
    agent = (math.sin(off_axis), math.cos(off_axis))  # in range, outside the cone
    assert _held_spikes(robot, sensor, agent) == 0


def test_full_circle_cone_sees_agent_straight_behind():
    # cos(180 deg) is exactly -1, the cosine of the agent's offset, so the
    # cone test must accept equality.
    robot = Pose(heading=math.pi / 2)
    sensor = SensorSpec(mount_deg=0.0, cone_half_deg=180.0, range_m=2.0)
    assert _held_spikes(robot, sensor, (0.0, -1.0)) == 100


def test_rate_law_boundaries_and_midpoint():
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0, r_max_hz=200.0)
    assert (sensor_rates(sensor, _on_axis([0.0, 2.0, 1.0, 5.0])).tolist()
            == [200.0, 0.0, 100.0, 0.0])


def test_rate_law_strictly_decreasing_within_range():
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0, r_max_hz=200.0)
    rates = sensor_rates(sensor, _on_axis([0.01 * k for k in range(200)])).tolist()
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_waypoints_interpolate_linearly():
    traj = Waypoints(points=((0.0, (0.0, 0.0)), (1000.0, (1.0, 0.0))),
                     duration_ms=1000.0)
    assert agent_position(traj, 500.0) == pytest.approx((0.5, 0.0))
    assert agent_position(traj, 0.0) == (0.0, 0.0)


def test_approach_starts_at_start_and_stops_at_goal():
    traj = Approach(start=(2.0, 0.0), goal=(0.0, 0.0), speed_mps=1.0,
                    duration_ms=5000.0)
    assert agent_position(traj, 0.0) == (2.0, 0.0)
    assert agent_position(traj, 1000.0) == pytest.approx((1.0, 0.0))
    assert agent_position(traj, 4000.0) == pytest.approx((0.0, 0.0))


def test_tangent_hits_closest_point_at_center_time():
    traj = Tangent(closest=(0.0, 1.0), velocity_mps=(1.0, 0.0),
                   t_center_ms=1000.0, duration_ms=2000.0)
    x, y = agent_position(traj, 1000.0)
    assert math.hypot(x, y) == pytest.approx(1.0)


def test_agent_position_rejects_times_outside_duration():
    traj = Tangent(closest=(0.0, 1.0), velocity_mps=(1.0, 0.0),
                   t_center_ms=500.0, duration_ms=1000.0)
    with pytest.raises(OutOfRange):
        agent_position(traj, -1.0)
    with pytest.raises(OutOfRange):
        agent_position(traj, 1001.0)


def test_encode_zero_rate_is_empty():
    assert encode_spikes([0.0] * 1000, 1.0).times == ()
    assert encode_spikes([], 1.0).times == ()


def test_encode_constant_100hz_gives_exactly_100_spikes():
    train = encode_spikes([100.0] * 1000, 1.0)
    assert len(train) == 100


def test_encode_accuracy_within_one_spike_for_constant_rates():
    for rate in (13.0, 57.5, 111.0, 199.0):
        for dt in (1.0, 0.5):
            train = encode_spikes([rate] * int(round(2000.0 / dt)), dt)
            assert abs(len(train) - rate * 2.0) <= 1.0, (rate, dt)


@settings(max_examples=300, deadline=None)
@given(dt=st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0, 10.0]),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=400))
def test_deterministic_count_within_one_spike_of_integrated_rate(dt, fractions):
    # Every step's phase increment rate*dt/1000 is at most 1, so no crossing
    # waits for a later step and the count tracks the integral. Above that
    # (r_max*dt/1000 > 1, e.g. 200 Hz at dt > 5 ms) spikes lag the integral.
    rates = [f * 1000.0 / dt for f in fractions]
    rates = [r for r in rates if r * dt / 1000.0 <= 1.0]
    train = encode_spikes(rates, dt)
    integral = math.fsum(r * dt / 1000.0 for r in rates)
    assert abs(len(train) - integral) <= 1.0 + 1e-9


def test_poisson_count_within_three_sigma():
    for seed in (0, 1, 17):
        train = encode_spikes([100.0] * 10_000, 1.0, Encoding.POISSON, seed=seed)
        assert abs(len(train) - 1000) <= 3 * math.sqrt(1000)


def test_out_of_scope_agent_is_silent_on_every_channel():
    robot = Pose(heading=math.pi / 2)
    sensors = default_fan_config(6)
    traj = Tangent(closest=(0.0, 5.0), velocity_mps=(0.5, 0.0),
                   t_center_ms=1000.0, duration_ms=2000.0)
    trains = sense_scenario(robot, sensors, traj, 1.0)
    assert all(t.times == () for t in trains)


def test_tangent_pass_sweeps_sensors_in_order():
    # Three contiguous cones; oracle: closed-form time of entry into each cone
    # (bearing crossing of the left cone edge on the pass line y = 1).
    robot = Pose(heading=math.pi / 2)
    sensors = tuple(SensorSpec(mount_deg=m) for m in (-30.0, 0.0, 30.0))
    speed = 1.0
    traj = Tangent(closest=(0.0, 1.0), velocity_mps=(speed, 0.0),
                   t_center_ms=2000.0, duration_ms=4000.0)
    trains = sense_scenario(robot, sensors, traj, 1.0)
    firsts = [t.times[0] for t in trains]
    assert firsts[0] < firsts[1] < firsts[2]
    for sensor, first in zip(sensors, firsts):
        left_edge = sensor.mount_angle - sensor.cone_half_angle
        x_entry = math.tan(left_edge) * 1.0
        t_entry = 2000.0 + x_entry / speed * 1000.0
        assert first >= t_entry - 1.0
        assert first <= t_entry + 250.0  # spikes start soon after entry


def test_head_on_approach_isis_shrink_with_rising_rate():
    # Quantization can stretch a single interval by at most one step; the
    # underlying phase-crossing gaps shrink monotonically with the rate.
    robot = Pose(heading=math.pi / 2)
    sensor = SensorSpec(mount_deg=0.0)
    traj = Approach(start=(0.0, 2.2), goal=(0.0, 0.05), speed_mps=1.0,
                    duration_ms=2000.0)
    train = sense_scenario(robot, (sensor,), traj, 1.0)[0]
    isis = [b - a for a, b in zip(train.times, train.times[1:])]
    assert all(b <= a + 1.0 for a, b in zip(isis, isis[1:]))
    assert isis[-1] < isis[0]


def test_mirrored_tangent_swaps_sensor_trains_exactly():
    robot = Pose(heading=math.pi / 2)
    sensors = default_fan_config(6)
    traj = Tangent(closest=(0.0, 1.0), velocity_mps=(0.5, 0.0),
                   t_center_ms=2500.0, duration_ms=5000.0)
    mirrored = mirror_trajectory(robot, traj)
    assert mirrored.velocity_mps[0] == -0.5
    base = sense_scenario(robot, sensors, traj, 1.0)
    flip = sense_scenario(robot, sensors, mirrored, 1.0)
    n = len(sensors)
    for i in range(n):
        assert base[i].times == flip[n - 1 - i].times


def test_mirrored_segment_paths_reflect_exactly():
    robot = Pose(heading=math.pi / 2)
    traj = Approach(start=(-2.0, 1.5), goal=(-0.1, 0.4), speed_mps=0.5,
                    duration_ms=5000.0)
    m = mirror_trajectory(robot, traj)
    assert isinstance(m, Approach)
    assert m.start == (2.0, 1.5)
    assert m.goal == (0.1, 0.4)

    r = mirror_trajectory(robot, Recede(start=(0.2, 0.5), goal=(1.9, 1.4),
                                        speed_mps=0.5, duration_ms=5000.0))
    assert r.start == (-0.2, 0.5) and r.goal == (-1.9, 1.4)


def test_default_fan_is_left_to_right_and_contiguous():
    fan = default_fan_config(6)
    assert [s.mount_deg for s in fan] == [-75.0, -45.0, -15.0, 15.0, 45.0, 75.0]
    assert all(s.cone_half_deg == 15.0 for s in fan)
    for s in fan:
        assert s.mount_angle == math.radians(s.mount_deg)
        assert s.cone_half_angle == math.radians(s.cone_half_deg)
    assert mirror_sensors(fan) == fan
    assert ([s.mount_angle for s in mirror_sensors(fan)]
            == [-s.mount_angle for s in reversed(fan)])


def test_waypoint_knot_times_follow_replace():
    robot = Pose(heading=math.pi / 2)
    traj = Waypoints(points=((0.0, (-1.0, 1.0)), (400.0, (1.0, 0.5))), duration_ms=500.0)
    assert traj.knot_times == (0.0, 400.0)
    later = replace(traj, points=((100.0, (-1.0, 1.0)), (300.0, (1.0, 0.5))))
    assert later.knot_times == (100.0, 300.0)
    assert agent_position(later, 200.0) == (0.0, 0.75)
    assert mirror_trajectory(robot, traj).knot_times == traj.knot_times


# --------------------------------------------------------------------------
# sense_scenario against the per-sensor scalar reference path
# --------------------------------------------------------------------------

_coord = st.floats(-2.0, 2.0)
_point = st.tuples(_coord, _coord)


@st.composite
def _sensing_cases(draw):
    dt = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    duration = dt * draw(st.integers(1, 800)) + draw(st.sampled_from([0.0, 0.3 * dt]))
    heading = draw(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
                             st.floats(-math.pi, math.pi)))
    offset = draw(st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-1.0, 1.0),
                                                            st.floats(-1.0, 1.0))))
    robot = Pose(x=offset[0], y=offset[1], heading=heading)
    # Knots may sit exactly on the robot, where the distance is 0.
    knot = st.one_of(st.just(offset), _point)
    if draw(st.booleans()):
        sensors = default_fan_config(draw(st.integers(1, 6)))
    else:
        sensors = tuple(SensorSpec(mount_deg=draw(st.floats(-180.0, 180.0)),
                                   cone_half_deg=draw(st.floats(1.0, 180.0)),
                                   range_m=draw(st.floats(0.1, 4.0)),
                                   r_max_hz=draw(st.floats(1.0, 3000.0)))
                        for _ in range(draw(st.integers(1, 4))))
    kind = draw(st.sampled_from(["approach", "recede", "tangent", "waypoints"]))
    if kind in ("approach", "recede"):
        cls = Approach if kind == "approach" else Recede
        start = draw(_point)
        # start == goal is a zero-length segment: the agent stays at start.
        traj = cls(start=start, goal=draw(st.one_of(knot, st.just(start))),
                   speed_mps=draw(st.floats(0.1, 3.0)), duration_ms=duration)
    elif kind == "tangent":
        traj = Tangent(closest=draw(_point), velocity_mps=draw(_point),
                       t_center_ms=draw(st.floats(0.0, duration)), duration_ms=duration)
    else:
        # Knots fall between steps, exactly on a step time, before 0 and after
        # the last step; a first knot after 0 and a last one before the end
        # hold the path's ends, and one knot holds the agent still.
        on_step = st.integers(0, int(duration / dt)).map(lambda k: k * dt)
        times = draw(st.lists(st.one_of(st.floats(-50.0, duration + 50.0), on_step),
                              min_size=1, max_size=6, unique=True))
        traj = Waypoints(points=tuple((t, draw(knot)) for t in sorted(times)),
                         duration_ms=duration)
    mode = draw(st.sampled_from(list(Encoding)))
    return robot, sensors, traj, dt, mode, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(case=_sensing_cases())
def test_sense_scenario_matches_reference_path(case):
    robot, sensors, traj, dt, mode, seed = case
    got = sense_scenario(robot, sensors, traj, dt, mode, seed)
    want = reference_sense(robot, sensors, traj, dt, mode, seed)
    assert [t.times for t in got] == [t.times for t in want]


@settings(max_examples=300, deadline=None)
@given(case=_sensing_cases())
# A subnormal segment, past whose end a step time would overflow the fraction.
@example(case=(None, None, Waypoints(((0.0, (0.0, 0.0)), (2.2250738585e-313, (0.0, 0.0))),
                                     duration_ms=0.2), 0.1, None, None))
def test_positions_match_the_scalar_reference_bit_for_bit(case):
    _, _, traj, dt, _, _ = case
    steps = int(round(traj.duration_ms / dt))
    got = np.column_stack(traj.positions(np.arange(steps) * dt))
    want = np.array([reference_sensing.agent_position(traj, k * dt) for k in range(steps)],
                    dtype=np.float64).reshape(-1, 2)
    assert got.tobytes() == want.tobytes()


def test_sense_scenario_pays_catch_up_spikes_after_the_rate_drops_to_zero():
    # Three steps of about 667 Hz at 2 ms owe four spikes, one more than a
    # step each can emit; the agent then leaves the 1-degree cone, and the
    # zero-rate step that follows must still emit the fourth.
    robot = Pose(heading=math.pi)
    sensors = (SensorSpec(mount_deg=0.0, cone_half_deg=1.0, r_max_hz=762.0),)
    traj = Approach(start=(-0.25, 0.0), goal=(0.0, 1.0), speed_mps=1.0, duration_ms=8.0)
    want = reference_sense(robot, sensors, traj, 2.0)
    assert [t.times for t in want] == [(0.0, 2.0, 4.0, 6.0)]
    assert [t.times for t in sense_scenario(robot, sensors, traj, 2.0)] == \
        [t.times for t in want]


@st.composite
def _rate_runs(draw):
    dt = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0, 10.0]))
    full = 1000.0 / dt    # the rate at which a step's p reaches 1
    level = st.one_of(st.just(0.0), st.just(full), st.floats(0.0, 3.0 * full))
    runs = draw(st.lists(st.tuples(st.integers(1, 100), level), max_size=6))
    # Every case holds clamped steps (p = 1) and a long silence between hits.
    runs += [(draw(st.integers(1, 20)), draw(st.floats(full, 3.0 * full))),
             (draw(st.integers(50, 400)), 0.0),
             (draw(st.integers(1, 20)), draw(st.floats(1.0, 3.0 * full)))]
    return dt, [rate for n, rate in runs for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(case=_rate_runs(), mode=st.sampled_from(list(Encoding)),
       seed=st.integers(0, 2**32))
def test_encode_spikes_matches_reference_on_clamped_and_silent_runs(case, mode, seed):
    dt, rates = case
    want = reference_sensing.encode_spikes(lambda t: rates[int(t / dt + 1e-9)],
                                           len(rates) * dt, dt, mode, seed)
    assert encode_spikes(rates, dt, mode, seed).times == want.times


# Levels whose phase lands exactly on integers at dt 1 (125, 250 and 500 Hz),
# subnormal ones (5e-324 Hz adds a zero term), and levels past 1000/dt, which
# owe catch-up spikes.
_PHASE_LEVELS = (0.0, 125.0, 250.0, 500.0, 5e-324, 1e-310, 2.2250738585072014e-308)


@st.composite
def _phase_runs(draw):
    dt = draw(st.sampled_from([1.0, 1.0, 0.1, 0.5, 2.0]))
    full = 1000.0 / dt
    level = st.one_of(st.sampled_from(_PHASE_LEVELS), st.floats(0.0, 3.0 * full))
    shape = draw(st.sampled_from(["constant", "ramp", "runs"]))
    if shape == "constant":
        body = np.full(draw(st.integers(1, 20_000)), draw(level))
    elif shape == "ramp":
        body = np.linspace(draw(level), draw(level), draw(st.integers(1, 20_000)))
    else:
        body = np.repeat(draw(st.lists(level, min_size=1, max_size=8)),
                         draw(st.integers(1, 2_500)))
    lead, trail = (np.zeros(draw(st.integers(0, 300))) for _ in range(2))
    return dt, np.concatenate([lead, body, trail]).tolist()


@settings(max_examples=60, deadline=None)
@given(case=_phase_runs())
@example(case=(1.0, [125.0] * 2000))
@example(case=(1.0, [0.0] * 7 + [250.0] * 2000 + [0.0] * 5))
@example(case=(1.0, [500.0] * 20_000))
def test_encode_spikes_matches_the_compensated_reference(case):
    dt, rates = case
    want = reference_sensing.encode_spikes(lambda t: rates[int(t / dt + 1e-9)],
                                           len(rates) * dt, dt)
    assert encode_spikes(rates, dt).times == want.times


def test_only_trains_the_certificate_turns_away_take_the_compensated_loop(monkeypatch):
    calls = []
    loop = world._encode_compensated
    monkeypatch.setattr(world, "_encode_compensated",
                        lambda *args: calls.append(args) or loop(*args))
    # 0.125 a step: the phase lands exactly on every integer it passes.
    assert len(encode_spikes([125.0] * 1000, 1.0)) == 125
    assert len(calls) == 1
    # A rising rate crosses each integer between steps.
    ramp = np.linspace(0.0, 173.3, 5000)
    assert encode_spikes(ramp, 1.0).times == reference_sensing.encode_spikes(
        lambda t: ramp[int(t + 1e-9)], 5000.0, 1.0).times
    assert len(calls) == 1


_POISSON_RUN = """
import json, math
from ctd.world import Encoding, Pose, Tangent, default_fan_config, sense_scenario
traj = Tangent(closest=(0.0, 0.6), velocity_mps=(0.5, 0.0), t_center_ms=1000.0,
               duration_ms=2000.0)
trains = sense_scenario(Pose(heading=math.pi / 2), default_fan_config(6), traj, 1.0,
                        Encoding.POISSON, seed=7)
print(json.dumps([t.times for t in trains]))
"""


def test_poisson_trains_identical_across_processes():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _POISSON_RUN], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    assert sum(map(len, runs[0])) > 0

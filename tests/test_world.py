"""World geometry, rate law, spike encoding, and scenario sensing."""

from __future__ import annotations

import math

import pytest

from ctd.errors import NegativeDistance, OutOfRange
from ctd.world import (Approach, Encoding, Pose, Recede, SensorSpec, SpikeTrain,
                       Tangent, Waypoints, agent_position, default_fan_config,
                       encode_spikes, mirror_sensors, mirror_trajectory,
                       rate_from_distance, sense_scenario, sensor_distance)


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
    train = SpikeTrain((1.0, 5.0, 9.0))
    assert len(train.window(1.0, 9.0)) == 2
    assert train.window(4.0, 10.0).times == (1.0, 5.0)


def test_sensor_sees_agent_on_axis_at_half_range():
    robot = Pose(heading=math.pi / 2)
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0)
    assert sensor_distance(robot, sensor, (0.0, 1.0)) == pytest.approx(1.0)


def test_sensor_misses_beyond_range_and_outside_cone():
    robot = Pose(heading=math.pi / 2)
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0, cone_half_deg=15.0)
    assert sensor_distance(robot, sensor, (0.0, 4.0)) is None
    off_axis = math.radians(22.5)  # 1.5x the half angle
    agent = (2.0 * math.sin(off_axis), 2.0 * math.cos(off_axis))
    assert sensor_distance(robot, sensor, agent) is None


def test_rate_law_boundaries_and_midpoint():
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0, r_max_hz=200.0)
    assert rate_from_distance(0.0, sensor) == 200.0
    assert rate_from_distance(2.0, sensor) == 0.0
    assert rate_from_distance(1.0, sensor) == 100.0
    assert rate_from_distance(5.0, sensor) == 0.0
    with pytest.raises(NegativeDistance):
        rate_from_distance(-0.1, sensor)


def test_rate_law_strictly_decreasing_within_range():
    sensor = SensorSpec(mount_deg=0.0, range_m=2.0, r_max_hz=200.0)
    ds = [0.01 * k for k in range(200)]
    rates = [rate_from_distance(d, sensor) for d in ds]
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
    assert encode_spikes(lambda t: 0.0, 1000.0, 1.0).times == ()


def test_encode_constant_100hz_gives_exactly_100_spikes():
    train = encode_spikes(lambda t: 100.0, 1000.0, 1.0)
    assert len(train) == 100


def test_encode_accuracy_within_one_spike_for_constant_rates():
    for rate in (13.0, 57.5, 111.0, 199.0):
        for dt in (1.0, 0.5):
            train = encode_spikes(lambda t, r=rate: r, 2000.0, dt)
            assert abs(len(train) - rate * 2.0) <= 1.0, (rate, dt)


def test_poisson_count_within_three_sigma():
    for seed in (0, 1, 17):
        train = encode_spikes(lambda t: 100.0, 10_000.0, 1.0,
                              Encoding.POISSON, seed=seed)
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

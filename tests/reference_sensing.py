"""Reference sensing path: the per-sensor, per-step scalar code that
`ctd.world.sense_scenario` replaced. The agent's position is computed one
time at a time, each sensor-step recomputes the robot frame and the sensor's
trig, the rate law is its own function, and the encoder reads the rates
through a callable of time, one step after another. The property tests in
test_world.py require `sense_scenario` to reproduce it spike for spike.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Callable, Sequence

from ctd.world import (Encoding, Point, Pose, SensorSpec, SpikeTrain, Tangent, Trajectory,
                       Waypoints, _snapped_trig)


def agent_position(traj: Trajectory, t_ms: float) -> Point:
    """Agent position at time t, one scalar step of each trajectory kind."""
    if isinstance(traj, Tangent):
        dt_s = (t_ms - traj.t_center_ms) / 1000.0
        return (traj.closest[0] + traj.velocity_mps[0] * dt_s,
                traj.closest[1] + traj.velocity_mps[1] * dt_s)
    if isinstance(traj, Waypoints):
        pts = traj.points
        if t_ms <= pts[0][0]:
            return pts[0][1]
        if t_ms >= pts[-1][0]:
            return pts[-1][1]
        idx = bisect.bisect_right(traj.knot_times, t_ms) - 1
        t0, p0 = pts[idx]
        t1, p1 = pts[idx + 1]
        f = (t_ms - t0) / (t1 - t0)
        return (p0[0] + (p1[0] - p0[0]) * f, p0[1] + (p1[1] - p0[1]) * f)
    dx = traj.goal[0] - traj.start[0]
    dy = traj.goal[1] - traj.start[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return traj.start
    travelled = min(traj.speed_mps * t_ms / 1000.0, length)
    f = travelled / length
    return (traj.start[0] + dx * f, traj.start[1] + dy * f)


def robot_frame(robot: Pose, agent: Point) -> tuple[float, float]:
    """(rightward, forward) coordinates of the agent in the robot frame."""
    ch, sh = _snapped_trig(robot.heading)
    dx = agent[0] - robot.x
    dy = agent[1] - robot.y
    u = dx * sh - dy * ch
    v = dx * ch + dy * sh
    return u, v


def sensor_distance(robot: Pose, sensor: SensorSpec, agent: Point) -> float | None:
    """Distance to the agent if it sits inside the sensor cone, else None."""
    u, v = robot_frame(robot, agent)
    d = math.hypot(u, v)
    if d > sensor.range_m:
        return None
    if d == 0.0:
        return 0.0
    sm = math.sin(sensor.mount_angle)
    cm = math.cos(sensor.mount_angle)
    cos_off = (u * sm + v * cm) / d
    if cos_off >= math.cos(sensor.cone_half_angle):
        return d
    return None


def rate_from_distance(d: float, sensor: SensorSpec) -> float:
    """Linear proximity rate law: r_max at contact, zero at and beyond range."""
    if d < 0.0:
        raise ValueError(f"distance {d} < 0")
    return sensor.r_max_hz * max(0.0, 1.0 - d / sensor.range_m)


def encode_spikes(rate_fn: Callable[[float], float], duration_ms: float, dt_ms: float,
                  mode: Encoding = Encoding.DETERMINISTIC_PHASE,
                  seed: int | str | None = None) -> SpikeTrain:
    """Spike train of a time-varying rate (Hz), sampled on the dt grid."""
    if duration_ms <= 0 or dt_ms <= 0:
        raise ValueError("duration and dt must be positive")
    n_steps = int(round(duration_ms / dt_ms))
    times: list[float] = []
    if mode is Encoding.POISSON:
        rng = random.Random(seed)
        for k in range(n_steps):
            p = min(1.0, rate_fn(k * dt_ms) * dt_ms / 1000.0)
            if p > 0.0 and rng.random() < p:
                times.append(k * dt_ms)
        return SpikeTrain(tuple(times))

    phase = 0.0
    err = 0.0
    crossed = 0
    for k in range(n_steps):
        term = rate_fn(k * dt_ms) * dt_ms / 1000.0
        y = term - err
        s = phase + y
        err = (s - phase) - y
        phase = s
        if math.floor(phase) > crossed:
            crossed += 1
            times.append(k * dt_ms)
    return SpikeTrain(tuple(times))


def reference_sense(robot: Pose, sensors: Sequence[SensorSpec], traj: Trajectory,
                    dt_ms: float, mode: Encoding = Encoding.DETERMINISTIC_PHASE,
                    seed: int | None = None) -> list[SpikeTrain]:
    """Per-sensor spike trains for one agent pass, in fan order."""
    duration = traj.duration_ms
    n_steps = int(round(duration / dt_ms))
    positions = [agent_position(traj, k * dt_ms) for k in range(n_steps)]

    trains: list[SpikeTrain] = []
    for i, sensor in enumerate(sensors):
        rates = [0.0] * n_steps
        for k, p in enumerate(positions):
            d = sensor_distance(robot, sensor, p)
            if d is not None:
                rates[k] = rate_from_distance(d, sensor)
        rate_fn = lambda t, r=rates, dt=dt_ms: r[int(t / dt + 1e-9)]
        trains.append(encode_spikes(rate_fn, duration, dt_ms, mode,
                                    seed=f"{seed}:{i}" if mode is Encoding.POISSON else None))
    return trains

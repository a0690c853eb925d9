"""Reference sensing path: the per-sensor, per-step scalar code that
`ctd.world.sense_scenario` replaced. Each sensor-step recomputes the robot
frame and the sensor's trig, the rate law is its own function, and the
encoder reads the rates through a callable of time. The property tests in
test_world.py require `sense_scenario` to reproduce it spike for spike.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from ctd.world import (Encoding, Point, Pose, SensorSpec, SpikeTrain, Trajectory,
                       _snapped_trig, agent_position)


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

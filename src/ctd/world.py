"""2D kinematic world: host robot, proximity sensors, wandering agent, spike encoding.

Angle convention: sensor mount angles and agent bearings are measured
clockwise-positive from the robot heading (bearing style), so a fan listed
from negative to positive mount angles reads left to right from the robot's
point of view.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

from .errors import NegativeDistance, OutOfRange, ValidationError

Point = tuple[float, float]


@dataclass(frozen=True)
class SpikeTrain:
    """Ordered spike times in milliseconds."""

    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        prev = -math.inf
        for t in self.times:
            if t < 0.0:
                raise ValueError(f"negative spike time {t}")
            if t <= prev:
                raise ValueError("spike times must be strictly increasing")
            prev = t

    def __len__(self) -> int:
        return len(self.times)

    def count_between(self, t0: float, t1: float) -> int:
        """Number of spikes in the half-open window [t0, t1)."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        return hi - lo

    def window(self, t0: float, t1: float) -> "SpikeTrain":
        """Spikes in [t0, t1), shifted so the window starts at 0."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        return SpikeTrain(tuple(t - t0 for t in self.times[lo:hi]))

    @property
    def last(self) -> float | None:
        return self.times[-1] if self.times else None


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(angle, math.tau)
    if a <= -math.pi:
        a += math.tau
    return a


@dataclass(frozen=True)
class Pose:
    x: float = 0.0
    y: float = 0.0
    heading: float = math.pi / 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", normalize_angle(self.heading))


def _snap(v: float) -> float:
    if abs(v) < 1e-12:
        return 0.0
    if abs(abs(v) - 1.0) < 1e-12:
        return math.copysign(1.0, v)
    return v


def _snapped_trig(angle: float) -> tuple[float, float]:
    # Snap axis-aligned headings to exact unit vectors so a world mirrored
    # about the heading axis produces bit-identical sensor readings.
    return _snap(math.cos(angle)), _snap(math.sin(angle))


@dataclass(frozen=True)
class SensorSpec:
    """One proximity neurodetector mounted on the robot body.

    Fields keep the scenario file's units, so parse -> emit -> parse is
    lossless; the radian angles sensing reads are derived once, here.
    """

    mount_deg: float
    cone_half_deg: float = 15.0
    range_m: float = 2.0
    r_max_hz: float = 200.0
    mount_angle: float = field(init=False, repr=False, compare=False)
    cone_half_angle: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.mount_deg):
            raise ValidationError(f"mount_deg must be finite, got {self.mount_deg!r}")
        if not 0.0 < self.cone_half_deg <= 180.0:
            raise ValidationError(
                f"cone_half_deg must be in (0, 180], got {self.cone_half_deg!r}")
        for name in ("range_m", "r_max_hz"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        object.__setattr__(self, "mount_angle", math.radians(self.mount_deg))
        object.__setattr__(self, "cone_half_angle", math.radians(self.cone_half_deg))


def default_fan_config(n: int = 6) -> tuple[SensorSpec, ...]:
    """Contiguous fan of n 30-degree cones, listed left to right, centered on
    the heading; mirrored sensor pairs carry exactly negated mount angles."""
    first = -15.0 * (n - 1)
    return tuple(SensorSpec(mount_deg=first + 30.0 * i) for i in range(n))


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _SegmentPath:
    """Straight segment traversed at constant speed, stopping at the goal."""

    start: Point
    goal: Point
    speed_mps: float
    duration_ms: float

    def position(self, t_ms: float) -> Point:
        dx = self.goal[0] - self.start[0]
        dy = self.goal[1] - self.start[1]
        length = math.hypot(dx, dy)
        if length == 0.0:
            return self.start
        travelled = min(self.speed_mps * t_ms / 1000.0, length)
        f = travelled / length
        return (self.start[0] + dx * f, self.start[1] + dy * f)


@dataclass(frozen=True)
class Approach(_SegmentPath):
    kind = "approach"


@dataclass(frozen=True)
class Recede(_SegmentPath):
    kind = "recede"


@dataclass(frozen=True)
class Tangent:
    """Straight pass; `closest` is reached exactly at `t_center_ms`."""

    closest: Point
    velocity_mps: Point
    t_center_ms: float
    duration_ms: float
    kind = "tangent"

    def position(self, t_ms: float) -> Point:
        dt_s = (t_ms - self.t_center_ms) / 1000.0
        return (self.closest[0] + self.velocity_mps[0] * dt_s,
                self.closest[1] + self.velocity_mps[1] * dt_s)


@dataclass(frozen=True)
class Waypoints:
    """Piecewise-linear path through (time_ms, point) knots; ends are held."""

    points: tuple[tuple[float, Point], ...]
    duration_ms: float
    kind = "waypoints"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("waypoint list must not be empty")
        prev = -math.inf
        for t, _ in self.points:
            if t <= prev:
                raise ValueError("waypoint timestamps must be strictly increasing")
            prev = t

    def position(self, t_ms: float) -> Point:
        pts = self.points
        if t_ms <= pts[0][0]:
            return pts[0][1]
        if t_ms >= pts[-1][0]:
            return pts[-1][1]
        idx = bisect.bisect_right([p[0] for p in pts], t_ms) - 1
        t0, p0 = pts[idx]
        t1, p1 = pts[idx + 1]
        f = (t_ms - t0) / (t1 - t0)
        return (p0[0] + (p1[0] - p0[0]) * f, p0[1] + (p1[1] - p0[1]) * f)


Trajectory = Approach | Recede | Tangent | Waypoints


def agent_position(traj: Trajectory, t_ms: float) -> Point:
    """Agent position at time t; raises OutOfRange outside [0, duration]."""
    if not (0.0 <= t_ms <= traj.duration_ms):
        raise OutOfRange(f"t={t_ms} outside [0, {traj.duration_ms}]")
    return traj.position(t_ms)


# --------------------------------------------------------------------------
# Sensing
# --------------------------------------------------------------------------

def _robot_frame(robot: Pose, agent: Point) -> tuple[float, float]:
    """(rightward, forward) coordinates of the agent in the robot frame."""
    ch, sh = _snapped_trig(robot.heading)
    dx = agent[0] - robot.x
    dy = agent[1] - robot.y
    u = dx * sh - dy * ch
    v = dx * ch + dy * sh
    return u, v


def sensor_distance(robot: Pose, sensor: SensorSpec, agent: Point) -> float | None:
    """Distance to the agent if it sits inside the sensor cone, else None."""
    u, v = _robot_frame(robot, agent)
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
        raise NegativeDistance(f"distance {d} < 0")
    return sensor.r_max_hz * max(0.0, 1.0 - d / sensor.range_m)


class Encoding(Enum):
    DETERMINISTIC_PHASE = "deterministic"
    POISSON = "poisson"


def encode_spikes(rate_fn: Callable[[float], float], duration_ms: float, dt_ms: float,
                  mode: Encoding = Encoding.DETERMINISTIC_PHASE,
                  seed: int | str | None = None) -> SpikeTrain:
    """Turn a time-varying rate (Hz) into a spike train sampled on the dt grid.

    DETERMINISTIC_PHASE integrates the rate with compensated summation and
    emits one spike per integer crossing of the accumulated phase (at most one
    per step; rates above 1000/dt catch up on later steps). POISSON draws a
    per-step Bernoulli with p = rate*dt/1000 from a seeded generator.
    """
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


def sense_scenario(robot: Pose, sensors: Sequence[SensorSpec], traj: Trajectory,
                   dt_ms: float, mode: Encoding = Encoding.DETERMINISTIC_PHASE,
                   seed: int | None = None) -> list[SpikeTrain]:
    """Per-sensor spike trains for one agent pass; output order matches the fan order."""
    if not sensors:
        raise ValueError("sensor list must not be empty")
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


# --------------------------------------------------------------------------
# Mirroring (about the robot heading axis; exact for axis-aligned headings)
# --------------------------------------------------------------------------

def mirror_point(robot: Pose, p: Point) -> Point:
    ch, sh = _snapped_trig(robot.heading)
    dx = p[0] - robot.x
    dy = p[1] - robot.y
    dot = dx * ch + dy * sh
    rx = 2.0 * dot * ch - dx
    ry = 2.0 * dot * sh - dy
    return (robot.x + rx, robot.y + ry)


def mirror_vector(robot: Pose, v: Point) -> Point:
    ch, sh = _snapped_trig(robot.heading)
    dot = v[0] * ch + v[1] * sh
    return (2.0 * dot * ch - v[0], 2.0 * dot * sh - v[1])


def mirror_trajectory(robot: Pose, traj: Trajectory) -> Trajectory:
    if isinstance(traj, (Approach, Recede)):
        cls = type(traj)
        return cls(start=mirror_point(robot, traj.start), goal=mirror_point(robot, traj.goal),
                   speed_mps=traj.speed_mps, duration_ms=traj.duration_ms)
    if isinstance(traj, Tangent):
        return Tangent(closest=mirror_point(robot, traj.closest),
                       velocity_mps=mirror_vector(robot, traj.velocity_mps),
                       t_center_ms=traj.t_center_ms, duration_ms=traj.duration_ms)
    if isinstance(traj, Waypoints):
        return Waypoints(points=tuple((t, mirror_point(robot, p)) for t, p in traj.points),
                         duration_ms=traj.duration_ms)
    raise TypeError(f"unsupported trajectory {traj!r}")


def mirror_sensors(sensors: Sequence[SensorSpec]) -> tuple[SensorSpec, ...]:
    """Mirrored fan, reordered so the result still lists sensors left to right."""
    return tuple(replace(s, mount_deg=-s.mount_deg) for s in reversed(sensors))

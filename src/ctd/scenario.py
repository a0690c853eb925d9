"""Scenario files: a single JSON document describing one experiment.

Every quantity keeps the file's units, angles in degrees included; sensors and
the robot pose derive radians where sensing needs them, so parse -> emit ->
parse is lossless. All invariants are checked where the values are held:
sensor fields in SensorSpec, the rest in Scenario.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from .circuits import CtdParams, DepthState, Direction
from .correlation import CorrelationParams
from .errors import ParseError, UnknownKey, ValidationError
from .world import (Approach, Encoding, Pose, Recede, SensorSpec, Tangent,
                    Trajectory, Waypoints, default_fan_config)

_TOP_KEYS = {"name", "time", "seed", "encoding", "robot", "sensors",
             "trajectory", "circuit", "overrides", "expect"}

_CTD_KEYS = {f.name for f in dataclasses.fields(CtdParams)}
_CORR_KEYS = {"corr_" + f.name for f in dataclasses.fields(CorrelationParams)}
OVERRIDE_KEYS = _CTD_KEYS | _CORR_KEYS

_INT_OVERRIDES = {"theta_active", "corr_lag_bins"}
_POSITIVE_OVERRIDES = ({k for k in _CTD_KEYS if k.endswith("_tau")}
                       | {"window_ms", "stride_ms", "corr_bin_width_ms"})
# Synapse weights are magnitudes; the connection kind carries the sign.
_NONNEGATIVE_OVERRIDES = ({k for k in _CTD_KEYS if k.startswith("w_") or "_w_" in k}
                          | {"refractory", "corr_lag_bins"})
_SENSOR_KEYS = {f.name for f in dataclasses.fields(SensorSpec) if f.init}
# Tuples, not sets: membership must not hash values read from a file.
_EXPECT_VALUES = {"depth": tuple(d.value for d in DepthState),
                  "direction": (Direction.LEFT_TO_RIGHT.value,
                                Direction.RIGHT_TO_LEFT.value)}


def _bearing_point(bearing_deg: float, distance: float) -> tuple[float, float]:
    # World position of a bearing/distance pair for the canonical pose
    # (robot at the origin heading +y; bearings clockwise-positive).
    b = math.radians(bearing_deg)
    return (distance * math.sin(b), distance * math.cos(b))


def canonical_trajectory(kind: str, duration_ms: float, speed: float = 0.5,
                         offset: float | None = None) -> Trajectory:
    """Scripted trajectory families for the canonical pose.

    Approach: left-to-right sweep aimed inward, ending at the given distance
    just left of the heading axis. Recede: its outbound counterpart starting
    just right of the axis. Tangent: horizontal pass at the given offset,
    closest to the robot mid-run. The offset is the closest-approach distance.
    """
    travel = speed * duration_ms / 1000.0
    if kind == "approach":
        goal = _bearing_point(-15.0, 0.5 if offset is None else offset)
        anchor = _bearing_point(-35.0, 2.3)
        dx, dy = goal[0] - anchor[0], goal[1] - anchor[1]
        length = math.hypot(dx, dy)
        start = (goal[0] - dx / length * travel, goal[1] - dy / length * travel)
        return Approach(start=start, goal=goal, speed_mps=speed,
                        duration_ms=duration_ms)
    if kind == "recede":
        start = _bearing_point(15.0, 0.5 if offset is None else offset)
        anchor = _bearing_point(35.0, 2.3)
        dx, dy = anchor[0] - start[0], anchor[1] - start[1]
        length = math.hypot(dx, dy)
        goal = (start[0] + dx / length * travel, start[1] + dy / length * travel)
        return Recede(start=start, goal=goal, speed_mps=speed,
                      duration_ms=duration_ms)
    if kind == "tangent":
        return Tangent(closest=(0.0, 1.0 if offset is None else offset),
                       velocity_mps=(speed, 0.0),
                       t_center_ms=duration_ms / 2.0, duration_ms=duration_ms)
    raise ValidationError(f"trajectory kind {kind!r} has no defaults")


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs; unspecified fields take module defaults."""

    name: str = "scenario"
    dt_ms: float = 1.0
    duration_ms: float = 5000.0
    seed: int = 0
    encoding: Encoding = Encoding.DETERMINISTIC_PHASE
    robot_x: float = 0.0
    robot_y: float = 0.0
    robot_heading_deg: float = 90.0
    sensors: tuple[SensorSpec, ...] = field(default_factory=default_fan_config)
    trajectory: Trajectory = field(
        default_factory=lambda: canonical_trajectory("approach", 5000.0))
    variant: str = "ddm"
    overrides: dict[str, float] = field(default_factory=dict)
    expect: dict[str, str] | None = None

    def __post_init__(self) -> None:
        for key, value in (("time.dt_ms", self.dt_ms),
                           ("time.duration_ms", self.duration_ms)):
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{key} must be positive and finite, got {value!r}")
        steps = self.duration_ms / self.dt_ms
        if steps == math.inf or abs(round(steps) * self.dt_ms - self.duration_ms) > 1e-9:
            raise ValidationError(f"time.dt_ms {self.dt_ms!r} must divide "
                                  f"time.duration_ms {self.duration_ms!r}")
        for key, value in (("robot.x", self.robot_x), ("robot.y", self.robot_y),
                           ("robot.heading_deg", self.robot_heading_deg),
                           *_numbers(_trajectory_to_json(self.trajectory), "trajectory")):
            if not math.isfinite(value):
                raise ValidationError(f"{key} must be finite, got {value!r}")
        if len(self.sensors) == 0 or len(self.sensors) % 3 != 0:
            raise ValidationError(
                f"sensor count {len(self.sensors)} must be divisible by 3")
        for key, value in (self.expect or {}).items():
            if key not in _EXPECT_VALUES:
                raise UnknownKey(f"expect: unknown key {key!r}")
            if value not in _EXPECT_VALUES[key]:
                raise ValidationError(f"expect.{key} {value!r} invalid")
        if self.variant not in ("ddm", "weights"):
            raise ValidationError(f"unknown circuit variant {self.variant!r}")
        if abs(self.trajectory.duration_ms - self.duration_ms) > 1e-9:
            raise ValidationError("trajectory duration must match scenario duration")
        for key, value in self.overrides.items():
            if key not in OVERRIDE_KEYS:
                raise UnknownKey(f"override {key!r}")
            problem = ("finite" if not math.isfinite(value)
                       else "an integer" if key in _INT_OVERRIDES and value != int(value)
                       else "positive" if key in _POSITIVE_OVERRIDES and value <= 0
                       else "nonnegative" if key in _NONNEGATIVE_OVERRIDES and value < 0
                       else None)
            if problem:
                raise ValidationError(f"overrides.{key} must be {problem}, got {value!r}")
        params = self.ctd_params()
        if params.window_ms > self.duration_ms:
            raise ValidationError(
                f"time.duration_ms {self.duration_ms!r} is shorter than one "
                f"readout window of {params.window_ms!r} ms")
        try:
            for neuron in (params.detector_neuron, params.regulatory_neuron,
                           params.assessing_neuron, params.judge_neuron):
                neuron()
        except ValueError as exc:
            raise ValidationError(f"overrides give an invalid neuron: {exc}") from None

    def pose(self) -> Pose:
        return Pose(self.robot_x, self.robot_y, math.radians(self.robot_heading_deg))

    def ctd_params(self) -> CtdParams:
        return self._params(CtdParams(), _CTD_KEYS, "")

    def correlation_params(self) -> CorrelationParams:
        return self._params(CorrelationParams(), _CORR_KEYS, "corr_")

    def _params(self, defaults: Any, keys: set[str], prefix: str) -> Any:
        return dataclasses.replace(defaults, **{
            key[len(prefix):]: int(value) if key in _INT_OVERRIDES else float(value)
            for key, value in self.overrides.items() if key in keys})


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise UnknownKey(f"{where}: unknown key {key!r}")


def _number(obj: dict, key: str, default: float, where: str) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _point(value: Any, where: str) -> tuple[float, float]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ValidationError(f"{where} must be a [x, y] pair, got {value!r}")
    return (float(value[0]), float(value[1]))


def _parse_trajectory(obj: Any, duration_ms: float) -> Trajectory:
    if not isinstance(obj, dict):
        raise ValidationError("trajectory must be an object")
    kind = obj.get("kind")
    if kind in ("approach", "recede"):
        _require_keys(obj, {"kind", "from", "to", "speed_mps"}, "trajectory")
        default = canonical_trajectory(kind, duration_ms)
        speed = _number(obj, "speed_mps", default.speed_mps, "trajectory")
        if not 0.0 < speed < math.inf:
            raise ValidationError(
                f"trajectory.speed_mps must be positive and finite, got {speed!r}")
        travel = speed * duration_ms / 1000.0
        if kind == "approach":
            goal = _point(obj["to"], "trajectory.to") if "to" in obj else default.goal
            start = (_point(obj["from"], "trajectory.from") if "from" in obj
                     else (goal[0] - travel, goal[1]))
            return Approach(start=start, goal=goal, speed_mps=speed,
                            duration_ms=duration_ms)
        start = (_point(obj["from"], "trajectory.from") if "from" in obj
                 else default.start)
        goal = (_point(obj["to"], "trajectory.to") if "to" in obj
                else (start[0] + travel, start[1]))
        return Recede(start=start, goal=goal, speed_mps=speed, duration_ms=duration_ms)
    if kind == "tangent":
        _require_keys(obj, {"kind", "closest", "velocity_mps", "t_center_ms"},
                      "trajectory")
        default = canonical_trajectory("tangent", duration_ms)
        closest = (_point(obj["closest"], "trajectory.closest")
                   if "closest" in obj else default.closest)
        velocity = (_point(obj["velocity_mps"], "trajectory.velocity_mps")
                    if "velocity_mps" in obj else default.velocity_mps)
        t_center = _number(obj, "t_center_ms", duration_ms / 2.0, "trajectory")
        return Tangent(closest=closest, velocity_mps=velocity,
                       t_center_ms=t_center, duration_ms=duration_ms)
    if kind == "waypoints":
        _require_keys(obj, {"kind", "points"}, "trajectory")
        raw = obj.get("points")
        if not isinstance(raw, list) or not raw:
            raise ValidationError("trajectory.points must be a nonempty list")
        points = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValidationError(
                    f"waypoint entries are [t_ms, [x, y]], got {entry!r}")
            t, p = entry
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise ValidationError(f"waypoint time must be a number, got {t!r}")
            points.append((float(t), _point(p, "waypoint")))
        try:
            return Waypoints(points=tuple(points), duration_ms=duration_ms)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    raise ValidationError(f"unknown trajectory kind {kind!r}")


def _parse_sensors(obj: Any) -> tuple[SensorSpec, ...]:
    if isinstance(obj, dict):
        _require_keys(obj, {"fan"}, "sensors")
        n = obj.get("fan")
        if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
            raise ValidationError(f"sensors.fan must be a positive integer, got {n!r}")
        return default_fan_config(n)
    if not isinstance(obj, list) or not obj:
        raise ValidationError("sensors must be a nonempty list or {\"fan\": n}")
    sensors = []
    for i, entry in enumerate(obj):
        where = f"sensors[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where} must be an object")
        _require_keys(entry, _SENSOR_KEYS, where)
        if "mount_deg" not in entry:
            raise ValidationError(f"{where} is missing mount_deg")
        values = {key: _number(entry, key, 0.0, where) for key in entry}
        try:
            sensors.append(SensorSpec(**values))
        except ValidationError as exc:
            raise ValidationError(f"{where}.{exc}") from None
    return tuple(sensors)


def _parse_int(digits: str) -> int:
    # Longer integer literals overflow float(); past 4300 digits int() itself
    # raises a bare ValueError.
    if len(digits.lstrip("-")) > 308:
        raise ValidationError(f"integer literal of {len(digits)} characters is out of range")
    return int(digits)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document; every failure is structured."""
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "scenario")

    time_obj = doc.get("time", {})
    if not isinstance(time_obj, dict):
        raise ValidationError("time must be an object")
    _require_keys(time_obj, {"dt_ms", "duration_ms"}, "time")
    dt_ms = _number(time_obj, "dt_ms", 1.0, "time")
    duration_ms = _number(time_obj, "duration_ms", 5000.0, "time")

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ValidationError(f"name must be a string, got {name!r}")

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"seed must be an integer, got {seed!r}")

    encoding_raw = doc.get("encoding", "deterministic")
    try:
        encoding = Encoding(encoding_raw)
    except ValueError:
        raise ValidationError(f"unknown encoding {encoding_raw!r}") from None

    robot_obj = doc.get("robot", {})
    if not isinstance(robot_obj, dict):
        raise ValidationError("robot must be an object")
    _require_keys(robot_obj, {"x", "y", "heading_deg"}, "robot")

    sensors = (_parse_sensors(doc["sensors"]) if "sensors" in doc
               else default_fan_config(6))

    traj_obj = doc.get("trajectory", {"kind": "approach"})
    trajectory = _parse_trajectory(traj_obj, duration_ms)

    overrides_obj = doc.get("overrides", {})
    if not isinstance(overrides_obj, dict):
        raise ValidationError("overrides must be an object")
    overrides = {key: _number(overrides_obj, key, 0.0, "overrides")
                 for key in overrides_obj}

    expect = doc.get("expect")
    if expect is not None and not isinstance(expect, dict):
        raise ValidationError("expect must be an object")

    return Scenario(name=name, dt_ms=dt_ms, duration_ms=duration_ms, seed=seed,
                    encoding=encoding,
                    robot_x=_number(robot_obj, "x", 0.0, "robot"),
                    robot_y=_number(robot_obj, "y", 0.0, "robot"),
                    robot_heading_deg=_number(robot_obj, "heading_deg", 90.0, "robot"),
                    sensors=sensors, trajectory=trajectory,
                    variant=doc.get("circuit", "ddm"),
                    overrides=overrides, expect=expect)


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------

def _numbers(value: Any, where: str) -> Iterator[tuple[str, float]]:
    """Every number in a JSON-shaped value, with its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{where}[{i}]")
    elif isinstance(value, (int, float)):
        yield where, value


def _trajectory_to_json(traj: Trajectory) -> dict[str, Any]:
    if isinstance(traj, (Approach, Recede)):
        return {"kind": traj.kind, "from": list(traj.start), "to": list(traj.goal),
                "speed_mps": traj.speed_mps}
    if isinstance(traj, Tangent):
        return {"kind": traj.kind, "closest": list(traj.closest),
                "velocity_mps": list(traj.velocity_mps),
                "t_center_ms": traj.t_center_ms}
    if isinstance(traj, Waypoints):
        return {"kind": traj.kind,
                "points": [[t, list(p)] for t, p in traj.points]}
    raise TypeError(f"unsupported trajectory {traj!r}")


def scenario_to_json(s: Scenario) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": s.name,
        "time": {"dt_ms": s.dt_ms, "duration_ms": s.duration_ms},
        "seed": s.seed,
        "encoding": s.encoding.value,
        "robot": {"x": s.robot_x, "y": s.robot_y,
                  "heading_deg": s.robot_heading_deg},
        "sensors": [{key: getattr(c, key) for key in sorted(_SENSOR_KEYS)}
                    for c in s.sensors],
        "trajectory": _trajectory_to_json(s.trajectory),
        "circuit": s.variant,
        "overrides": dict(sorted(s.overrides.items())),
    }
    if s.expect is not None:
        doc["expect"] = dict(sorted(s.expect.items()))
    return doc


def emit_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_json(s), indent=2, sort_keys=True) + "\n"

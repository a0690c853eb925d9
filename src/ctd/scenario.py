"""Scenario files: a single JSON document describing one experiment.

Every quantity keeps the file's units, angles in degrees included; sensors and
the robot pose derive radians where sensing needs them, so parse -> emit ->
parse is lossless. The key tables below declare the file format once, for
parsing and emission alike. All invariants are checked where the values are
held: sensor fields in SensorSpec, the rest in Scenario.
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
# File key -> field, per object. Parsing and emission both read these tables.
_PLAIN_KEYS = {"name": "name", "seed": "seed", "circuit": "variant"}
_SECTIONS = {"time": {"dt_ms": "dt_ms", "duration_ms": "duration_ms"},
             "robot": {"x": "robot_x", "y": "robot_y", "heading_deg": "robot_heading_deg"}}
_SEGMENT_KEYS = {"from": "start", "to": "goal", "speed_mps": "speed_mps"}
_TRAJECTORY_KEYS = {"approach": _SEGMENT_KEYS, "recede": _SEGMENT_KEYS,
                    "tangent": {"closest": "closest", "velocity_mps": "velocity_mps",
                                "t_center_ms": "t_center_ms"},
                    "waypoints": {"points": "points"}}

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
    just right of the axis. Both run along the line from that near point, 15
    degrees off the axis, toward a far anchor at 35 degrees and 2.3 m.
    Tangent: horizontal pass at the given offset, closest to the robot mid-run.
    The offset is the closest-approach distance.
    """
    travel = speed * duration_ms / 1000.0
    if kind in ("approach", "recede"):
        side = -1.0 if kind == "approach" else 1.0
        near = _bearing_point(side * 15.0, 0.5 if offset is None else offset)
        far = _bearing_point(side * 35.0, 2.3)
        dx, dy = far[0] - near[0], far[1] - near[1]
        length = math.hypot(dx, dy)
        out = (near[0] + dx / length * travel, near[1] + dy / length * travel)
        cls, start, goal = (Approach, out, near) if side < 0 else (Recede, near, out)
        return cls(start=start, goal=goal, speed_mps=speed, duration_ms=duration_ms)
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
        # The name becomes a directory of `ctd suite`'s output.
        if not isinstance(self.name, str):
            raise ValidationError(f"name must be a string, got {self.name!r}")
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ValidationError(f"name {self.name!r} must be nonempty, not '.' or "
                                  "'..', and free of '/', '\\' and NUL")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        # Time and robot numbers are held as floats, so every time a run
        # writes is a float.
        for section, keys in _SECTIONS.items():
            for key, name in keys.items():
                object.__setattr__(self, name,
                                   _number(getattr(self, name), f"{section}.{key}"))
        trajectory = _trajectory_to_json(self.trajectory)
        del trajectory["kind"]
        for key, value in (("robot.x", self.robot_x), ("robot.y", self.robot_y),
                           ("robot.heading_deg", self.robot_heading_deg),
                           *_numbers(trajectory, "trajectory")):
            if not math.isfinite(value):
                raise ValidationError(f"{key} must be finite, got {value!r}")
        for key, value in (("time.dt_ms", self.dt_ms),
                           ("time.duration_ms", self.duration_ms)):
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{key} must be positive and finite, got {value!r}")
        steps = self.duration_ms / self.dt_ms
        if steps == math.inf or abs(round(steps) * self.dt_ms - self.duration_ms) > 1e-9:
            raise ValidationError(f"time.dt_ms {self.dt_ms!r} must divide "
                                  f"time.duration_ms {self.duration_ms!r}")
        speed = trajectory.get("speed_mps")
        if speed is not None and not 0.0 < speed < math.inf:
            raise ValidationError(
                f"trajectory.speed_mps must be positive and finite, got {speed!r}")
        if len(self.sensors) == 0 or len(self.sensors) % 3 != 0:
            raise ValidationError(
                f"sensor count {len(self.sensors)} must be divisible by 3")
        if self.expect is not None and not isinstance(self.expect, dict):
            raise ValidationError("expect must be an object")
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
            value = _number(value, f"overrides.{key}")
            problem = ("finite" if not math.isfinite(value)
                       else "an integer" if key in _INT_OVERRIDES and value != int(value)
                       else "positive" if key in _POSITIVE_OVERRIDES and value <= 0
                       else "nonnegative" if key in _NONNEGATIVE_OVERRIDES and value < 0
                       else None)
            if problem:
                raise ValidationError(f"overrides.{key} must be {problem}, got {value!r}")
        params, corr = self.ctd_params(), self.correlation_params()
        if params.window_ms > self.duration_ms:
            raise ValidationError(
                f"time.duration_ms {self.duration_ms!r} is shorter than one "
                f"readout window of {params.window_ms!r} ms")
        # Bound the work per run: windows and bins by the step count, lags by
        # the bins of one window.
        for key, value in (("stride_ms", params.stride_ms),
                           ("corr_bin_width_ms", corr.bin_width_ms)):
            if value < self.dt_ms:
                raise ValidationError(f"overrides.{key} {value!r} must be at least "
                                      f"time.dt_ms {self.dt_ms!r}")
        bins = math.ceil(params.window_ms / corr.bin_width_ms)
        if corr.lag_bins > bins:
            raise ValidationError(
                f"overrides.corr_lag_bins {corr.lag_bins!r} must be at most {bins}, "
                f"the bins in one readout window")
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


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    return float(value)


def _point(value: Any, where: str) -> tuple[float, float]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ValidationError(f"{where} must be a [x, y] pair, got {value!r}")
    return (float(value[0]), float(value[1]))


def _knots(value: Any) -> tuple[tuple[float, tuple[float, float]], ...]:
    if not isinstance(value, list) or not value:
        raise ValidationError("trajectory.points must be a nonempty list")
    knots = []
    for i, entry in enumerate(value):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValidationError(f"trajectory.points[{i}] must be [t_ms, [x, y]], "
                                  f"got {entry!r}")
        knots.append((_number(entry[0], f"trajectory.points[{i}][0]"),
                      _point(entry[1], f"trajectory.points[{i}][1]")))
    return tuple(knots)


def _parse_trajectory(obj: Any, duration_ms: float) -> Trajectory:
    """A key the object leaves out takes canonical_trajectory's value."""
    if not isinstance(obj, dict):
        raise ValidationError("trajectory must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _TRAJECTORY_KEYS:
        raise ValidationError(f"unknown trajectory kind {kind!r}")
    keys = _TRAJECTORY_KEYS[kind]
    _require_keys(obj, {"kind", *keys}, "trajectory")
    if kind == "waypoints":
        try:
            return Waypoints(points=_knots(obj.get("points")), duration_ms=duration_ms)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    default = canonical_trajectory(kind, duration_ms)
    given = {}
    for key, name in keys.items():
        if key in obj:
            read = _point if isinstance(getattr(default, name), tuple) else _number
            given[name] = read(obj[key], f"trajectory.{key}")
    if "speed_mps" in given:
        default = canonical_trajectory(kind, duration_ms, given["speed_mps"])
    return dataclasses.replace(default, **given)


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
        values = {key: _number(value, f"{where}.{key}") for key, value in entry.items()}
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


def _section(doc: dict, name: str) -> dict[str, float]:
    obj = doc.get(name, {})
    if not isinstance(obj, dict):
        raise ValidationError(f"{name} must be an object")
    keys = _SECTIONS[name]
    _require_keys(obj, keys, name)
    return {keys[key]: _number(value, f"{name}.{key}") for key, value in obj.items()}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document; every failure is structured.

    A key the document leaves out is not passed, so it takes Scenario's
    default; a trajectory key takes canonical_trajectory's.
    """
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "scenario")
    given: dict[str, Any] = {**_section(doc, "time"), **_section(doc, "robot")}

    # Passed on as written; Scenario checks them.
    given.update((name, doc[key]) for key, name in _PLAIN_KEYS.items() if key in doc)
    if "expect" in doc:
        given["expect"] = doc["expect"]
    if "encoding" in doc:
        try:
            given["encoding"] = Encoding(doc["encoding"])
        except ValueError:
            raise ValidationError(f"unknown encoding {doc['encoding']!r}") from None
    if "sensors" in doc:
        given["sensors"] = _parse_sensors(doc["sensors"])
    if "overrides" in doc:
        if not isinstance(doc["overrides"], dict):
            raise ValidationError("overrides must be an object")
        given["overrides"] = {key: _number(value, f"overrides.{key}")
                              for key, value in doc["overrides"].items()}
    given["trajectory"] = _parse_trajectory(
        doc.get("trajectory", {"kind": "approach"}),
        given.get("duration_ms", Scenario.duration_ms))
    return Scenario(**given)


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------

def _numbers(value: Any, where: str) -> Iterator[tuple[str, float]]:
    """Every leaf of a JSON-shaped value with its path; each must be a number."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{where}[{i}]")
    else:
        yield where, _number(value, where)


def _to_json(value: Any) -> Any:
    return [_to_json(item) for item in value] if isinstance(value, tuple) else value


def _trajectory_to_json(traj: Trajectory) -> dict[str, Any]:
    return {"kind": traj.kind, **{key: _to_json(getattr(traj, name)) for key, name
                                  in _TRAJECTORY_KEYS[traj.kind].items()}}


def scenario_to_json(s: Scenario) -> dict[str, Any]:
    doc: dict[str, Any] = {
        **{key: getattr(s, name) for key, name in _PLAIN_KEYS.items()},
        **{section: {key: getattr(s, name) for key, name in keys.items()}
           for section, keys in _SECTIONS.items()},
        "encoding": s.encoding.value,
        "sensors": [{key: getattr(c, key) for key in sorted(_SENSOR_KEYS)}
                    for c in s.sensors],
        "trajectory": _trajectory_to_json(s.trajectory),
        "overrides": dict(sorted(s.overrides.items())),
    }
    if s.expect is not None:
        doc["expect"] = dict(sorted(s.expect.items()))
    return doc


def emit_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_json(s), indent=2, sort_keys=True) + "\n"

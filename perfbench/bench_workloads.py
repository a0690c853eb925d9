"""The benchmark's workloads: suite, long-run and sweep.

Each workload turns the seed into a list of scenario documents (JSON text)
and runs one pass over them through ctd's public entry points. Only the
program calls are timed; digesting and cleaning up the output files happen
outside the timed region. Every call into ctd goes through a module
attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from bench_trace import count_agreement

DEFAULT_SEED = 0
DIGESTED = ("spikes.csv", "potentials.csv", "states.csv")

LONG_RUN_DURATION_MS = 20000.0
LONG_RUN_VARIANTS = ("ddm", "weights", "ddm")
SWEEP_DURATION_MS = 4000.0
SWEEP_FANS = (12, 18, 24, 12, 18, 24)


@dataclass(frozen=True)
class Op:
    """One scenario of a workload, as the program receives it."""

    name: str
    text: str
    duration_ms: float


@dataclass
class PassResult:
    wall_s: float = 0.0            # timed program calls only
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)   # op name -> reason


def inputs_sha256(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.name.encode() + b"\n" + op.text.encode() + b"\n")
    return h.hexdigest()


def _digests(directory: Path) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in DIGESTED}


@contextlib.contextmanager
def _timed(result: PassResult, tracer, name: str):
    """Add the block's wall time to the pass; a span too when traced."""
    t0 = time.perf_counter()
    try:
        with tracer.region(name) if tracer is not None else contextlib.nullcontext():
            yield
    finally:
        result.wall_s += time.perf_counter() - t0


def _cli(ctd, argv: list[str]) -> int:
    """ctd.cli.main in-process, with its terminal output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return ctd.cli.main(argv)


def _error() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def _bearing_point(bearing_deg: float, distance_m: float) -> list[float]:
    # The generated scenarios use the default pose: robot at the origin facing
    # +y, bearings clockwise-positive, as in ctd.scenario.
    b = math.radians(bearing_deg)
    return [round(distance_m * math.sin(b), 4), round(distance_m * math.cos(b), 4)]


def _parse(ctd, text: str) -> Op:
    scenario = ctd.scenario.parse_scenario(text)
    return Op(name=scenario.name, text=text, duration_ms=scenario.duration_ms)


# --------------------------------------------------------------------------
# suite: the committed scenarios through `ctd suite`
# --------------------------------------------------------------------------

class Suite:
    """The 30 committed scenarios; the seed does not change them."""

    def __init__(self, scenario_dir: Path) -> None:
        self.scenario_dir = scenario_dir

    def prepare(self, ctd, seed: int) -> list[Op]:
        return [_parse(ctd, path.read_text())
                for path in sorted(self.scenario_dir.glob("*.json"))]

    def run_pass(self, ctd, ops: list[Op], out: Path, tracer) -> PassResult:
        result = PassResult()
        try:
            with _timed(result, tracer, "pass"):
                _cli(ctd, ["suite", str(self.scenario_dir), "--out", str(out)])
        except Exception:
            reason = _error()
            result.errors = {op.name: reason for op in ops}
            return result
        summary = json.loads((out / "suite_summary.json").read_text())["results"]
        for op in ops:
            checks = summary.get(op.name)
            if checks is None:
                result.errors[op.name] = "missing from suite_summary.json"
                continue
            failed = sorted(name for name, ok in checks.items() if not ok)
            if failed:
                result.errors[op.name] = "failed checks: " + ", ".join(failed)
            result.digests[op.name] = _digests(out / op.name)
        shutil.rmtree(out)
        return result


# --------------------------------------------------------------------------
# long-run: long single-variant `ctd run`s with full-rate potentials.csv
# --------------------------------------------------------------------------

class LongRun:
    """A few long wandering passes in front of the default six-sensor fan."""

    def prepare(self, ctd, seed: int) -> list[Op]:
        rng = random.Random(f"long-run:{seed}")
        ops = []
        for i, variant in enumerate(LONG_RUN_VARIANTS):
            # A knot every two seconds, anywhere inside the fan's cones.
            points = [[t, _bearing_point(rng.uniform(-75.0, 75.0),
                                         rng.uniform(0.3, 1.9))]
                      for t in range(0, int(LONG_RUN_DURATION_MS) + 1, 2000)]
            name = f"long-{i:02d}"
            doc = {"name": name, "circuit": variant,
                   "time": {"dt_ms": 1.0, "duration_ms": LONG_RUN_DURATION_MS},
                   "sensors": {"fan": 6},
                   "trajectory": {"kind": "waypoints", "points": points}}
            ops.append(_parse(ctd, json.dumps(doc, sort_keys=True)))
        return ops

    def run_pass(self, ctd, ops: list[Op], out: Path, tracer) -> PassResult:
        inputs = out / "inputs"
        inputs.mkdir(parents=True)
        for op in ops:
            (inputs / f"{op.name}.json").write_text(op.text)
        result = PassResult()
        for op in ops:
            try:
                with _timed(result, tracer, "op"):
                    code = _cli(ctd, ["run", str(inputs / f"{op.name}.json"),
                                      "--out", str(out / op.name)])
            except Exception:
                result.errors[op.name] = _error()
                continue
            # Exit code 1 only reports a failed assertion; the suite workload
            # is the one that gates on those.
            if code == 2:
                result.errors[op.name] = "ctd exited 2"
                continue
            result.digests[op.name] = _digests(out / op.name)
        shutil.rmtree(out)
        return result


# --------------------------------------------------------------------------
# sweep: wide overlapping fans, Poisson encoding, dense tracks, in memory
# --------------------------------------------------------------------------

def _sweep_sensors(n: int) -> list[dict]:
    # n sensors spread over 240 degrees; each cone is two spacings wide, so
    # every bearing inside the fan is seen by two sensors.
    spacing = 240.0 / n
    return [{"mount_deg": round(-120.0 + spacing * (i + 0.5), 6),
             "cone_half_deg": round(spacing, 6),
             "range_m": 2.0, "r_max_hz": 200.0} for i in range(n)]


def _sweep_track(rng: random.Random) -> list:
    # Bounded random walk in bearing and distance with a knot every 100 ms.
    bearing = rng.uniform(-100.0, 100.0)
    distance = rng.uniform(0.4, 1.6)
    points = []
    for t in range(0, int(SWEEP_DURATION_MS) + 1, 100):
        points.append([t, _bearing_point(bearing, distance)])
        bearing = min(115.0, max(-115.0, bearing + rng.uniform(-12.0, 12.0)))
        distance = min(1.9, max(0.25, distance + rng.uniform(-0.08, 0.08)))
    return points


class Sweep:
    """Generated scenarios handed to ctd as JSON text; both variants each."""

    def prepare(self, ctd, seed: int) -> list[Op]:
        rng = random.Random(f"sweep:{seed}")
        ops = []
        for i, n in enumerate(SWEEP_FANS):
            name = f"sweep-{i:02d}"
            doc = {"name": name, "circuit": "ddm", "encoding": "poisson",
                   "seed": rng.randrange(2 ** 31),
                   "time": {"dt_ms": 1.0, "duration_ms": SWEEP_DURATION_MS},
                   "sensors": _sweep_sensors(n),
                   "trajectory": {"kind": "waypoints", "points": _sweep_track(rng)},
                   "overrides": {"stride_ms": 25.0}}
            ops.append(_parse(ctd, json.dumps(doc, sort_keys=True)))
        return ops

    def run_pass(self, ctd, ops: list[Op], out: Path, tracer) -> PassResult:
        result = PassResult()
        for op in ops:
            try:
                with _timed(result, tracer, "op"):
                    scenario = ctd.scenario.parse_scenario(op.text)
                    comparison = ctd.harness.compare_variants(scenario)
            except Exception:
                result.errors[op.name] = _error()
                continue
            if tracer is not None:
                count_agreement(tracer.counts, comparison.ddm)
                count_agreement(tracer.counts, comparison.weights)
            # Emission is not part of this workload; it only feeds the digests.
            # The tracer wraps ctd.cli.emit_outputs, not this binding.
            digests = {}
            for variant in ("ddm", "weights"):
                ctd.harness.emit_outputs(getattr(comparison, variant),
                                         out / op.name / variant)
                digests.update((f"{variant}/{name}", sha) for name, sha in
                               _digests(out / op.name / variant).items())
            result.digests[op.name] = digests
            shutil.rmtree(out / op.name)
        return result


WORKLOADS = {"suite": Suite, "long-run": LongRun, "sweep": Sweep}


def make_workload(name: str, root: Path):
    return Suite(root / "scenarios") if name == "suite" else WORKLOADS[name]()

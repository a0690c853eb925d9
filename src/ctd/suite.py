"""Canonical scenarios and the 30-run scripted suite (15 mirror pairs).

Approach runs end just left of the heading axis so the final hot phase sits
cleanly inside one cone; recede runs start just right of it. Tangent offsets
keep the peak sensor rate below the regulatory turn-on rate, which is what
makes a straight pass read M.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from .circuits import DepthState, Direction
from .scenario import Scenario, canonical_trajectory, emit_scenario
from .world import mirror_sensors, mirror_trajectory

DURATION_MS = 5000.0

# (speed m/s, closest-approach distance m) per scripted variation
APPROACH_VARIATIONS = [(0.25, 0.40), (0.5, 0.50), (0.75, 0.55), (1.0, 0.45), (1.5, 0.35)]
RECEDE_VARIATIONS = [(0.25, 0.40), (0.5, 0.50), (0.75, 0.55), (1.0, 0.45), (1.5, 0.35)]
TANGENT_VARIATIONS = [(0.25, 0.95), (0.5, 1.00), (0.75, 1.10), (1.0, 1.20), (1.5, 0.90)]

_EXPECTED_DEPTH = {"approach": DepthState.N, "recede": DepthState.F,
                   "tangent": DepthState.M}


def scripted_scenario(kind: str, speed: float, offset: float, name: str,
                      variant: str = "ddm") -> Scenario:
    return Scenario(
        name=name,
        duration_ms=DURATION_MS,
        trajectory=canonical_trajectory(kind, DURATION_MS, speed, offset),
        variant=variant,
        expect={"depth": _EXPECTED_DEPTH[kind].value,
                "direction": Direction.LEFT_TO_RIGHT.value},
    )


def canonical_scenario(kind: str, variant: str = "ddm") -> Scenario:
    """The single reference scenario per trajectory kind."""
    speed, offset = {"approach": (0.5, 0.50), "recede": (0.5, 0.50),
                     "tangent": (0.5, 1.00)}[kind]
    return scripted_scenario(kind, speed, offset, f"{kind}-canonical", variant)


def mirror_scenario(s: Scenario) -> Scenario:
    """Reflect the world about the robot heading axis; sensors stay left-to-right."""
    expect = None
    if s.expect is not None:
        expect = dict(s.expect)
        if "direction" in expect:
            expect["direction"] = Direction(expect["direction"]).flipped().value
    name = s.name[:-4] + "-rtl" if s.name.endswith("-ltr") else s.name + "-mirror"
    return dataclasses.replace(
        s, name=name, sensors=mirror_sensors(s.sensors),
        trajectory=mirror_trajectory(s.pose(), s.trajectory),
        overrides=dict(s.overrides), expect=expect)


def scripted_suite(variant: str = "ddm") -> list[Scenario]:
    """The 30 scripted single-agent scenarios: 15 left-to-right plus mirrors."""
    scenarios: list[Scenario] = []
    for kind, variations in (("approach", APPROACH_VARIATIONS),
                             ("recede", RECEDE_VARIATIONS),
                             ("tangent", TANGENT_VARIATIONS)):
        for i, (speed, offset) in enumerate(variations):
            base = scripted_scenario(kind, speed, offset,
                                     f"{kind}-{i:02d}-ltr", variant)
            scenarios.append(base)
            scenarios.append(mirror_scenario(base))
    return scenarios


def write_suite(directory: str | Path) -> list[Path]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in scripted_suite():
        path = out / f"{s.name}.json"
        path.write_text(emit_scenario(s))
        paths.append(path)
    return paths


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "scenarios"
    written = write_suite(target)
    print(f"wrote {len(written)} scenarios to {target}")

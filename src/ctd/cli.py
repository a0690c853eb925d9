"""Command line interface: run one scenario, compare depth layers, or run a suite."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import CtdError
from .harness import (RunArtifacts, compare_variants, emit_outputs, run_scenario,
                      write_json)
from .scenario import Scenario, parse_scenario


def _load(path: Path, seed: int | None) -> Scenario:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CtdError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CtdError(f"cannot read {path}: not UTF-8 text "
                       f"({exc.reason} at byte {exc.start})") from None
    scenario = parse_scenario(text)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    return scenario


def _out_dir(path: Path) -> Path:
    """Create the output directory before any work is done."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CtdError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def _summary_line(artifacts: RunArtifacts) -> str:
    d = artifacts.dominant
    return (f"{artifacts.scenario.name}: dominant window "
            f"[{d.window[0]:.0f}, {d.window[1]:.0f}) ms -> "
            f"direction={d.direction.value} depth={d.depth.value}")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario_file, args.seed)
    out = _out_dir(args.out)
    artifacts = run_scenario(scenario)
    emit_outputs(artifacts, out)
    print(_summary_line(artifacts))
    for name, ok in artifacts.assertions.items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(artifacts.assertions.values()) else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario_file, args.seed)
    out = _out_dir(args.out)
    comparison = compare_variants(scenario)
    emit_outputs(comparison.ddm, out / "ddm")
    emit_outputs(comparison.weights, out / "weights")
    md, mw = comparison.ddm.metrics, comparison.weights.metrics
    report = {
        "scenario": scenario.name,
        "ddm": dataclasses.asdict(md),
        "weights": dataclasses.asdict(mw),
        "orderings": comparison.orderings,
    }
    write_json(out / "comparison.json", report)
    print(f"{scenario.name}: max_step ddm={md.max_step:.3f} weights={mw.max_step:.3f}; "
          f"total_variation ddm={md.total_variation:.2f} weights={mw.total_variation:.2f}; "
          f"mean_level ddm={md.mean_level:.4f} weights={mw.mean_level:.4f}")
    for name, ok in comparison.orderings.items():
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(comparison.orderings.values()) else 1


_SUITE_SUMMARY = "suite_summary.json"


def _cmd_suite(args: argparse.Namespace) -> int:
    files = sorted(Path(args.scenario_dir).glob("*.json"))
    if not files:
        print(f"no scenario files in {args.scenario_dir}", file=sys.stderr)
        return 2
    # Each run writes to the directory named after its scenario, so two files
    # with one name would overwrite each other, and every directory is made
    # before the first run so that a name the file system refuses fails early.
    paths: dict[str, Path] = {}
    scenarios = []
    for path in files:
        scenario = _load(path, args.seed)
        if scenario.name == _SUITE_SUMMARY:
            raise CtdError(f"{path}: scenario name {_SUITE_SUMMARY!r} is the suite's "
                           f"summary file")
        if scenario.name in paths:
            raise CtdError(f"{paths[scenario.name]} and {path} both name "
                           f"scenario {scenario.name!r}")
        paths[scenario.name] = path
        scenarios.append(scenario)
    out = _out_dir(args.out)
    for name, path in paths.items():
        try:
            _out_dir(out / name)
        except CtdError as exc:
            raise CtdError(f"{path}: {exc}") from None
    all_ok = True
    results = {}
    calibration = {}
    for scenario in scenarios:
        comparison = compare_variants(scenario)
        artifacts = (comparison.ddm if scenario.variant == "ddm"
                     else comparison.weights)
        emit_outputs(artifacts, out / scenario.name)
        checks = dict(artifacts.assertions)
        for name, ok in comparison.orderings.items():
            checks[f"fig8_{name}"] = ok
        ok = all(checks.values())
        all_ok = all_ok and ok
        results[scenario.name] = checks
        calibration[scenario.name] = {
            "agree_windows": sum(r.depth is c for r, c in
                                 zip(artifacts.readouts, artifacts.correlation_depths)),
            "windows": len(artifacts.readouts),
            "ddm": dataclasses.asdict(comparison.ddm.metrics),
            "weights": dataclasses.asdict(comparison.weights.metrics),
        }
        print(f"[{'PASS' if ok else 'FAIL'}] {_summary_line(artifacts)}")
        if not ok:
            for name, passed in checks.items():
                if not passed:
                    print(f"       failed: {name}")
    agree = sum(c["agree_windows"] for c in calibration.values())
    windows = sum(c["windows"] for c in calibration.values())
    write_json(out / _SUITE_SUMMARY,
               {"all_passed": all_ok, "results": results,
                "calibration": {"agreement": agree / windows, "scenarios": calibration}})
    print(f"suite: {sum(all(c.values()) for c in results.values())}/{len(results)} passed; "
          f"circuit/correlation agreement {agree}/{windows} ({100.0 * agree / windows:.1f}%)")
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctd",
        description="Spiking curved-trajectory detection on a simulated "
                    "proximity-sensing robot.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write trace files")
    run_p.add_argument("scenario_file", type=Path)
    run_p.add_argument("--out", type=Path, required=True)
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare",
                           help="run both depth layers on identical sensing")
    cmp_p.add_argument("scenario_file", type=Path)
    cmp_p.add_argument("--out", type=Path, required=True)
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.set_defaults(func=_cmd_compare)

    suite_p = sub.add_parser("suite",
                             help="run every scenario in a directory; exit 0 "
                                  "iff all assertions pass")
    suite_p.add_argument("scenario_dir", type=Path)
    suite_p.add_argument("--out", type=Path, required=True)
    suite_p.add_argument("--seed", type=int, default=None)
    suite_p.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CtdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Runner pipeline, variation metrics, emitted files, and the CLI."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from ctd.circuits import DepthState, Direction
from ctd.cli import main as cli_main
from ctd.core import Trace
from ctd.errors import UnknownNeuron
from ctd.harness import (compare_variants, emit_outputs, potential_variation,
                         run_scenario)
from ctd.scenario import emit_scenario
from ctd.suite import canonical_scenario, scripted_scenario
from ctd.world import Encoding, Tangent


def _flat_trace(samples: dict[str, tuple[float, ...]], dt=1.0) -> Trace:
    duration = dt * len(next(iter(samples.values())))
    return Trace(dt=dt, duration=duration,
                 spikes={nid: () for nid in samples}, potentials=samples)


def test_variation_metrics_constant_trace_is_flat():
    trace = _flat_trace({"n": (0.7,) * 100})
    m = potential_variation(trace, ["n"])
    assert m.total_variation == 0.0
    assert m.max_step == 0.0
    assert m.mean_level == pytest.approx(0.7)


def test_variation_metrics_hand_example():
    # Samples [0, 1, 0] over 2 ms: raw variation 2, normalized per second.
    trace = _flat_trace({"n": (0.0, 1.0, 0.0)}, dt=2.0 / 3)
    m = potential_variation(trace, ["n"])
    assert m.total_variation == pytest.approx(2.0 / 0.002)
    assert m.max_step == 1.0


def test_variation_metrics_unknown_and_degenerate():
    trace = _flat_trace({"n": (0.0, 0.0)})
    with pytest.raises(UnknownNeuron):
        potential_variation(trace, ["ghost"])
    m = potential_variation(trace, [])
    assert m.degenerate
    assert (m.total_variation, m.max_step, m.mean_level) == (0.0, 0.0, 0.0)


def _out_of_range_scenario(name="silent", variant="ddm"):
    return dataclasses.replace(
        canonical_scenario("tangent", variant=variant),
        name=name,
        trajectory=Tangent(closest=(0.0, 5.0), velocity_mps=(0.5, 0.0),
                           t_center_ms=2500.0, duration_ms=5000.0),
        expect=None)


def test_run_scenario_canonical_depths():
    assert run_scenario(canonical_scenario("approach")).dominant.depth is DepthState.N
    assert run_scenario(canonical_scenario("recede")).dominant.depth is DepthState.F
    assert run_scenario(canonical_scenario("tangent")).dominant.depth is DepthState.M


def test_canonical_windows_read_the_expected_states():
    # The approach is hottest as it ends; the tangent peaks mid-pass.
    approach = run_scenario(canonical_scenario("approach"))
    final = approach.readouts[-1]
    assert final.window == (4750.0, 5000.0)
    assert final.depth is DepthState.N

    tangent = run_scenario(canonical_scenario("tangent"))
    central = next(r for r in tangent.readouts if r.window == (2375.0, 2625.0))
    assert central.depth is DepthState.M


def test_default_judge_matrix_singles_out_the_n_judge_on_approach():
    # The frozen weight fixture: on the canonical approach the N judge of the
    # active unit out-spikes both others strictly.
    a = run_scenario(canonical_scenario("approach", variant="weights"))
    bank = a.handles.judge_banks[a.dominant.unit_index]
    n, m, f = (a.trace.spike_count(j) for j in bank.judge_ids)
    assert n > m and n > f
    assert a.dominant.depth is DepthState.N


def test_run_scenario_canonical_approach_regression_fixture():
    # Frozen from the first calibrated run; determinism makes equality exact.
    a = run_scenario(canonical_scenario("approach"))
    assert a.metrics.total_variation == 0.6848757740432141
    assert a.metrics.max_step == 0.35
    assert a.metrics.mean_level == 0.008519436993706423
    assert a.dominant.window == (4750.0, 5000.0)
    assert a.dominant.direction is Direction.LEFT_TO_RIGHT
    assert sum(len(t) for t in a.trace.spikes.values()) == 280


def test_compare_out_of_range_agent_gives_identical_zero_metrics():
    comparison = compare_variants(_out_of_range_scenario())
    md, mw = comparison.ddm.metrics, comparison.weights.metrics
    assert md == mw
    assert (md.total_variation, md.max_step, md.mean_level) == (0.0, 0.0, 0.0)


def test_compare_canonical_approach_orderings():
    comparison = compare_variants(canonical_scenario("approach"))
    md, mw = comparison.ddm.metrics, comparison.weights.metrics
    assert md.max_step < mw.max_step
    assert md.total_variation < mw.total_variation
    assert md.mean_level >= 0.8 * mw.mean_level
    assert comparison.orderings == {"max_step": True, "total_variation": True,
                                    "mean_level": True}


def test_emit_outputs_formats(tmp_path):
    artifacts = run_scenario(
        scripted_scenario("approach", 0.5, 0.5, "emit-check"))
    paths = emit_outputs(artifacts, tmp_path)
    names = {p.name for p in paths}
    assert names == {"spikes.csv", "potentials.csv", "states.csv", "summary.json"}

    spikes = (tmp_path / "spikes.csv").read_text().splitlines()
    assert spikes[0] == "time_ms,neuron_id,neuron_role"
    total_spikes = sum(len(t) for t in artifacts.trace.spikes.values())
    assert len(spikes) - 1 == total_spikes
    times = [float(row.split(",")[0]) for row in spikes[1:]]
    assert times == sorted(times)

    potentials = (tmp_path / "potentials.csv").read_text().splitlines()
    assert potentials[0].startswith("time_ms,")
    assert len(potentials) - 1 == 5000

    states = (tmp_path / "states.csv").read_text().splitlines()
    assert states[0] == ("window_start_ms,window_end_ms,direction,"
                         "depth_circuit,depth_correlation")
    assert len(states) - 1 == len(artifacts.readouts)

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["dominant"]["depth"] == "N"
    assert summary["assertions"]["pdd_exclusivity"] is True
    assert summary["provenance"]["scenario"]["name"] == "emit-check"


def test_emit_outputs_empty_trace_headers_only(tmp_path):
    artifacts = run_scenario(_out_of_range_scenario())
    emit_outputs(artifacts, tmp_path)
    spikes = (tmp_path / "spikes.csv").read_text().splitlines()
    assert spikes == ["time_ms,neuron_id,neuron_role"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["total_spikes"] == 0


def test_emit_outputs_reruns_are_byte_identical(tmp_path):
    scenario = scripted_scenario("recede", 0.5, 0.5, "det-check")
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_outputs(run_scenario(scenario), a)
    emit_outputs(run_scenario(scenario), b)
    for name in ("spikes.csv", "potentials.csv", "states.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_potential_subsampling(tmp_path):
    artifacts = run_scenario(_out_of_range_scenario())
    emit_outputs(artifacts, tmp_path, potential_subsample=10)
    potentials = (tmp_path / "potentials.csv").read_text().splitlines()
    assert len(potentials) - 1 == 500


def test_cli_run_and_compare(tmp_path):
    scenario_file = tmp_path / "s.json"
    scenario_file.write_text(emit_scenario(
        scripted_scenario("approach", 0.5, 0.5, "cli-check")))
    out = tmp_path / "out"
    assert cli_main(["run", str(scenario_file), "--out", str(out)]) == 0
    assert (out / "spikes.csv").exists()

    out2 = tmp_path / "cmp"
    assert cli_main(["compare", str(scenario_file), "--out", str(out2)]) == 0
    report = json.loads((out2 / "comparison.json").read_text())
    assert report["orderings"] == {"max_step": True, "total_variation": True,
                                   "mean_level": True}


def test_cli_suite_exit_codes(tmp_path):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    good = scripted_scenario("approach", 0.5, 0.5, "good")
    (suite_dir / "good.json").write_text(emit_scenario(good))
    out = tmp_path / "out"
    assert cli_main(["suite", str(suite_dir), "--out", str(out)]) == 0
    summary = json.loads((out / "suite_summary.json").read_text())
    assert summary["all_passed"] is True
    assert all(v is True for v in summary["results"]["good"].values())
    calibration = summary["calibration"]
    good_run = calibration["scenarios"]["good"]
    assert 0 < good_run["agree_windows"] <= good_run["windows"] == 39
    assert calibration["agreement"] == good_run["agree_windows"] / 39
    assert set(good_run["ddm"]) == {"total_variation", "max_step", "mean_level",
                                    "degenerate"}
    assert good_run["ddm"]["max_step"] < good_run["weights"]["max_step"]

    bad = dataclasses.replace(good, name="bad",
                              expect={"depth": "F"})
    (suite_dir / "bad.json").write_text(emit_scenario(bad))
    assert cli_main(["suite", str(suite_dir), "--out", str(out)]) == 1


_THREE_SENSORS = [{"mount_deg": -30}, {"mount_deg": 0}, {"mount_deg": 30}]


@pytest.mark.parametrize("doc, field", [
    ({"sensors": {"fan": 5}}, "divisible by 3"),
    ({"sensors": [{"mount_deg": -30, "range_m": -1.0}, *_THREE_SENSORS[1:]]},
     "sensors[0].range_m"),
    ({"sensors": [_THREE_SENSORS[0], {"mount_deg": 0, "cone_half_deg": math.inf},
                  _THREE_SENSORS[2]]}, "sensors[1].cone_half_deg"),
    ({"time": {"dt_ms": math.nan}}, "time.dt_ms"),
    ({"time": {"dt_ms": 0.3, "duration_ms": 1000}}, "time.dt_ms"),
    ({"overrides": {"assess_tau": -5.0}}, "overrides.assess_tau"),
    ({"time": {"duration_ms": 100}}, "time.duration_ms"),
    ({"overrides": {"theta_active": 2.7}}, "overrides.theta_active"),
    ({"overrides": {"corr_lag_bins": 1.5}}, "overrides.corr_lag_bins"),
    ('{"time": {"duration_ms": 1%s}}' % ("0" * 400), "out of range"),
    ('{"seed": 1%s}' % ("0" * 5000), "out of range"),
    ({"expect": {"depth": ["N"]}}, "expect.depth"),
], ids=["sensor-count", "negative-range", "infinite-cone", "nan-dt",
        "dt-not-dividing", "negative-tau", "shorter-than-window",
        "fractional-theta", "fractional-lag", "float-overflow", "int-digit-limit",
        "unhashable-expect"])
def test_cli_rejects_broken_scenarios(tmp_path, capsys, doc, field):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts;
    # oversized integer literals are given as text.
    scenario_file = tmp_path / "broken.json"
    scenario_file.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert cli_main(["run", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _peak_pair_correlation(kind: str) -> float:
    from ctd.correlation import CorrelationParams, bin_spikes, normalized_profile
    from ctd.world import SpikeTrain

    a = run_scenario(canonical_scenario(kind))
    trace = a.trace
    best_pair = None
    best_count = -1
    for unit in a.handles.pdd_units:
        d = unit.detector_ids
        for pair in ((d[0], d[1]), (d[1], d[2])):
            count = len(trace.spikes[pair[0]]) + len(trace.spikes[pair[1]])
            if count > best_count:
                best_count, best_pair = count, pair
    params = CorrelationParams()
    left = bin_spikes(SpikeTrain(trace.spikes[best_pair[0]]),
                      params.bin_width_ms, trace.duration)
    right = bin_spikes(SpikeTrain(trace.spikes[best_pair[1]]),
                       params.bin_width_ms, trace.duration)
    profile = normalized_profile(left, right,
                                 range(-params.lag_bins, params.lag_bins + 1))
    return max(profile.values)


def test_peak_correlation_orders_tangent_above_approach():
    # The most active adjacent detector pair co-fires more on a straight pass
    # than on a closing one.
    assert _peak_pair_correlation("tangent") > _peak_pair_correlation("approach")


def test_overrides_flow_through_the_pipeline():
    from ctd.scenario import canonical_trajectory
    base = dataclasses.replace(canonical_scenario("approach"),
                               duration_ms=1000.0,
                               trajectory=canonical_trajectory("approach", 1000.0),
                               expect=None)

    silent = dataclasses.replace(base, overrides={"w_ext": 0.0})
    a = run_scenario(silent)
    assert sum(len(t) for t in a.trace.spikes.values()) == 0

    wide = dataclasses.replace(base, overrides={"window_ms": 500.0,
                                                "stride_ms": 250.0})
    b = run_scenario(wide)
    assert len(b.readouts) == 3
    assert all(r.window[1] - r.window[0] == 500.0 for r in b.readouts)


def test_poisson_encoding_still_resolves_approach_and_recede():
    # Robustness probe, not an acceptance gate: Bernoulli jitter leaves the
    # strongly rate-separated kinds intact (tangent M rides on a rate gate
    # that noise can pierce, so it is not asserted here).
    for kind, want in (("approach", DepthState.N), ("recede", DepthState.F)):
        for seed in (0, 1, 2):
            scenario = dataclasses.replace(canonical_scenario(kind),
                                           encoding=Encoding.POISSON,
                                           seed=seed, expect=None)
            assert run_scenario(scenario).dominant.depth is want


def test_seed_override_changes_poisson_runs(tmp_path):
    scenario = dataclasses.replace(
        scripted_scenario("approach", 0.5, 0.5, "seeded"),
        encoding=Encoding.POISSON,
        expect=None)
    scenario_file = tmp_path / "s.json"
    scenario_file.write_text(emit_scenario(scenario))
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    cli_main(["run", str(scenario_file), "--out", str(out1), "--seed", "1"])
    cli_main(["run", str(scenario_file), "--out", str(out2), "--seed", "1"])
    cli_main(["run", str(scenario_file), "--out", str(out3), "--seed", "2"])
    s1 = (out1 / "spikes.csv").read_bytes()
    assert s1 == (out2 / "spikes.csv").read_bytes()
    assert s1 != (out3 / "spikes.csv").read_bytes()

"""Runner pipeline, variation metrics, emitted files, and the CLI."""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctd.circuits import CtdParams, DepthState, Direction
from ctd.cli import main as cli_main
from ctd.core import Trace
from ctd.correlation import CorrelationParams
from ctd import harness
from ctd.harness import (_BLOCK_CELLS, compare_variants, emit_outputs,
                         potential_variation, run_scenario)
from ctd.errors import CtdError
from ctd.scenario import Scenario, emit_scenario, parse_scenario
from ctd.suite import canonical_scenario, scripted_scenario
from ctd.world import Encoding, SensorSpec, Tangent
from reference_emit import potentials_csv


def _flat_trace(samples: dict[str, tuple[float, ...]], dt=1.0) -> Trace:
    duration = dt * len(next(iter(samples.values())))
    return Trace(dt=dt, duration=duration, spikes={nid: () for nid in samples},
                 potentials=np.array(list(samples.values())).T)


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
    with pytest.raises(ValueError):
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
    bank = a.handles.depth_layers[a.dominant.unit_index]
    n, m, f = (len(a.trace.spikes[j]) for j in bank.judge_ids)
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
    trace = artifacts.trace

    def read_csv(name):
        data = (tmp_path / name).read_bytes()
        # Every line, the last included, ends in CRLF.
        assert data.endswith(b"\r\n")
        assert data.count(b"\n") == data.count(b"\r\n") == data.count(b"\r")
        with (tmp_path / name).open(newline="") as fh:
            return list(csv.reader(fh))

    def number(field):
        # Written as the float's shortest round-trip repr.
        value = float(field)
        assert field == repr(value)
        return value

    spikes = read_csv("spikes.csv")
    assert spikes[0] == ["time_ms", "neuron_id", "neuron_role"]
    assert [(number(t), nid, role) for t, nid, role in spikes[1:]] == sorted(
        (t, nid, artifacts.circuit.role_of(nid))
        for nid, times in trace.spikes.items() for t in times)

    potentials = read_csv("potentials.csv")
    assert potentials[0] == ["time_ms", *trace.neuron_ids]
    assert len(potentials) - 1 == 5000
    assert [number(row[0]) for row in potentials[1:]] == [k * trace.dt for k in range(5000)]
    values = np.array([[number(f) for f in row[1:]] for row in potentials[1:]])
    assert values.tobytes() == trace.potentials.tobytes()

    states = read_csv("states.csv")
    assert states[0] == ["window_start_ms", "window_end_ms", "direction",
                         "depth_circuit", "depth_correlation"]
    assert [(number(a), number(b), d, dc, dr) for a, b, d, dc, dr in states[1:]] == [
        (*r.window, r.direction.value, r.depth.value, c.value)
        for r, c in zip(artifacts.readouts, artifacts.correlation_depths)]

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
    a, b, c = (tmp_path / n for n in "abc")
    emit_outputs(run_scenario(scenario), a)
    emit_outputs(run_scenario(scenario), b)
    # Integer time and robot numbers are held as floats, so they write the
    # same bytes as the float values.
    emit_outputs(run_scenario(dataclasses.replace(
        scenario, dt_ms=1, duration_ms=5000, robot_x=0, robot_heading_deg=90)), c)
    for name in ("spikes.csv", "potentials.csv", "states.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes() == (c / name).read_bytes()


# Floats whose repr is an edge: signed zeros, subnormals, the largest
# subnormal and smallest normal, both sides of the switches to exponent
# notation at 1e16 and 1e-4, and the longest reprs, 24 characters. orjson lays
# out the digits otherwise below 1e-4 (0.00001, 1e-6) and from 1e16 (1e16) and
# writes null for NaN and the infinities; 10.00001 holds 0.00001 inside it.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                2.2250738585072014e-308, 9999999999999998.0, 1e16, 1.0000000000000002e16,
                -1e16, 0.0001, 9.999999999999999e-05, 0.00010000000000000002, 1e-05,
                9.999999999999999e-06, -1e-05, 1.5, -0.25, -2.2250738585072014e-308,
                -1.7976931348623157e+308, 1.5e-05, -3.25e-05, 1e-06, 1.5e-09, 1e-10,
                1.5e+16, 1e+22, 1e+100, math.nan, math.inf, -math.inf, 10.00001)


@st.composite
def _potential_tables(draw):
    width = draw(st.integers(1, 130))
    block_rows = max(1, _BLOCK_CELLS // (width + 1))
    rows = draw(st.sampled_from([0, 1, block_rows - 1, block_rows, block_rows + 1,
                                 3 * block_rows + draw(st.integers(1, block_rows))]))
    # Cells come from a small pool, so values repeat across rows and columns.
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(),
                                   st.floats(9.9e15, 1.01e16), st.floats(9.9e-5, 1.01e-4),
                                   st.floats(9.9e-6, 1.01e-5)), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(pool, dtype=np.float64)[rng.integers(len(pool), size=(rows, width))]
    dt = draw(st.sampled_from([1.0, 0.1, 0.25, 0.3]))
    return Trace(dt=dt, duration=rows * dt, spikes={f"n{j}": () for j in range(width)},
                 potentials=values)


@functools.cache
def _silent_run():
    return run_scenario(_out_of_range_scenario())


@settings(max_examples=100, deadline=None)
@given(trace=_potential_tables())
def test_potentials_csv_matches_the_per_row_reference_writer(trace):
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(dataclasses.replace(_silent_run(), trace=trace), out)
        assert (Path(out) / "potentials.csv").read_bytes() == potentials_csv(trace)


@st.composite
def _table_sequences(draw):
    # Each table after the first is its predecessor's columns permuted, as in
    # a mirrored run, or it differs in `dt`, in rows or throughout.
    tables = [draw(_potential_tables())]
    for _ in range(draw(st.integers(1, 3))):
        prev = tables[-1]
        rows, width = prev.potentials.shape
        change = draw(st.sampled_from(["mirror", "dt", "rows", "new"]))
        if change == "mirror":
            order = draw(st.permutations(range(width)))
            tables.append(dataclasses.replace(prev, potentials=prev.potentials[:, order]))
        elif change == "dt":
            dt = draw(st.sampled_from([1.0, 0.1, 0.25, 0.3]))
            tables.append(dataclasses.replace(prev, dt=dt, duration=rows * dt))
        elif change == "rows":
            keep = draw(st.integers(0, rows))
            tables.append(dataclasses.replace(prev, duration=keep * prev.dt,
                                              potentials=prev.potentials[:keep]))
        else:
            tables.append(draw(_potential_tables()))
    return tables


@settings(max_examples=60, deadline=None)
@given(tables=_table_sequences())
def test_consecutive_potentials_csvs_in_one_directory_match_the_per_row_reference_writer(tables):
    with tempfile.TemporaryDirectory() as out:
        for trace in tables:
            emit_outputs(dataclasses.replace(_silent_run(), trace=trace), out)
            assert (Path(out) / "potentials.csv").read_bytes() == potentials_csv(trace)


def _lines(trace: Trace) -> bytes:
    """potentials.csv of the trace without its header line."""
    return b"".join(harness._potential_chunks(trace.potentials, trace.dt))


def _reference_lines(trace: Trace) -> bytes:
    return potentials_csv(trace).split(b"\r\n", 1)[1]


# Exponent fields from 2^-70 to 2^60 hold every layout switch: 1e-9 to 1e-5
# (one-digit negative exponents), 1e-5 to 1e-4 (five decimal places) and 1e16.
_BITS = st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
                  st.integers(0, 1), st.one_of(st.integers(0, 2047), st.integers(953, 1083)),
                  st.integers(0, 2**52 - 1))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_potential_lines_of_any_bit_pattern_match_the_reference(width, data):
    bits = data.draw(st.lists(st.one_of(_BITS, st.integers(0, 2**64 - 1)),
                              min_size=width, max_size=40 * width))
    rows = len(bits) // width
    values = np.array(bits[:rows * width], dtype=np.uint64).view(np.float64)
    trace = Trace(dt=0.1, duration=rows * 0.1, spikes={f"n{j}": () for j in range(width)},
                  potentials=values.reshape(rows, width))
    assert _lines(trace) == _reference_lines(trace)


@pytest.mark.parametrize("values", [
    (1e-05, 1.5e-05, -3.25e-05, 9.999999999999999e-05, 0.0001),
    (1e-06, 1.5e-09, -9.999999999999999e-06, 1e-10, 5e-324),
    (1.5e+16, 1e+22, -1e+100, 1.7976931348623157e+308),
    (math.nan, math.inf, -math.inf, 0.5, -math.nan),
    (10.00001, 100.00001, -10.00003, 20.000015),
], ids=["five-places", "negative-exponents", "positive-exponents", "non-finite",
        "digits-before-five-places"])
def test_potential_lines_write_each_float_as_its_repr(values):
    trace = Trace(dt=1.0, duration=1.0, spikes={f"n{j}": () for j in range(len(values))},
                  potentials=np.array([values]))
    assert _lines(trace) == ",".join(map(repr, (0.0, *values))).encode() + b"\r\n"


# Each layout bound and the floats next to it, with both signs. A one-cell
# block is scanned only for the layout of its one cell, so a bound that is off
# by one ulp leaves that cell in orjson's layout.
_BOUNDS = (1e-9, 1e-5, 1e-4, 1e16)
_NEAR_BOUNDS = [s * x for b in _BOUNDS for s in (1.0, -1.0)
                for x in (float(np.nextafter(b, 0.0)), b, float(np.nextafter(b, math.inf)))]


@pytest.mark.parametrize("x", {repr(x): x for x in _NEAR_BOUNDS + list(_EDGE_FLOATS)}.values(),
                         ids=repr)
def test_a_one_cell_table_writes_its_float_as_its_repr(x):
    trace = Trace(dt=1.0, duration=1.0, spikes={"n0": ()}, potentials=np.array([[x]]))
    assert _lines(trace) == b"0.0," + repr(x).encode() + b"\r\n"


def _orjson_fields(values) -> list[str]:
    text = orjson.dumps(np.array(values), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",")


def _spread(lo: float, hi: float) -> list[float]:
    # Both ends of [lo, hi) and log-spaced floats inside it, with both signs.
    rng = np.random.default_rng(0)
    inner = np.exp(rng.uniform(math.log(lo), math.log(hi), 200)).tolist()
    return [s * x for x in [lo, float(np.nextafter(hi, 0.0)), *inner] for s in (1.0, -1.0)]


# _potential_chunks scans a block only for the layouts its magnitudes can
# take, so it relies on this layout of orjson's; pyproject.toml allows any
# orjson from 3.8 on.
def test_orjson_writes_repr_from_1e_4_to_1e16_below_1e_9_and_at_zero():
    values = [0.0, -0.0, 5e-324, *_spread(1e-4, 1e16), *_spread(5e-324, 1e-9)]
    assert _orjson_fields(values) == list(map(repr, values))


def test_orjson_writes_five_decimal_places_from_1e_5_to_1e_4():
    values = _spread(1e-5, 1e-4)
    for x, field in zip(values, _orjson_fields(values)):
        digits, exponent = repr(abs(x)).split("e")
        assert exponent == "-05"
        assert field == "-" * (x < 0) + "0.0000" + digits.replace(".", "")


def test_orjson_writes_a_one_digit_exponent_from_1e_9_to_1e_5():
    values = _spread(1e-9, 1e-5)
    for x, field in zip(values, _orjson_fields(values)):
        assert re.fullmatch(r"-?\d(\.\d+)?e-0\d", repr(x))
        assert field == repr(x).replace("e-0", "e-")


def test_orjson_writes_null_for_nan_and_the_infinities():
    assert _orjson_fields([math.nan, math.inf, -math.inf]) == ["null"] * 3


def test_potential_lines_of_a_fortran_ordered_view_match_the_reference():
    rng = np.random.default_rng(3)
    # The transpose of a C-ordered array is an F-ordered view, the layout
    # orjson refuses.
    values = (rng.standard_normal((7, 1500)) * 10.0 ** rng.integers(-12, 18, (7, 1500))).T
    assert values.flags.f_contiguous and not values.flags.c_contiguous
    trace = Trace(dt=0.25, duration=1500 * 0.25, spikes={f"n{j}": () for j in range(7)},
                  potentials=values)
    assert _lines(trace) == _reference_lines(trace)


def test_a_potentials_write_peaks_at_a_few_blocks(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((30000, 8)) * 10.0 ** rng.integers(-12, 18, (30000, 8))
    path = tmp_path / "potentials.csv"
    tracemalloc.start()
    try:
        harness._write_csv(path, ("time_ms", *map(str, range(8))),
                           harness._potential_chunks(values, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The file is several times the bound, and the write holds a few blocks.
    assert path.stat().st_size > 5_000_000
    assert peak < 1_000_000


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
    ({"robot": {"x": math.nan}}, "robot.x"),
    ({"robot": {"y": -math.inf}}, "robot.y"),
    ({"robot": {"heading_deg": math.inf}}, "robot.heading_deg"),
    ({"trajectory": {"kind": "tangent", "closest": [math.nan, 1]}},
     "trajectory.closest"),
    ({"trajectory": {"kind": "tangent", "t_center_ms": math.inf}},
     "trajectory.t_center_ms"),
    ({"trajectory": {"kind": "approach", "from": [math.inf, 0.0]}}, "trajectory.from"),
    ({"trajectory": {"kind": "recede", "to": [0.0, math.nan]}}, "trajectory.to"),
    ({"trajectory": {"kind": "waypoints",
                     "points": [[0, [0.0, 1.0]], [math.inf, [1.0, 1.0]]]}},
     "trajectory.points[1][0]"),
    ({"trajectory": {"kind": "waypoints",
                     "points": [[0, [0.0, 1.0]], [100, [math.nan, 1.0]]]}},
     "trajectory.points[1][1]"),
    ({"trajectory": {"kind": "waypoints", "points": [[10, [0, 1]], [5, [1, 1]]]}},
     "trajectory.points[1][0]"),
    ({"overrides": {"assess_threshold": 0.0, "assess_reset": -0.1,
                    "assess_floor": -0.2}}, "assessing"),
    ({"name": ""}, "name ''"),
    ({"name": "."}, "name '.'"),
    ({"name": ".."}, "name '..'"),
    ({"name": "../escaped"}, "name '../escaped'"),
    ({"name": "back\\slash"}, "name 'back\\\\slash'"),
    # Rejected before any allocation: the first would need a 1.6 TiB potentials array.
    ({"time": {"dt_ms": 1.0, "duration_ms": 1e10}, "trajectory": {"kind": "tangent"}},
     "time.duration_ms 10000000000.0 at time.dt_ms 1.0"),
    ({"time": {"dt_ms": 2.0 ** -10}}, "time.duration_ms 5000.0 at time.dt_ms 0.0009765625"),
], ids=["sensor-count", "negative-range", "infinite-cone", "nan-dt",
        "dt-not-dividing", "negative-tau", "shorter-than-window",
        "fractional-theta", "fractional-lag", "float-overflow", "int-digit-limit",
        "unhashable-expect", "nan-robot-x", "infinite-robot-y",
        "infinite-robot-heading", "nan-closest", "infinite-t-center",
        "infinite-from", "nan-to", "infinite-waypoint-time", "nan-waypoint-point",
        "unordered-waypoints", "threshold-at-rest",
        "empty-name", "dot-name", "dot-dot-name", "escaping-name", "backslash-name",
        "too-many-steps", "tiny-dt"])
def test_cli_rejects_broken_scenarios(tmp_path, capsys, doc, field):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts;
    # oversized integer literals are given as text.
    scenario_file = tmp_path / "broken.json"
    scenario_file.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert cli_main(["run", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# The scenario fuzz: a valid document with up to three of its keys, at any
# depth, replaced by an extreme number or a value of the wrong type, or
# dropped. The duration stays at most 500 ms, so that a document that is
# accepted runs quickly.
_EXTREMES = [0, -1, 3, 1e16, 1e300, -1e300, 5e-324, True, "x", None]
_DURATIONS = [0, 5e-324, 125, 500, -500, True, "x"]
_DROP = "drop the key"
_OVERRIDE_DEFAULTS = {**dataclasses.asdict(CtdParams()),
                      **{"corr_" + k: v for k, v in dataclasses.asdict(CorrelationParams()).items()}}
_TRAJECTORY_OBJECTS = [
    {"kind": "approach", "from": [-1.5, 2.0], "to": [-0.1, 0.5], "speed_mps": 0.5},
    {"kind": "recede", "from": [0.1, 0.5], "to": [1.5, 2.0], "speed_mps": 0.5},
    {"kind": "tangent", "closest": [0.0, 1.0], "velocity_mps": [0.5, 0.0], "t_center_ms": 250},
    {"kind": "waypoints", "points": [[0, [-1.0, 1.0]], [250, [0.0, 0.5]], [500, [1.0, 1.0]]]}]
_VALID_DOCS = st.fixed_dictionaries({
    "name": st.just("fuzz"),
    "time": st.sampled_from([{"dt_ms": 1, "duration_ms": 500}, {"dt_ms": 0.5, "duration_ms": 250}]),
    "seed": st.integers(0, 3),
    "encoding": st.sampled_from(["deterministic", "poisson"]),
    "robot": st.just({"x": 0.0, "y": 0.0, "heading_deg": 90.0}),
    "sensors": st.sampled_from([{"fan": 6}, [
        {"mount_deg": -30, "cone_half_deg": 15, "range_m": 2, "r_max_hz": 200},
        {"mount_deg": 0}, {"mount_deg": 30}]]),
    "trajectory": st.sampled_from(_TRAJECTORY_OBJECTS),
    "circuit": st.sampled_from(["ddm", "weights"]),
    "overrides": st.lists(st.sampled_from(sorted(_OVERRIDE_DEFAULTS)), max_size=3,
                          unique=True).map(lambda keys: {k: _OVERRIDE_DEFAULTS[k] for k in keys}),
    "expect": st.just({"depth": "N", "direction": "left_to_right"}),
}).map(lambda doc: json.loads(json.dumps(doc)))  # a fresh copy to change


def _key_paths(value, path=()):
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield (*path, key)
        yield from _key_paths(item, (*path, key))


@st.composite
def _extreme_documents(draw):
    doc = draw(_VALID_DOCS)
    paths = draw(st.lists(st.sampled_from(list(_key_paths(doc))), max_size=3, unique=True))
    for path in sorted(paths, key=len, reverse=True):
        holder = functools.reduce(lambda obj, key: obj[key], path[:-1], doc)
        if path[0] == "time":
            holder[path[-1]] = draw(st.sampled_from(_DURATIONS))
            continue
        droppable = [_DROP] if isinstance(holder, dict) else []
        value = draw(st.sampled_from(_EXTREMES + droppable))
        if value == _DROP:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_extreme_documents())
def test_extreme_documents_are_rejected_or_run_cleanly(doc):
    # A document either fails to parse with a CtdError, which the CLI turns
    # into exit 2, or runs and writes its files; nothing else may escape.
    try:
        scenario = parse_scenario(json.dumps(doc))
    except CtdError:
        return
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(run_scenario(scenario), out)


@pytest.mark.parametrize("command", ["run", "suite"])
def test_cli_reports_unwritable_output_files(tmp_path, capsys, command):
    scenario_file = tmp_path / "suite" / "s.json"
    scenario_file.parent.mkdir()
    scenario_file.write_text(emit_scenario(
        scripted_scenario("approach", 0.5, 0.5, "cli-check")))
    if command == "suite":
        # A run before the failing one completes, and its files stay.
        (scenario_file.parent / "a.json").write_text(emit_scenario(
            scripted_scenario("approach", 0.5, 0.5, "done-before")))
    out = tmp_path / "out"
    run_dir = out if command == "run" else out / "cli-check"
    (run_dir / "potentials.csv").mkdir(parents=True)
    source = scenario_file if command == "run" else scenario_file.parent
    assert cli_main([command, str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"cannot write {run_dir / 'potentials.csv'}: " in err
    # The failed run's spikes.csv, written before the failure, is removed.
    assert not (run_dir / "spikes.csv").exists()
    if command == "suite":
        assert {p.name for p in (out / "done-before").iterdir()} == {
            "spikes.csv", "potentials.csv", "states.csv", "summary.json"}


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-a-file"])
def test_cli_reports_unreadable_files(tmp_path, capsys, case):
    scenario_file = tmp_path / "s.json"
    scenario_file.write_text(emit_scenario(
        scripted_scenario("approach", 0.5, 0.5, "cli-check")))
    out = tmp_path / "out"
    if case == "missing":
        scenario_file = tmp_path / "absent.json"
    elif case == "directory":
        scenario_file = tmp_path / "dir.json"
        scenario_file.mkdir()
    elif case == "not-utf8":
        scenario_file.write_bytes(b'{"name": "\xff"}')
    else:
        out.write_text("")
    assert cli_main(["run", str(scenario_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(out if case == "out-is-a-file" else scenario_file) in err


def test_cli_suite_rejects_duplicate_names_before_running(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    text = emit_scenario(scripted_scenario("approach", 0.5, 0.5, "same"))
    (suite_dir / "a.json").write_text(text)
    (suite_dir / "b.json").write_text(text)
    out = tmp_path / "out"
    assert cli_main(["suite", str(suite_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(suite_dir / "a.json") in err and str(suite_dir / "b.json") in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["suite_summary.json", "x" * 300],
                         ids=["summary-file", "too-long"])
def test_cli_suite_rejects_unusable_output_names_before_running(tmp_path, capsys, name):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    # a.json sorts first, so a check made only when b.json's turn came
    # would come after a finished run.
    (suite_dir / "a.json").write_text(emit_scenario(
        scripted_scenario("approach", 0.5, 0.5, "fine")))
    (suite_dir / "b.json").write_text(emit_scenario(
        scripted_scenario("approach", 0.5, 0.5, name)))
    out = tmp_path / "out"
    assert cli_main(["suite", str(suite_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(suite_dir / "b.json") in err
    assert not list(tmp_path.rglob("spikes.csv"))


def _peak_pair_correlation(kind: str) -> float:
    from ctd.correlation import CorrelationParams
    from ctd.world import SpikeTrain
    from reference_correlation import bin_spikes, normalized_profile

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


@pytest.mark.parametrize("encoding", [
    Encoding.DETERMINISTIC_PHASE,
    pytest.param(Encoding.POISSON, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4 (PDD exclusivity under coincident "
                            "drive): overlapping cones firing in one step make two "
                            "detectors spike before the one-step-late lateral "
                            "inhibition arrives")),
])
def test_pdd_exclusivity_holds_for_overlapping_cones(encoding):
    # Three 80-degree half-cones 80 degrees apart overlap pairwise; a tangent
    # pass at 0.5 m sweeps through every overlap.
    scenario = Scenario(
        name="overlap", duration_ms=1000.0, seed=0, encoding=encoding,
        sensors=tuple(SensorSpec(m, cone_half_deg=80.0, range_m=2.0, r_max_hz=200.0)
                      for m in (-80.0, 0.0, 80.0)),
        trajectory=Tangent(closest=(0.0, 0.5), velocity_mps=(1.0, 0.0),
                           t_center_ms=500.0, duration_ms=1000.0))
    comparison = compare_variants(scenario)
    assert comparison.ddm.assertions["pdd_exclusivity"]
    assert comparison.weights.assertions["pdd_exclusivity"]


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

"""Byte-identity gate: every scripted scenario's trace files, for both circuit
variants, hash to committed digests. The ddm digests are those in
perfbench/golden.json for `ctd suite`, which runs each scripted scenario's own
(ddm) variant; the weights digests are in
golden_weights.json next to this file."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ctd.harness import emit_outputs

HERE = Path(__file__).resolve().parent
GOLDEN_DDM = HERE.parent / "perfbench" / "golden.json"
GOLDEN_WEIGHTS = HERE / "golden_weights.json"
DIGESTED = ("spikes.csv", "potentials.csv", "states.csv")


def _mismatches(compares, golden, variant: str, tmp_path) -> list[str]:
    assert sorted(s.name for s, _ in compares) == sorted(golden)
    mismatched = []
    for s, comparison in compares:
        out = tmp_path / s.name
        emit_outputs(getattr(comparison, variant), out)
        mismatched += [f"{s.name}/{name}" for name in DIGESTED
                       if hashlib.sha256((out / name).read_bytes()).hexdigest()
                       != golden[s.name][name]]
    return mismatched


def test_scripted_suite_matches_golden_digests(suite_compares, tmp_path):
    golden = json.loads(GOLDEN_DDM.read_text())["suite"]["ops"]
    compares, _ = suite_compares
    assert not _mismatches(compares, golden, "ddm", tmp_path)


def test_scripted_suite_weights_variant_matches_golden_digests(suite_compares, tmp_path):
    golden = json.loads(GOLDEN_WEIGHTS.read_text())
    compares, _ = suite_compares
    assert not _mismatches(compares, golden, "weights", tmp_path)

"""Byte-identity gate: every scripted scenario's trace files hash to the
digests committed in perfbench/golden.json for `ctd suite`."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ctd.harness import emit_outputs

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
DIGESTED = ("spikes.csv", "potentials.csv", "states.csv")


def test_scripted_suite_matches_golden_digests(suite_compares, tmp_path):
    golden = json.loads(GOLDEN.read_text())["suite"]["ops"]
    compares, _ = suite_compares
    assert sorted(s.name for s, _ in compares) == sorted(golden)
    mismatched = []
    for s, comparison in compares:
        out = tmp_path / s.name
        emit_outputs(getattr(comparison, s.variant), out)
        mismatched += [f"{s.name}/{name}" for name in DIGESTED
                       if hashlib.sha256((out / name).read_bytes()).hexdigest()
                       != golden[s.name][name]]
    assert not mismatched

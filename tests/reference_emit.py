"""Reference potentials writer: the per-row code that
`ctd.harness._potential_chunks` replaced. Each row is the step's time `k * dt`
followed by the row's floats, every field written with str, one row at a time.
The tests in test_harness.py require `emit_outputs`, which formats each row
block with orjson and translates its layout to repr's, to write these bytes to
potentials.csv.
"""

from __future__ import annotations

from ctd.core import Trace


def potentials_csv(trace: Trace) -> bytes:
    """potentials.csv of one trace: a header line, then one line per step."""
    rows = [("time_ms", *trace.neuron_ids)]
    rows += [(k * trace.dt, *row.tolist()) for k, row in enumerate(trace.potentials)]
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows).encode()

"""Reference trace writers: the per-row code that `ctd.harness._spike_chunks`
and `ctd.harness._potential_chunks` replaced. Every field is written with str,
one row at a time. The tests in test_harness.py require `emit_outputs`, which
formats blocks of floats with orjson and translates their layout to repr's,
to write these bytes to spikes.csv and potentials.csv.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ctd.core import Trace


def _csv(rows: Iterable[Sequence]) -> bytes:
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows).encode()


def spikes_csv(trace: Trace, role_of: Callable[[str], str]) -> bytes:
    """spikes.csv of one trace: a header line, then one line per spike,
    ordered by time and then by neuron id."""
    spikes = sorted((t, nid) for nid, times in trace.spikes.items() for t in times)
    return _csv([("time_ms", "neuron_id", "neuron_role"),
                 *((t, nid, role_of(nid)) for t, nid in spikes)])


def potentials_csv(trace: Trace) -> bytes:
    """potentials.csv of one trace: a header line, then one line per step."""
    return _csv([("time_ms", *trace.neuron_ids),
                 *((k * trace.dt, *row.tolist()) for k, row in enumerate(trace.potentials))])

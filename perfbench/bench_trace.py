"""Span tracing and per-layer counters, attached to ctd from outside.

The tracer replaces module attributes of ctd with wrappers while it is
installed, so the program itself carries no tracing code. Each wrapped call
records one span (name, start, end, parent, op). Counters are computed after
the call returns, inside a span of their own named ``counters`` so that their
cost is visible and never lands in a layer's or the pass's self time.

ctd has no queues and no retries, so no layer has wait or retry metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

# module -> {attribute: layer}. parse_scenario is wrapped in ctd.scenario too,
# for workloads that hand JSON text to the parser directly.
TARGETS = {
    "ctd.harness": {
        "sense_scenario": "sense",
        "build_ctd": "build",
        "simulate": "simulate",
        "classify": "classify",
        "classify_by_correlation": "correlate",
        "potential_variation": "check",
        "pdd_exclusivity_ok": "check",
        "seizure_damped": "check",
    },
    "ctd.cli": {"parse_scenario": "parse", "emit_outputs": "emit"},
    "ctd.scenario": {"parse_scenario": "parse"},
}

LAYERS = ("parse", "sense", "build", "simulate", "classify", "correlate",
          "check", "emit")
COUNTER_SPAN = "counters"


# --------------------------------------------------------------------------
# Counters, from public attributes and return values only
# --------------------------------------------------------------------------

def simulate_counts(circuit, drive, duration, dt, trace) -> dict[str, int]:
    """Work done by one simulate call.

    An arrival cell is a (step, neuron) pair that receives at least one
    delivery inside the horizon: a drive spike through an input port, or a
    synaptic delivery from a spike. A coincident cell receives two or more,
    which is where summation order could matter.
    """
    n_steps = int(round(duration / dt))
    cells: Counter = Counter()
    for port, train in drive.items():
        neuron = circuit.input_ports[port].neuron
        for s in train.times:
            cells[(int(math.floor(s / dt + 1e-9)), neuron)] += 1
    outgoing = defaultdict(list)
    for syn in circuit.synapses:
        outgoing[syn.pre].append((syn.delay, syn.post))
    spikes = 0
    for pre, times in trace.spikes.items():
        spikes += len(times)
        targets = outgoing.get(pre)
        if not targets:
            continue
        for t in times:
            k = int(round(t / dt))
            for delay, post in targets:
                if k + delay < n_steps:
                    cells[(k + delay, post)] += 1
    return {
        "neuron_steps": len(circuit.neuron_ids) * n_steps,
        "spikes": spikes,
        "deliveries": sum(cells.values()),
        "arrival_cells": len(cells),
        "coincident_cells": sum(1 for c in cells.values() if c >= 2),
    }


def _count_sense(counts, a, result):
    n_steps = int(round(a["traj"].duration_ms / a["dt_ms"]))
    counts["sense"].update(sensor_steps=len(a["sensors"]) * n_steps,
                           spikes=sum(len(t.times) for t in result))


def _count_build(counts, a, result):
    circuit, _ = result
    counts["build"].update(neurons=len(circuit.neuron_ids),
                           synapses=len(circuit.synapses))


def _count_simulate(counts, a, result):
    counts["simulate"].update(simulate_counts(a["circuit"], a["drive"],
                                              a["duration"], a["dt"], result))


def _count_classify(counts, a, result):
    counts["classify"].update(windows=len(result))


def count_agreement(counts, artifacts) -> None:
    """Readout windows where the circuit's depth equals the correlation depth."""
    pairs = list(zip(artifacts.readouts, artifacts.correlation_depths))
    counts["correlate"].update(agree_windows=sum(r.depth == c for r, c in pairs),
                               compared_windows=len(pairs))


def _count_emit(counts, a, result):
    counts["emit"].update(bytes=sum(Path(p).stat().st_size for p in result))
    count_agreement(counts, a["artifacts"])


COUNTERS = {"sense": _count_sense, "build": _count_build,
            "simulate": _count_simulate, "classify": _count_classify,
            "emit": _count_emit}


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------

class Tracer:
    """Records spans and counters while installed; keeps spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = 0
        self._saved: list[tuple[object, str, object]] = []

    # spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # An op is one scenario: it starts with an op region opened by the
        # benchmark, or with a parse call made directly inside a whole pass.
        if name == "op" or (name == "parse" and parent is not None
                            and self.spans[parent]["name"] != "op"):
            self.op += 1
        self.spans.append({"id": sid, "name": name, "op": self.op,
                           "parent": parent,
                           "start": time.perf_counter_ns(), "end": None})
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("span stack out of order")

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself, around a timed region."""
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    # installation ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every TARGETS attribute of the given imported modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attrs in TARGETS.items():
            module = modules[mod_name]
            for attr, layer in attrs.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer: str):
        signature = inspect.signature(fn)
        count = COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            cid = tracer.open(COUNTER_SPAN)
            tracer.counts[layer]["calls"] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer.counts, bound.arguments, result)
            tracer.close(cid)
            return result

        return wrapper

    # analysis ------------------------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        """Span id -> duration minus the durations of its direct children."""
        own = {span["id"]: span["end"] - span["start"] for span in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """All spans of a run, one JSON object per line, tagged with their pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for index, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": index, **span}, separators=(",", ":")) + "\n")

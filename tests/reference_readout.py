"""Reference readout and check: the per-window bisect `classify` and the
interval-merge `pdd_exclusivity_ok` that `ctd.circuits.classify` and
`ctd.harness.pdd_exclusivity_ok` replaced. Each window makes two bisects per
neuron for its spike count and first spike, and exclusivity merges each
detector's multi-spike intervals before walking two lists at a time. The
property tests in test_circuits.py require the sorted-search code to
reproduce both exactly.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from ctd.circuits import (CognitiveReadout, CtdHandles, CtdParams, Direction, PddUnit,
                          _depth_layer_ids, read_depth)
from ctd.core import Trace


def spike_count(times: Sequence[float], t0: float, t1: float) -> int:
    """Spikes in the half-open window [t0, t1)."""
    return bisect.bisect_left(times, t1) - bisect.bisect_left(times, t0)


def first_spike(times: Sequence[float], t0: float, t1: float) -> float | None:
    lo = bisect.bisect_left(times, t0)
    if lo < len(times) and times[lo] < t1:
        return times[lo]
    return None


def read_direction(trace: Trace, unit: PddUnit, window: tuple[float, float]) -> Direction:
    """Order of first detector activity inside the window."""
    t0, t1 = window
    firsts = [first_spike(trace.spikes[nid], t0, t1) for nid in unit.detector_ids]
    times = [ft for ft in firsts if ft is not None]
    if len(times) < 2:
        return Direction.UNDETERMINED
    if all(a < b for a, b in zip(times, times[1:])):
        return Direction.LEFT_TO_RIGHT
    if all(a > b for a, b in zip(times, times[1:])):
        return Direction.RIGHT_TO_LEFT
    return Direction.UNDETERMINED


def trace_direction(trace: Trace, units: Sequence[PddUnit]) -> Direction:
    """Whole-trace direction: most active unit first, then the others."""
    window = (0.0, trace.duration)
    ranked = sorted(
        units,
        key=lambda u: (-sum(len(trace.spikes[d]) for d in u.detector_ids), u.index))
    for unit in ranked:
        d = read_direction(trace, unit, window)
        if d is not Direction.UNDETERMINED:
            return d
    return Direction.UNDETERMINED


def classify(trace: Trace, handles: CtdHandles,
             params: CtdParams = CtdParams()) -> list[CognitiveReadout]:
    """Sliding-window readout, counting every window with its own bisects."""
    w = params.window_ms
    s = params.stride_ms
    if w > trace.duration:
        raise ValueError(
            f"window {w} ms exceeds trace duration {trace.duration} ms")
    units = handles.pdd_units
    global_dir = trace_direction(trace, units)
    readouts: list[CognitiveReadout] = []
    t0 = 0.0
    while t0 + w <= trace.duration + 1e-9:
        window = (t0, t0 + w)
        det = [[spike_count(trace.spikes[d], *window) for d in u.detector_ids]
               for u in units]
        best = max(range(len(units)), key=lambda i: (sum(det[i]), -i))
        unit, layer = units[best], handles.depth_layers[best]
        det_count = sum(det[best])

        direction = read_direction(trace, unit, window)
        if direction is Direction.UNDETERMINED and det_count > 0:
            direction = global_dir

        evidence = dict(zip(unit.detector_ids, det[best]))
        evidence.update((nid, spike_count(trace.spikes[nid], *window))
                        for nid in _depth_layer_ids(layer))
        depth, decisiveness = read_depth(layer, evidence, direction, params.theta_active)
        readouts.append(CognitiveReadout(window=window, direction=direction,
                                         depth=depth, evidence=evidence,
                                         unit_index=unit.index,
                                         decisiveness=decisiveness,
                                         detector_count=det_count))
        t0 += s
    return readouts


def multi_spike_starts(times: Sequence[float], w: float) -> list[tuple[float, float]]:
    """Merged half-open intervals (lo, hi] of window starts t for which
    [t, t+w) contains at least two spikes of this train."""
    intervals: list[tuple[float, float]] = []
    for a, b in zip(times, times[1:]):
        if b - a < w:
            lo, hi = b - w, a
            if intervals and lo <= intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], hi)
            else:
                intervals.append((lo, hi))
    return intervals


def any_overlap(a: Sequence[tuple[float, float]],
                b: Sequence[tuple[float, float]]) -> bool:
    # Both lists are sorted and disjoint, so an interval that ends first
    # cannot overlap anything later in the other list.
    i = j = 0
    while i < len(a) and j < len(b):
        (lo1, hi1), (lo2, hi2) = a[i], b[j]
        if max(lo1, lo2) < min(hi1, hi2):
            return True
        if hi1 <= hi2:
            i += 1
        else:
            j += 1
    return False


def pdd_exclusivity_ok(trace: Trace, units: Sequence[PddUnit], window_ms: float) -> bool:
    """True when no window_ms window holds two multi-spiking detectors of one unit."""
    for unit in units:
        per_det = [multi_spike_starts(trace.spikes[d], window_ms)
                   for d in unit.detector_ids]
        for i in range(len(per_det)):
            for j in range(i + 1, len(per_det)):
                if any_overlap(per_det[i], per_det[j]):
                    return False
    return True

"""Cross-correlation algebra, the per-run correlation depth check against the
per-window reference path, and that path's own helpers."""

from __future__ import annotations

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctd import correlation
from ctd.circuits import DepthState, Direction
from ctd.core import ConnectionKind
from ctd.correlation import (BinnedTrain, CorrelationParams, classify_by_correlation,
                             signed_xcorr, xcorr)
from ctd.world import SpikeTrain, encode_spikes
import reference_correlation as ref
from reference_correlation import HorizonTooShort, bin_spikes, from_kind, normalized_profile


def _bt(counts, sign=1, bin_width=10.0):
    return BinnedTrain(tuple(counts), bin_width, sign)


def test_bin_spikes_places_counts_and_preserves_totals():
    assert bin_spikes(SpikeTrain(()), 10.0, 30.0).counts == (0, 0, 0)
    train = SpikeTrain((5.0, 15.0, 25.0))
    assert bin_spikes(train, 10.0, 30.0).counts == (1, 1, 1)

    rng = random.Random(42)
    times = sorted(rng.sample([0.1 * k for k in range(1, 40000)], 1000))
    train = SpikeTrain(tuple(times))
    for width in (1.0, 7.0, 33.0):
        binned = bin_spikes(train, width, 4000.0)
        assert sum(binned.counts) == 1000


def test_bin_spikes_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        bin_spikes(SpikeTrain((5.0, 50.0)), 10.0, 30.0)


def test_xcorr_hand_examples():
    assert xcorr(_bt([1, 0, 1]), _bt([1, 0, 1]), 0) == 2
    assert xcorr(_bt([0, 1, 0]), _bt([0, 0, 1]), 1) == 1
    assert xcorr(_bt([3, 1, 4]), _bt([0, 0, 0]), 0) == 0
    assert xcorr(_bt([1, 2]), _bt([1, 2]), 5) == 0


def test_xcorr_rejects_bin_mismatch():
    with pytest.raises(ValueError):
        xcorr(_bt([1], bin_width=10.0), _bt([1], bin_width=5.0), 0)


def _brute_force(x, y, w):
    total = 0
    for k in range(len(x)):
        j = k + w
        if 0 <= j < len(y):
            total += x[k] * y[j]
    return total


def test_xcorr_matches_brute_force_on_random_pairs():
    rng = random.Random(7)
    for _ in range(100):
        nx, ny = rng.randint(1, 64), rng.randint(1, 64)
        x = [rng.randint(0, 5) for _ in range(nx)]
        y = [rng.randint(0, 5) for _ in range(ny)]
        for _ in range(5):
            w = rng.randint(-ny, ny)
            assert xcorr(_bt(x), _bt(y), w) == _brute_force(x, y, w)


def test_xcorr_symmetry():
    rng = random.Random(11)
    for _ in range(50):
        x = [rng.randint(0, 3) for _ in range(rng.randint(1, 32))]
        y = [rng.randint(0, 3) for _ in range(rng.randint(1, 32))]
        w = rng.randint(-8, 8)
        assert xcorr(_bt(x), _bt(y), w) == xcorr(_bt(y), _bt(x), -w)


def test_signed_xcorr_sign_algebra():
    x, y = [1, 0, 1], [1, 0, 1]
    assert signed_xcorr(_bt(x, 1), _bt(y, 1), 0) == 2
    assert signed_xcorr(_bt(x, 1), _bt(y, -1), 0) == -2
    assert signed_xcorr(_bt(x, -1), _bt(y, -1), 0) == 2
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.randint(0, 4) for _ in range(16)]
        b = [rng.randint(0, 4) for _ in range(16)]
        sa, sb = rng.choice([1, -1]), rng.choice([1, -1])
        w = rng.randint(-4, 4)
        assert (signed_xcorr(_bt(a, sa), _bt(b, sb), w)
                == sa * sb * xcorr(_bt(a), _bt(b), w))


def test_binned_train_sign_from_connection_kind():
    t = from_kind([1, 2], 10.0, ConnectionKind.INHIBITORY)
    assert t.sign == -1
    with pytest.raises(ValueError):
        BinnedTrain((1,), 10.0, sign=0)


def test_normalized_profile_self_scale_and_degenerate():
    x = _bt([1, 0, 2, 1])
    prof = normalized_profile(x, x, [0])
    assert prof.values[0] == pytest.approx(1.0)

    prof = normalized_profile(_bt([2, 0, 2]), _bt([1, 0, 1]), [0])
    assert prof.values[0] == pytest.approx(1.0)  # 4 / sqrt(8 * 2)

    prof = normalized_profile(_bt([1, 0, 0]), _bt([0, 0, 1]), [0])
    assert prof.values[0] == 0.0

    prof = normalized_profile(_bt([0, 0]), _bt([1, 1]), [-1, 0, 1])
    assert prof.degenerate
    assert prof.values == (0.0, 0.0, 0.0)


def test_normalized_profile_rejects_bin_mismatch_even_when_degenerate():
    with pytest.raises(ValueError):
        normalized_profile(_bt([0, 0]), _bt([1, 1], bin_width=5.0), [0])


def test_normalized_profile_scale_invariance():
    rng = random.Random(5)
    lags = list(range(-5, 6))
    for _ in range(20):
        x = [rng.randint(0, 4) for _ in range(24)]
        y = [rng.randint(0, 4) for _ in range(24)]
        if not any(x) or not any(y):
            continue
        base = normalized_profile(_bt(x), _bt(y), lags)
        scaled = normalized_profile(_bt([3 * v for v in x]), _bt(y), lags)
        for a, b in zip(base.values, scaled.values):
            assert a == pytest.approx(b, abs=1e-12)
        assert all(abs(v) <= 1.0 + 1e-9 for v in base.values)


def _one_window(left: SpikeTrain, right: SpikeTrain, direction: Direction,
                params: CorrelationParams, duration_ms: float) -> DepthState:
    """The per-run check on one window [0, duration_ms) of the pair (left, right)."""
    (depth,) = classify_by_correlation({"left": left.times, "right": right.times},
                                       [(0.0, duration_ms)], [("left", "right")],
                                       [direction], params)
    return depth


def test_classifier_identical_trains_read_m():
    train = encode_spikes([150.0] * 1000, 1.0)
    params = CorrelationParams()
    state = _one_window(train, train, Direction.LEFT_TO_RIGHT, params, 1000.0)
    assert state is DepthState.M


def _phase(rate: float, start: float, stop: float) -> SpikeTrain:
    # One cone-visit phase: active at the given rate only inside [start, stop)
    return encode_spikes([rate if start <= k < stop else 0.0 for k in range(1000)],
                         1.0)


def test_classifier_hotter_later_side_reads_n():
    # Closing pass: the earlier-visited side saw the agent far (sparse train),
    # the later-visited side saw it near (3x the spikes, hot). The phases are
    # disjoint in time, as adjacent touching cones produce.
    earlier = _phase(150.0, 0.0, 300.0)     # 45 spikes
    later = _phase(225.0, 400.0, 1000.0)    # 135 spikes, well above the gate
    assert len(later) == 3 * len(earlier)
    params = CorrelationParams()
    # right-to-left: the left train is the later-visited side
    state = _one_window(later, earlier, Direction.RIGHT_TO_LEFT, params, 1000.0)
    assert state is DepthState.N
    state = _one_window(later, earlier, Direction.LEFT_TO_RIGHT, params, 1000.0)
    assert state is DepthState.F


def test_classifier_gates():
    params = CorrelationParams()
    empty = SpikeTrain(())
    assert _one_window(empty, empty, Direction.LEFT_TO_RIGHT,
                       params, 1000.0) is DepthState.M
    # hot side below the rate floor: no depth claim
    left = _phase(60.0, 0.0, 1000.0)
    assert _one_window(left, empty, Direction.LEFT_TO_RIGHT,
                       params, 1000.0) is DepthState.M
    # undetermined direction: no depth claim
    hot = _phase(150.0, 0.0, 1000.0)
    assert _one_window(hot, empty, Direction.UNDETERMINED,
                       params, 1000.0) is DepthState.M
    # both phases hot but within the relative-rate band: M
    a = _phase(200.0, 0.0, 600.0)    # 120 spikes
    b = _phase(290.0, 650.0, 1000.0)  # ~101 spikes; gap under 20 percent
    assert _one_window(a, b, Direction.LEFT_TO_RIGHT,
                       params, 1000.0) is DepthState.M


# --------------------------------------------------------------------------
# The per-run check against the per-window reference path, exactly
# --------------------------------------------------------------------------

@st.composite
def _equal_length_counts(draw):
    n = draw(st.integers(1, 40))
    side = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    return draw(side), draw(side)


@settings(max_examples=300, deadline=None)
@given(xy=_equal_length_counts(), lag_bins=st.integers(0, 45))
@example(xy=([60_000, 1], [70_000, 2]), lag_bins=1)
def test_normalized_profile_matches_reference(xy, lag_bins):
    # The per-run check's peak is the reference profile's peak to the bit: a
    # window reads correlated at exactly that threshold and not one ulp above.
    # The example's zero-lag autocorrelations multiply past int64.
    x, y = xy
    profile = normalized_profile(_bt(x), _bt(y), range(-lag_bins, lag_bins + 1))
    if profile.degenerate:
        return
    peak = max(profile.values)
    rows = np.array([x]), np.array([y])
    assert correlation._correlated(*rows, lag_bins, peak).tolist() == [True]
    above = math.nextafter(peak, math.inf)
    assert correlation._correlated(*rows, lag_bins, above).tolist() == [False]


@st.composite
def _runs(draw):
    """Detector spikes, readout windows, pairs and directions of one run.

    The windows come from the readout's own `t0 += stride` sums. Strides that
    are not exact in binary make the window durations t1 - t0 differ by
    rounding, and strides that are not multiples of the bin width move the
    bin edges against the dt grid. Spikes fall on the grid and exactly on
    window and bin edges; a detector may stay silent, so windows can be empty
    or one-sided.
    """
    dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    bin_width = dt * draw(st.sampled_from([1.0, 2.5, 3.0, 7.0, 10.0]))
    w = draw(st.sampled_from([1.0, 3.3, 10.0, 25.0]))
    stride = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5, 7.0]))
    n_steps = math.ceil((draw(st.integers(0, 30)) * stride + w) / dt) + draw(st.integers(0, 3))
    duration = n_steps * dt
    starts = [0.0]
    while starts[-1] + stride + w <= duration + 1e-9:
        starts.append(starts[-1] + stride)
    windows = [(t0, t0 + w) for t0 in starts]
    n_bins = math.ceil(w / bin_width - 1e-9)
    edges = [t for t0 in starts for t in (t0 + w, *(t0 + j * bin_width for j in range(n_bins)))
             if t < duration]
    times = st.one_of(st.integers(0, n_steps - 1).map(lambda k: k * dt),
                      st.sampled_from(edges))
    names = ("a", "b", "c")
    spikes = {}
    for nid in names:
        # A simulated train's spikes lie at least dt apart; an edge and a grid
        # time one ulp apart would merge once shifted to the window's start.
        ts = sorted(set(draw(st.lists(times, max_size=60))))
        spikes[nid] = tuple(t for t, prev in zip(ts, [-1.0, *ts]) if t - prev > 1e-6)
    n = len(windows)
    pairs = draw(st.lists(st.none() | st.tuples(st.sampled_from(names),
                                                st.sampled_from(names)),
                          min_size=n, max_size=n))
    directions = draw(st.lists(st.sampled_from(list(Direction)), min_size=n, max_size=n))
    params = CorrelationParams(
        bin_width_ms=bin_width,
        lag_bins=draw(st.integers(0, n_bins)),
        theta_m=draw(st.sampled_from([0.0, 0.3, 0.6, 1.0, 1.5])),
        theta_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        min_rate_hz=draw(st.sampled_from([0.0, 115.0])))
    return spikes, windows, pairs, directions, params


@settings(max_examples=300, deadline=None)
@given(case=_runs(), chunk=st.sampled_from([1, 7, 64, correlation._CHUNK_CELLS]))
def test_classify_by_correlation_matches_reference(case, chunk):
    # Small chunk budgets split a run's windows over many chunks.
    with mock.patch.object(correlation, "_CHUNK_CELLS", chunk):
        assert classify_by_correlation(*case) == ref.classify_windows(*case)


def test_classify_by_correlation_memory_is_bounded_by_the_chunk_budget():
    # stride = dt = bin width: 2,001 windows of 2,000 bins, so each side's
    # dense windows × bins count matrix would take 32 MB.
    w, steps = 2000.0, 4000
    spikes = {"a": tuple(float(k) for k in range(0, steps, 3)),
              "b": tuple(float(k) for k in range(1, steps, 4))}
    windows = [(float(k), k + w) for k in range(steps - int(w) + 1)]
    pairs = [("a", "b")] * len(windows)
    directions = [Direction.LEFT_TO_RIGHT] * len(windows)
    params = CorrelationParams(bin_width_ms=1.0)
    tracemalloc.start()
    try:
        depths = classify_by_correlation(spikes, windows, pairs, directions, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert depths[::400] == ref.classify_windows(spikes, windows[::400], pairs[::400],
                                                 directions[::400], params)
    # A chunk holds a few arrays of at most about twice the budget; the run
    # holds a few per window and per spike.
    bound = 16 * 8 * correlation._CHUNK_CELLS + 256 * (len(windows) + steps)
    assert bound < 2 * len(windows) * int(w) * 8
    assert peak < bound

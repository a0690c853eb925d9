"""Binning, cross-correlation algebra, and the correlation depth classifier."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctd.circuits import DepthState, Direction
from ctd.core import ConnectionKind
from ctd.correlation import (BinnedTrain, CorrelationParams, bin_spikes,
                             classify_by_correlation, normalized_profile,
                             signed_xcorr, xcorr)
from ctd.errors import BinMismatch, HorizonTooShort
from ctd.world import SpikeTrain, encode_spikes
import reference_correlation as ref


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
    with pytest.raises(BinMismatch):
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
    t = BinnedTrain.from_kind([1, 2], 10.0, ConnectionKind.INHIBITORY)
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
    with pytest.raises(BinMismatch):
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


def test_classifier_identical_trains_read_m():
    train = encode_spikes([150.0] * 1000, 1.0)
    params = CorrelationParams()
    state = classify_by_correlation(train, train, Direction.LEFT_TO_RIGHT,
                                    params, 1000.0)
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
    state = classify_by_correlation(later, earlier, Direction.RIGHT_TO_LEFT,
                                    params, 1000.0)
    assert state is DepthState.N
    state = classify_by_correlation(later, earlier, Direction.LEFT_TO_RIGHT,
                                    params, 1000.0)
    assert state is DepthState.F


def test_classifier_gates():
    params = CorrelationParams()
    empty = SpikeTrain(())
    assert classify_by_correlation(empty, empty, Direction.LEFT_TO_RIGHT,
                                   params, 1000.0) is DepthState.M
    # hot side below the rate floor: no depth claim
    left = _phase(60.0, 0.0, 1000.0)
    assert classify_by_correlation(left, empty, Direction.LEFT_TO_RIGHT,
                                   params, 1000.0) is DepthState.M
    # undetermined direction: no depth claim
    hot = _phase(150.0, 0.0, 1000.0)
    assert classify_by_correlation(hot, empty, Direction.UNDETERMINED,
                                   params, 1000.0) is DepthState.M
    # both phases hot but within the relative-rate band: M
    a = _phase(200.0, 0.0, 600.0)    # 120 spikes
    b = _phase(290.0, 650.0, 1000.0)  # ~101 spikes; gap under 20 percent
    assert classify_by_correlation(a, b, Direction.LEFT_TO_RIGHT,
                                   params, 1000.0) is DepthState.M


# --------------------------------------------------------------------------
# The array path against the per-lag reference path, exactly
# --------------------------------------------------------------------------

_counts = st.lists(st.integers(0, 6), max_size=40)


@settings(max_examples=300, deadline=None)
@given(x=_counts, y=_counts, lags=st.lists(st.integers(-50, 50), max_size=25))
def test_normalized_profile_matches_reference(x, y, lags):
    # Empty sides, all-zero sides and lags beyond the overlap included.
    assert (normalized_profile(_bt(x), _bt(y), lags)
            == ref.normalized_profile(_bt(x), _bt(y), lags))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HorizonTooShort as exc:
        return type(exc)


@st.composite
def _window_cases(draw):
    dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    steps = draw(st.integers(1, 400))
    horizon = steps * dt
    # Spike times on the step grid up to and including the horizon itself.
    train = st.sets(st.integers(0, steps), max_size=200).map(
        lambda ks: SpikeTrain(tuple(k * dt for k in sorted(ks))))
    left, right = draw(train), draw(train)
    if draw(st.integers(0, 9)) == 0:
        horizon -= dt / 2    # shorter than the last spike, now and then
    params = CorrelationParams(
        bin_width_ms=draw(st.sampled_from([0.7, 1.0, 2.5, 10.0, 33.0])),
        lag_bins=draw(st.integers(0, 60)),
        theta_m=draw(st.sampled_from([0.0, 0.3, 0.6, 1.0, 1.5])),
        theta_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        min_rate_hz=draw(st.sampled_from([0.0, 115.0])))
    direction = draw(st.sampled_from(list(Direction)))
    return left, right, direction, params, horizon


@settings(max_examples=300, deadline=None)
@given(case=_window_cases())
def test_classify_by_correlation_matches_reference(case):
    left, right, direction, params, horizon = case
    assert (_outcome(classify_by_correlation, *case)
            == _outcome(ref.classify_by_correlation, *case))
    for train in (left, right):
        assert (_outcome(bin_spikes, train, params.bin_width_ms, horizon)
                == _outcome(ref.bin_spikes, train, params.bin_width_ms, horizon))

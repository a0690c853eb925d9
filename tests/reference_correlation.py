"""Reference correlation path, one window at a time: the per-window, per-bin
and per-lag code that the per-run `ctd.correlation.classify_by_correlation`
replaced. `window` cuts a detector's train to one readout window, binning
walks the spike times one by one, and the profile makes one `xcorr` call per
lag plus two for the zero-lag autocorrelations. `classify_windows` runs the
per-window classifier over a run's readout windows as the harness once did;
the property tests in test_correlation.py require the per-run check to
reproduce it bit for bit. The tests also exercise `bin_spikes`,
`normalized_profile` and `from_kind` on their own.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ctd.circuits import DepthState, Direction
from ctd.core import ConnectionKind
from ctd.correlation import BinnedTrain, CorrelationParams, xcorr
from ctd.errors import CtdError
from ctd.world import SpikeTrain


class HorizonTooShort(CtdError):
    """Binning horizon ends before the last spike of the train."""


@dataclass(frozen=True)
class CorrelationProfile:
    lags: tuple[int, ...]
    values: tuple[float, ...]
    degenerate: bool = False


def from_kind(counts: Sequence[int], bin_width: float,
              kind: ConnectionKind) -> BinnedTrain:
    """Counts carrying the sign of the connection that delivers them."""
    return BinnedTrain(tuple(int(c) for c in counts), bin_width, kind.sign)


def window(train: SpikeTrain, t0: float, t1: float) -> SpikeTrain:
    """Spikes in [t0, t1), shifted so the window starts at 0."""
    lo = bisect.bisect_left(train.times, t0)
    hi = bisect.bisect_left(train.times, t1)
    return SpikeTrain(tuple(t - t0 for t in train.times[lo:hi]))


def bin_spikes(train: SpikeTrain, bin_width: float, horizon: float) -> BinnedTrain:
    """Counts per [i*w, (i+1)*w) bin; a spike landing exactly on the horizon
    goes into the last bin. Total count is preserved."""
    if bin_width <= 0 or horizon <= 0:
        raise ValueError("bin width and horizon must be positive")
    if train.times and train.times[-1] > horizon:
        raise HorizonTooShort(
            f"horizon {horizon} ends before last spike {train.times[-1]}")
    n_bins = max(1, math.ceil(horizon / bin_width - 1e-9))
    counts = [0] * n_bins
    for t in train.times:
        counts[min(int(t / bin_width), n_bins - 1)] += 1
    return BinnedTrain(tuple(counts), bin_width)


def normalized_profile(x: BinnedTrain, y: BinnedTrain,
                       lags: Sequence[int]) -> CorrelationProfile:
    """Correlation per lag over the geometric mean of the zero-lag
    autocorrelations; all-zero and degenerate when either side is."""
    if x.bin_width != y.bin_width:
        raise ValueError(f"bin widths differ: {x.bin_width} vs {y.bin_width}")
    lag_tuple = tuple(int(w) for w in lags)
    x0 = xcorr(x, x, 0)
    y0 = xcorr(y, y, 0)
    if x0 == 0 or y0 == 0:
        return CorrelationProfile(lag_tuple, (0.0,) * len(lag_tuple), degenerate=True)
    norm = math.sqrt(x0 * y0)
    values = tuple(xcorr(x, y, w) / norm for w in lag_tuple)
    return CorrelationProfile(lag_tuple, values)


def classify_by_correlation(left: SpikeTrain, right: SpikeTrain,
                            direction: Direction, params: CorrelationParams,
                            duration_ms: float) -> DepthState:
    """Peak normalized correlation, then the direction and the two rates."""
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if not left.times and not right.times:
        return DepthState.M

    lb = bin_spikes(left, params.bin_width_ms, duration_ms)
    rb = bin_spikes(right, params.bin_width_ms, duration_ms)
    lags = range(-params.lag_bins, params.lag_bins + 1)
    profile = normalized_profile(lb, rb, lags)
    if not profile.degenerate and max(profile.values) >= params.theta_m:
        return DepthState.M
    if direction is Direction.UNDETERMINED:
        return DepthState.M

    dur_s = duration_ms / 1000.0
    rate_left = len(left) / dur_s
    rate_right = len(right) / dur_s
    later, earlier = ((rate_right, rate_left)
                      if direction is Direction.LEFT_TO_RIGHT
                      else (rate_left, rate_right))
    hottest = max(rate_left, rate_right)
    if hottest < params.min_rate_hz:
        return DepthState.M
    rel = (later - earlier) / hottest
    if rel >= params.theta_rate:
        return DepthState.N
    if rel <= -params.theta_rate:
        return DepthState.F
    return DepthState.M


def classify_windows(spikes: Mapping[str, Sequence[float]],
                     windows: Sequence[tuple[float, float]],
                     pairs: Sequence[tuple[str, str] | None],
                     directions: Sequence[Direction],
                     params: CorrelationParams) -> list[DepthState]:
    """The per-window classifier on each window's pair, M where there is none."""
    trains = {nid: SpikeTrain(tuple(times)) for nid, times in spikes.items()}
    depths = []
    for (t0, t1), pair, direction in zip(windows, pairs, directions):
        if pair is None:
            depths.append(DepthState.M)
            continue
        left, right = (window(trains[nid], t0, t1) for nid in pair)
        depths.append(classify_by_correlation(left, right, direction, params,
                                              duration_ms=t1 - t0))
    return depths

"""Cross-correlation of binned spike trains, classic and signed, plus the
correlation-threshold depth classifier used to cross-check the circuit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import DepthState, Direction
from .core import ConnectionKind
from .errors import BinMismatch, HorizonTooShort
from .world import SpikeTrain


@dataclass(frozen=True)
class BinnedTrain:
    """Spike counts per bin with the sign its delivering connection carries."""

    counts: tuple[int, ...]
    bin_width: float
    sign: int = 1

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise ValueError("bin width must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if any(c < 0 for c in self.counts):
            raise ValueError("bin counts must be nonnegative")

    @classmethod
    def from_kind(cls, counts: Sequence[int], bin_width: float,
                  kind: ConnectionKind) -> "BinnedTrain":
        return cls(tuple(int(c) for c in counts), bin_width, kind.sign)


@dataclass(frozen=True)
class CorrelationProfile:
    lags: tuple[int, ...]
    values: tuple[float, ...]
    degenerate: bool = False


def _bin_counts(train: SpikeTrain, bin_width: float, horizon: float) -> np.ndarray:
    """bin_spikes' counts as one int64 array."""
    if bin_width <= 0 or horizon <= 0:
        raise ValueError("bin width and horizon must be positive")
    if train.times and train.times[-1] > horizon:
        raise HorizonTooShort(
            f"horizon {horizon} ends before last spike {train.times[-1]}")
    n_bins = max(1, math.ceil(horizon / bin_width - 1e-9))
    bins = (np.asarray(train.times, dtype=np.float64) / bin_width).astype(np.int64)
    return np.bincount(np.minimum(bins, n_bins - 1), minlength=n_bins)


def bin_spikes(train: SpikeTrain, bin_width: float, horizon: float) -> BinnedTrain:
    """Counts per [i*w, (i+1)*w) bin; a spike landing exactly on the horizon
    goes into the last bin. Total count is preserved."""
    return BinnedTrain(tuple(_bin_counts(train, bin_width, horizon).tolist()), bin_width)


def xcorr(x: BinnedTrain, y: BinnedTrain, w: int) -> int:
    """Product sum of x against y shifted by w bins, zero-padded outside."""
    if x.bin_width != y.bin_width:
        raise BinMismatch(f"bin widths differ: {x.bin_width} vs {y.bin_width}")
    k0 = max(0, -w)
    k1 = min(len(x.counts), len(y.counts) - w)
    if k1 <= k0:
        return 0
    xa = np.asarray(x.counts[k0:k1], dtype=np.int64)
    ya = np.asarray(y.counts[k0 + w:k1 + w], dtype=np.int64)
    return int(xa @ ya)


def signed_xcorr(x: BinnedTrain, y: BinnedTrain, w: int) -> int:
    """Cross-correlation with the excitatory/inhibitory sign algebra applied:
    each inhibitory operand flips the sign of the whole sum."""
    return x.sign * y.sign * xcorr(x, y, w)


def _profile(xc: np.ndarray, yc: np.ndarray, lags: Sequence[int]) -> CorrelationProfile:
    """Normalized profile of two int64 count arrays. One full correlation
    holds every lag: full[w + len(x) - 1] == xcorr(x, y, w), and lags outside
    the overlap read 0."""
    lag_tuple = tuple(int(w) for w in lags)
    x0 = int(xc @ xc)
    y0 = int(yc @ yc)
    if x0 == 0 or y0 == 0:
        return CorrelationProfile(lag_tuple, (0.0,) * len(lag_tuple), degenerate=True)
    norm = math.sqrt(x0 * y0)
    full = np.correlate(yc, xc, "full").tolist()
    shift = len(xc) - 1
    values = tuple(full[w + shift] / norm if 0 <= w + shift < len(full) else 0.0
                   for w in lag_tuple)
    return CorrelationProfile(lag_tuple, values)


def normalized_profile(x: BinnedTrain, y: BinnedTrain,
                       lags: Sequence[int]) -> CorrelationProfile:
    """Correlation per lag divided by the geometric mean of the zero-lag
    autocorrelations; all-zero and flagged degenerate when either side is."""
    if x.bin_width != y.bin_width:
        raise BinMismatch(f"bin widths differ: {x.bin_width} vs {y.bin_width}")
    return _profile(np.asarray(x.counts, dtype=np.int64),
                    np.asarray(y.counts, dtype=np.int64), lags)


@dataclass(frozen=True)
class CorrelationParams:
    """Thresholds frozen after one calibration pass on the canonical suite."""

    bin_width_ms: float = 10.0
    lag_bins: int = 10
    theta_m: float = 0.6
    theta_rate: float = 0.2       # relative rate gap needed to claim N or F
    min_rate_hz: float = 115.0    # hotter side must at least match the
                                  # regulatory turn-on rate, else no depth claim


def classify_by_correlation(left: SpikeTrain, right: SpikeTrain,
                            direction: Direction, params: CorrelationParams,
                            duration_ms: float) -> DepthState:
    """Analytic stand-in for one depth module position.

    High normalized correlation between the two input trains means a straight
    pass (M). Otherwise the side visited later in the motion being clearly
    hotter means the range is closing (N); clearly colder means opening (F).
    Everything below the evidence gates stays M.
    """
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if not left.times and not right.times:
        return DepthState.M

    lags = range(-params.lag_bins, params.lag_bins + 1)
    profile = _profile(_bin_counts(left, params.bin_width_ms, duration_ms),
                       _bin_counts(right, params.bin_width_ms, duration_ms), lags)
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

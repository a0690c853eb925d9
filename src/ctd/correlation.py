"""Cross-correlation of binned spike trains, classic and signed, plus the
correlation-threshold depth check run once per run against the circuit's
readout windows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .circuits import DepthState, Direction


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


def xcorr(x: BinnedTrain, y: BinnedTrain, w: int) -> int:
    """Product sum of x against y shifted by w bins, zero-padded outside."""
    if x.bin_width != y.bin_width:
        raise ValueError(f"bin widths differ: {x.bin_width} vs {y.bin_width}")
    k0 = max(0, -w)
    k1 = min(len(x.counts), len(y.counts) - w)
    if k1 <= k0:
        return 0
    xa = np.asarray(x.counts[k0:k1], dtype=np.int64)
    ya = np.asarray(y.counts[k0 + w:k1 + w], dtype=np.int64)
    return int(xa @ ya)


def signed_xcorr(x: BinnedTrain, y: BinnedTrain, w: int) -> int:
    """Cross-correlation with the excitatory/inhibitory sign algebra applied:
    each inhibitory operand flips the sign of the whole sum. It is xcorr times
    one global sign, so the depth check, which reads a normalised peak of two
    excitatory detector trains, loses nothing by not applying it."""
    return x.sign * y.sign * xcorr(x, y, w)


@dataclass(frozen=True)
class CorrelationParams:
    """Thresholds frozen after one calibration pass on the canonical suite."""

    bin_width_ms: float = 10.0
    lag_bins: int = 10
    theta_m: float = 0.6
    theta_rate: float = 0.2       # relative rate gap needed to claim N or F
    min_rate_hz: float = 115.0    # hotter side must at least match the
                                  # regulatory turn-on rate, else no depth claim


# Cells of the windows × bins count matrices, plus spikes binned into them,
# that one chunk of windows starts within: a run's memory is bounded by its
# steps, not by its windows × bins.
_CHUNK_CELLS = 1 << 16


def _bin_rows(times: np.ndarray, lo: np.ndarray, hi: np.ndarray, t0: np.ndarray,
              bin_width: float, n_bins: int) -> np.ndarray:
    """Row j counts times[lo[j]:hi[j]] into bins of (t - t0[j]) / bin_width;
    a spike at or past the last bin goes into it."""
    n = hi - lo
    row = np.repeat(np.arange(len(n)), n)
    index = np.arange(len(row)) + np.repeat(lo - (np.cumsum(n) - n), n)
    bins = ((times[index] - t0[row]) / bin_width).astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    return np.bincount(row * n_bins + bins,
                       minlength=len(n) * n_bins).reshape(len(n), n_bins)


def _correlated(x: np.ndarray, y: np.ndarray, lag_bins: int,
                theta_m: float) -> np.ndarray:
    """Per row of two count matrices without all-zero rows: whether the peak
    normalised cross-correlation over lags -lag_bins..lag_bins reaches
    theta_m. Each lag is a row product of x with y shifted by it, zero-padded,
    so lags outside the overlap read 0. Dividing by the positive norm keeps
    the order of the products, so the peak product over the norm is the peak
    of the quotients."""
    rows, n_bins = x.shape
    lags = min(lag_bins, n_bins - 1)
    padded = np.zeros((rows, n_bins + 2 * lags), dtype=np.int64)
    padded[:, lags:lags + n_bins] = y
    shifted = sliding_window_view(padded, n_bins, axis=1)
    peak = np.einsum("ij,ilj->il", x, shifted).max(axis=1)
    x0 = np.einsum("ij,ij->i", x, x)
    y0 = np.einsum("ij,ij->i", y, y)
    # The exact product of the two, rounded once to a float.
    wide = int(x0.max()) * int(y0.max()) >= 1 << 63
    product = x0.astype(object) * y0 if wide else x0 * y0
    return peak / np.sqrt(product.astype(np.float64)) >= theta_m


def classify_by_correlation(spikes: Mapping[str, Sequence[float]],
                            windows: Sequence[tuple[float, float]],
                            pairs: Sequence[tuple[str, str] | None],
                            directions: Sequence[Direction],
                            params: CorrelationParams) -> list[DepthState]:
    """Analytic stand-in for the depth readout, one state per window.

    Window i takes the spikes in [t0, t1) of its detector pair `pairs[i]`
    (left, right), shifted to start at 0 and binned over its own duration
    t1 - t0; a window without a pair reads M. High peak normalised
    correlation between the two binned trains means a straight pass (M).
    Otherwise the side visited later in the motion `directions[i]` being
    clearly hotter means the range is closing (N); clearly colder means
    opening (F). Everything below the evidence gates stays M.

    One sorted search per detector finds its spikes in all its windows.
    Windows with both sides active are binned and correlated as rows of
    count matrices, by bin count and a chunk at a time.
    """
    depths = [DepthState.M] * len(windows)
    paired = [i for i, p in enumerate(pairs) if p is not None]
    if not paired:
        return depths
    bin_width = params.bin_width_ms
    edges = np.array([windows[i] for i in paired], dtype=np.float64).T
    t0 = edges[0]
    duration = edges[1] - t0
    if bin_width <= 0 or params.lag_bins < 0 or not (duration > 0).all():
        raise ValueError("bin width, lag bins or a window duration out of range")
    n_bins = np.maximum(1, np.ceil(duration / bin_width - 1e-9)).astype(np.int64)

    # Every paired detector's spikes in one array; lo:hi is a side's slice.
    sides = np.array([pairs[i] for i in paired]).T
    names = sorted({nid for i in paired for nid in pairs[i]})
    trains = [np.asarray(spikes[nid], dtype=np.float64) for nid in names]
    offsets = np.cumsum([0] + [len(t) for t in trains]).tolist()
    times = np.concatenate(trains)
    lo = np.empty(sides.shape, dtype=np.int64)
    hi = np.empty_like(lo)
    for nid, train, offset in zip(names, trains, offsets):
        side, col = np.nonzero(sides == nid)
        lo[side, col], hi[side, col] = train.searchsorted(edges[:, col]) + offset
    counts = hi - lo

    correlated = np.zeros(len(paired), dtype=bool)
    both = np.flatnonzero((counts > 0).all(axis=0))
    for bins in sorted(set(n_bins[both].tolist())):
        group = both[n_bins[both] == bins]
        cost = bins + counts[:, group].sum(axis=0)
        starts = (np.cumsum(cost) - cost) // _CHUNK_CELLS
        for rows in np.split(group, np.flatnonzero(np.diff(starts)) + 1):
            x, y = _bin_rows(times, lo[:, rows].ravel(), hi[:, rows].ravel(),
                             np.tile(t0[rows], 2), bin_width, bins).reshape(2, len(rows), bins)
            correlated[rows] = _correlated(x, y, params.lag_bins, params.theta_m)

    rates = (counts / (duration / 1000.0)).T.tolist()
    for j in np.flatnonzero(~correlated & counts.any(axis=0)).tolist():
        direction = directions[paired[j]]
        left, right = rates[j]
        later, earlier = ((right, left) if direction is Direction.LEFT_TO_RIGHT
                          else (left, right))
        hottest = max(left, right)
        if direction is Direction.UNDETERMINED or hottest < params.min_rate_hz:
            continue
        rel = (later - earlier) / hottest
        if rel >= params.theta_rate:
            depths[paired[j]] = DepthState.N
        elif rel <= -params.theta_rate:
            depths[paired[j]] = DepthState.F
    return depths

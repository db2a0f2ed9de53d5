"""Bandwidth machinery: per-point ad-hoc scales, kernel density estimation,
and automatic selection of the global kernel bandwidth and intrinsic dimension.

The bandwidth/dimension tuner works on the log-log curve of the mean kernel
sum T(eps) = (1/N^2) sum_ij K_eps(x_i, x_j). T runs from 1/N (kernel numerically
diagonal) to 1 (kernel saturated); the steepest slope of log T against log eps
marks the best-resolved bandwidth, and twice that slope estimates the intrinsic
dimension of the sampled manifold.

T is read off a histogram of the scaled squared distances
w_ij = |x_i - x_j|^2 / (v_i v_j) over all pairs, with log-spaced bins of width
LOG_BIN_WIDTH between two bounds taken from the kNN table and the bounding box.
w is symmetric bit for bit, so the histogram sweeps only the pairs i < j,
doubles their counts and adds the N zeros of the diagonal, which gives exactly
the counts of the full sweep. The bounds:

- lower: the smallest positive distance in each row of the table (the
  nearest point not equal to x_i), minimised over rows, squared, over max(v)^2;
- upper: the squared diagonal of the bounding box over min(v)^2.

Every positive w_ij lies between them, to rounding, so no pair is clipped into
an end bin far from its value, whether or not the data hold duplicates. A point whose whole table row
is zero (a point repeated as often as the table is wide) is rejected, because
its nearest distinct point is not in the table.

The tuner smooths the slope curve over SMOOTH_WINDOW grid intervals and takes
its maximum only where T stays below SATURATION_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import NeighborList, TimeSeries, knn, rows_per_block, sq_distance_blocks

# Kernel values below this are indistinguishable from zero in double precision
# and may be dropped from sparse storage.
KERNEL_FLOOR = 1e-15

# Histogram bin width in log w: 0.1% relative in w, far below the tolerance of
# the slope estimates consuming T.
LOG_BIN_WIDTH = 1e-3
# Width of the moving average applied to the slope curve before taking its
# maximum, to suppress Monte-Carlo jitter.
SMOOTH_WINDOW = 3
# The argmax is restricted to grid points where T stays below this fraction of
# full saturation. Near saturation the slope of log T is inflated by manifold
# curvature (on a circle it peaks 21% above the d/2 plateau), which would both
# bias the dimension estimate and hand back a bandwidth too coarse to resolve
# the operator.
SATURATION_CAP = 0.05


@dataclass(frozen=True)
class BandwidthProfile:
    """Per-point ad-hoc bandwidths (root mean square distance to the nearest
    ``k0 - 1`` non-self neighbors)."""

    rho0: np.ndarray
    k0: int

    def __post_init__(self):
        if np.any(self.rho0 <= 0) or not np.all(np.isfinite(self.rho0)):
            raise ValueError("ad-hoc bandwidths must be positive and finite")


@dataclass(frozen=True)
class TuningResult:
    """Outcome of the bandwidth sweep.

    Attributes
    ----------
    eps_star : float
        Bandwidth at the maximum slope of log T vs log eps.
    d_est : float
        Estimated intrinsic dimension, 2 * max_slope.
    curve : ndarray, shape (G, 2)
        (log eps, log T) pairs over the sweep grid, for diagnostics.
    max_slope : float
        Largest (smoothed) forward-difference slope.
    boundary_warning : bool
        True when the maximum sat on the grid boundary; tuning unreliable.
    """

    eps_star: float
    d_est: float
    curve: np.ndarray
    max_slope: float
    boundary_warning: bool = False


@dataclass(frozen=True)
class DensityEstimate:
    """Sampling-density estimate at the data points, w.r.t. the inherited
    volume form. Doubles as the invariant-measure estimate for ergodic data."""

    q: np.ndarray
    eps_used: float
    d_used: float

    def __post_init__(self):
        if np.any(self.q <= 0) or not np.all(np.isfinite(self.q)):
            raise ValueError("density estimate must be positive and finite")


def default_bandwidth_grid() -> np.ndarray:
    """Sweep grid eps = 2^l for l = -30, -29.9, ..., 9.9, 10."""
    exponents = np.arange(-300, 101) / 10.0
    return np.exp2(exponents)


def adhoc_bandwidth(ts: TimeSeries, k0: int = 8, neighbors: NeighborList | None = None) -> BandwidthProfile:
    """Root-mean-square distance to each point's k0-1 nearest non-self neighbors.

    Parameters
    ----------
    ts : TimeSeries
    k0 : int
        Neighborhood size; the sum runs over neighbor ranks 2..k0 (self is
        rank 1), i.e. k0 - 1 actual neighbors.
    neighbors : NeighborList, optional
        Precomputed kNN table with at least k0 columns, to avoid a repeat
        neighbor search.
    """
    n = ts.n_points
    if k0 < 2:
        raise ValueError(f"k0 must be >= 2, got {k0}")
    if n <= k0:
        raise ValueError(f"need more than k0={k0} points, got {n}")
    if neighbors is None:
        neighbors = knn(ts, k0)
    elif neighbors.distances.shape[1] < k0:
        raise ValueError("neighbor table has fewer than k0 columns")
    d = neighbors.distances[:, 1:k0]
    rho0 = np.sqrt(np.mean(d * d, axis=1))
    if np.any(rho0 == 0):
        bad = int(np.nonzero(rho0 == 0)[0][0])
        raise ValueError(
            f"ad-hoc bandwidth is zero at point {bad}: the {k0 - 1} nearest "
            "neighbors coincide with it; deduplicate the data first"
        )
    return BandwidthProfile(rho0=rho0, k0=k0)


class PairwiseKernelSum:
    """Callable eps -> T(eps) for kernels exp(-|x_i - x_j|^2 / (c * eps * v_i * v_j)).

    The full pairwise sum is folded once into a fine log-spaced histogram of
    the scaled squared distances w_ij = |x_i - x_j|^2 / (v_i v_j), between the
    bounds of the module docstring taken from ``neighbors``, a kNN table of
    the points; evaluating T on a bandwidth grid then costs one exp per
    histogram bin instead of one per point pair.

    Only the strict upper triangle i < j is swept and binned (the half sweep
    of :func:`~diffusion_forecast.dataset.sq_distance_blocks`); the counts are
    then doubled and the N diagonal pairs, w_ii = 0, added to the zero count.
    That is exact, not an approximation: ``cdist`` gives the same squared
    distance for (i, j) and (j, i), and v_i v_j == v_j v_i in floating point,
    so w_ji == w_ij bit for bit and falls in the same bin. The counts, and so
    T, are bitwise those of the full N x N sweep at half its cost.
    """

    def __init__(self, points: np.ndarray, point_scales: np.ndarray, c: float,
                 neighbors: NeighborList):
        points = np.asarray(points, dtype=float)
        v = np.asarray(point_scales, dtype=float)
        n = points.shape[0]
        if v.shape != (n,) or np.any(v <= 0):
            raise ValueError("point_scales must be positive, one per point")
        if neighbors.distances.shape[0] != n:
            raise ValueError("neighbor table does not match the points")
        self.n = n
        self.c = float(c)
        w_lo, w_hi = _histogram_bounds(neighbors, points, v)
        n_bins = int(np.ceil(np.log(w_hi / w_lo) / LOG_BIN_WIDTH)) + 1
        n_bins = min(max(n_bins, 1), 2_000_000)
        log_lo = np.log(w_lo)
        bin_width = (np.log(w_hi) - log_lo) / n_bins if w_hi > w_lo else 1.0
        log_centers = log_lo + (np.arange(n_bins) + 0.5) * bin_width
        counts = np.zeros(n_bins, dtype=np.int64)
        zero_count = 0
        for s, e, d2 in sq_distance_blocks(points, points, upper=True):
            w = (d2 / np.outer(v[s:e], v[s:]))[np.arange(n - s) > np.arange(e - s)[:, None]]
            zero = w == 0.0
            zero_count += int(np.count_nonzero(zero))
            w = w[~zero]
            idx = ((np.log(w) - log_lo) / bin_width).astype(np.int64)
            np.clip(idx, 0, n_bins - 1, out=idx)
            counts += np.bincount(idx, minlength=n_bins)
        # w_ji == w_ij bit for bit, and each of the n diagonal terms is 0
        counts *= 2
        zero_count = 2 * zero_count + n
        keep = counts > 0
        self._counts = counts[keep].astype(float)
        self._w_rep = np.exp(log_centers[keep])
        self._zero_count = float(zero_count)

    def __call__(self, eps_grid: np.ndarray) -> np.ndarray:
        eps_grid = np.atleast_1d(np.asarray(eps_grid, dtype=float))
        out = np.empty(eps_grid.shape)
        for i, eps in enumerate(eps_grid):
            out[i] = self._zero_count + self._counts @ np.exp(-self._w_rep / (self.c * eps))
        return out / (self.n * self.n)


def _histogram_bounds(neighbors: NeighborList, points: np.ndarray,
                      v: np.ndarray) -> tuple[float, float]:
    """Histogram bounds enclosing every positive |x_i-x_j|^2/(v_i v_j), by the
    rule of the module docstring. The table is read in row blocks."""
    d = neighbors.distances
    nearest = np.empty(d.shape[0])
    step = rows_per_block(d.shape[1])
    for s in range(0, d.shape[0], step):
        block = d[s:s + step]
        nearest[s:s + step] = np.where(block > 0, block, np.inf).min(axis=1)
    if np.isinf(nearest).any():
        bad = int(np.flatnonzero(np.isinf(nearest))[0])
        raise ValueError(
            f"point {bad} and its {d.shape[1] - 1} nearest neighbors are one repeated "
            "point; deduplicate the data first"
        )
    lo = float(nearest.min()) ** 2 / float(v.max()) ** 2
    span = points.max(axis=0) - points.min(axis=0)
    hi = float(span @ span) / float(v.min()) ** 2
    return lo, max(hi, lo)


def tune(kernel_sum, grid: np.ndarray | None = None) -> TuningResult:
    """Sweep T(eps) over a log-spaced grid and locate the max-slope bandwidth.

    Parameters
    ----------
    kernel_sum : callable
        Vectorized map from an array of bandwidths to T values.
    grid : ndarray, optional
        Bandwidth grid; defaults to :func:`default_bandwidth_grid`.

    Returns the bandwidth at the steepest slope of log T against log eps,
    smoothed over SMOOTH_WINDOW intervals, where T <= SATURATION_CAP, and
    d = 2 * that slope.
    """
    auto_extend = grid is None
    if grid is None:
        grid = default_bandwidth_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("bandwidth grid needs at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("bandwidth grid must be strictly increasing")
    t = np.asarray(kernel_sum(grid), dtype=float)
    if t.shape != grid.shape:
        raise ValueError("kernel_sum must return one T value per grid point")
    # locally scaled kernels can push the informative region beyond the stock
    # sweep; keep extending upward until the sum approaches saturation
    while auto_extend and t[-1] < 2.0 * SATURATION_CAP and grid[-1] < 2.0**60:
        ext = grid[-1] * np.exp2(np.arange(1, 101) / 10.0)
        grid = np.concatenate([grid, ext])
        t = np.concatenate([t, np.asarray(kernel_sum(ext), dtype=float)])
    if np.any(~np.isfinite(t)) or np.any(t <= 0):
        raise ValueError("kernel sum returned non-finite or non-positive values")
    log_eps = np.log(grid)
    log_t = np.log(t)
    slopes = np.diff(log_t) / np.diff(log_eps)
    smoothed = _moving_average(slopes, SMOOTH_WINDOW)
    eligible = np.nonzero(t[1:] <= SATURATION_CAP)[0]
    if eligible.size == 0:
        raise ValueError(
            "kernel sum is saturated over the whole grid; data may be "
            "degenerate (repeated points) or far off the grid's scale"
        )
    i_max = int(eligible[np.argmax(smoothed[eligible])])
    max_slope = float(smoothed[i_max])
    if max_slope <= 0:
        raise ValueError("log T slope is nowhere positive; kernel sum is degenerate")
    boundary = i_max == 0 or i_max == len(smoothed) - 1
    return TuningResult(
        eps_star=float(grid[i_max]),
        d_est=2.0 * max_slope,
        curve=np.column_stack([log_eps, log_t]),
        max_slope=max_slope,
        boundary_warning=boundary,
    )


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window)
    sums = np.convolve(x, kernel, mode="same")
    norm = np.convolve(np.ones_like(x), kernel, mode="same")
    return sums / norm


def kde(ts: TimeSeries, profile: BandwidthProfile, eps: float, d: float) -> DensityEstimate:
    """Kernel density estimate with the ad-hoc bandwidth kernel.

    q(x_i) = (1/N) sum_j exp(-|x_i-x_j|^2 / (2 eps rho_i rho_j))
                      / (2 pi eps rho_i rho_j)^{d/2}

    Each pair term is normalized by its own bandwidth, so the finite-sample
    jitter of the ad-hoc bandwidths stays out of the density estimate (the
    common single-factor (2 pi eps rho_i^2)^{d/2} form inherits that jitter
    at full strength). Agrees with it to the estimator's O(eps) accuracy.

    ``eps`` and ``d`` should come from a prior :func:`tune` on this kernel
    family.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = ts.points
    n = ts.n_points
    rho = profile.rho0
    if rho.shape[0] != n:
        raise ValueError("bandwidth profile does not match the series length")
    sums = np.empty(n)
    for s, e, d2 in sq_distance_blocks(pts, pts):
        ss = np.outer(rho[s:e], rho)
        k = np.exp(-d2 / (2.0 * eps * ss)) / (2.0 * np.pi * eps * ss) ** (d / 2.0)
        sums[s:e] = k.sum(axis=1)
    q = sums / n
    if np.any(q <= 0) or np.any(~np.isfinite(q)):
        raise ValueError(
            "density underflowed to zero or overflowed at isolated points; try a larger eps"
        )
    return DensityEstimate(q=q, eps_used=float(eps), d_used=float(d))

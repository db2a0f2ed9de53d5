"""Bandwidth machinery: per-point ad-hoc scales, kernel density estimation,
and automatic selection of the global kernel bandwidth and intrinsic dimension.

Every stage reads point pairs from one kNN table, the (N, c) table with
c = min(N, NEIGHBOR_CAP) that ``fit_forecaster`` builds once, self included
at rank 0: the sums below run over the pairs (i, j) with j in row i, the
pairs the variable-bandwidth kernel keeps. When the table holds every point
they are the all-pairs sums.

The bandwidth/dimension tuner works on the log-log curve of the mean kernel
sum T(eps) = (1/N^2) sum_i sum_{j in row i} K_eps(x_i, x_j). T runs from 1/N
(kernel numerically diagonal) to its saturation c/N; the steepest slope of
log T against log eps marks the best-resolved bandwidth, and twice that
slope estimates the intrinsic dimension of the sampled manifold.

T is read off a histogram of the scaled squared distances
w_ij = |x_i - x_j|^2 / (v_i v_j) of the table entries, with log-spaced bins of
width LOG_BIN_WIDTH between two bounds taken from the table:

- lower: the smallest positive distance of the table (in each row the
  nearest point not equal to x_i), squared, over max(v)^2;
- upper: the largest distance of the table (its last column), squared,
  over min(v)^2.

Every positive w_ij of the table lies between them, to rounding, so no entry
is clipped into an end bin far from its value, whether or not the data hold
duplicates. A point whose whole table row is zero (a point repeated as often
as the table is wide) is rejected, because its nearest distinct point is not
in the table.

The tuner smooths the slope curve over SMOOTH_WINDOW grid intervals and takes
its maximum only where T stays below SATURATION_CAP, a fraction of N^2 pairs
like T itself. The sweep extends upward until T reaches 2 * SATURATION_CAP or
eps reaches 2^60; a table that saturates below that, as at N = 20000 where
c/N = 0.051, runs the extension to 2^60.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import NeighborList, rows_per_block

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
# N^2 pairs, the all-pairs saturation; the table's own saturation,
# min(N, NEIGHBOR_CAP)/N, lies above it up to N = 20480. Near saturation the
# slope of log T is inflated by manifold curvature (on a circle the all-pairs
# slope peaks 21% above the d/2 plateau), which would both bias the dimension
# estimate and hand back a bandwidth too coarse to resolve the operator.
SATURATION_CAP = 0.05
# Eligible smoothed slopes within this relative distance of the maximum tie
# with it, and a tie sets the plateau flag: the argmax among them is decided
# by rounding. Rounding moves the slopes by about 1e-14 relative (the 225
# intervals of a ramp of constant slope 2 spread 3.5e-14), while the two
# steepest intervals of fitted data differed by 2.4e-5 to 1.1e-3 relative
# (circles of 1000 and 3000 points, 2000 Lorenz-63 points).
PLATEAU_RTOL = 1e-9
# Neighbourhood size of the ad-hoc bandwidths: the nearest ADHOC_K0 - 1
# non-self neighbours of each point.
ADHOC_K0 = 8


@dataclass(frozen=True)
class BandwidthProfile:
    """Per-point ad-hoc bandwidths (root mean square distance to the nearest
    ADHOC_K0 - 1 non-self neighbors)."""

    rho0: np.ndarray

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
        Estimated intrinsic dimension, twice the largest (smoothed)
        forward-difference slope.
    curve : ndarray, shape (G, 2)
        (log eps, log T) pairs over the sweep grid, for diagnostics.
    boundary_warning : bool
        True when the maximum sat on the grid boundary; tuning unreliable.
    plateau : bool
        True when more than one eligible interval's smoothed slope lies
        within PLATEAU_RTOL of the maximum, so that rounding chose
        ``eps_star`` among them; tuning unreliable.
    """

    eps_star: float
    d_est: float
    curve: np.ndarray
    boundary_warning: bool
    plateau: bool


@dataclass(frozen=True)
class DensityEstimate:
    """Sampling-density estimate at the data points, w.r.t. the inherited
    volume form. Doubles as the invariant-measure estimate for ergodic data."""

    q: np.ndarray

    def __post_init__(self):
        if np.any(self.q <= 0) or not np.all(np.isfinite(self.q)):
            raise ValueError("density estimate must be positive and finite")


def default_bandwidth_grid() -> np.ndarray:
    """Sweep grid eps = 2^l for l = -30, -29.9, ..., 9.9, 10."""
    exponents = np.arange(-300, 101) / 10.0
    return np.exp2(exponents)


def adhoc_bandwidth(neighbors: NeighborList) -> BandwidthProfile:
    """Root-mean-square distance to each point's ADHOC_K0 - 1 nearest
    non-self neighbors, neighbor ranks 2..ADHOC_K0 of ``neighbors`` (self is
    rank 1), a kNN table of the points with at least ADHOC_K0 columns;
    ``fit_forecaster`` passes its one table."""
    n, width = neighbors.distances.shape
    if n <= ADHOC_K0:
        raise ValueError(f"need more than k0={ADHOC_K0} points, got {n}")
    if width < ADHOC_K0:
        raise ValueError(f"neighbor table has fewer than k0={ADHOC_K0} columns")
    d = neighbors.distances[:, 1:ADHOC_K0]
    rho0 = np.sqrt(np.mean(d * d, axis=1))
    if np.any(rho0 == 0):
        bad = int(np.nonzero(rho0 == 0)[0][0])
        raise ValueError(
            f"ad-hoc bandwidth is zero at point {bad}: the {ADHOC_K0 - 1} nearest "
            "neighbors coincide with it; deduplicate the data first"
        )
    return BandwidthProfile(rho0=rho0)


class PairwiseKernelSum:
    """Callable eps -> T(eps) for kernels exp(-|x_i - x_j|^2 / (c * eps * v_i * v_j))
    summed over the entries of ``neighbors``, a kNN table of the points.

    The sum is folded once into a fine log-spaced histogram of the scaled
    squared distances w_ij = |x_i - x_j|^2 / (v_i v_j) of the table entries,
    self included, between the bounds of the module docstring; evaluating T
    on a bandwidth grid then costs one exp per histogram bin instead of one
    per entry. The table is read in row blocks of
    :func:`~diffusion_forecast.dataset.rows_per_block` rows.
    """

    def __init__(self, neighbors: NeighborList, point_scales: np.ndarray, c: float):
        v = np.asarray(point_scales, dtype=float)
        n, width = neighbors.distances.shape
        if v.shape != (n,) or np.any(v <= 0):
            raise ValueError("point_scales must be positive, one per point")
        self.n = n
        self.c = float(c)
        w_lo, w_hi = _histogram_bounds(neighbors, v)
        if not (w_lo > 0.0 and w_hi / w_lo < np.inf):
            raise ValueError(
                f"scaled squared distances span {w_lo:.3g} to {w_hi:.3g}, a ratio beyond "
                "the double range: the points' scales are too far apart to bin"
            )
        n_bins = int(np.ceil(np.log(w_hi / w_lo) / LOG_BIN_WIDTH)) + 1
        n_bins = min(max(n_bins, 1), 2_000_000)
        log_lo = np.log(w_lo)
        bin_width = (np.log(w_hi) - log_lo) / n_bins if w_hi > w_lo else 1.0
        log_centers = log_lo + (np.arange(n_bins) + 0.5) * bin_width
        counts = np.zeros(n_bins, dtype=np.int64)
        zero_count = 0
        step = rows_per_block(width)
        for s in range(0, n, step):
            rows = slice(s, s + step)
            # w = d^2 / (v_j v_i), the log and the bin index computed in the
            # block's own buffers, with the ufuncs of the expressions in order
            den = v[neighbors.indices[rows]]
            den *= v[rows, None]
            w = np.square(neighbors.distances[rows])
            w /= den
            del den
            zero = w == 0.0
            zero_count += int(np.count_nonzero(zero))
            log_w = w[~zero]
            del w, zero
            np.log(log_w, out=log_w)
            log_w -= log_lo
            log_w /= bin_width
            idx = log_w.astype(np.int64)
            del log_w
            np.clip(idx, 0, n_bins - 1, out=idx)
            counts += np.bincount(idx, minlength=n_bins)
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


def _histogram_bounds(neighbors: NeighborList, v: np.ndarray) -> tuple[float, float]:
    """Histogram bounds enclosing every positive |x_i-x_j|^2/(v_i v_j) of the
    table, by the rule of the module docstring. The table is read in row
    blocks; each row is in ascending order, so its last column holds the
    largest distances."""
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
    # float64 scalars overflow to inf and divide by 0 to inf, where Python
    # floats would raise; the caller names a ratio that leaves the double range
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        lo = nearest.min() ** 2 / v.max() ** 2
        hi = d[:, -1].max() ** 2 / v.min() ** 2
    return float(lo), float(max(hi, lo))


def tune(kernel_sum) -> TuningResult:
    """Sweep T(eps) over a log-spaced grid and locate the max-slope bandwidth.

    Parameters
    ----------
    kernel_sum : callable
        Vectorized map from an array of bandwidths to T values.

    The sweep starts on :func:`default_bandwidth_grid` and extends upward
    while T stays below 2 * SATURATION_CAP. Returns the bandwidth at the
    steepest slope of log T against log eps, smoothed over SMOOTH_WINDOW
    intervals, where T <= SATURATION_CAP, and d = 2 * that slope. It flags
    a maximum on the grid boundary, and a maximum tied within PLATEAU_RTOL
    by another interval.

    A sum over a table c wide saturates at c/N, not at 1. While that level
    is below ``pipeline.CAP_SATURATION_FLAG`` (``fit_record`` then sets
    ``eps_follows_cap``), the returned eps follows the cap c rather than the
    data alone: on 8000 torus points it scaled about as c/N.
    """
    grid = default_bandwidth_grid()
    t = np.asarray(kernel_sum(grid), dtype=float)
    if t.shape != grid.shape:
        raise ValueError("kernel_sum must return one T value per grid point")
    # locally scaled kernels can push the informative region beyond the stock
    # sweep; keep extending upward until the sum approaches saturation
    while t[-1] < 2.0 * SATURATION_CAP and grid[-1] < 2.0**60:
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
    ties = np.count_nonzero(smoothed[eligible] >= max_slope * (1.0 - PLATEAU_RTOL))
    return TuningResult(
        eps_star=float(grid[i_max]),
        d_est=2.0 * max_slope,
        curve=np.column_stack([log_eps, log_t]),
        boundary_warning=boundary,
        plateau=bool(ties > 1),
    )


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window)
    sums = np.convolve(x, kernel, mode="same")
    norm = np.convolve(np.ones_like(x), kernel, mode="same")
    return sums / norm


def kde(neighbors: NeighborList, profile: BandwidthProfile, eps: float,
        d: float) -> DensityEstimate:
    """Kernel density estimate with the ad-hoc bandwidth kernel, summed over
    each row of ``neighbors``, the kNN table of the points:

    q(x_i) = (1/N) sum_{j in row i} exp(-|x_i-x_j|^2 / (2 eps rho_i rho_j))
                                  / (2 pi eps rho_i rho_j)^{d/2}

    Each pair term is normalized by its own bandwidth, so the finite-sample
    jitter of the ad-hoc bandwidths stays out of the density estimate (the
    common single-factor (2 pi eps rho_i^2)^{d/2} form inherits that jitter
    at full strength). Agrees with it to the estimator's O(eps) accuracy.
    The table is read in row blocks of
    :func:`~diffusion_forecast.dataset.rows_per_block` rows.

    ``eps`` and ``d`` should come from a prior :func:`tune` on this kernel
    family.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n, width = neighbors.distances.shape
    rho = profile.rho0
    if rho.shape[0] != n:
        raise ValueError("bandwidth profile does not match the neighbor table")
    sums = np.empty(n)
    step = rows_per_block(width)
    for s in range(0, n, step):
        rows = slice(s, s + step)
        # the pair terms computed in the block's two buffers, with the ufuncs
        # of the formula in order
        ss = rho[neighbors.indices[rows]]
        ss *= rho[rows, None]
        ss *= 2.0 * eps
        k = np.square(neighbors.distances[rows])
        np.negative(k, out=k)
        k /= ss
        np.exp(k, out=k)
        ss *= np.pi
        ss **= d / 2.0
        k /= ss
        sums[rows] = k.sum(axis=1)
    q = sums / n
    if np.any(q <= 0) or np.any(~np.isfinite(q)):
        raise ValueError(
            "density underflowed to zero or overflowed at isolated points; try a larger eps"
        )
    return DensityEstimate(q=q)

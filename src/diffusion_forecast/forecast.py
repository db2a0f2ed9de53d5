"""Semigroup estimation on the diffusion basis and density forecasting.

The time-ordered basis values give a Monte-Carlo estimate of the matrix of
the sampling-interval evolution operator; densities are carried as coefficient
vectors against the basis, evolved by repeated application of that matrix, and
read out as pointwise densities or moments of observables.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import DiffusionBasis

logger = logging.getLogger(__name__)

# Coefficient magnitudes past this indicate a blown-up evolution.
OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class ShiftOperator:
    """Matrix estimate of the sampling-interval evolution semigroup on the basis.

    ``a[l, j]`` approximates the inner product of basis function j with the
    time-tau evolution of basis function l; densities evolve by c -> a @ c.
    """

    a: np.ndarray
    tau: float
    n_pairs: int

    def __post_init__(self):
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("shift operator must be a square matrix")

    @property
    def n_basis(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class DensityCoefficients:
    """Basis coefficients of a density p = peq * sum_j c_j phi_j; ``c`` is
    (M,) for one density or (M, B) for a batch of columns."""

    c: np.ndarray


@dataclass(frozen=True)
class MomentForecast:
    """First two forecast moments per observable over a ladder of lead times."""

    mean: np.ndarray
    variance: np.ndarray
    lead_times: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance shapes disagree")
        if self.mean.shape[0] != self.lead_times.shape[0]:
            raise ValueError("one row of moments per lead time required")
        if np.any(self.variance < 0):
            raise ValueError("variance must be nonnegative")


def estimate_shift_operator(
    basis: DiffusionBasis,
    tau: float,
    stride: int = 1,
) -> ShiftOperator:
    """Monte-Carlo estimate of the semigroup matrix from consecutive rows.

    a[l, j] = (1 / n_pairs) * sum_i phi_j(x_i) phi_l(x_{i+1}) over the
    consecutive pairs of the training ordering.

    Parameters
    ----------
    basis : DiffusionBasis
        Basis whose rows are in training-time order.
    tau : float
        Sampling interval of the training series.
    stride : int
        Subsample the (i, i+1) pairs with this stride; a knob for strongly
        autocorrelated series, default uses every pair.
    """
    phi = basis.phi
    n = phi.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows to form shift pairs")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = np.arange(0, n - 1, stride)
    a = phi[starts + 1].T @ phi[starts] / len(starts)
    return ShiftOperator(a=a, tau=float(tau), n_pairs=len(starts))


def project_density(p0_values: np.ndarray, basis: DiffusionBasis) -> DensityCoefficients:
    """Project pointwise density values onto the basis and pin unit mass.

    c_j = (1/N) sum_i p0(x_i) phi_j(x_i) / peq(x_i), then rescaled so that
    c_0 = 1 (the constant-function coefficient carries the total mass). An
    (N, B) array projects each column as a separate density and gives (M, B)
    coefficients; every check applies to each column. A NaN value fails the
    sign check, and an infinite one (or a sum that overflows) the finiteness
    check on the coefficients.
    """
    p0 = np.asarray(p0_values, dtype=float)
    if p0.ndim not in (1, 2) or p0.shape[0] != basis.n_points:
        raise ValueError("p0 values must be given at every training point")
    if not (p0 >= 0).all():
        raise ValueError("density values must be nonnegative, not NaN")
    if not (p0 > 0).any(axis=0).all():
        raise ValueError("density is identically zero")
    peq = basis.peq if p0.ndim == 1 else basis.peq[:, None]
    ratio = p0 / peq
    c = basis.phi.T @ ratio / basis.n_points
    if not np.isfinite(c).all():
        raise ValueError("density has non-finite basis coefficients; its values must be finite")
    if (c[0] <= 0).any():
        raise ValueError(
            "density has nonpositive mass coefficient; it is not representable "
            "on this basis (supported away from the sampled manifold?)"
        )
    return DensityCoefficients(c=c / c[0])


def evolve_coefficients(coeffs: np.ndarray, op: ShiftOperator, n_steps: int = 1) -> np.ndarray:
    """Advance coefficients by ``n_steps`` sampling intervals; accepts a
    single coefficient vector or a (M, B) batch of columns.

    Applies the operator matrix once per step, re-pinning c_0 = 1 after each
    application so Monte-Carlo mass drift cannot accumulate.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    vec = np.asarray(coeffs, dtype=float)
    if vec.shape[0] != op.n_basis:
        raise ValueError("coefficient length does not match the operator")
    out = vec.copy()
    for _ in range(n_steps):
        out = op.a @ out
        mass = out[0]
        if np.any(np.abs(out) > OVERFLOW_LIMIT):
            raise FloatingPointError("coefficient overflow during evolution")
        if np.any(mass <= 0):
            raise ValueError("mass coefficient became nonpositive during evolution")
        out = out / mass
    return out


def evolve_ladder(coeffs: DensityCoefficients | np.ndarray, op: ShiftOperator, n_leads: int):
    """Yield the coefficients at leads 0, 1, ..., n_leads, one operator
    application apart; a (M, B) array evolves each column."""
    vec = coeffs.c if isinstance(coeffs, DensityCoefficients) else np.asarray(coeffs, dtype=float)
    yield vec
    for _ in range(n_leads):
        vec = evolve_coefficients(vec, op, 1)
        yield vec


def forecast_ladder(
    coeffs: DensityCoefficients | np.ndarray,
    op: ShiftOperator,
    basis: DiffusionBasis,
    observables: np.ndarray,
    n_leads: int,
) -> MomentForecast:
    """Moments of the observables at leads 0..n_leads of the density forecast.

    The moments have shape (n_leads + 1, G) for one density and
    (n_leads + 1, G, B) for a (M, B) batch; lead times are multiples of
    ``op.tau``. See :func:`forecast_moments` for the readout.
    """
    if n_leads < 0:
        raise ValueError("n_leads must be nonnegative")
    moments = [forecast_moments(vec, basis, observables)
               for vec in evolve_ladder(coeffs, op, n_leads)]
    mean, variance = (np.stack(m) for m in zip(*moments))
    return MomentForecast(mean=mean, variance=variance,
                          lead_times=np.arange(n_leads + 1) * op.tau)


def reconstruct_density(c: DensityCoefficients, basis: DiffusionBasis) -> np.ndarray:
    """Pointwise density values peq * (phi @ c) at the training points.

    Raw reconstruction; basis truncation can leave small negative values,
    which are kept for moment consistency. Use :func:`clamp_density` when
    exporting for display.
    """
    return basis.peq * (basis.phi @ c.c)


def clamp_density(values: np.ndarray, basis: DiffusionBasis) -> np.ndarray:
    """Clip negative reconstructed values and renormalize to unit mass under
    the empirical quadrature (1/N) sum p/peq."""
    clipped = np.maximum(values, 0.0)
    mass = np.mean(clipped / basis.peq)
    if mass <= 0:
        raise ValueError("density vanished after clamping")
    return clipped / mass


def forecast_moments(
    c: DensityCoefficients | np.ndarray,
    basis: DiffusionBasis,
    observables: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of observables under the forecast density.

    Parameters
    ----------
    c : DensityCoefficients or ndarray
        Coefficients; an (M, B) array treats each column as a separate
        density.
    observables : ndarray, shape (N, G)
        Observable values g(x_i) at the training points, one column each.

    Returns
    -------
    mean, variance : ndarray
        Shape (G,) for a single density, (G, B) for a batch. Variances are
        clamped at zero (truncation can produce tiny negatives; clamping is
        logged).
    """
    vec = c.c if isinstance(c, DensityCoefficients) else np.asarray(c, dtype=float)
    g = np.asarray(observables, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    if g.shape[0] != basis.n_points:
        raise ValueError("observables must be evaluated at every training point")
    n = basis.n_points
    # g^T phi reads the row-major phi in storage order: at N=2000, M=500 it
    # takes about half the time of phi^T g
    ghat = (g.T @ basis.phi).T / n
    g2hat = ((g * g).T @ basis.phi).T / n
    mean = ghat.T @ vec
    second = g2hat.T @ vec
    var = second - mean * mean
    worst = float(var.min()) if var.size else 0.0
    if worst < 0:
        # basis truncation of a sharply peaked density can push the implied
        # variance below zero; clamping keeps moments usable and is logged
        logger.info("clamping negative forecast variance (%.3e)", worst)
    return mean, np.maximum(var, 0.0)


def gaussian_density_values(
    points: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray | float,
    wrap: np.ndarray | None = None,
) -> np.ndarray:
    """Diagonal-covariance Gaussian pdf evaluated at the given points.

    ``wrap`` gives per-coordinate periods for intrinsic angular coordinates;
    differences in those coordinates are reduced to the nearest period image.
    """
    pts = np.asarray(points, dtype=float)
    mu = np.asarray(mean, dtype=float)
    var = np.broadcast_to(np.asarray(variance, dtype=float), mu.shape)
    if not (var > 0).all():
        raise ValueError("variance must be positive, not NaN")
    delta = pts - mu
    if wrap is not None:
        period = np.asarray(wrap, dtype=float)
        for j, p in enumerate(period):
            if np.isfinite(p) and p > 0:
                delta[:, j] = (delta[:, j] + p / 2.0) % p - p / 2.0
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * var))
    return np.exp(log_norm - 0.5 * np.sum(delta * delta / var, axis=1))

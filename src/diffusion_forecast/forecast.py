"""Semigroup estimation on the diffusion basis and density forecasting.

The time-ordered basis values give a Monte-Carlo estimate of the matrix of
the sampling-interval evolution operator; densities are carried as coefficient
vectors against the basis, evolved by repeated application of that matrix, and
read out as pointwise densities or moments of observables.

On the first M_eff columns (the basis's ``EigensolveRecord.m_eff``) this is
the paper's Galerkin forecast. Each column past M_eff is a spike on one
low-density sample, so its coefficients weight that sample, and the
forecast reads the samples' shifted values as analogs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import DiffusionBasis
from .dataset import rows_per_block, wrap_period

logger = logging.getLogger(__name__)

# Coefficient magnitudes past this indicate a blown-up evolution.
OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class ShiftOperator:
    """Matrix estimate of the sampling-interval evolution semigroup on the basis.

    ``a[l, j]`` approximates the inner product of basis function j with the
    time-tau evolution of basis function l; densities evolve by c -> a @ c.
    ``tau``, the sampling interval one application advances, must be
    positive and finite.
    """

    a: np.ndarray
    tau: float

    def __post_init__(self):
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("shift operator must be a square matrix")
        if not np.isfinite(self.a).all():
            raise ValueError("shift operator entries must be finite")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"shift operator tau must be positive and finite, got {self.tau}")

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
    """First two forecast moments per observable over a ladder of lead times.

    Every forecaster returns this one layout: ``forecast_ladder``,
    ``ensemble_forecast``, ``local_linear_ladder`` and
    ``iterated_local_linear_ladder``. Row l of ``mean`` and ``variance`` is
    lead l, at ``lead_times[l]``, from lead 0 (the initial state) up. A
    forecast from one initial state has (n_leads + 1, G) moments of its G
    observables; one from a batch of B states has (n_leads + 1, G, B), with
    state b at index b of the last axis. The local-linear ladders observe the state
    itself (G = dim), and their variance is the diagonal of each lead's
    covariance.
    """

    mean: np.ndarray
    variance: np.ndarray
    lead_times: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance shapes disagree")
        if self.mean.shape[0] != self.lead_times.shape[0]:
            raise ValueError("one row of moments per lead time required")
        if not (self.variance >= 0).all():
            raise ValueError("variance must be nonnegative, not NaN")


def estimate_shift_operator(basis: DiffusionBasis, tau: float) -> ShiftOperator:
    """Monte-Carlo estimate of the semigroup matrix from consecutive rows.

    a[l, j] = (1 / (N - 1)) * sum_i phi_j(x_i) phi_l(x_{i+1}) over every
    consecutive pair (i, i + 1) of the training ordering: the basis rows must
    be in training-time order, ``tau`` apart.
    """
    phi = basis.phi
    n = phi.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows to form shift pairs")
    a = phi[1:].T @ phi[:-1] / (n - 1)
    return ShiftOperator(a=a, tau=float(tau))


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
    application so Monte-Carlo mass drift cannot accumulate. A step that
    leaves a coefficient NaN, infinite or past ``OVERFLOW_LIMIT`` raises
    ``FloatingPointError``; one that leaves a mass coefficient nonpositive
    raises ``ValueError``.
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
        # written so that a NaN fails both tests
        if not (np.abs(out) <= OVERFLOW_LIMIT).all():
            raise FloatingPointError("non-finite or overflowing coefficient during evolution")
        if not (mass > 0).all():
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
    """Moments of the observables at leads 0..n_leads of the density forecast,
    ``op.tau`` apart, in the layout of :class:`MomentForecast`; a (M, B)
    batch of coefficients is a batch of B states. See
    :func:`forecast_moments` for the readout.
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
    which are kept so that the values agree with the moments of
    :func:`forecast_moments`, read from the same coefficients.
    """
    return basis.peq * (basis.phi @ c.c)


def forecast_moments(
    c: DensityCoefficients | np.ndarray,
    basis: DiffusionBasis,
    observables: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of observables under the forecast density.

    E[g] = sum_j c_j <g, phi_j> and E[g^2] = sum_j c_j <g^2, phi_j>. Only c
    changes with the lead, so the readout <g, phi_j>, <g^2, phi_j> is kept on
    the basis with a copy of the observables, and a later call with equal
    observables (same shape, ``np.array_equal``) reuses it; other
    observables replace it. A NaN never compares equal, so observables that
    hold one are read out afresh on every call. The kept readout is N*G +
    2*M*G doubles; checking it costs O(N*G) against O(N*M*G) to recompute.

    Parameters
    ----------
    c : DensityCoefficients or ndarray
        Coefficients; an (M, B) array treats each column as a separate
        density. A NaN or infinite coefficient is a ValueError.
    observables : ndarray, shape (N, G)
        Observable values g(x_i) at the training points, one column each.

    Returns
    -------
    mean, variance : ndarray
        Shape (G,) for a single density, (G, B) for a batch. Variances are
        clamped at zero (truncation can produce tiny negatives; clamping is
        logged with the number of entries clamped and the most negative).
    """
    vec = c.c if isinstance(c, DensityCoefficients) else np.asarray(c, dtype=float)
    if not np.isfinite(vec).all():
        raise ValueError("density coefficients must be finite")
    g = np.asarray(observables, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    if g.shape[0] != basis.n_points:
        raise ValueError("observables must be evaluated at every training point")
    ghat, g2hat = _observable_readout(basis, g)
    mean = ghat.T @ vec
    second = g2hat.T @ vec
    var = second - mean * mean
    worst = float(var.min()) if var.size else 0.0
    if worst < 0:
        # basis truncation of a sharply peaked density can push the implied
        # variance below zero; clamping keeps moments usable and is logged
        logger.info("clamping %d negative forecast variances (worst %.3e)",
                    np.count_nonzero(var < 0), worst)
    return mean, np.maximum(var, 0.0)


def _observable_readout(basis: DiffusionBasis, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, G) coefficients <g, phi_j> and <g^2, phi_j> of (N, G) observables.

    One entry is kept on the basis, outside its dataclass fields, and reused
    while ``g`` equals the copy it was computed from; the basis arrays are
    read-only, so it cannot go stale.
    """
    memo = getattr(basis, "_readout", None)
    if memo is not None and np.array_equal(memo[0], g):
        return memo[1], memo[2]
    n = basis.n_points
    # g^T phi reads the row-major phi in storage order: at N=2000, M=500 it
    # takes about half the time of phi^T g
    ghat = (g.T @ basis.phi).T / n
    g2hat = ((g * g).T @ basis.phi).T / n
    object.__setattr__(basis, "_readout", (g.copy(), ghat, g2hat))
    return ghat, g2hat


def gaussian_density_values(
    points: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray | float,
    wrap: np.ndarray | None = None,
) -> np.ndarray:
    """Diagonal-covariance Gaussian pdf evaluated at the (N, D) points.

    ``mean`` is one (D,) mean, giving (N,) values, or a (B, D) batch of
    means with one shared ``variance``, giving (N, B) values whose column b
    equals, bitwise, the values at ``mean[b]`` alone. ``wrap`` gives
    per-coordinate periods for intrinsic angular coordinates; a difference d
    in such a coordinate is reduced to the nearest period image as
    ((d + p/2) mod p) - p/2, its mod equal bit for bit to ``np.remainder``
    (``dataset.wrap_period``).

    The points are taken in row blocks of ``rows_per_block(B * D)``, so the
    working memory beside the result is a few blocks; the squared distance
    of each pair is one sum over its D coordinates, whatever B is.
    """
    pts = np.asarray(points, dtype=float)
    mu = np.asarray(mean, dtype=float)
    if mu.ndim not in (1, 2) or pts.ndim != 2 or mu.shape[-1] != pts.shape[1]:
        raise ValueError(f"mean of shape {mu.shape} does not match points of shape {pts.shape}")
    var = np.broadcast_to(np.asarray(variance, dtype=float), mu.shape[-1:])
    if not (var > 0).all():
        raise ValueError("variance must be positive, not NaN")
    periods = []
    if wrap is not None:
        period = np.asarray(wrap, dtype=float)
        if period.shape != var.shape:
            raise ValueError(f"wrap of shape {period.shape} does not give one period per coordinate")
        periods = [(j, p) for j, p in enumerate(period.tolist()) if 0 < p < np.inf]
    log_norm = -0.5 * np.log(2.0 * np.pi * var).sum()
    means = mu.reshape(-1, mu.shape[-1])
    dim = means.shape[1]
    out = np.empty((pts.shape[0], means.shape[0]))
    step = rows_per_block(means.size)
    for s in range(0, pts.shape[0], step):
        rows = pts[s:s + step]
        block = out[s:s + step]
        # one coordinate at a time, so each operation runs over the B means;
        # the sum over coordinates stays one contiguous sum per pair. A sum
        # of one term (never -0.0 here) is that term, so in 1-D the
        # differences are formed in the result itself and no sum is taken
        delta = block[..., None] if dim == 1 else np.empty(block.shape + (dim,))
        for j in range(dim):
            np.subtract(rows[:, j, None], means[:, j], out=delta[..., j])
        for j, p in periods:
            d = delta[..., j]
            d += p / 2.0
            wrap_period(d, p)
            d -= p / 2.0
        delta *= delta
        delta /= var
        if dim > 1:
            np.sum(delta, axis=-1, out=block)
        # log_norm - 0.5 * sum, formed in place
        block *= -0.5
        block += log_norm
        np.exp(block, out=block)
    return out if mu.ndim == 2 else out[:, 0]

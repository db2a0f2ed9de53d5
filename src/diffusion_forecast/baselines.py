"""Reference forecasters: local-linear shift-map regression (direct and
iterated) and true-model ensemble forecasts."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import TimeSeries, knn_points
from .forecast import MomentForecast
from .simulators import ODEModel, SDEModel, rk4_step_batch, sde_step_batch

# Tikhonov floor for the normal equations; far below observable effect at the
# scales of interest but keeps near-duplicate neighbor sets solvable.
RIDGE = 1e-10


@dataclass(frozen=True)
class AffineModel:
    """Least-squares affine fit x_{i+lead} ~ linear @ x_i + offset."""

    linear: np.ndarray
    offset: np.ndarray
    fit_residual: float
    degenerate: bool = False

    def __post_init__(self):
        if not (np.all(np.isfinite(self.linear)) and np.all(np.isfinite(self.offset))):
            raise ValueError("affine model has non-finite entries")
        if self.fit_residual < 0:
            raise ValueError("fit residual must be nonnegative")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.linear @ x + self.offset


@dataclass(frozen=True)
class GaussianState:
    """Gaussian belief over the system state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12:
            raise ValueError("covariance must be symmetric")
        # the floor scales with the spectrum, so that rounding in a covariance
        # with large eigenvalues is not taken for indefiniteness
        eig = np.linalg.eigvalsh(cov)
        if eig.min() < -1e-10 * max(1.0, eig.max()):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def isotropic(cls, mean: np.ndarray, variance: float) -> "GaussianState":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(mean=mean, cov=variance * np.eye(mean.size))


def fit_local_affine(
    train: TimeSeries, point: np.ndarray, lead_steps: int, k: int = 15
) -> AffineModel:
    """Affine fit of the ``lead_steps``-step shift map on the k nearest
    neighbors of ``point``, restricted to indices whose shifted partner stays
    inside the training block."""
    pts = train.points
    n, dim = pts.shape
    if lead_steps < 0:
        raise ValueError("lead_steps must be nonnegative")
    if lead_steps == 0:
        return AffineModel(linear=np.eye(dim), offset=np.zeros(dim), fit_residual=0.0)
    eligible = n - lead_steps
    if eligible < k:
        raise ValueError(f"need at least k={k} usable points, have {eligible}")
    nl = knn_points(pts[:eligible], k, query=np.atleast_2d(point))
    idx = nl.indices[0]
    x = pts[idx]
    y = pts[idx + lead_steps]
    return _affine_least_squares(x, y)


def _affine_least_squares(x: np.ndarray, y: np.ndarray) -> AffineModel:
    k, dim = x.shape
    design = np.hstack([x, np.ones((k, 1))])
    degenerate = np.linalg.matrix_rank(design) < dim + 1
    gram = design.T @ design + RIDGE * np.eye(dim + 1)
    theta = np.linalg.solve(gram, design.T @ y)
    linear = theta[:dim].T
    offset = theta[dim]
    resid = y - design @ theta
    return AffineModel(
        linear=linear,
        offset=offset,
        fit_residual=float(np.sqrt(np.mean(resid * resid))),
        degenerate=degenerate,
    )


def local_linear_forecast(
    train: TimeSeries, init: GaussianState, lead_steps: int, k: int = 15
) -> GaussianState:
    """Direct local-linear forecast: one affine fit of the n-step shift map
    on the neighbors of the initial mean, with the covariance conjugated by
    the linear part."""
    if lead_steps == 0:
        return replace(init)
    model = fit_local_affine(train, init.mean, lead_steps, k)
    return GaussianState(mean=model(init.mean), cov=_conjugate(model.linear, init.cov))


def iterated_local_linear_forecast(
    train: TimeSeries, init: GaussianState, lead_steps: int, k: int = 15
) -> GaussianState:
    """Iterated variant: refit the 1-step map at each forecast mean and chain
    the linear parts through the covariance."""
    mean = init.mean.copy()
    total = np.eye(mean.size)
    for _ in range(lead_steps):
        model = fit_local_affine(train, mean, 1, k)
        mean = model(mean)
        total = model.linear @ total
    return GaussianState(mean=mean, cov=_conjugate(total, init.cov))


def _conjugate(linear: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """linear @ cov @ linear.T, made exactly symmetric: the product alone is
    asymmetric in its last bits, which GaussianState rejects once the
    covariance is large."""
    out = linear @ cov @ linear.T
    return 0.5 * (out + out.T)


def sample_gaussian(state: GaussianState, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples; uses a symmetric PSD square root so singular
    covariances are fine."""
    w, u = np.linalg.eigh(state.cov)
    root = u * np.sqrt(np.clip(w, 0.0, None))
    return state.mean + rng.standard_normal((n, state.mean.size)) @ root.T


def ensemble_forecast(
    model: SDEModel | ODEModel,
    init: GaussianState,
    n_ens: int,
    lead_steps: int,
    rng_seed: int,
    dt_sample: float,
    substeps: int = 1,
    observable=None,
    chunk_size: int = 2048,
) -> MomentForecast:
    """Monte-Carlo moments from integrating the true model over an ensemble.

    Members get independent noise streams spawned from ``rng_seed``; a
    member's path depends only on its index, not on chunking. Each member's
    observables are stored at its index and reduced once over the whole
    ensemble, so the moments are bitwise independent of ``chunk_size``,
    which only bounds the working memory of states and generators. The
    per-member buffer costs ``n_leads * n_ens * n_obs`` doubles.
    ``observable`` optionally maps a (B, dim) state batch to the quantities
    whose moments are wanted.

    Lead 0 reports the moments of the sampled initial conditions. The
    variance is the two-pass population variance (divided by ``n_ens``).
    """
    if n_ens < 2:
        raise ValueError("need at least 2 ensemble members")
    if dt_sample <= 0 or substeps < 1:
        raise ValueError("bad time stepping parameters")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if isinstance(rng_seed, np.random.SeedSequence):
        root = rng_seed
    else:
        root = np.random.SeedSequence(rng_seed)
    ic_seq, path_seq = root.spawn(2)
    ics = sample_gaussian(init, n_ens, np.random.default_rng(ic_seq))
    member_seqs = path_seq.spawn(n_ens) if isinstance(model, SDEModel) else None

    n_leads = lead_steps + 1
    values = None
    for start in range(0, n_ens, chunk_size):
        stop = min(start + chunk_size, n_ens)
        states = ics[start:stop].copy()
        if isinstance(model, SDEModel):
            gens = [np.random.default_rng(member_seqs[m]) for m in range(start, stop)]
        obs = _observe(states, model, observable)
        if values is None:
            values = np.empty((n_leads, n_ens, obs.shape[1]))
        values[0, start:stop] = obs
        for lead in range(1, n_leads):
            if isinstance(model, SDEModel):
                noise = np.empty((substeps, stop - start, model.dim))
                for j, gen in enumerate(gens):
                    noise[:, j, :] = gen.standard_normal((substeps, model.dim))
                states = sde_step_batch(model, states, dt_sample, substeps, noise)
            else:
                states = rk4_step_batch(model, states, dt_sample, substeps)
            if not np.all(np.isfinite(states)):
                raise FloatingPointError(f"non-finite ensemble state at lead {lead}")
            values[lead, start:stop] = _observe(states, model, observable)
    mean = values.sum(axis=1) / n_ens
    values -= mean[:, None, :]
    var = np.square(values, out=values).sum(axis=1) / n_ens
    return MomentForecast(
        mean=mean, variance=var, lead_times=np.arange(n_leads) * dt_sample
    )


def _observe(states: np.ndarray, model, observable) -> np.ndarray:
    if observable is None:
        return states
    out = np.asarray(observable(states), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out

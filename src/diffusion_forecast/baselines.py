"""Reference forecasters: local-linear shift-map regression (direct and
iterated) and true-model ensemble forecasts."""

from __future__ import annotations

import math
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
    """Least-squares affine fit x_{i+lead} ~ linear @ x_i + offset.

    A model fitted at one state has a (dim, dim) ``linear``, a (dim,)
    ``offset`` and a scalar ``fit_residual``; one fitted at a batch of B
    states has (B, dim, dim), (B, dim) and (B,) arrays, and maps a (B, dim)
    batch state by state.
    """

    linear: np.ndarray
    offset: np.ndarray
    fit_residual: float | np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.linear).all() and np.isfinite(self.offset).all()):
            finite = np.isfinite(self.linear).all(axis=(-2, -1)) & np.isfinite(self.offset).all(axis=-1)
            raise ValueError(f"affine model{_state_of(finite)} has non-finite entries")
        if not (np.asarray(self.fit_residual) >= 0).all():
            raise ValueError("fit residual must be nonnegative, not NaN")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (self.linear @ x[..., None])[..., 0] + self.offset


@dataclass(frozen=True)
class GaussianState:
    """Gaussian belief over the system state, or over each state of a batch.

    ``mean`` is one (dim,) state or a (B, dim) batch. ``cov`` is (dim, dim),
    shared by every state of a batch, or (B, dim, dim), one per state.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float, ndmin=1, copy=None)
        cov = np.array(self.cov, dtype=float, ndmin=2, copy=None)
        if mean.ndim > 2:
            raise ValueError("mean must be one (dim,) state or a (B, dim) batch")
        dim = mean.shape[-1]
        if cov.shape not in ((dim, dim), mean.shape + (dim,)):
            raise ValueError("covariance shape does not match the mean")
        # a finite sum of squares means every entry is finite; only a sum
        # that is not (a non-finite entry, or overflow) needs the full test
        if not math.isfinite(np.vdot(mean, mean)) and not np.isfinite(mean).all():
            finite = np.isfinite(mean).all(axis=-1)
            raise ValueError(f"mean{_state_of(finite)} has non-finite entries")
        # cov - cov.T is antisymmetric bit for bit, so its largest entry is
        # its largest magnitude; a non-finite entry of cov makes it NaN
        asym = cov - cov.swapaxes(-1, -2)
        if not asym.max() <= 1e-12:
            finite = np.isfinite(cov).all(axis=(-2, -1))
            if not finite.all():
                raise ValueError(f"covariance{_state_of(finite)} has non-finite entries")
            symmetric = asym.max(axis=(-2, -1)) <= 1e-12
            raise ValueError(f"covariance{_state_of(symmetric)} must be symmetric")
        # eigvalsh sorts ascending. The floor scales with the spectrum, so
        # that rounding in a covariance with large eigenvalues is not taken
        # for indefiniteness; only a negative eigenvalue can fall below it
        eig = np.linalg.eigvalsh(cov)
        if not eig.min() >= 0.0:
            psd = eig[..., 0] >= -1e-10 * np.maximum(1.0, eig[..., -1])
            if not psd.all():
                raise ValueError(f"covariance{_state_of(psd)} must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def isotropic(cls, mean: np.ndarray, variance: float) -> "GaussianState":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(mean=mean, cov=variance * np.eye(mean.shape[-1]))

    def propagate(self, mean: np.ndarray, linear: np.ndarray) -> "GaussianState":
        """The state at ``mean`` whose covariance is this one carried through
        ``linear`` ((dim, dim) or (B, dim, dim)): linear @ cov @ linear.T,
        made exactly symmetric. The product alone is asymmetric in its last
        bits, which the validation rejects once the covariance is large."""
        out = linear @ self.cov @ linear.swapaxes(-1, -2)
        return GaussianState(mean=mean, cov=0.5 * (out + out.swapaxes(-1, -2)))


def _state_of(ok: np.ndarray) -> str:
    """' of state i' naming the first failing state of a batch check, or ''
    for a single check."""
    return f" of state {np.flatnonzero(~ok)[0]}" if np.ndim(ok) else ""


def fit_local_affine(
    train: TimeSeries, point: np.ndarray, lead_steps: int, k: int = 15
) -> AffineModel:
    """Affine fit of the ``lead_steps``-step shift map on the k nearest
    neighbors of ``point``, restricted to indices whose shifted partner stays
    inside the training block.

    ``point`` is one (dim,) state or a (B, dim) batch; a batch makes one
    neighbour search for all its states and gives a batch model (see
    :class:`AffineModel`) whose state b equals the fit at ``point[b]``.
    """
    pts = train.points
    n, dim = pts.shape
    query = np.asarray(point, dtype=float)
    if lead_steps < 0:
        raise ValueError("lead_steps must be nonnegative")
    if lead_steps == 0:
        batch = query.shape[:-1]
        return AffineModel(linear=np.tile(np.eye(dim), batch + (1, 1)),
                           offset=np.zeros(batch + (dim,)), fit_residual=np.zeros(batch)[()])
    eligible = n - lead_steps
    if eligible < k:
        raise ValueError(f"need at least k={k} usable points, have {eligible}")
    nl = knn_points(pts[:eligible], k, query=np.atleast_2d(query))
    idx = nl.indices.reshape(query.shape[:-1] + (k,))
    return _affine_least_squares(pts[idx], pts[idx + lead_steps])


def _affine_least_squares(x: np.ndarray, y: np.ndarray) -> AffineModel:
    """Affine fit of (k, dim) targets ``y`` on (k, dim) inputs ``x``, or of
    each (B, k, dim) pair at once."""
    k, dim = x.shape[-2:]
    design = np.ones(x.shape[:-1] + (dim + 1,))
    design[..., :dim] = x
    design_t = design.swapaxes(-1, -2)
    gram = design_t @ design + RIDGE * np.eye(dim + 1)
    theta = np.linalg.solve(gram, design_t @ y)
    resid = y - design @ theta
    return AffineModel(
        linear=theta[..., :dim, :].swapaxes(-1, -2),
        offset=theta[..., dim, :],
        fit_residual=np.sqrt(np.add.reduce(resid * resid, axis=(-2, -1)) / (k * dim)),
    )


def local_linear_forecast(
    train: TimeSeries, init: GaussianState, lead_steps: int, k: int = 15
) -> GaussianState:
    """Direct local-linear forecast: one affine fit of the n-step shift map
    on the neighbors of the initial mean, with the covariance conjugated by
    the linear part.

    For a batch ``init`` (a (B, dim) mean) the forecast has a (B, dim) mean
    and (B, dim, dim) covariances, from one :func:`fit_local_affine` call for
    all states; state b equals, bitwise, the forecast from state b alone.
    Lead 0 returns ``init`` unchanged.
    """
    if lead_steps == 0:
        return replace(init)
    model = fit_local_affine(train, init.mean, lead_steps, k)
    return init.propagate(model(init.mean), model.linear)


def iterated_local_linear_ladder(train: TimeSeries, mean: np.ndarray, n_steps: int, k: int = 15):
    """Yield ``(mean, linear)`` at steps 0, 1, ..., n_steps of the iterated
    local-linear forecast: each step refits the 1-step map at the current
    means and applies it, and ``linear`` is the product of the linear parts
    so far (the identity at step 0).

    ``mean`` is one (dim,) state or a (B, dim) batch, which makes one
    :func:`fit_local_affine` call per step for all states and yields
    (B, dim, dim) linear parts.
    """
    mean = np.asarray(mean, dtype=float)
    dim = mean.shape[-1]
    linear = np.broadcast_to(np.eye(dim), mean.shape[:-1] + (dim, dim))
    yield mean, linear
    for _ in range(n_steps):
        model = fit_local_affine(train, mean, 1, k)
        mean = model(mean)
        linear = model.linear @ linear
        yield mean, linear


def iterated_local_linear_forecast(
    train: TimeSeries, init: GaussianState, lead_steps: int, k: int = 15
) -> GaussianState:
    """Iterated variant: refit the 1-step map at each forecast mean and chain
    the linear parts through the covariance.

    Shapes follow :func:`local_linear_forecast`: a (B, dim) batch mean gives
    a (B, dim) mean and (B, dim, dim) covariances, each state equal, bitwise,
    to its single-state forecast. Only the last step's chained linear part
    is conjugated into a covariance; :func:`iterated_local_linear_ladder`
    gives every step.
    """
    for mean, linear in iterated_local_linear_ladder(train, init.mean, lead_steps, k):
        pass
    return init.propagate(mean, linear)


def sample_gaussian(state: GaussianState, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples, (n, dim) from one state or (B, n, dim) from a batch
    in one normal block; uses a symmetric PSD square root so singular
    covariances are fine."""
    w, u = np.linalg.eigh(state.cov)
    root = u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    mean = state.mean[..., None, :]
    z = rng.standard_normal(state.mean.shape[:-1] + (n, state.mean.shape[-1]))
    return mean + z @ root.swapaxes(-1, -2)


def ensemble_forecast(
    model: SDEModel | ODEModel,
    init: GaussianState,
    n_ens: int,
    lead_steps: int,
    rng_seed: int,
    dt_sample: float,
    substeps: int = 1,
    observable=None,
) -> MomentForecast:
    """Monte-Carlo moments from integrating the true model over an ensemble.

    ``init`` is one state or a batch of B states (see GaussianState). The
    moments have shape (n_leads, G) for one state and (n_leads, G, B) for a
    batch, as in ``forecast_ladder``, with ``n_leads = lead_steps + 1``.

    Every member of every state advances as one (B * n_ens, dim) batch, in
    which member m of state b is row ``b * n_ens + m``. Of the two streams
    spawned from ``rng_seed``, the first draws the initial conditions as one
    (B, n_ens, dim) normal block and the second seeds one generator that
    draws each lead's SDE noise as one (substeps, B * n_ens, dim) block, so
    one state and a batch of that state alone draw the same numbers. Memory:
    the values buffer of ``n_leads * B * n_ens * n_obs`` doubles (163 MB for
    420 Lorenz states of 200 members at 81 leads) plus one noise block per
    SDE lead (40 MB for the paper-scale torus: 50k members, 50 substeps).
    ``observable`` optionally maps a (members, dim) state block to the
    quantities whose moments are wanted.

    Lead 0 reports the moments of the sampled initial conditions. The
    variance is the two-pass population variance (divided by ``n_ens``).
    """
    if n_ens < 2:
        raise ValueError("need at least 2 ensemble members")
    if dt_sample <= 0 or substeps < 1:
        raise ValueError("bad time stepping parameters")
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    ic_seq, path_seq = rng_seed.spawn(2)
    ics = sample_gaussian(init, n_ens, np.random.default_rng(ic_seq))
    batched = ics.ndim == 3
    states = ics.reshape(-1, ics.shape[-1])
    paths = np.random.default_rng(path_seq)

    n_leads = lead_steps + 1
    obs = _observe(states, observable)
    values = np.empty((n_leads,) + obs.shape)
    values[0] = obs
    for lead in range(1, n_leads):
        if isinstance(model, SDEModel):
            noise = paths.standard_normal((substeps,) + states.shape)
            states = sde_step_batch(model, states, dt_sample, substeps, noise)
        else:
            states = rk4_step_batch(model, states, dt_sample, substeps)
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            who = f"member of state {np.flatnonzero(~finite)[0] // n_ens}" if batched else "state"
            raise FloatingPointError(f"non-finite ensemble {who} at lead {lead}")
        values[lead] = _observe(states, observable)
    values = values.reshape(n_leads, -1, n_ens, values.shape[-1])
    mean = values.sum(axis=2) / n_ens
    values -= mean[:, :, None, :]
    var = np.square(values, out=values).sum(axis=2) / n_ens
    if batched:
        mean, var = np.moveaxis(mean, 1, -1), np.moveaxis(var, 1, -1)
    else:
        mean, var = mean[:, 0], var[:, 0]
    return MomentForecast(
        mean=mean, variance=var, lead_times=np.arange(n_leads) * dt_sample
    )


def _observe(states: np.ndarray, observable) -> np.ndarray:
    if observable is None:
        return states
    out = np.asarray(observable(states), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out

"""Training-data generators: a torus SDE with non-gradient drift and
anisotropic diffusion, the Lorenz-63 system, and generic SDE/ODE steppers.

Both steppers take a (B, dim) batch. A single trajectory is one row, and
there numpy's per-call overhead on 1 x dim arrays would be nearly all of the
cost, so each stepper runs a lone row's update on Python floats (for the
SDE, a row of at most two coordinates) and a batch on arrays. Both paths
round the same operations in the same order, so a row steps to the same bits
alone or inside any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import TimeSeries, rows_per_block, wrap_period

TWO_PI = 2.0 * np.pi
# Leading samples simulate_torus discards, so that recording starts near the
# invariant measure.
TORUS_BURN_IN = 100
# Internal RK4 steps simulate_lorenz63 discards, so that the trajectory
# starts on the attractor.
LORENZ_TRANSIENT_STEPS = 1000


@dataclass(frozen=True)
class SDEModel:
    """Ito diffusion dx = a(x) dt + b(x) dW.

    ``drift`` maps a (B, dim) state batch to (B, dim) drift vectors;
    ``diffusion`` maps it to (B, dim, dim) diffusion matrices. ``wrap``, if
    given, holds one period per coordinate, shape (dim,), for intrinsic
    angular coordinates (entries <= 0 or non-finite mean unwrapped); any
    other shape is a ValueError. A periodic coordinate is wrapped into
    [0, period) after every substep, equal bit for bit to
    ``np.remainder(x, period)`` (see ``sde_step_batch``).
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    wrap: np.ndarray | None = None

    def __post_init__(self):
        if self.wrap is not None and np.shape(self.wrap) != (self.dim,):
            raise ValueError(f"wrap of shape {np.shape(self.wrap)} does not give one period "
                             f"per coordinate of a dim-{self.dim} model")


@dataclass(frozen=True)
class ODEModel:
    """Deterministic system dx/dt = rhs(x), written on the state's components.

    ``rhs(*components)`` takes the ``dim`` components of the state and returns
    a tuple of their time derivatives. A component is a Python float when one
    trajectory is stepped and a (B,) array when a batch is, so one formula
    serves both (see ``rk4_step_batch``).
    """

    dim: int
    rhs: Callable[..., tuple]


def sde_step_batch(
    model: SDEModel,
    state: np.ndarray,
    dt: float,
    substeps: int,
    noise: np.ndarray,
) -> np.ndarray:
    """Advance a (B, dim) batch by one sampling interval with Euler-Maruyama.

    ``noise`` must hold the standard-normal increments, shape
    (substeps, B, dim); scaling by sqrt(h) happens here. Each substep calls
    ``model.diffusion`` and then ``model.drift`` on the (B, dim) state and
    takes x + a h + (sum_j b_ij n_j) sqrt(h), then wraps the periodic
    coordinates into [0, period), equal bit for bit to ``np.remainder``: a
    batch through ``dataset.wrap_period``, a lone row with Python's float
    ``%``, which is the same operation. A single row of dim <= 2 does that
    update on Python floats, summing j in ascending order from 0.0 as
    ``einsum`` does for one or two terms; a batch, and a row of higher dim,
    for which ``einsum`` reorders the sum, go through ``einsum``. So a row
    stepped alone equals, bit for bit, the same row stepped inside a batch
    with its own noise column.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    x = np.array(state, dtype=float)
    noise = np.asarray(noise)
    if x.ndim != 2:
        raise ValueError(f"state must be a (B, dim) batch, got shape {x.shape}")
    if noise.shape != (substeps,) + x.shape:
        raise ValueError(f"noise has shape {noise.shape}, expected "
                         f"(substeps, B, dim) = {(substeps,) + x.shape}")
    h = float(dt) / substeps
    wrap = [] if model.wrap is None else model.wrap
    periodic = [(j, float(period)) for j, period in enumerate(wrap)
                if np.isfinite(period) and period > 0]
    if x.shape[0] == 1 and x.shape[1] <= 2:
        sqrt_h = math.sqrt(h)
        c = x[0].tolist()
        for n in noise[:, 0].tolist():
            b = model.diffusion(x).tolist()[0]
            a = model.drift(x).tolist()[0]
            for i, row in enumerate(b):
                e = 0.0
                for bij, nj in zip(row, n):
                    e += bij * nj
                c[i] = c[i] + a[i] * h + e * sqrt_h
            for j, period in periodic:
                c[j] %= period
            x = np.array([c])
        return x
    sqrt_h = np.sqrt(h)
    for s in range(substeps):
        b = model.diffusion(x)
        x = x + model.drift(x) * h + np.einsum("bij,bj->bi", b, noise[s]) * sqrt_h
        for j, period in periodic:
            wrap_period(x[..., j], period)
    return x


def euler_maruyama(
    model: SDEModel,
    x0: np.ndarray,
    dt_sample: float,
    substeps: int,
    n_samples: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> TimeSeries:
    """Integrate a single trajectory, recording every ``dt_sample``.

    The internal step is dt_sample / substeps. Periodic coordinates are
    wrapped into [0, period) at every substep. The first recorded point is
    the state one sampling interval after ``x0``. The noise comes from
    ``np.random.default_rng(seed)``, so a Generator is drawn from as is.
    It is drawn a block of samples at a time (``rows_per_block`` rows of
    substeps x dim), one ``standard_normal`` call a block: the same numbers
    in the same order as one (substeps, 1, dim) draw a sample, and the
    generator is left where those draws would leave it. Each sample is one
    ``sde_step_batch`` call on the (1, dim) state, which runs on Python
    floats for dim <= 2.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not (np.isfinite(dt_sample) and dt_sample > 0):
        raise ValueError(f"dt_sample must be positive and finite, got {dt_sample}")
    if np.size(x0) != model.dim:
        raise ValueError(f"x0 has {np.size(x0)} components, the model has dim {model.dim}")
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).reshape(1, model.dim)
    out = np.empty((n_samples, model.dim))
    step = rows_per_block(substeps * model.dim)
    for start in range(0, n_samples, step):
        block = rng.standard_normal((min(step, n_samples - start), substeps, 1, model.dim))
        for i, noise in enumerate(block, start):
            x = sde_step_batch(model, x, dt_sample, substeps, noise)
            if not np.isfinite(x).all():
                raise FloatingPointError(f"non-finite state at sample {i}")
            out[i] = x[0]
    return TimeSeries(out, tau=dt_sample)


def rk4_step_batch(model: ODEModel, state: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    """Classic fourth-order Runge-Kutta over one sampling interval.

    ``state`` is a (B, dim) batch; the result is a new (B, dim) array. The
    loop runs on the state's components: Python floats for a single row,
    where numpy's per-call overhead would be nearly all of the cost, and
    (B,) columns otherwise. Both round the same operations in the same
    order, so a row steps to the same bits alone or inside any batch.
    """
    h = float(dt) / substeps
    half, sixth = 0.5 * h, h / 6.0
    x = np.asarray(state, dtype=float)
    single = x.shape[0] == 1
    c = x[0].tolist() if single else list(x.T)
    rhs = model.rhs
    for _ in range(substeps):
        k1 = rhs(*c)
        k2 = rhs(*[a + half * k for a, k in zip(c, k1)])
        k3 = rhs(*[a + half * k for a, k in zip(c, k2)])
        k4 = rhs(*[a + h * k for a, k in zip(c, k3)])
        c = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(c, k1, k2, k3, k4)]
    return np.array([c]) if single else np.column_stack(c)


def torus_drift(x: np.ndarray) -> np.ndarray:
    theta, phi = x[..., 0], x[..., 1]
    a_theta = 0.5 + 0.125 * np.cos(theta) * np.cos(2.0 * phi) + 0.5 * np.cos(theta + np.pi / 2.0)
    a_phi = 10.0 + 0.5 * np.cos(theta + phi / 2.0) + np.cos(theta + np.pi / 2.0)
    return np.stack([a_theta, a_phi], axis=-1)


def torus_diffusion(x: np.ndarray) -> np.ndarray:
    theta, phi = x[..., 0], x[..., 1]
    off = 0.25 * np.cos(theta + phi)
    b = np.empty(x.shape[:-1] + (2, 2))
    b[..., 0, 0] = 0.25 + 0.25 * np.sin(theta)
    b[..., 0, 1] = off
    b[..., 1, 0] = off
    b[..., 1, 1] = 0.025 + 0.025 * np.sin(phi) * np.cos(theta)
    return b


def torus_model() -> SDEModel:
    """Torus SDE with non-gradient drift, anisotropic diffusion, and a fast
    angular coordinate (phi advances roughly an order of magnitude faster)."""
    return SDEModel(dim=2, drift=torus_drift, diffusion=torus_diffusion,
                    wrap=np.array([TWO_PI, TWO_PI]))


def torus_embed(angles: np.ndarray) -> np.ndarray:
    """Standard embedding of the 2-torus into R^3."""
    theta, phi = angles[..., 0], angles[..., 1]
    r = 2.0 + np.sin(theta)
    return np.stack([r * np.cos(phi), r * np.sin(phi), np.cos(theta)], axis=-1)


def simulate_torus(
    n_samples: int = 20000,
    dt_sample: float = 0.1,
    substeps: int = 50,
    seed: int = 0,
) -> tuple[TimeSeries, TimeSeries]:
    """Sample the torus SDE; returns paired intrinsic and embedded series.

    The internal integration step is dt_sample / substeps (default 0.002) and
    TORUS_BURN_IN leading samples are discarded so recording starts near the
    invariant measure.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, TWO_PI, size=2)
    intrinsic = euler_maruyama(
        torus_model(), x0, dt_sample, substeps, n_samples + TORUS_BURN_IN, rng
    )
    angles = intrinsic.points[TORUS_BURN_IN:]
    return TimeSeries(angles, tau=dt_sample), TimeSeries(torus_embed(angles), tau=dt_sample)


def lorenz_model() -> ODEModel:
    """Lorenz-63 at the canonical parameters sigma = 10, rho = 28, beta = 8/3."""
    def rhs(x, y, z):
        return 10.0 * (y - x), x * (28.0 - z) - y, x * y - (8.0 / 3.0) * z

    return ODEModel(dim=3, rhs=rhs)


def lorenz_substeps(dt_sample: float) -> int:
    """RK4 steps per sampling interval that keep the Lorenz-63 step at or
    below 0.01; ValueError unless ``dt_sample`` is positive and finite."""
    if not (np.isfinite(dt_sample) and dt_sample > 0):
        raise ValueError(f"dt_sample must be positive and finite, got {dt_sample}")
    return max(1, int(np.ceil(dt_sample / 0.01)))


def simulate_lorenz63(
    n_samples: int = 10000,
    dt_sample: float = 0.1,
    seed: int = 0,
) -> TimeSeries:
    """Lorenz-63 trajectory at the canonical parameters (10, 28, 8/3).

    RK4 with internal step <= 0.01, sampled every ``dt_sample``, from a
    seeded perturbation of (1, 1, 1.05); LORENZ_TRANSIENT_STEPS internal
    steps are discarded up front so the trajectory starts on the attractor.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    substeps = lorenz_substeps(dt_sample)
    rng = np.random.default_rng(seed)
    x = (np.array([1.0, 1.0, 1.05]) + 1e-3 * rng.standard_normal(3)).reshape(1, 3)
    model = lorenz_model()
    transient = LORENZ_TRANSIENT_STEPS
    if transient > 0:
        x = rk4_step_batch(model, x, transient * (dt_sample / substeps), transient)
    out = np.empty((n_samples, 3))
    for i in range(n_samples):
        x = rk4_step_batch(model, x, dt_sample, substeps)
        out[i] = x[0]
    # a non-finite state stays non-finite and raises nothing on floats, so
    # one check after the loop finds the first bad sample
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise FloatingPointError(f"non-finite state at sample {np.argmax(bad)}")
    return TimeSeries(out, tau=dt_sample)

"""Training-data generators: a torus SDE with non-gradient drift and
anisotropic diffusion, the Lorenz-63 system, and generic SDE/ODE steppers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import TimeSeries

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SDEModel:
    """Ito diffusion dx = a(x) dt + b(x) dW.

    ``drift`` maps a (B, dim) state batch to (B, dim) drift vectors;
    ``diffusion`` maps it to (B, dim, dim) diffusion matrices. ``wrap`` holds
    per-coordinate periods for intrinsic angular coordinates (entries <= 0 or
    non-finite mean unwrapped).
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    wrap: np.ndarray | None = None


@dataclass(frozen=True)
class ODEModel:
    """Deterministic system dx/dt = rhs(x), batch-aware like SDEModel."""

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]


def _apply_wrap(x: np.ndarray, wrap: np.ndarray | None) -> np.ndarray:
    if wrap is None:
        return x
    for j, period in enumerate(np.atleast_1d(wrap)):
        if np.isfinite(period) and period > 0:
            x[..., j] %= period
    return x


def sde_step_batch(
    model: SDEModel,
    state: np.ndarray,
    dt: float,
    substeps: int,
    noise: np.ndarray,
) -> np.ndarray:
    """Advance a (B, dim) batch by one sampling interval with Euler-Maruyama.

    ``noise`` must hold the standard-normal increments, shape
    (substeps, B, dim); scaling by sqrt(h) happens here.
    """
    h = dt / substeps
    sqrt_h = np.sqrt(h)
    x = np.array(state, dtype=float)
    for s in range(substeps):
        b = model.diffusion(x)
        x = x + model.drift(x) * h + np.einsum("bij,bj->bi", b, noise[s]) * sqrt_h
        x = _apply_wrap(x, model.wrap)
    return x


def euler_maruyama(
    model: SDEModel,
    x0: np.ndarray,
    dt_sample: float,
    substeps: int,
    n_samples: int,
    seed: int,
    rng: np.random.Generator | None = None,
) -> TimeSeries:
    """Integrate a single trajectory, recording every ``dt_sample``.

    The internal step is dt_sample / substeps. Periodic coordinates are
    wrapped into [0, period) at every substep. The first recorded point is
    the state one sampling interval after ``x0``.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if dt_sample <= 0:
        raise ValueError("dt_sample must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).reshape(1, model.dim)
    out = np.empty((n_samples, model.dim))
    for i in range(n_samples):
        noise = rng.standard_normal((substeps, 1, model.dim))
        x = sde_step_batch(model, x, dt_sample, substeps, noise)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite state at sample {i}")
        out[i] = x[0]
    return TimeSeries(out, tau=dt_sample, origin_label=f"sde(seed={seed})")


def rk4_step_batch(model: ODEModel, state: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    """Classic fourth-order Runge-Kutta over one sampling interval."""
    h = dt / substeps
    x = np.array(state, dtype=float)
    for _ in range(substeps):
        k1 = model.rhs(x)
        k2 = model.rhs(x + 0.5 * h * k1)
        k3 = model.rhs(x + 0.5 * h * k2)
        k4 = model.rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


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
    burn_in: int = 100,
) -> tuple[TimeSeries, TimeSeries]:
    """Sample the torus SDE; returns paired intrinsic and embedded series.

    The internal integration step is dt_sample / substeps (default 0.002) and
    ``burn_in`` leading samples are discarded so recording starts near the
    invariant measure.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, TWO_PI, size=2)
    intrinsic = euler_maruyama(
        torus_model(), x0, dt_sample, substeps, n_samples + burn_in, seed, rng=rng
    )
    angles = intrinsic.points[burn_in:]
    label = f"torus(seed={seed})"
    intrinsic = TimeSeries(angles, tau=dt_sample, origin_label=label)
    embedded = TimeSeries(torus_embed(angles), tau=dt_sample, origin_label=label + "|embedded")
    return intrinsic, embedded


def lorenz_model(sigma: float = 10.0, rho: float = 28.0, beta: float = 8.0 / 3.0) -> ODEModel:
    def rhs(x: np.ndarray) -> np.ndarray:
        dx = sigma * (x[..., 1] - x[..., 0])
        dy = x[..., 0] * (rho - x[..., 2]) - x[..., 1]
        dz = x[..., 0] * x[..., 1] - beta * x[..., 2]
        return np.stack([dx, dy, dz], axis=-1)

    return ODEModel(dim=3, rhs=rhs)


def lorenz_substeps(dt_sample: float) -> int:
    """RK4 steps per sampling interval that keep the Lorenz-63 step at or
    below 0.01."""
    return max(1, int(np.ceil(dt_sample / 0.01)))


def simulate_lorenz63(
    n_samples: int = 10000,
    dt_sample: float = 0.1,
    seed: int = 0,
    x0: np.ndarray | None = None,
    transient_steps: int = 1000,
) -> TimeSeries:
    """Lorenz-63 trajectory at the canonical parameters (10, 28, 8/3).

    RK4 with internal step <= 0.01, sampled every ``dt_sample``;
    ``transient_steps`` internal steps are discarded up front so the
    trajectory starts on the attractor. ``x0`` defaults to a seeded
    perturbation of (1, 1, 1.05).
    """
    model = lorenz_model()
    if x0 is None:
        rng = np.random.default_rng(seed)
        x0 = np.array([1.0, 1.0, 1.05]) + 1e-3 * rng.standard_normal(3)
    substeps = lorenz_substeps(dt_sample)
    h_internal = dt_sample / substeps
    x = np.asarray(x0, dtype=float).reshape(1, 3)
    if transient_steps > 0:
        x = rk4_step_batch(model, x, transient_steps * h_internal, transient_steps)
    out = np.empty((n_samples, 3))
    for i in range(n_samples):
        x = rk4_step_batch(model, x, dt_sample, substeps)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite state at sample {i}")
        out[i] = x[0]
    return TimeSeries(out, tau=dt_sample, origin_label=f"lorenz63(seed={seed})")

"""Reference forecasters: local-linear shift-map regression (direct and
iterated) and true-model ensemble forecasts."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import TimeSeries, knn_points, rows_per_block
from .forecast import MomentForecast
from .simulators import ODEModel, SDEModel, rk4_step_batch, sde_step_batch

# Tikhonov floor for the normal equations; far below observable effect at the
# scales of interest but keeps near-duplicate neighbor sets solvable.
RIDGE = 1e-10

# Neighbours of each local-linear affine fit. Every driver, the benchmark and
# the CLI's baseline command fit on 15, so it is no option.
LOCAL_LINEAR_K = 15


@dataclass(frozen=True)
class AffineModel:
    """Least-squares affine fit x_{i+lead} ~ linear @ x_i + offset.

    A model fitted at one state has a (dim, dim) ``linear`` and a (dim,)
    ``offset``; one fitted at a batch of B states has (B, dim, dim) and
    (B, dim) arrays, and maps a (B, dim) batch state by state.
    """

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        # finite sums of squares mean finite entries; only a sum that is not
        # (a non-finite entry, or overflow) needs the full test
        if (not math.isfinite(np.vdot(self.linear, self.linear) + np.vdot(self.offset, self.offset))
                and not (np.isfinite(self.linear).all() and np.isfinite(self.offset).all())):
            finite = np.isfinite(self.linear).all(axis=(-2, -1)) & np.isfinite(self.offset).all(axis=-1)
            raise ValueError(f"affine model{_state_of(finite)} has non-finite entries")

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
        if not math.isfinite(np.vdot(cov, cov)) and not np.isfinite(cov).all():
            finite = np.isfinite(cov).all(axis=(-2, -1))
            raise ValueError(f"covariance{_state_of(finite)} has non-finite entries")
        # a covariance equal to its transpose byte for byte needs no
        # tolerance; otherwise cov - cov.T is antisymmetric bit for bit, so
        # its largest entry is its largest magnitude
        if cov.tobytes() != cov.swapaxes(-1, -2).tobytes():
            asym = cov - cov.swapaxes(-1, -2)
            if not asym.max() <= 1e-12:
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
        cov = out + out.swapaxes(-1, -2)
        cov *= 0.5
        return GaussianState(mean=mean, cov=cov)


def _state_of(ok: np.ndarray) -> str:
    """' of state i' naming the first failing state of a batch check, or ''
    for a single check."""
    return f" of state {np.flatnonzero(~ok)[0]}" if np.ndim(ok) else ""


def fit_local_affine(train: TimeSeries, point: np.ndarray, lead_steps: int) -> AffineModel:
    """Affine fit of the ``lead_steps``-step shift map, ``lead_steps`` >= 1,
    on the K = LOCAL_LINEAR_K nearest neighbors of ``point``, restricted to
    indices whose shifted partner stays inside the training block. An
    affine map has dim + 1 coefficients per coordinate, so a series of dim
    K or more is a ValueError.

    ``point`` is one (dim,) state or a (B, dim) batch; a batch makes one
    neighbour search for all its states and gives a batch model (see
    :class:`AffineModel`) whose state b equals the fit at ``point[b]``.

    One entry is kept on ``train``, outside its dataclass fields, for the
    last ``point`` asked about: a copy of it, its training points ranked in
    (distance, index) order over the whole series to some depth r, and the
    normal equations of the last neighbour set. The K nearest of the
    ``n - lead_steps`` eligible points are the first K eligible entries of
    that ranking, so a fit at the same point and another lead reads them
    from it; only when fewer than K of the r are eligible is the point
    ranked again, to at least twice the depth. A lead whose neighbour set
    equals the last one's only solves its normal equations for the new
    targets. A different point ranks afresh, to depth K + lead_steps.
    ``train.points`` is read-only, so the entry cannot go stale, and every
    fit equals, bitwise, a search over the eligible points alone followed by
    a fresh least-squares fit.

    The entry pays off only for the direct forecasts, which ask about one
    point at many leads. The iterated walk (:func:`_iterated_steps`) asks
    about a new point at every step, so it neither reads nor replaces the
    entry; a direct forecast made after a walk still finds its ranking.
    """
    pts = train.points
    query = np.asarray(point, dtype=float)
    _check_fit(pts, query, lead_steps)
    memo = getattr(train, "_ranking", None)
    if memo is None or not _same(query, memo.query):
        memo = _Ranking(pts, query, LOCAL_LINEAR_K + lead_steps)
        object.__setattr__(train, "_ranking", memo)
    idx, normal = memo.fit(pts, len(pts) - lead_steps)
    return _affine_solve(*normal, pts[lead_steps:].take(idx, axis=0))


def _check_fit(pts: np.ndarray, query: np.ndarray, lead_steps: int) -> None:
    """Raise ValueError unless ``query`` states of the series' dim can be
    fitted on LOCAL_LINEAR_K neighbours at ``lead_steps`` >= 1: the dim must
    be below that count, and as many points need a partner that far on."""
    n, dim = pts.shape
    if query.shape[-1:] != (dim,):
        raise ValueError(f"state of shape {query.shape} does not match the "
                         f"training series of dim {dim}")
    if dim >= LOCAL_LINEAR_K:
        raise ValueError(f"{LOCAL_LINEAR_K} neighbours cannot determine an affine fit in dim "
                         f"{dim}; need dim <= {LOCAL_LINEAR_K - 1}")
    if lead_steps < 1:
        raise ValueError(f"lead_steps must be >= 1, got {lead_steps}")
    if n - lead_steps < LOCAL_LINEAR_K:
        raise ValueError(f"need at least {LOCAL_LINEAR_K} usable points, have {n - lead_steps}")


class _Ranking:
    """The training points in (distance, index) order from one query, to a
    depth above K = LOCAL_LINEAR_K, and the last neighbour set read from
    them with its normal equations."""

    def __init__(self, pts: np.ndarray, query: np.ndarray, depth: int):
        self.query = query.copy()
        self.ranked = knn_points(pts, depth, query=np.atleast_2d(query)).indices
        self.fit_idx = None
        self.normal = None
        self.valid = range(0)

    def fit(self, pts: np.ndarray, eligible: int):
        """The K nearest points with index below ``eligible``, shaped like
        the query's states, and their normal equations."""
        if eligible not in self.valid:
            idx = self.ranked[:, :LOCAL_LINEAR_K]
            top = int(idx.max())
            if top >= eligible:
                idx = self._first_eligible(pts, eligible)
                top = int(idx.max())
            idx = idx.reshape(self.query.shape[:-1] + (LOCAL_LINEAR_K,))
            if not _same(idx, self.fit_idx):
                self.fit_idx, self.normal = idx, _normal_equations(_design(pts[idx]))
            # the same points are the first K eligible for every count from
            # one past their largest index up to this one
            self.valid = range(top + 1, eligible + 1)
        return self.fit_idx, self.normal

    def _first_eligible(self, pts: np.ndarray, eligible: int) -> np.ndarray:
        """(rows, K): the first K entries below ``eligible`` of each ranked
        row. At most n - eligible entries are dropped, so a depth of
        K + n - eligible always holds them; a shallower ranking that does
        not is ranked again, to at least twice its depth."""
        keep = self.ranked < eligible
        if not (keep.sum(axis=1) >= LOCAL_LINEAR_K).all():
            n, depth = pts.shape[0], self.ranked.shape[1]
            depth = min(n, max(2 * depth, LOCAL_LINEAR_K + n - eligible))
            self.ranked = knn_points(pts, depth, query=np.atleast_2d(self.query)).indices
            keep = self.ranked < eligible
        keep &= np.cumsum(keep, axis=1) <= LOCAL_LINEAR_K
        return self.ranked[keep]


def _same(a: np.ndarray, b: np.ndarray | None) -> bool:
    """Whether ``b`` is an array of ``a``'s shape and bytes: what was
    computed from one is what would be computed from the other."""
    return b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()


def _design(x: np.ndarray) -> np.ndarray:
    """The rows [x, 1] of the affine fit's design, one per row of ``x``."""
    dim = x.shape[-1]
    design = np.empty(x.shape[:-1] + (dim + 1,))
    design[..., :dim] = x
    design[..., dim] = 1.0
    return design


def _normal_equations(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transposed design and its ridged Gram matrix for the affine
    least-squares fit on (k, dim + 1) rows of :func:`_design`, or on each
    (B, k, dim + 1) block at once."""
    design_t = design.swapaxes(-1, -2)
    return design_t, design_t @ design + _ridge(design.shape[-1])


@functools.cache
def _ridge(size: int) -> np.ndarray:
    """RIDGE times the (size, size) identity, made once per size."""
    out = RIDGE * np.eye(size)
    out.flags.writeable = False
    return out


def _affine_solve(design_t: np.ndarray, gram: np.ndarray, y: np.ndarray) -> AffineModel:
    """The affine model whose coefficients solve the normal equations
    (``design_t``, ``gram``) of :func:`_normal_equations` for targets ``y``."""
    dim = y.shape[-1]
    theta = np.linalg.solve(gram, design_t @ y)
    return AffineModel(
        linear=theta[..., :dim, :].swapaxes(-1, -2),
        offset=theta[..., dim, :],
    )


def local_linear_forecast(train: TimeSeries, init: GaussianState, lead_steps: int) -> GaussianState:
    """Direct local-linear forecast: one affine fit of the n-step shift map
    on the LOCAL_LINEAR_K nearest neighbors of the initial mean, with the
    covariance conjugated by the linear part.

    For a batch ``init`` (a (B, dim) mean) the forecast has a (B, dim) mean
    and (B, dim, dim) covariances, from one :func:`fit_local_affine` call for
    all states; state b equals, bitwise, the forecast from state b alone.
    Lead 0 returns ``init`` unchanged; a negative lead is a ValueError.

    Asked lead by lead from one ``init``, as :func:`local_linear_ladder`
    asks, the forecasts share one neighbour ranking of the initial mean: the
    entry :func:`fit_local_affine` keeps on ``train`` holds the mean's
    copy, its ranked training points and the last neighbour set's normal
    equations, so a lead costs one small solve and the covariance product.
    An iterated forecast in between leaves the entry alone. It cannot go
    stale, because ``train.points`` is read-only, and each forecast equals,
    bitwise, one made without it.
    """
    if lead_steps < 0:
        raise ValueError(f"lead_steps must be >= 0, got {lead_steps}")
    if lead_steps == 0:
        return replace(init)
    model = fit_local_affine(train, init.mean, lead_steps)
    return init.propagate(model(init.mean), model.linear)


def local_linear_ladder(train: TimeSeries, init: GaussianState, n_leads: int) -> MomentForecast:
    """Direct local-linear forecasts at leads 0, 1, ..., n_leads, as one
    :class:`MomentForecast` (see there for the layout); lead l is
    :func:`local_linear_forecast` at l, whose variance is the diagonal of
    its covariance. The leads share one neighbour ranking of the mean."""
    _check_n_leads(n_leads)
    return _moment_ladder([local_linear_forecast(train, init, lead)
                           for lead in range(n_leads + 1)], train.tau)


def iterated_local_linear_ladder(train: TimeSeries, init: GaussianState,
                                 n_leads: int) -> MomentForecast:
    """Iterated local-linear forecasts at leads 0, 1, ..., n_leads, from one
    walk over the steps, as one :class:`MomentForecast` (see there for the
    layout); lead l equals :func:`iterated_local_linear_forecast` at l."""
    _check_n_leads(n_leads)
    return _moment_ladder([init.propagate(mean, linear) for mean, linear
                           in _iterated_steps(train, init.mean, n_leads)], train.tau)


def _check_n_leads(n_leads: int) -> None:
    if n_leads < 0:
        raise ValueError(f"n_leads must be >= 0, got {n_leads}")


def _moment_ladder(states: list[GaussianState], tau: float) -> MomentForecast:
    """The means and covariance diagonals of one state per lead, in the
    layout of :class:`MomentForecast`. A batch's shared covariance (lead 0)
    gives every state its diagonal."""
    mean = np.stack([state.mean for state in states])
    var = np.stack([np.broadcast_to(np.diagonal(state.cov, axis1=-2, axis2=-1), state.mean.shape)
                    for state in states])
    if mean.ndim == 3:
        mean, var = np.moveaxis(mean, 1, -1), np.moveaxis(var, 1, -1)
    return MomentForecast(mean=mean, variance=var, lead_times=np.arange(len(states)) * tau)


def _iterated_steps(train: TimeSeries, mean: np.ndarray, n_steps: int):
    """Yield ``(mean, linear)`` at steps 0, 1, ..., n_steps of the iterated
    local-linear forecast: each step refits the 1-step map at the current
    means and applies it, and ``linear`` is the product of the linear parts
    so far (the identity at step 0).

    Each step ranks its means afresh: one :func:`knn_points` search, for
    all states, over the n - 1 points that have a 1-step partner, then the
    least-squares fit on those neighbours. No ranking is kept, since each
    step asks about new means; the one :func:`fit_local_affine` keeps on
    ``train`` for the direct forecasts is left as it was. Every step equals,
    bitwise, :func:`fit_local_affine` at lead 1 of its means.

    ``mean`` is one (dim,) state or a (B, dim) batch, which yields
    (B, dim, dim) linear parts.
    """
    dim = mean.shape[-1]
    linear = np.broadcast_to(np.eye(dim), mean.shape[:-1] + (dim, dim))
    yield mean, linear
    if not n_steps:
        return
    pts = train.points
    _check_fit(pts, mean, 1)
    eligible, partners = pts[:-1], pts[1:]
    design = _design(eligible)
    neighbours = mean.shape[:-1] + (LOCAL_LINEAR_K,)
    for _ in range(n_steps):
        found = knn_points(eligible, LOCAL_LINEAR_K, query=mean.reshape(-1, dim))
        idx = found.indices.reshape(neighbours)
        model = _affine_solve(*_normal_equations(design.take(idx, axis=0)),
                              partners.take(idx, axis=0))
        mean = model(mean)
        linear = model.linear @ linear
        yield mean, linear


def iterated_local_linear_forecast(train: TimeSeries, init: GaussianState,
                                   lead_steps: int) -> GaussianState:
    """Iterated variant: refit the 1-step map at each forecast mean and chain
    the linear parts through the covariance.

    Shapes follow :func:`local_linear_forecast`: a (B, dim) batch mean gives
    a (B, dim) mean and (B, dim, dim) covariances, each state equal, bitwise,
    to its single-state forecast. Only the last step's chained linear part
    is conjugated into a covariance; :func:`iterated_local_linear_ladder`
    gives every step.
    """
    if lead_steps < 0:
        raise ValueError(f"lead_steps must be >= 0, got {lead_steps}")
    for mean, linear in _iterated_steps(train, init.mean, lead_steps):
        pass
    return init.propagate(mean, linear)


def sample_gaussian(state: GaussianState, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples, (n, dim) from one state or (B, n, dim) from a batch;
    uses a symmetric PSD square root so singular covariances are fine. The
    normals are drawn in C order, so a batch drawn block of states by block
    from one generator equals the batch drawn at once."""
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
    moments of the G observables at leads 0..lead_steps, ``dt_sample``
    apart, are in the layout of :class:`MomentForecast`.

    The states advance in blocks of ``rows_per_block(substeps * n_ens *
    dim)`` whole states, each block's members as one (rows * n_ens, dim)
    batch in which member m of state b is row ``b * n_ens + m``, reduced to
    their moments at each lead before the next step. Memory is per block:
    its members, a copy of their observables and, per SDE lead, one
    (substeps, rows * n_ens, dim) noise block, about one working block;
    only the (n_leads, B, G) moments grow with B. Of the two streams
    spawned from ``rng_seed``, the first draws the initial conditions block
    by block, the numbers of one (B, n_ens, dim) draw, and the second the
    SDE noise, lead by lead within each block. So one state and a batch of
    that state alone draw the same numbers; a batched SDE ensemble split
    over several blocks draws its noise in another order than one block
    (no driver runs one). ``observable`` optionally maps a (members, dim)
    state block to the quantities whose moments are wanted.

    Lead 0 reports the moments of the sampled initial conditions. The
    variance is the two-pass population variance (divided by ``n_ens``).
    """
    if init.mean.shape[-1] != model.dim:
        raise ValueError(f"initial mean has {init.mean.shape[-1]} components, "
                         f"the model has dim {model.dim}")
    if n_ens < 2:
        raise ValueError("need at least 2 ensemble members")
    if lead_steps < 0:
        raise ValueError(f"lead_steps must be >= 0, got {lead_steps}")
    if not (math.isfinite(dt_sample) and dt_sample > 0):
        raise ValueError(f"dt_sample must be positive and finite, got {dt_sample}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    ics, paths = (np.random.default_rng(seq) for seq in rng_seed.spawn(2))
    batched = init.mean.ndim == 2
    means = init.mean.reshape(-1, model.dim)
    rows = rows_per_block(substeps * n_ens * model.dim)
    blocks = []
    for start in range(0, len(means), rows):
        block = slice(start, start + rows)
        cov = init.cov if init.cov.ndim == 2 else init.cov[block]
        states = sample_gaussian(GaussianState(means[block], cov), n_ens, ics).reshape(-1, model.dim)
        moments = [_moments(states, n_ens, observable)]
        for lead in range(1, lead_steps + 1):
            if isinstance(model, SDEModel):
                noise = paths.standard_normal((substeps,) + states.shape)
                states = sde_step_batch(model, states, dt_sample, substeps, noise)
            else:
                states = rk4_step_batch(model, states, dt_sample, substeps)
            finite = np.isfinite(states).all(axis=1)
            if not finite.all():
                who = f"member of state {start + np.argmin(finite) // n_ens}" if batched else "state"
                raise FloatingPointError(f"non-finite ensemble {who} at lead {lead}")
            moments.append(_moments(states, n_ens, observable))
        blocks.append(np.array(moments))
    stacked = np.concatenate(blocks, axis=2).swapaxes(0, 1)  # (2, n_leads, B, G)
    mean, var = np.moveaxis(stacked, 2, -1) if batched else stacked[:, :, 0]
    return MomentForecast(mean=mean, variance=var,
                          lead_times=np.arange(lead_steps + 1) * dt_sample)


def _moments(states: np.ndarray, n_ens: int, observable) -> tuple[np.ndarray, np.ndarray]:
    """Each state's (rows, G) mean and two-pass population variance over its
    n_ens members. The observables are copied to C order first, so the sums
    run in one order whatever layout the observable returns."""
    obs = states if observable is None else observable(states)
    values = np.array(obs, dtype=float, order="C").reshape(len(states) // n_ens, n_ens, -1)
    mean = values.sum(axis=1) / n_ens
    values -= mean[:, None, :]
    return mean, np.square(values, out=values).sum(axis=1) / n_ens

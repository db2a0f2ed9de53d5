"""Independent reference computations used to pin expected values.

Everything here is deliberately built from first principles (brute force,
finite differences, dense linear algebra) so it shares no code path with the
library implementations it checks. The one exception is
:func:`direct_local_affine`, which pins a bitwise contract and so must make
the library's own neighbour search.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

TWO_PI = 2.0 * np.pi


def brute_force_knn(points, k):
    """All-pairs sort with (distance, index) tie-breaking; self pinned first."""
    n = points.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    for i in range(n):
        d = np.sqrt(np.sum((points - points[i]) ** 2, axis=1))
        key = d.copy()
        key[i] = -1.0
        order = sorted(range(n), key=lambda j: (key[j], j))[:k]
        indices[i] = order
        distances[i] = d[order]
        distances[i, 0] = 0.0
    return indices, distances


def lexsort_knn(points, k, query=None):
    """k nearest points to each query row, ordered by (squared distance,
    index) with one lexsort per row; with no ``query`` every point queries
    the set and is pinned first in its own row."""
    rows = points if query is None else query
    n = points.shape[0]
    indices = np.empty((rows.shape[0], k), dtype=np.int64)
    distances = np.empty((rows.shape[0], k))
    for i, row in enumerate(rows):
        d2 = np.sum((points - row) ** 2, axis=1)
        key = d2.copy()
        if query is None:
            key[i] = -1.0
        order = np.lexsort((np.arange(n), key))[:k]
        indices[i] = order
        distances[i] = np.sqrt(d2[order])
    return indices, distances


def brute_force_kernel_sum(points, scales, c, eps_grid):
    """Direct double sum T(eps) without any histogram shortcut."""
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    w = d2 / np.outer(scales, scales)
    n = points.shape[0]
    return np.array([np.sum(np.exp(-w / (c * eps))) / (n * n) for eps in np.atleast_1d(eps_grid)])


def table_histogram(indices, distances, scales, log_bin_width):
    """The kernel-sum histogram binned over every entry (i, j) of a kNN table,
    self included, with w_ij = d_ij^2 / (v_j v_i) and the bounds rule of the
    tuning module: lower bound the smallest positive table distance squared
    over max(scales)^2, upper bound the largest table distance squared over
    min(scales)^2.

    Returns the nonzero bins' counts (float), their representative w (the
    exp of the bin centre) and the number of entries with w == 0.
    """
    lo = np.min(distances[distances > 0]) ** 2 / np.max(scales) ** 2
    hi = max(np.max(distances) ** 2 / np.min(scales) ** 2, lo)
    n_bins = min(max(int(np.ceil(np.log(hi / lo) / log_bin_width)) + 1, 1), 2_000_000)
    bin_width = (np.log(hi) - np.log(lo)) / n_bins if hi > lo else 1.0
    rows = np.repeat(np.arange(indices.shape[0]), indices.shape[1])
    w = distances.ravel() ** 2 / (scales[indices.ravel()] * scales[rows])
    zero = w == 0.0
    idx = np.clip(((np.log(w[~zero]) - np.log(lo)) / bin_width).astype(np.int64), 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    keep = counts > 0
    centers = np.log(lo) + (np.arange(n_bins) + 0.5) * bin_width
    return counts[keep].astype(float), np.exp(centers[keep]), float(np.count_nonzero(zero))


def table_kernel_sum(indices, distances, scales, c, eps_grid):
    """T(eps) = (1/N^2) sum over the table entries (i, j) of
    exp(-d_ij^2 / (c eps v_i v_j)), one entry at a time, no histogram."""
    eps_grid = np.atleast_1d(eps_grid)
    n, k = indices.shape
    total = np.zeros(eps_grid.shape)
    for i in range(n):
        for r in range(k):
            w = distances[i, r] ** 2 / (scales[i] * scales[indices[i, r]])
            total += np.exp(-w / (c * eps_grid))
    return total / (n * n)


def table_kde(indices, distances, rho, eps, d):
    """q_i = (1/N) sum over row i of the table of
    exp(-d_ij^2 / (2 eps rho_i rho_j)) / (2 pi eps rho_i rho_j)^(d/2),
    one entry at a time."""
    n, k = indices.shape
    q = np.zeros(n)
    for i in range(n):
        for r in range(k):
            ss = rho[i] * rho[indices[i, r]]
            q[i] += math.exp(-distances[i, r] ** 2 / (2 * eps * ss)) / (TWO_PI * eps * ss) ** (d / 2)
    return q / n


def coo_vb_kernel(q, eps, beta, indices, distances, floor):
    """The variable-bandwidth kernel assembled as COO triplets, one per table
    entry (row i repeated for each of its neighbours), each with the
    denominator 4 eps (qb_i qb_j), entries below ``floor`` dropped, converted
    with ``tocsr`` and symmetrised by the entrywise maximum. Returns the CSR
    matrix and the number of entries the floor dropped."""
    n = q.shape[0]
    qb = q**beta
    rows = np.repeat(np.arange(n), indices.shape[1])
    cols = indices.ravel()
    d2 = distances.ravel() ** 2
    vals = np.exp(-d2 / (4.0 * eps * (qb[rows] * qb[cols])))
    keep = vals >= floor
    k = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    k = k.maximum(k.T)
    k.eliminate_zeros()
    return k, int(np.count_nonzero(~keep))


def sparse_product_operator(kernel, q, eps, d, beta):
    """The symmetric operator L = diag(u) K_alpha diag(u) - diag(1/Dhat) of
    the normalization chain, K_alpha = diag(s) K diag(s), written with sparse
    diagonal matrix products."""
    qv = q.q
    q_s = np.asarray(kernel.sum(axis=1)).ravel() / qv ** (d * beta)
    s = q_s ** (d / 4.0)
    k_alpha = sp.diags(s) @ kernel @ sp.diags(s)
    dhat = eps * qv ** (2.0 * beta)
    u = 1.0 / np.sqrt(np.asarray(k_alpha.sum(axis=1)).ravel() * dhat)
    return sp.diags(u) @ k_alpha @ sp.diags(u) - sp.diags(1.0 / dhat)


def fokker_planck_generator(n_cells, drift_fn, diff_coef):
    """Conservative central-difference generator of the density evolution on
    a periodic [0, 2pi) grid: dp/dt = -(a p)' + D p''."""
    h = TWO_PI / n_cells
    centers = (np.arange(n_cells) + 0.5) * h
    faces = np.arange(n_cells + 1) * h
    a_face = drift_fn(faces)
    gen = np.zeros((n_cells, n_cells))
    for i in range(n_cells):
        ip = (i + 1) % n_cells
        im = (i - 1) % n_cells
        a_r, a_l = a_face[i + 1], a_face[i]
        gen[i, im] += a_l / (2 * h) + diff_coef / h**2
        gen[i, i] += (-a_r + a_l) / (2 * h) - 2 * diff_coef / h**2
        gen[i, ip] += -a_r / (2 * h) + diff_coef / h**2
    return centers, gen


def backward_generator(n_cells, drift_fn, diff_coef):
    """Generator acting on observables: L f = a f' + D f'' (periodic grid)."""
    h = TWO_PI / n_cells
    centers = (np.arange(n_cells) + 0.5) * h
    a = drift_fn(centers)
    gen = np.zeros((n_cells, n_cells))
    for i in range(n_cells):
        ip = (i + 1) % n_cells
        im = (i - 1) % n_cells
        gen[i, ip] += a[i] / (2 * h) + diff_coef / h**2
        gen[i, im] += -a[i] / (2 * h) + diff_coef / h**2
        gen[i, i] += -2 * diff_coef / h**2
    return centers, gen


def stationary_density(gen, h):
    """Null vector of the density generator, normalized to unit mass."""
    w, v = np.linalg.eig(gen)
    i = np.argmin(np.abs(w))
    p = np.real(v[:, i])
    if p.sum() < 0:
        p = -p
    return p / (p.sum() * h)


def propagator(gen, t):
    return scipy.linalg.expm(t * gen)


def periodic_interp(grid, values, x):
    """Linear interpolation with period 2pi."""
    return np.interp(
        np.mod(x, TWO_PI),
        np.concatenate([grid, [grid[0] + TWO_PI]]),
        np.concatenate([values, [values[0]]]),
    )


def wrapped_gaussian_density(points, mean, variance, wrap=None):
    """Diagonal Gaussian pdf of every (N, D) point against every one of the
    (B, D) means, as (N, B), written from its definition in one pass over
    all pairs: each difference in a coordinate of period p > 0 taken to its
    nearest image as ((d + p/2) mod p) - p/2 with ``np.remainder``, then
    exp(-0.5 sum_j log(2 pi v_j) - 0.5 sum_j d_j^2 / v_j)."""
    means = np.atleast_2d(mean)
    var = np.broadcast_to(np.asarray(variance, dtype=float), means.shape[-1:])
    delta = points[:, None, :] - means[None, :, :]
    periods = np.full(means.shape[-1], np.inf) if wrap is None else np.asarray(wrap, dtype=float)
    for j, p in enumerate(periods):
        if 0 < p < np.inf:
            delta[..., j] = np.remainder(delta[..., j] + p / 2.0, p) - p / 2.0
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * var))
    return np.exp(log_norm - 0.5 * np.sum(delta**2 / var, axis=-1))


def gradient_flow_eigenfunctions(n_cells, log_density_grid, diff_like=1.0, n_modes=12):
    """Eigenpairs of L = Laplacian - grad(U).grad on the periodic grid, where
    U = -log(p_eq); computed via the symmetrizing similarity transform so the
    discrete problem is solved with a dense symmetric solver.

    Returns (centers, eigenvalues >= 0 ascending, eigenfunctions normalized so
    the p_eq-weighted mean square is 1).
    """
    h = TWO_PI / n_cells
    centers = (np.arange(n_cells) + 0.5) * h
    p_eq = np.exp(log_density_grid)
    p_eq /= p_eq.sum() * h
    # generator on observables: L f = f'' - U' f', U = -log p_eq, so
    # L f = f'' + (log p_eq)' f'; periodic central differences
    lp = np.log(p_eq)
    dlog = (np.roll(lp, -1) - np.roll(lp, 1)) / (2 * h)
    gen = np.zeros((n_cells, n_cells))
    for i in range(n_cells):
        ip = (i + 1) % n_cells
        im = (i - 1) % n_cells
        gen[i, ip] += diff_like / h**2 + dlog[i] / (2 * h)
        gen[i, im] += diff_like / h**2 - dlog[i] / (2 * h)
        gen[i, i] += -2 * diff_like / h**2
    # symmetrize with S = P^{1/2} L P^{-1/2}, P = diag(p_eq)
    root = np.sqrt(p_eq)
    sym = (root[:, None] * gen) / root[None, :]
    sym = 0.5 * (sym + sym.T)
    w, u = np.linalg.eigh(sym)
    order = np.argsort(-w)[:n_modes]
    lam = -w[order]
    # back-transform and normalize in L2(p_eq) with the grid quadrature
    funcs = u[:, order] / root[:, None]
    norms = np.sqrt((funcs**2 * p_eq[:, None]).sum(axis=0) * h)
    funcs = funcs / norms
    return centers, np.maximum(lam, 0.0), funcs


def ou_spectrum(n_modes):
    """Eigenvalues lambda_k = k, k = 0..n_modes-1, of the generator
    f'' - x f' of the Ornstein-Uhlenbeck process dx = -x dt + sqrt(2) dW, in
    the basis's sign convention; its eigenfunctions are the Hermite
    polynomials He_k."""
    return np.arange(n_modes, dtype=float)


def ou_invariant_density(x):
    """The OU invariant density, N(0, 1)."""
    return np.exp(-0.5 * np.square(x)) / math.sqrt(TWO_PI)


def ou_moments(mean, variance, t):
    """Mean and variance at time t of the OU state started from
    N(mean, variance): N(mean e^-t, variance e^-2t + 1 - e^-2t)."""
    decay = np.exp(-np.asarray(t, dtype=float))
    return mean * decay, variance * decay**2 + 1.0 - decay**2


def ou_transition_density(x, x0, t):
    """p(x, t | x0), the density at time t > 0 of the OU state started at
    x0: N(x0 e^-t, 1 - e^-2t)."""
    decay = math.exp(-t)
    variance = 1.0 - decay**2
    return np.exp(-0.5 * np.square(x - x0 * decay) / variance) / math.sqrt(TWO_PI * variance)


def von_mises_spectrum(kappa, n_modes):
    """The ``n_modes`` smallest eigenvalues, ascending, of -L for the
    gradient flow d theta = kappa sin(theta) dt + sqrt(2) dW on the circle
    (L f = f'' + kappa sin(theta) f'), in the basis's sign convention.

    Conjugated by p_eq^(1/2), p_eq ~ exp(-kappa cos theta), -L is the
    Schrodinger operator H = -d^2/dtheta^2 + kappa^2/8 - (kappa^2/8) cos 2theta
    + (kappa/2) cos theta. In the Fourier basis e^(ik theta), |k| <= 64, H
    has diagonal k^2 + kappa^2/8, +-1 off-diagonals kappa/4 and +-2
    off-diagonals -kappa^2/16; at kappa <= 2 its smallest seven eigenvalues
    already agree with a |k| <= 16 truncation to rounding (1e-13).
    """
    k = np.arange(-64, 65, dtype=float)
    h = np.diag(k**2 + kappa**2 / 8.0)
    for offset, value in ((1, kappa / 4.0), (2, -kappa**2 / 16.0)):
        band = np.full(k.size - offset, value)
        h += np.diag(band, offset) + np.diag(band, -offset)
    return np.linalg.eigvalsh(h)[:n_modes]


def lorenz63_rk4_series(x0, dt_sample, n_samples, transient_steps,
                        sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """Lorenz-63 samples from classic RK4 on a (1, 3) numpy array.

    The array arithmetic is that of the original whole-state stepper:
    internal step dt_sample / substeps with substeps = ceil(dt_sample / 0.01),
    and ``transient_steps`` internal steps discarded first, taken as one
    interval of length transient_steps * (dt_sample / substeps).
    """
    def rhs(x):
        dx = sigma * (x[..., 1] - x[..., 0])
        dy = x[..., 0] * (rho - x[..., 2]) - x[..., 1]
        dz = x[..., 0] * x[..., 1] - beta * x[..., 2]
        return np.stack([dx, dy, dz], axis=-1)

    def advance(x, dt, substeps):
        h = dt / substeps
        for _ in range(substeps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    substeps = max(1, int(np.ceil(dt_sample / 0.01)))
    x = np.asarray(x0, dtype=float).reshape(1, 3)
    if transient_steps > 0:
        x = advance(x, transient_steps * (dt_sample / substeps), transient_steps)
    out = np.empty((n_samples, 3))
    for i in range(n_samples):
        x = advance(x, dt_sample, substeps)
        out[i] = x[0]
    return out


def euler_maruyama_series(model, x0, dt_sample, substeps, n_samples, rng):
    """An SDE trajectory stepped on a (1, dim) numpy array throughout:
    one (substeps, 1, dim) standard-normal draw from ``rng`` per sample, then
    per substep x + a h + einsum(b, n) sqrt(h), and each periodic coordinate
    taken modulo its period."""
    h = dt_sample / substeps
    wrap = [] if model.wrap is None else list(np.atleast_1d(model.wrap))
    x = np.asarray(x0, dtype=float).reshape(1, model.dim)
    out = np.empty((n_samples, model.dim))
    for i in range(n_samples):
        noise = rng.standard_normal((substeps, 1, model.dim))
        for s in range(substeps):
            b = model.diffusion(x)
            x = x + model.drift(x) * h + np.einsum("bij,bj->bi", b, noise[s]) * np.sqrt(h)
            for j, period in enumerate(wrap):
                if np.isfinite(period) and period > 0:
                    x[:, j] %= period
        out[i] = x[0]
    return out


def observable_readout(g, phi):
    """The moment readout <g, phi_j> = (1/N) sum_i g(x_i) phi_j(x_i) and the
    same for g^2, of (N, G) observables, computed afresh on every call as
    the products g^T phi and (g*g)^T phi."""
    n = phi.shape[0]
    return (g.T @ phi).T / n, ((g * g).T @ phi).T / n


def direct_local_affine(points, query, lead, k, ridge):
    """The direct local-linear fit made afresh: the k nearest of the points
    whose ``lead``-step partner stays in the series, ranked by
    :func:`lexsort_knn` over those points alone, then the ridged
    least-squares affine fit on them, written out. Returns (linear, offset),
    of shapes (dim, dim) and (dim,) for one (dim,) query, with a leading B
    for a (B, dim) batch."""
    n, dim = points.shape
    indices, _ = lexsort_knn(points[:n - lead], k, query=np.atleast_2d(query))
    idx = indices.reshape(np.shape(query)[:-1] + (k,))
    x, y = points[idx], points[idx + lead]
    design = np.ones(x.shape[:-1] + (dim + 1,))
    design[..., :dim] = x
    design_t = design.swapaxes(-1, -2)
    gram = design_t @ design + ridge * np.eye(dim + 1)
    theta = np.linalg.solve(gram, design_t @ y)
    return theta[..., :dim, :].swapaxes(-1, -2), theta[..., dim, :]


def iterated_local_affine(points, query, n_steps, k, ridge):
    """The iterated local-linear walk made afresh: at every step a fresh
    (distance, index) ranking of the current means and a fresh ridged fit
    of the 1-step map, by :func:`direct_local_affine` at lead 1, whose map
    moves the means and whose linear part is chained onto the product so
    far. Returns the means and the chained linear parts at steps 0, 1, ...,
    n_steps: lists of (dim,) and (dim, dim) arrays for one (dim,) query,
    with a leading B for a (B, dim) batch; step 0 is the query and the
    identity."""
    mean = np.asarray(query, dtype=float)
    dim = mean.shape[-1]
    chain = np.broadcast_to(np.eye(dim), mean.shape[:-1] + (dim, dim))
    means, chains = [mean], [chain]
    for _ in range(n_steps):
        linear, offset = direct_local_affine(points, mean, 1, k, ridge)
        mean = (linear @ mean[..., None])[..., 0] + offset
        chain = linear @ chain
        means.append(mean)
        chains.append(chain)
    return means, chains

"""Independent reference computations used to pin expected values.

Everything here is deliberately built from first principles (brute force,
finite differences, dense linear algebra) so it shares no code path with the
library implementations it checks.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.spatial.distance import cdist

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


def full_square_histogram(points, scales, table_distances, log_bin_width):
    """The kernel-sum histogram binned over every ordered pair (i, j) of the
    full N x N distance matrix, diagonal included, with the bounds rule of
    the tuning module: lower bound the smallest positive kNN-table distance
    squared over max(scales)^2, upper bound the squared bounding-box
    diagonal over min(scales)^2.

    Returns the nonzero bins' counts (float), their representative w (the
    exp of the bin centre) and the number of pairs with w == 0.
    """
    d = table_distances
    lo = np.min(d[d > 0]) ** 2 / np.max(scales) ** 2
    span = points.max(axis=0) - points.min(axis=0)
    hi = max(float(span @ span) / np.min(scales) ** 2, lo)
    n_bins = min(max(int(np.ceil(np.log(hi / lo) / log_bin_width)) + 1, 1), 2_000_000)
    bin_width = (np.log(hi) - np.log(lo)) / n_bins if hi > lo else 1.0
    w = (cdist(points, points, metric="sqeuclidean") / np.outer(scales, scales)).ravel()
    zero = w == 0.0
    idx = np.clip(((np.log(w[~zero]) - np.log(lo)) / bin_width).astype(np.int64), 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    keep = counts > 0
    centers = np.log(lo) + (np.arange(n_bins) + 0.5) * bin_width
    return counts[keep].astype(float), np.exp(centers[keep]), float(np.count_nonzero(zero))


def coo_vb_kernel(q, eps, beta, neighbor_cap, indices, distances, floor):
    """The variable-bandwidth kernel assembled as COO triplets, one per table
    entry (row i repeated for each of its neighbours), entries below
    ``floor`` dropped, converted with ``tocsr`` and symmetrised by the
    entrywise maximum. Returns the CSR matrix and the number of entries the
    floor dropped."""
    n = q.shape[0]
    qb = q**beta
    rows = np.repeat(np.arange(n), neighbor_cap)
    cols = indices[:, :neighbor_cap].ravel()
    d2 = distances[:, :neighbor_cap].ravel() ** 2
    vals = np.exp(-d2 / (4.0 * eps * qb[rows] * qb[cols]))
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


def wrapped_gaussian_density(x, mean, variance):
    """Gaussian bump on the circle (nearest-image approximation; fine for
    variances well below (2 pi)^2)."""
    delta = np.mod(x - mean + np.pi, TWO_PI) - np.pi
    return np.exp(-(delta**2) / (2 * variance)) / np.sqrt(2 * np.pi * variance)


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

"""Variable-bandwidth kernel assembly, operator normalization, and the
symmetric eigensolve that delivers the data-adapted orthonormal basis.

The chain follows the standard variable-bandwidth construction: a Gaussian
kernel whose per-point length scale is a negative power of the sampling
density, two diagonal normalizations, and a final rescaling by 2*eps*q^(2*beta)
so that the eigenvalues come out in physical units of the generator of the
gradient flow adapted to the invariant measure.

The eigensolver is chosen by estimated cost, from the matrix size n, its
nonzero count nnz and the basis size m, never from a clock. The dense path,
``eigh(subset_by_index)`` on the n x n matrix, costs about (4/3) n^3 flops at
DENSE_FLOPS_PER_S. A Lanczos step of ARPACK ``eigsh`` with k = 2m Ritz pairs
(m guard vectors) and ARPACK's default ncv = max(2k + 1, 20) Lanczos
vectors costs a CSR matvec, 2 nnz flops, plus ARPACK's reorthogonalisation,
about 4 n ncv flops, both at SPARSE_FLOPS_PER_S. Lanczos is tried when
LANCZOS_BUDGET times the dense cost buys its first factorisation and at
least one restart, and it stops at that budget; if it has not converged by
then, the dense solve runs and the solver record says so. When 16 n^2 bytes
would exceed DENSE_MEMORY_BYTES, Lanczos runs unbudgeted and there is no
dense fallback. Both paths end in one Rayleigh-Ritz ``eigh``: over the
Lanczos subspace on the Lanczos path, over the whole space on the dense one.

Memory held per stage, for N points, a neighbour cap c and a kernel with z
stored entries (8-byte values, 4-byte indices while they fit in int32):

- ``build_vb_kernel``: the (N, c) neighbour table (16 N c bytes, usually the
  caller's), the one-sided kernel written once into arrays of N c slots, and
  working arrays of a few blocks of BLOCK_ENTRIES entries
  (:func:`~diffusion_forecast.dataset.rows_per_block`). The symmetrization
  ``maximum(k.T)`` then holds the one-sided kernel, its transpose in CSR and
  its own result, sized for twice the one-sided entries: the stage's peak.
  The returned kernel keeps that allocation.
- ``build_basis``: the caller's kernel and one private copy of it, which the
  normalization turns into L in place (12 z bytes), then on the dense path
  one n x n Fortran-ordered matrix that ``eigh`` factorises in place, or on
  the Lanczos path ARPACK's n x ncv vectors and the n x 2m Ritz block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .dataset import TimeSeries, knn, rows_per_block
from .tuning import KERNEL_FLOOR, DensityEstimate

logger = logging.getLogger(__name__)

# Constants of the eigensolver rule (module docstring). The two throughputs
# were measured with one OpenBLAS thread on a 2-core x86-64 VM: dense eigh
# 13.0 GFlop/s at n=2000-3000, a CSR matvec 1.8 GFlop/s; ARPACK's BLAS-2
# reorthogonalisation ran at 2-8 GFlop/s and is charged at the sparse rate.
DENSE_FLOPS_PER_S = 13e9
SPARSE_FLOPS_PER_S = 1.7e9
# Share of the dense cost a Lanczos attempt may spend: an attempt that does
# not converge makes the solve cost at most 1.5 times the dense one.
LANCZOS_BUDGET = 0.5
# The dense path is charged 16 n^2 bytes, which must fit here: half of a
# 7 GB machine, the rest left to the kernel, the kNN table and the fit. It
# holds one n x n matrix, 8 n^2 bytes, which eigh factorises in place; the
# other half of the charge covers what sits beside it: the kernel and L in
# sparse form, and eigh's eigenvectors and workspace.
DENSE_MEMORY_BYTES = 3.5e9
# Largest accepted Lanczos residual max_j ||L phi_j - lambda_j phi_j|| (unit
# phi_j), in the units of lambda, like the negative-eigenvalue tolerance.
EIG_RESIDUAL_TOL = 1e-8

# Kernel moment constant in Dhat = m * eps * q^(2 beta); equals 1 for the
# Gaussian kernel written with the 4*eps denominator, whose second moment
# gives m = 1. This is what makes the recovered eigenvalues land on the
# physical generator spectrum (checked against the analytic circle Laplacian).
M_CONST = 1.0

# Default number of nearest neighbours each kernel row keeps; build_vb_kernel
# clamps it to the number of points.
NEIGHBOR_CAP = 1024


@dataclass(frozen=True)
class DiffusionBasis:
    """Orthonormal eigenbasis adapted to the sampling measure.

    Attributes
    ----------
    phi : ndarray, shape (N, M)
        Column j is the j-th basis function evaluated at the data points,
        scaled so that (1/N) sum_i phi[i, j]^2 = 1. Column 0 is constant.
    lam : ndarray, shape (M,)
        Nonnegative, ascending eigenvalues (Dirichlet energies) of the
        estimated generator, in physical units.
    peq : ndarray, shape (N,)
        Invariant-measure estimate at the data points.
    eps, d, alpha, beta : float
        Kernel bandwidth, intrinsic dimension, and normalization exponents
        used in the construction.
    """

    phi: np.ndarray
    lam: np.ndarray
    peq: np.ndarray
    eps: float
    d: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.phi.shape[0] != self.peq.shape[0]:
            raise ValueError("phi and peq disagree on the number of points")
        if self.phi.shape[1] != self.lam.shape[0]:
            raise ValueError("phi and lam disagree on the basis size")
        if np.any(self.peq <= 0):
            raise ValueError("invariant-measure estimate must be positive")

    @property
    def n_points(self) -> int:
        return self.phi.shape[0]

    @property
    def n_basis(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class EigensolveRecord:
    """Which eigensolver produced the basis, and how it went.

    Attributes
    ----------
    path : str
        ``"lanczos"`` or ``"dense"``, the solver whose eigenpairs were kept.
    matvecs : int
        Products with the operator that ARPACK took, 0 if it did not run.
    fallback : bool
        A budgeted Lanczos attempt did not converge and the dense solve ran.
    max_residual : float
        max_j ||L phi_j - lambda_j phi_j|| over the unit eigenvectors on the
        Lanczos path; NaN on the dense path, where it would cost m products
        with L.
    """

    path: str
    matvecs: int
    fallback: bool
    max_residual: float


@dataclass(frozen=True)
class NormalizationLedger:
    """Diagonal factors produced along the normalization chain, kept for
    diagnostics, and the record of the eigensolve (None when not made by
    build_basis)."""

    qS: np.ndarray
    qSalpha: np.ndarray
    Dhat_scale: np.ndarray
    solver: EigensolveRecord | None = None

    def __post_init__(self):
        for name in ("qS", "qSalpha", "Dhat_scale"):
            if np.any(getattr(self, name) <= 0):
                raise ValueError(f"normalization factor {name} must be strictly positive")

    @property
    def lambda_edge(self) -> float:
        """Spectral edge min_i 1/Dhat_i. A unit vector on sample i has a
        Rayleigh quotient near -1/Dhat_i, so the matrix cannot resolve
        generator eigenvalues past this edge: the eigenvectors there each
        sit on one low-density sample rather than spanning a Galerkin basis."""
        return float((1.0 / self.Dhat_scale).min())

    def galerkin_size(self, lam: np.ndarray) -> int:
        """M_eff, the number of the eigenvalues ``lam`` below the spectral edge."""
        return int(np.count_nonzero(lam < self.lambda_edge))


def build_vb_kernel(
    ts: TimeSeries,
    q: DensityEstimate,
    eps: float,
    beta: float = -0.5,
    neighbor_cap: int = NEIGHBOR_CAP,
    neighbors=None,
) -> sp.csr_matrix:
    """Sparse symmetric variable-bandwidth kernel matrix.

    K(x_i, x_j) = exp(-|x_i - x_j|^2 / (4 eps (q_i q_j)^beta)), with entries
    kept only for each point's ``neighbor_cap`` nearest neighbors and the
    result symmetrized by the entrywise maximum. Entries below the double
    precision noise floor are dropped. ``neighbors`` may carry a precomputed
    kNN table with at least ``neighbor_cap`` columns.

    The CSR matrix is built straight from the (N, neighbor_cap) table, in
    row blocks of :func:`~diffusion_forecast.dataset.rows_per_block` rows:
    each row's neighbour indices are put in ascending order with ``argsort``,
    the distances gathered in the same order, and the kept entries of each
    row written once into the CSR arrays as its row, sorted and without
    duplicates. It is bitwise the matrix a COO assembly and ``tocsr`` give,
    while the working arrays stay the size of one block. The neighbour table
    is released (when this function made it) before the symmetrization.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = ts.n_points
    qv = q.q
    if qv.shape[0] != n:
        raise ValueError("density estimate does not match the series length")
    cap = int(min(neighbor_cap, n))
    if cap < 2:
        raise ValueError("neighbor_cap must be at least 2")

    if neighbors is not None and neighbors.indices.shape[1] >= cap:
        nl = neighbors
    else:
        nl = knn(ts, cap)
    qb = qv**beta
    c = 4.0 * eps
    # at most cap entries a row; the one-sided matrix lives only until the
    # symmetrization, so its unused tail is not worth a trimming copy
    idx_dtype = np.int32 if n * cap <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(n * cap, dtype=idx_dtype)
    data = np.empty(n * cap)
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    nnz = 0
    step = rows_per_block(cap)
    for s in range(0, n, step):
        e = min(s + step, n)
        # each row's neighbours in column order, so the table is the CSR directly
        order = nl.indices[s:e, :cap].argsort(axis=1)
        cols = np.take_along_axis(nl.indices[s:e], order, axis=1)
        d2 = np.take_along_axis(nl.distances[s:e], order, axis=1) ** 2
        vals = np.exp(-d2 / (c * qb[s:e, None] * qb[cols]))
        keep = vals >= KERNEL_FLOOR
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[s + 1:e + 1])
        indptr[s + 1:e + 1] += nnz
        kept = int(indptr[e]) - nnz
        indices[nnz:nnz + kept] = cols[keep]
        data[nnz:nnz + kept] = vals[keep]
        nnz += kept
    del nl
    k = sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(n, n))
    k.has_canonical_format = True
    k = k.maximum(k.T)
    k.eliminate_zeros()

    off_diag_counts = k.getnnz(axis=1) - 1
    if np.any(off_diag_counts <= 0):
        bad = int(np.nonzero(off_diag_counts <= 0)[0][0])
        raise ValueError(
            f"point {bad} is disconnected (no off-diagonal kernel entries); "
            "increase eps or neighbor_cap"
        )
    return k


def build_basis(
    kernel: sp.spmatrix,
    ts: TimeSeries,
    q: DensityEstimate,
    eps: float,
    d: float,
    m: int,
    beta: float = -0.5,
) -> tuple[DiffusionBasis, NormalizationLedger]:
    """Normalize the kernel matrix and solve for the top of its spectrum.

    Parameters
    ----------
    kernel : sparse matrix
        Symmetric variable-bandwidth kernel from :func:`build_vb_kernel`;
        left unchanged. One private copy of it is normalized into L in place.
    ts : TimeSeries
        Training series the kernel was built on (for size validation).
    q : DensityEstimate
        Sampling-density estimate; also becomes the ``peq`` field.
    eps, d : float
        Bandwidth and intrinsic dimension from the tuner for this kernel
        family. ``d`` is used as a real-valued exponent, unrounded.
    m : int
        Number of basis functions (eigenpairs with least-negative
        eigenvalues).

    The first-normalization exponent is alpha = -d/4, which together with
    beta = -1/2 targets the gradient-flow generator of the sampling measure.
    """
    n = ts.n_points
    if kernel.shape != (n, n):
        raise ValueError("kernel shape does not match the series")
    if not 1 <= m <= n:
        raise ValueError(f"basis size m={m} out of range [1, {n}]")
    alpha = -d / 4.0
    qv = q.q

    # one private copy of the kernel becomes L in place; the scalings keep the
    # operation order of the diagonal products diag(s) @ K @ diag(s)
    l_sym = kernel.tocsr(copy=True)
    q_s = np.asarray(l_sym.sum(axis=1)).ravel() / qv ** (d * beta)
    scale_alpha = q_s ** (-alpha)
    _scale_in_place(l_sym, scale_alpha)  # now K_alpha
    q_s_alpha = np.asarray(l_sym.sum(axis=1)).ravel()
    # second-moment scale of the 4*eps Gaussian kernel (M_CONST = 1); the
    # empirical generator then carries physical units
    dhat = M_CONST * eps * qv ** (2.0 * beta)

    # L = P^-1 K_alpha P^-1 - Dhat^-1 with P = (Dhat D_alpha)^(1/2); assemble
    # the symmetric matrix directly through its diagonal conjugations.
    u = 1.0 / np.sqrt(q_s_alpha * dhat)
    _scale_in_place(l_sym, u)
    l_sym.setdiag(l_sym.diagonal() - 1.0 / dhat)
    l_sym.eliminate_zeros()

    eigvals, eigvecs, solver = _top_eigenpairs(l_sym, m, _choose_eigensolver(n, l_sym.nnz, m))
    del l_sym

    lam = -eigvals
    if np.any(lam < -1e-8):
        raise ValueError(
            f"eigenvalue {lam.min():.3e} is negative beyond tolerance; "
            "normalization chain is inconsistent"
        )
    lam = np.maximum(lam, 0.0)

    # the diagonal conjugation back to L's eigenvectors is the identity to
    # O(eps) and is dropped, which keeps the columns exactly orthonormal
    phi = eigvecs
    col_norms = np.linalg.norm(phi, axis=0)
    if np.any(col_norms == 0):
        raise ValueError("eigensolver returned a zero eigenvector")
    phi = phi * (np.sqrt(n) / col_norms)

    # sign convention: largest-magnitude entry of each column is positive
    peak = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[peak, np.arange(phi.shape[1])])
    signs[signs == 0] = 1.0
    phi = phi * signs

    gram_dev = _orthonormality_deviation(phi)
    if gram_dev > 1e-8:
        raise ValueError(f"eigenvectors lost orthonormality (max deviation {gram_dev:.2e})")

    basis = DiffusionBasis(
        # row-major on both solver paths, as a loaded model bundle is, so that
        # products with phi round alike on a fit and on its saved bundle
        phi=np.ascontiguousarray(phi),
        lam=lam,
        peq=qv.copy(),
        eps=float(eps),
        d=float(d),
        alpha=float(alpha),
        beta=float(beta),
    )
    ledger = NormalizationLedger(qS=q_s, qSalpha=q_s_alpha, Dhat_scale=dhat, solver=solver)
    m_eff = ledger.galerkin_size(lam)
    if m > m_eff:
        logger.warning("basis size M=%d exceeds M_eff=%d, the number of eigenvalues below the "
                       "spectral edge %.3g; the eigenvectors past it are not a Galerkin basis",
                       m, m_eff, ledger.lambda_edge)
    return basis, ledger


def _scale_in_place(a: sp.csr_matrix, s: np.ndarray) -> None:
    """a <- diag(s) a diag(s) on the stored entries, each as (s_i a_ij) s_j,
    in row blocks of :func:`~diffusion_forecast.dataset.rows_per_block` rows."""
    indptr, indices, data = a.indptr, a.indices, a.data
    n = a.shape[0]
    step = rows_per_block(int(np.diff(indptr).max(initial=0)))
    for r in range(0, n, step):
        e = min(r + step, n)
        lo, hi = indptr[r], indptr[e]
        block = data[lo:hi]
        block *= np.repeat(s[r:e], np.diff(indptr[r:e + 1]))
        block *= s[indices[lo:hi]]


def _choose_eigensolver(n: int, nnz: int, m: int) -> tuple[str, int | None]:
    """The eigensolver rule of the module docstring, from the size alone.

    Returns ``("dense", None)``; ``("lanczos", maxiter)``, an attempt held to
    ``maxiter`` ARPACK restarts, with the dense solve as its fallback; or
    ``("lanczos", None)`` when the dense matrix does not fit in memory.
    """
    k = 2 * m
    if k >= n:
        return "dense", None  # no room for the guard vectors
    if 16.0 * n * n > DENSE_MEMORY_BYTES:
        return "lanczos", None
    ncv = min(n, max(2 * k + 1, 20))
    dense_s = (4.0 / 3.0) * n**3 / DENSE_FLOPS_PER_S
    step_s = (2.0 * nnz + 4.0 * n * ncv) / SPARSE_FLOPS_PER_S
    steps = int(LANCZOS_BUDGET * dense_s / step_s)
    # ARPACK's first factorisation takes ncv + 1 products, each restart at
    # most ncv - k more
    maxiter = (steps - ncv - 1) // (ncv - k)
    return ("lanczos", maxiter) if maxiter >= 1 else ("dense", None)


class _CountingOperator(spla.LinearOperator):
    """A sparse matrix as a LinearOperator that counts its products; ``nnz``
    is the matrix's, so that a cost model can charge 2 nnz flops a product."""

    def __init__(self, a: sp.spmatrix):
        super().__init__(a.dtype, a.shape)
        self.a = a
        self.nnz = a.nnz
        self.matvecs = 0

    def _matvec(self, x):
        self.matvecs += 1
        return self.a @ x


def _top_eigenpairs(
    l_sym: sp.spmatrix, m: int, route: tuple[str, int | None]
) -> tuple[np.ndarray, np.ndarray, EigensolveRecord]:
    """M algebraically largest eigenpairs, eigenvalues descending, by the
    solver ``route`` that :func:`_choose_eigensolver` picked.

    The rule: dense unless LANCZOS_BUDGET (0.5) of the dense cost, (4/3) n^3
    flops at 13 GFlop/s, pays for ARPACK's first factorisation and one
    restart, a step costing 2 nnz + 4 n ncv flops at 1.7 GFlop/s; Lanczos,
    unbudgeted, when 16 n^2 bytes exceed DENSE_MEMORY_BYTES (3.5 GB).

    Dense: ``eigh(subset_by_index)`` of the whole matrix. Lanczos: ARPACK
    ``eigsh`` for k = 2m pairs from a fixed start vector, then the
    Rayleigh-Ritz ``eigh`` of Z^T (L Z) (k x k) keeps the top m, whose
    residuals come from L Z at no further product with L. A budgeted attempt
    that raises ``ArpackNoConvergence`` falls back to dense; an unbudgeted one
    raises RuntimeError, and so does a residual above EIG_RESIDUAL_TOL.
    """
    path, maxiter = route
    if path == "dense":
        vals, vecs = _rayleigh_ritz(l_sym.toarray(order="F"), m)
        return vals, vecs, EigensolveRecord("dense", 0, False, float("nan"))
    n = l_sym.shape[0]
    op = _CountingOperator(l_sym.tocsr())
    v0 = np.full(n, 1.0 / np.sqrt(n))  # fixed start vector for reproducibility
    try:
        _, z = spla.eigsh(op, k=2 * m, which="LA", v0=v0, maxiter=maxiter)
    except spla.ArpackNoConvergence as err:
        if maxiter is None:
            raise RuntimeError(
                f"Lanczos eigensolver did not converge: {len(err.eigenvalues)}/{2 * m} "
                f"eigenpairs converged, and the dense matrix does not fit in memory"
            ) from err
        vals, vecs = _rayleigh_ritz(l_sym.toarray(order="F"), m)
        return vals, vecs, EigensolveRecord("dense", op.matvecs, True, float("nan"))
    lz = op.a @ z
    vals, w = _rayleigh_ritz(z.T @ lz, m)
    vecs = z @ w
    residual = float(np.max(np.linalg.norm(lz @ w - vecs * vals, axis=0)))
    if residual > EIG_RESIDUAL_TOL:
        raise RuntimeError(
            f"Lanczos eigenpairs have residual {residual:.2e} > {EIG_RESIDUAL_TOL:.0e}"
        )
    return vals, vecs, EigensolveRecord("lanczos", op.matvecs, False, residual)


def _rayleigh_ritz(h: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top m eigenpairs of the symmetric ``h``, eigenvalues descending: the
    finish both solver paths share. ``h`` is overwritten; a Fortran-ordered
    ``h`` is factorised where it lies, with no copy."""
    k = h.shape[0]
    vals, vecs = eigh(h, subset_by_index=[k - m, k - 1], overwrite_a=True)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _orthonormality_deviation(phi: np.ndarray) -> float:
    gram = phi.T @ phi / phi.shape[0]
    return float(np.max(np.abs(gram - np.eye(phi.shape[1]))))

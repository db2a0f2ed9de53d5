"""Variable-bandwidth kernel assembly, operator normalization, and the
symmetric eigensolve that delivers the data-adapted orthonormal basis.

The chain follows the standard variable-bandwidth construction: a Gaussian
kernel whose per-point length scale is a negative power of the sampling
density, two diagonal normalizations, and a final rescaling by 2*eps*q^(2*beta)
so that the eigenvalues come out in physical units of the generator of the
gradient flow adapted to the invariant measure.

The eigensolver is chosen once, before any solve, from the matrix size n,
its nonzero count nnz and the basis size m, never from a clock. The dense
path is :func:`eigh` of the n x n matrix, charged the (4/3) n^3 flops of
its tridiagonal reduction at DENSE_FLOPS_PER_S. The rest of it is cheaper:
all n eigenvalues by root-free QR, O(n^2); inverse iteration for the top m
alone, O(n m) plus a re-orthogonalisation within each cluster of close
eigenvalues; and the back-transformation of those m vectors, 2 n^2 m flops.
The Lanczos path, ARPACK ``eigsh`` with k = 2m Ritz pairs (m guard vectors)
and ARPACK's default ncv = max(2k + 1, 20) Lanczos vectors, is charged
LANCZOS_MATVECS_PER_VECTOR products per Lanczos vector, each a CSR matvec,
2 nnz flops, plus ARPACK's reorthogonalisation, about 4 n ncv flops, both
at SPARSE_FLOPS_PER_S. The cheaper path runs, and
Lanczos runs whenever 16 n^2 bytes would exceed DENSE_MEMORY_BYTES. A
Lanczos solve has no limit but ARPACK's default iteration cap and raises
RuntimeError if it does not converge; it never falls back to dense. Both
paths end in one Rayleigh-Ritz ``eigh``: over the Lanczos subspace on the
Lanczos path, over the whole space on the dense one.

:func:`build_basis` returns the basis with one :class:`EigensolveRecord`:
the route, ARPACK's product count and residual, and the spectral edge with
M_eff, the number of basis eigenvalues below it, each computed once where
the eigensolve happens.

The columns fall in two regimes. Up to M_eff they are the paper's Galerkin
basis: eigenfunctions of the generator, resolved by the kernel. Past M_eff
each column sits on one low-density sample (a spike), so a forecast that
uses them reads those samples as analogs rather than projecting onto
resolved eigenfunctions.

Memory held per stage, for N points, a neighbour cap c and a kernel with z
stored entries (8-byte values, 4-byte indices while they fit in int32).
``fit_forecaster`` hands each stage the only reference to its input, so
that the stage can free it as soon as it is done with it:

- ``build_vb_kernel``: the (N, c) neighbour table (12 N c bytes), whose
  two arrays become the kernel's: the one-sided kernel is written into
  them, and they are resized (a realloc) to the z entries of the
  symmetrized one, which grows or shrinks them. There is no second kernel.
  Beside them the stage holds working arrays of a few blocks of
  BLOCK_ENTRIES entries (:func:`~diffusion_forecast.dataset.rows_per_block`)
  and the t transposes it inserts: about 30 t bytes while they are
  gathered, then 12 t bytes beside the arrays grown by 12 t bytes.
- ``build_basis``: the one kernel, which the normalization turns into L in
  place (12 z bytes). On the dense path L is moved once, out of the
  table's old buffers, and freed once densified, which leaves one n x n
  Fortran-ordered matrix (8 n^2 bytes) that ``eigh`` reduces in place and
  whose buffer then holds the reflectors, beside one n x m block of
  eigenvectors (8 n m bytes), LAPACK's workspace of at most 64 columns of
  n, and vectors of n; on the Lanczos path L stays beside ARPACK's n x ncv
  vectors and the n x 2m Ritz block.

Both inputs are consumed: the table's arrays become the kernel's, and the
kernel's hold L. A caller that keeps its own reference to the table has it
copied rather than resized, and one that keeps the kernel keeps L alive
through the dense path's peak.

scipy is loaded by the fit, not by ``import diffusion_forecast``, so that
loading a model, forecasting, simulating and scoring never load it. ``sp``
``spla`` and ``lapack`` stand for scipy.sparse, scipy.sparse.linalg and
scipy.linalg.lapack and import them on their first attribute read. They and
``eigh`` stay module names that the code calls through, so that a caller
can wrap or replace them: the benchmark's traced run wraps ``eigh`` and puts
a counter of ARPACK's products in place of ``spla``, and the tests count
their calls and replace LAPACK routines.
"""

from __future__ import annotations

import importlib
import logging
from dataclasses import dataclass

import numpy as np

from .dataset import NeighborList, rows_per_block
from .tuning import KERNEL_FLOOR, DensityEstimate

logger = logging.getLogger(__name__)


class _Deferred:
    """Stands for the module ``name``, imported on the first attribute read."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")
lapack = _Deferred("scipy.linalg.lapack")


def eigh(h: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top m eigenpairs of the symmetric ``h``, eigenvalues descending: the
    one symmetric solve of both solver paths, read from h's lower triangle.

    ``dsytrd`` reduces h to the tridiagonal T = Q^T h Q, ``dsterf`` takes
    all n eigenvalues of T by root-free QR, and ``dstein`` finds the
    eigenvectors of T for the top m alone by inverse iteration, which
    ``dormqr`` turns into h's by applying Q. A Fortran-ordered float64
    ``h`` is reduced where it lies and then holds Q's reflectors; any other
    is copied first. Beside h the solve holds the one (n, m) block of
    eigenvectors, returned with its columns reversed, and LAPACK's
    workspace of at most 64 columns of n.

    ``dstein`` is given T as one block, also where exact zeros in its
    off-diagonal split T: inverse iteration then keeps each vector on the
    block of its eigenvalue to within rounding, as the tests check against
    numpy on a split T with eigenvalues repeated across its blocks.
    Every LAPACK call's ``info`` is checked; an eigenvector that does not
    converge raises RuntimeError rather than being returned.
    """
    n = h.shape[0]
    if h.shape != (n, n) or n < 2 or not 1 <= m <= n:
        raise ValueError(f"top {m} eigenpairs of a matrix of shape {h.shape}")
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _check_info("dsytrd_lwork", info)
    a, d, e, tau, info = lapack.dsytrd(h, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_info("dsytrd", info)
    vals, info = lapack.dsterf(d, e)
    if info > 0:
        raise RuntimeError(f"dsterf did not converge: {info} of the {n - 1} off-diagonal "
                           "entries of the tridiagonal matrix stayed nonzero")
    _check_info("dsterf", info)
    vals = vals[n - m:]  # ascending, as dstein takes them
    block = np.ones(n, dtype=np.int32)
    split = np.zeros(n, dtype=np.int32)
    split[0] = n
    z, info = lapack.dstein(d, e, vals, block, split)
    if info > 0:
        raise RuntimeError(f"inverse iteration did not converge: {info} of the {m} "
                           "eigenvectors failed")
    _check_info("dstein", info)

    # Q = diag(1, Q'), Q' the product of the n - 1 reflectors that rows
    # 1..n-1 of a's first n - 1 columns hold in dgeqrf's layout (LAPACK
    # dormtr's lower case), and dormqr applies Q' to rows 1..n-1 of z. Those
    # rows of a and of z are each moved to the front of their own buffer,
    # where they are contiguous Fortran arrays: no n x n or n x m copy.
    reflectors = _drop_first_row(a, n - 1)
    top = z[0].copy()
    rows = _drop_first_row(z, m)
    _, work, info = lapack.dormqr("L", "N", reflectors, tau, rows, -1, overwrite_c=1)
    _check_info("dormqr workspace query", info)
    _, _, info = lapack.dormqr("L", "N", reflectors, tau, rows, int(work[0]), overwrite_c=1)
    _check_info("dormqr", info)
    _restore_first_row(z, m)
    z[0] = top
    return vals[::-1], z[:, ::-1]


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise RuntimeError(f"LAPACK {routine} returned info={info}")


def _drop_first_row(x: np.ndarray, cols: int) -> np.ndarray:
    """Rows 1.. of the first ``cols`` columns of the Fortran-ordered ``x``,
    moved, column by column, to the front of x's own buffer; returns them as
    the Fortran-ordered view there."""
    n = x.shape[0]
    flat = x.reshape(-1, order="F")
    for j in range(cols):
        flat[j * (n - 1):(j + 1) * (n - 1)] = flat[j * n + 1:(j + 1) * n]
    return flat[:(n - 1) * cols].reshape(n - 1, cols, order="F")


def _restore_first_row(x: np.ndarray, cols: int) -> None:
    """Undo :func:`_drop_first_row`: the rows at the front of x's buffer go
    back to rows 1.. of their columns; row 0 is left to the caller."""
    n = x.shape[0]
    flat = x.reshape(-1, order="F")
    for j in reversed(range(cols)):
        flat[j * n + 1:(j + 1) * n] = flat[j * (n - 1):(j + 1) * (n - 1)]


# Constants of the eigensolver rule (module docstring). The two throughputs
# were measured with one OpenBLAS thread on a 2-core x86-64 VM: a dense
# solve 13.0 GFlop/s at n=2000-3000, a CSR matvec 1.8 GFlop/s; ARPACK's
# BLAS-2 reorthogonalisation ran at 2-8 GFlop/s and is charged at the sparse
# rate. The dense rate was taken on scipy's eigh(subset_by_index), which
# finds its m eigenvalues by bisection. On the L of a Lorenz-63 fit
# (N=2000, medians of 5) eigh took 0.67 s against its 0.60 s at m=10 and
# 0.93 s against 1.23 s at m=500; the rate is kept as measured, so that
# every route stays the one measured fastest.
DENSE_FLOPS_PER_S = 13e9
SPARSE_FLOPS_PER_S = 1.7e9
# Products with L charged to a Lanczos solve per Lanczos vector (ncv). On L
# from real fits, Lanczos beat dense where the break-even charge
# P* = dense_s / (ncv step_s) was 14.5 or more (circle N=3000 M=10: 18.0;
# desk torus N=8000 M=30: 33.9, M=60: 14.5), and dense won where it was 8.9
# or less (Lorenz N=2000 M=10: 8.9 and 7.4; desk torus M=100: 7.2; circle
# N=610 M=2-5: 6.5-6.9; circle N=3000 M=30: 5.3). 11.4 is the geometric
# middle of that gap. A charge per requested pair has no value that
# separates the two groups, because ncv stays at 20 as k falls below 10.
LANCZOS_MATVECS_PER_VECTOR = 11.4
# The dense path is charged 16 n^2 bytes, which must fit here: half of a
# 7 GB machine, the rest left to the fit's earlier stages. It holds one
# n x n matrix, 8 n^2 bytes, which eigh reduces in place, and L is freed
# before eigh runs; the other half of the charge covers eigh's n x m
# eigenvectors and workspace, and L when a caller of build_basis keeps the
# kernel.
DENSE_MEMORY_BYTES = 3.5e9
# Largest accepted Lanczos residual max_j ||L phi_j - lambda_j phi_j|| (unit
# phi_j), in the units of lambda, like the negative-eigenvalue tolerance.
EIG_RESIDUAL_TOL = 1e-8

# Nearest neighbours each kernel row keeps: fit_forecaster's one kNN search
# is min(N, NEIGHBOR_CAP) wide, and every stage of the fit reads that table.
NEIGHBOR_CAP = 1024

# Kernel exponent: the bandwidth of point i scales as q_i^BETA. With
# alpha = -d/4 this targets the gradient-flow generator of the sampling
# measure (Berry & Harlim, Variable bandwidth diffusion kernels, ACHA 40, 2016).
BETA = -0.5


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

    These are all a forecast reads. How the basis was built, the bandwidth
    and dimension of its tuning, is recorded by ``pipeline.fit_record``.

    ``phi``, ``lam`` and ``peq`` are read-only, and so becomes each array
    given for them (its writeable flag is cleared, not a copy taken): the
    forecast keeps readouts computed from ``phi`` on the basis, and a write
    would leave them stale.
    """

    phi: np.ndarray
    lam: np.ndarray
    peq: np.ndarray

    def __post_init__(self):
        if self.phi.shape[0] != self.peq.shape[0]:
            raise ValueError("phi and peq disagree on the number of points")
        if self.phi.shape[1] != self.lam.shape[0]:
            raise ValueError("phi and lam disagree on the basis size")
        if np.any(self.peq <= 0):
            raise ValueError("invariant-measure estimate must be positive")
        for values in (self.phi, self.lam, self.peq):
            values.flags.writeable = False

    @property
    def n_points(self) -> int:
        return self.phi.shape[0]

    @property
    def n_basis(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class EigensolveRecord:
    """How the basis was solved for, and how much of it is a Galerkin basis.

    Attributes
    ----------
    path : str
        ``"lanczos"`` or ``"dense"``, the route :func:`_choose_eigensolver`
        picked before the solve.
    matvecs : int
        Products with the operator that ARPACK took, 0 on the dense path.
    max_residual : float or None
        max_j ||L phi_j - lambda_j phi_j|| over the unit eigenvectors on the
        Lanczos path; None on the dense path, where it would cost m products
        with L.
    lambda_edge : float
        The spectral edge min_i 1/Dhat_i. A unit vector on sample i has a
        Rayleigh quotient near -1/Dhat_i, so L cannot resolve generator
        eigenvalues past this edge: the eigenvectors there each sit on one
        low-density sample rather than spanning a Galerkin basis.
    m_eff : int
        M_eff, the number of basis eigenvalues below ``lambda_edge``:
        columns 0..M_eff-1 are the paper's Galerkin basis, and each column
        past them is a spike on one sample, read by the forecast as an
        analog.
    gram_deviation : float
        max |phi^T phi / N - I|, the orthonormality deviation of the basis
        columns, which :func:`build_basis` refuses above 1e-8.
    """

    path: str
    matvecs: int
    max_residual: float | None
    lambda_edge: float
    m_eff: int
    gram_deviation: float


def build_vb_kernel(neighbors: NeighborList, q: DensityEstimate, eps: float) -> sp.csr_matrix:
    """Sparse symmetric variable-bandwidth kernel matrix over a kNN table.

    K(x_i, x_j) = exp(-|x_i - x_j|^2 / (4 eps (q_i q_j)^BETA)), with entries
    kept only for each point's nearest neighbours in ``neighbors``, whose
    width c is the cap (``fit_forecaster`` passes min(N, NEIGHBOR_CAP)), and
    the result symmetrized by the entrywise maximum. Entries below the
    double precision noise floor are dropped.

    The one-sided CSR matrix is built straight from the (N, c) table, in row
    blocks of :func:`~diffusion_forecast.dataset.rows_per_block` rows: each
    row's neighbour indices are put in ascending order by one sort of
    (index, rank) keys, the distances gathered in the same order, and the
    kept entries of each row
    written once into the CSR arrays as its row, sorted and without
    duplicates. It is bitwise the matrix a COO assembly and ``tocsr`` give,
    while the working arrays stay the size of one block.

    The kernel's ``indices`` and ``data`` are the table's own two arrays, so
    ``neighbors`` is consumed. A block's rows are copied out before anything
    is written, and the kept entries of rows below e fill at most the
    table's first e c slots, so no write reaches a row not yet read. The
    arrays are then resized to the symmetrized kernel's entry count, which
    grows or shrinks them. The resize is in place (a realloc) when the
    caller hands over its only reference to the table, as ``fit_forecaster``
    does; a table the caller still holds is copied instead. The table's
    :func:`~diffusion_forecast.dataset.index_dtype` is the CSR's, int32 up
    to 2^31 - 1 entries; a table with int64 indices below that gives the
    same matrix, since scipy narrows its indices.

    Each entry's denominator is 4 eps (q_i^BETA q_j^BETA), symmetric bit for
    bit, and so are the distances of :func:`~diffusion_forecast.dataset.knn`,
    so k_ij == k_ji wherever both are computed and max(K, K^T) is the union
    of the two one-sided patterns. Row j holds i when d_ij is below row j's
    last distance. Every other kept entry is marked; only one whose distance
    equals that last distance can have its transpose stored, which is looked
    up. The transposes found missing are merged into their rows by
    :func:`_insert_transposes`, back to front, so that the kernel takes the
    table's slots with no second copy of it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n, cap = neighbors.indices.shape
    qv = q.q
    if qv.shape[0] != n:
        raise ValueError("density estimate does not match the neighbor table")
    if cap < 2:
        raise ValueError("neighbor table must have at least 2 columns")

    # the list holds the table's arrays; once ``neighbors`` is dropped it is
    # their only reference when the caller handed over its own, and
    # _resize can then resize them in place
    arrays = [neighbors.indices, neighbors.distances]
    del neighbors
    indptr, extra = _one_sided_kernel(*arrays, qv**BETA, 4.0 * eps)
    nnz = int(indptr[-1]) + extra.nnz
    _resize(arrays, max(nnz, n * cap))
    _insert_transposes(indptr, *arrays, extra)
    del extra
    _resize(arrays, nnz)
    k = sp.csr_matrix((arrays[1], arrays[0], indptr), shape=(n, n))

    off_diag_counts = k.getnnz(axis=1) - 1
    if np.any(off_diag_counts <= 0):
        bad = int(np.nonzero(off_diag_counts <= 0)[0][0])
        raise ValueError(
            f"point {bad} is disconnected (no off-diagonal kernel entries); "
            "increase eps"
        )
    return k


def _one_sided_kernel(table_indices: np.ndarray, table_distances: np.ndarray,
                      qb: np.ndarray, c: float) -> tuple[np.ndarray, sp.csr_matrix]:
    """The one-sided kernel of :func:`build_vb_kernel`, written into the
    (N, c) table's two arrays, read flat, of which the first ``indptr[-1]``
    slots are used; returns its ``indptr`` and the transposes of its entries
    that are not stored, as a CSR matrix. An entry (i, j) whose transpose
    (j, i) may not be stored is marked: when d_ij equals row j's last
    distance, (j, i) is looked up in row j."""
    n, cap = table_indices.shape
    indices = table_indices.reshape(-1)
    data = table_distances.reshape(-1)
    indptr = np.zeros(n + 1, dtype=indices.dtype)
    # row j's last distance: row j holds i when d_ij < last_d[j]; copied
    # before the kernel overwrites it
    last_d = table_distances[:, cap - 1].copy()
    marked, tied = [], []
    nnz = 0
    step = rows_per_block(cap)
    for s in range(0, n, step):
        e = min(s + step, n)
        # each row's neighbours in column order, so the table is the CSR
        # directly: a row's keys (column << 32) | rank, columns below 2^31,
        # sort as its columns do and carry each column's rank along
        keys = table_indices[s:e].astype(np.int64)
        keys <<= 32
        keys |= np.arange(cap)
        keys.sort(axis=1)
        cols = np.empty(keys.shape, dtype=indices.dtype)
        np.right_shift(keys, 32, out=cols, casting="unsafe")
        keys &= 0xFFFFFFFF
        vals = np.take_along_axis(table_distances[s:e], keys, axis=1)
        del keys
        # lone: row j may not hold i; tie: then only a lookup can tell
        last = last_d[cols]
        lone = vals >= last
        tie = vals == last
        del last
        # c (qb_i qb_j) is symmetric bit for bit, and so is the kernel; the
        # values take the distances' buffer
        den = qb[cols]
        den *= qb[s:e, None]
        den *= c
        np.negative(np.square(vals, out=vals), out=vals)
        vals /= den
        del den
        np.exp(vals, out=vals)
        keep = vals >= KERNEL_FLOOR
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[s + 1:e + 1])
        indptr[s + 1:e + 1] += nnz
        kept = int(indptr[e]) - nnz
        lone = lone[keep]
        at = np.flatnonzero(lone)
        marked.append((at + nnz).astype(indices.dtype))
        tied.append(tie[keep][at])
        del lone, tie, at
        indices[nnz:nnz + kept] = cols[keep]
        data[nnz:nnz + kept] = vals[keep]
        nnz += kept
    marked = np.concatenate(marked)
    tied = np.concatenate(tied)

    rows = (np.searchsorted(indptr, marked, side="right") - 1).astype(indices.dtype)
    cols = indices[marked]
    if tied.any():
        at = np.flatnonzero(tied)
        missing = np.ones(marked.size, dtype=bool)
        missing[at[_is_stored(indptr, indices, cols[at], rows[at])]] = False
        del at
        marked, rows, cols = marked[missing], rows[missing], cols[missing]
    vals = data[marked]
    del marked, tied
    # scipy's COO conversion is a stable counting sort by row, so each row of
    # the transposes gets its columns in the ascending order they were marked in
    return indptr, sp.csr_matrix((vals, (cols, rows)), shape=(n, n))


def _is_stored(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Whether column cols[t] is stored in row rows[t] of the CSR pattern
    (indptr, indices), whose rows are sorted: a binary search of each row,
    all of them at once."""
    lo = indptr[rows].astype(np.int64)
    end = indptr[rows + 1].astype(np.int64)
    hi = end.copy()
    while np.any(lo < hi):
        active = lo < hi
        mid = np.where(active, (lo + hi) // 2, 0)
        below = indices[mid] < cols
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    found = lo < end
    found[found] = indices[lo[found]] == cols[found]
    return found


def _resize(arrays: list, size: int) -> None:
    """Resize each array in ``arrays`` to ``size`` entries, flat, keeping its
    leading entries. In place (a realloc; glibc moves a large block with
    mremap, not by copying) when the list holds the array's only reference;
    an array referred to from elsewhere is copied instead."""
    for i in range(len(arrays)):
        try:
            arrays[i].resize(size)
        except ValueError:  # another reference, a view or a weak reference
            copy = np.empty(size, dtype=arrays[i].dtype)
            kept = min(size, arrays[i].size)
            copy[:kept] = arrays[i].reshape(-1)[:kept]
            arrays[i] = copy


def _insert_transposes(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                       extra: sp.csr_matrix) -> None:
    """Insert ``extra``, entries missing from the one-sided kernel held by
    ``indptr`` and the flat ``indices`` and ``data``, which have room for
    both, into their rows; ``indptr`` is updated in place.

    Row blocks are merged back to front, each into a block-sized buffer
    that is then copied into place. A block's rows move only toward the
    end, into slots whose rows are merged already or are its own, so no
    write reaches a row not yet read. Within a block, the key
    (row - s) N + column orders the entries as the CSR does, and each
    inserted entry goes where ``searchsorted`` places its key among the
    block's stored ones.
    """
    n = indptr.shape[0] - 1
    step = rows_per_block(int(np.diff(indptr).max(initial=0)))
    for s in reversed(range(0, n, step)):
        e = min(s + step, n)
        lo, hi = int(indptr[s]), int(indptr[e])
        x_lo, x_hi = int(extra.indptr[s]), int(extra.indptr[e])
        if x_hi == x_lo:
            if x_lo > 0:
                indices[lo + x_lo:hi + x_hi] = indices[lo:hi]
                data[lo + x_lo:hi + x_hi] = data[lo:hi]
            continue
        offsets = np.arange(0, (e - s) * n, n, dtype=np.int64)
        keys = np.repeat(offsets, np.diff(indptr[s:e + 1]))
        keys += indices[lo:hi]
        x_keys = np.repeat(offsets, np.diff(extra.indptr[s:e + 1]))
        x_keys += extra.indices[x_lo:x_hi]
        at = np.searchsorted(keys, x_keys)
        del keys, x_keys
        at += np.arange(x_hi - x_lo)  # the entries inserted before each
        stored = np.ones(hi - lo + x_hi - x_lo, dtype=bool)
        stored[at] = False
        for out, inserted in ((indices, extra.indices), (data, extra.data)):
            merged = np.empty(stored.size, dtype=out.dtype)
            merged[stored] = out[lo:hi]
            merged[at] = inserted[x_lo:x_hi]
            out[lo + x_lo:hi + x_hi] = merged
            del merged
    indptr += extra.indptr


def build_basis(
    kernel: sp.spmatrix,
    q: DensityEstimate,
    eps: float,
    d: float,
    m: int,
) -> tuple[DiffusionBasis, EigensolveRecord]:
    """Normalize the kernel matrix and solve for the top of its spectrum.

    Parameters
    ----------
    kernel : sparse matrix
        Symmetric N x N variable-bandwidth kernel from
        :func:`build_vb_kernel`, consumed: a CSR kernel is normalized into
        L in place, with no copy, so afterwards its arrays hold L.
    q : DensityEstimate
        Sampling-density estimate at the N points; a copy becomes the
        ``peq`` field.
    eps, d : float
        Bandwidth and intrinsic dimension from the tuner for this kernel
        family. ``d`` is used as a real-valued exponent, unrounded.
    m : int
        Number of basis functions (eigenpairs with least-negative
        eigenvalues).

    Returns the basis and the :class:`EigensolveRecord` of its solve, which
    holds the spectral edge and M_eff; a warning is logged when m > M_eff.

    The first-normalization exponent is alpha = -d/4, which together with
    the kernel exponent BETA = -1/2 targets the gradient-flow generator of
    the sampling measure.
    """
    n = kernel.shape[0]
    if kernel.shape != (n, n) or q.q.shape != (n,):
        raise ValueError(f"kernel of shape {kernel.shape} does not match the density "
                         f"estimate of shape {q.q.shape}")
    if not 1 <= m <= n:
        raise ValueError(f"basis size m={m} out of range [1, {n}]")
    alpha = -d / 4.0
    qv = q.q

    # the kernel becomes L in place; the scalings keep the operation order of
    # the diagonal products diag(s) @ K @ diag(s)
    l_sym = kernel.tocsr()
    del kernel  # l_sym is then the one local name for L, which the dense path frees
    q_s = np.asarray(l_sym.sum(axis=1)).ravel() / qv ** (d * BETA)
    scale_alpha = q_s ** (-alpha)
    _scale_in_place(l_sym, scale_alpha)  # now K_alpha
    q_s_alpha = np.asarray(l_sym.sum(axis=1)).ravel()
    # Dhat = m eps q^(2 beta) with m = 1, the second moment of the Gaussian
    # kernel written with the 4*eps denominator; this puts the eigenvalues on
    # the physical generator spectrum (checked against the circle Laplacian)
    dhat = eps * qv ** (2.0 * BETA)
    lambda_edge = float((1.0 / dhat).min())

    # L = P^-1 K_alpha P^-1 - Dhat^-1 with P = (Dhat D_alpha)^(1/2); assemble
    # the symmetric matrix directly through its diagonal conjugations.
    u = 1.0 / np.sqrt(q_s_alpha * dhat)
    _scale_in_place(l_sym, u)
    l_sym.setdiag(l_sym.diagonal() - 1.0 / dhat)
    l_sym.eliminate_zeros()

    path = _choose_eigensolver(n, l_sym.nnz, m)
    # the solver gets the only reference to L, so the dense path frees it
    # once densified
    handoff = [l_sym]
    del l_sym
    eigvals, eigvecs, matvecs, max_residual = _top_eigenpairs(handoff.pop(), m, path)

    lam = -eigvals
    if np.any(lam < -1e-8):
        raise ValueError(
            f"eigenvalue {lam.min():.3e} is negative beyond tolerance; "
            "normalization chain is inconsistent"
        )
    lam = np.maximum(lam, 0.0)

    # phi is the symmetric matrix's eigenvectors, exactly orthonormal as the
    # Galerkin projection assumes. The conjugation u = phi / sqrt(Dhat D_alpha)
    # to L's is not the identity: on OU (N=3000, seeds 0/1/2) Dhat D_alpha has
    # a coefficient of variation of 0.099/0.071/0.072. But restored, with a QR
    # re-orthonormalization, it left lambda alone and moved the OU forecast
    # errors both ways, so it is dropped
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
    )
    m_eff = int(np.count_nonzero(lam < lambda_edge))
    if m > m_eff:
        logger.warning("basis size M=%d exceeds M_eff=%d, the number of eigenvalues below the "
                       "spectral edge %.3g; the eigenvectors past it are not a Galerkin basis",
                       m, m_eff, lambda_edge)
    return basis, EigensolveRecord(path, matvecs, max_residual, lambda_edge, m_eff, gram_dev)


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


def _choose_eigensolver(n: int, nnz: int, m: int) -> str:
    """The eigensolver rule of the module docstring, from the size alone:
    ``"dense"`` or ``"lanczos"``."""
    k = 2 * m
    if k >= n:
        return "dense"  # no room for the guard vectors
    if 16.0 * n * n > DENSE_MEMORY_BYTES:
        return "lanczos"
    ncv = min(n, max(2 * k + 1, 20))
    dense_s = (4.0 / 3.0) * n**3 / DENSE_FLOPS_PER_S
    step_s = (2.0 * nnz + 4.0 * n * ncv) / SPARSE_FLOPS_PER_S
    return "lanczos" if LANCZOS_MATVECS_PER_VECTOR * ncv * step_s < dense_s else "dense"


def _top_eigenpairs(
    l_sym: sp.spmatrix, m: int, path: str
) -> tuple[np.ndarray, np.ndarray, int, float | None]:
    """M algebraically largest eigenpairs, eigenvalues descending, by the
    solver ``path`` that :func:`_choose_eigensolver` picked by the rule of
    the module docstring, with ARPACK's product count and the largest
    residual (0 and None on the dense path).

    Dense: :func:`eigh` of the whole matrix, densified in Fortran order so
    that it is reduced where it lies. Lanczos: ARPACK ``eigsh`` for k = 2m
    pairs from a fixed start vector, at ARPACK's default iteration cap, then
    the Rayleigh-Ritz :func:`eigh` of Z^T (L Z) (k x k) keeps the top m,
    whose residuals come from L Z at no further product with L. An
    ``ArpackNoConvergence`` raises RuntimeError, with no dense solve after
    it, and so does a residual above EIG_RESIDUAL_TOL.
    """
    if path == "dense":
        # L is moved before it is densified, out of the neighbour table's old
        # buffers, so that the n x n matrix can take the place L leaves.
        # Densified where it lay, L cost the Lorenz-63 fit (N=2000, M=500) up
        # to 4.5% more peak RSS through glibc's heap placement alone (the
        # benchmark's lorenz-skill runs at six seeds, 2-core x86-64 VM). The
        # move holds 24 z bytes, which passes the 12 z + 8 n^2 of the
        # densified step only when z > 2/3 n^2.
        l_sym = l_sym.copy()  # the caller's L is freed here if it was the only reference
        h = l_sym.toarray(order="F")
        del l_sym  # the copy is freed before eigh
        vals, vecs = eigh(h, m)
        return vals, vecs, 0, None
    n = l_sym.shape[0]
    a = l_sym.tocsr()
    matvecs = 0

    # the product counter refers to L and the count, never to the operator,
    # so no reference cycle keeps L alive past the solve
    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return a @ x

    op = spla.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
    op.nnz = a.nnz  # L's, so that a cost model can charge 2 nnz flops a product
    v0 = np.full(n, 1.0 / np.sqrt(n))  # fixed start vector for reproducibility
    try:
        _, z = spla.eigsh(op, k=2 * m, which="LA", v0=v0)
    except spla.ArpackNoConvergence as err:
        raise RuntimeError(
            f"Lanczos eigensolver did not converge: {len(err.eigenvalues)}/{2 * m} "
            f"eigenpairs converged after {matvecs} matvecs"
        ) from err
    lz = a @ z
    vals, w = eigh(z.T @ lz, m)
    vecs = z @ w
    residual = float(np.max(np.linalg.norm(lz @ w - vecs * vals, axis=0)))
    if residual > EIG_RESIDUAL_TOL:
        raise RuntimeError(
            f"Lanczos eigenpairs have residual {residual:.2e} > {EIG_RESIDUAL_TOL:.0e}"
        )
    return vals, vecs, matvecs, residual


def _orthonormality_deviation(phi: np.ndarray) -> float:
    gram = phi.T @ phi / phi.shape[0]
    return float(np.max(np.abs(gram - np.eye(phi.shape[1]))))

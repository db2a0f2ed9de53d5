"""End-to-end fitting: tune both kernel families, estimate the sampling
density, build the basis, and estimate the shift operator; save and load the
fitted model as one bundle file."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BETA, NEIGHBOR_CAP, DiffusionBasis, EigensolveRecord, build_basis, build_vb_kernel
from .dataset import TimeSeries, knn
from .forecast import ShiftOperator, estimate_shift_operator
from .tuning import (
    KERNEL_FLOOR,
    SATURATION_CAP,
    PairwiseKernelSum,
    TuningResult,
    adhoc_bandwidth,
    kde,
    tune,
)

# Layout version of the model bundle; load_model reads only this version.
MODEL_FORMAT_VERSION = 2
# Zip entry date in place of the wall clock, so that equal models give equal bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_SCALARS = ("tau",)
_ARRAYS = ("points", "peq", "lam", "phi", "a")
# fit_record sets eps_follows_cap below this table saturation
# min(N, NEIGHBOR_CAP)/N. With the table of one series cut to narrower widths
# and both tunings rerun (8000 torus points, 2000 Lorenz-63 points), every
# saturation of 0.256 or less moved the tuned vb eps, by 7% or more, and at
# 0.512 the eps equalled the all-pairs eps; between the two it is unmeasured.
CAP_SATURATION_FLAG = 6.0 * SATURATION_CAP


@dataclass(frozen=True)
class FitResult:
    """Everything produced while fitting a forecaster to a training series.
    The basis's ``peq`` is the density estimate, and ``solver`` records the
    eigensolve with the spectral edge and M_eff; :func:`fit_record` renders
    the diagnostics."""

    basis: DiffusionBasis
    operator: ShiftOperator
    kde_tuning: TuningResult
    vb_tuning: TuningResult
    solver: EigensolveRecord
    rows_at_cap: int


def fit_forecaster(ts: TimeSeries, n_basis: int) -> FitResult:
    """Fit the full nonparametric forecaster to a training series.

    Runs the bandwidth sweep twice, once per kernel family: first for the
    ad-hoc kernel behind the density estimate, then for the
    variable-bandwidth kernel behind the basis, each yielding its own
    (eps, d) pair. Everything else is fixed: one kNN search of
    min(N, NEIGHBOR_CAP) neighbours serves every stage, the ad-hoc
    bandwidths use the neighbourhood size ADHOC_K0 = 8 of ``tuning``, the
    kernel exponent is BETA = -1/2, and the shift operator averages over
    every consecutive pair. Both tunings read the table, so while
    :func:`fit_record`'s ``eps_follows_cap`` is set the tuned eps follows
    NEIGHBOR_CAP rather than the data alone.
    """
    n = ts.n_points
    # build_basis checks this too, but only after every stage before it
    if not 1 <= n_basis <= n:
        raise ValueError(f"basis size m={n_basis} out of range [1, {n}]")
    # one neighbor table is the only source of point pairs: the ad-hoc
    # bandwidths, both kernel sums, the density estimate and the kernel
    nl = knn(ts, min(n, NEIGHBOR_CAP))
    profile = adhoc_bandwidth(nl)

    kde_tuning = tune(PairwiseKernelSum(nl, profile.rho0, 2.0))
    density = kde(nl, profile, kde_tuning.eps_star, kde_tuning.d_est)

    qb = density.q**BETA
    vb_tuning = tune(PairwiseKernelSum(nl, qb, 4.0))
    # rows whose last neighbour the kernel still keeps, as build_vb_kernel
    # computes its entries: their kernel row is cut at the cap
    rows_at_cap = 0 if nl.indices.shape[1] == n else int(np.count_nonzero(
        np.exp(-np.square(nl.distances[:, -1])
               / (4.0 * vb_tuning.eps_star * (qb * qb[nl.indices[:, -1]]))) >= KERNEL_FLOOR))

    # build_vb_kernel gets the only reference to the table and build_basis
    # the only one to the kernel, and each consumes its input: the table's
    # arrays are resized in place into the kernel's, and the kernel's arrays
    # become L, freed on the dense path once densified
    handoff = [nl]
    del nl
    basis, solver = build_basis(
        build_vb_kernel(handoff.pop(), density, vb_tuning.eps_star),
        density, vb_tuning.eps_star, vb_tuning.d_est, n_basis,
    )
    operator = estimate_shift_operator(basis, ts.tau)
    return FitResult(
        basis=basis,
        operator=operator,
        kde_tuning=kde_tuning,
        vb_tuning=vb_tuning,
        solver=solver,
        rows_at_cap=rows_at_cap,
    )


def fit_record(fit: FitResult) -> dict:
    """The facts that say whether ``fit`` is a Galerkin projection, as one
    JSON-ready dict; every manifest, the model bundle's metadata and the
    ``build-basis`` line render this record, and a new diagnostic goes here.

    ``kde`` and ``vb`` hold ``{eps, d, boundary_warning, plateau}`` of the
    two bandwidth tunings; ``eigensolver`` holds ``{path, matvecs,
    max_residual, gram_deviation}`` of ``fit.solver``, the route picked
    before the solve, ARPACK's product count, ``max_residual`` null on the
    dense path, which does not compute it, and the basis columns' largest
    deviation from orthonormality; ``lambda_edge`` is the spectral edge and
    ``m_eff`` the number of basis eigenvalues below it, both as
    ``build_basis`` recorded them; ``rows_at_cap`` counts the kernel rows
    cut at the neighbour cap, whose last table neighbour still has kernel
    weight >= KERNEL_FLOOR (0 when the table holds every point);
    ``table_saturation`` is min(N, NEIGHBOR_CAP)/N, the level at which the
    tunings' kernel sums saturate, and ``eps_follows_cap`` is set when it is
    below CAP_SATURATION_FLAG, where the tuned eps follows the cap.
    """
    solver = fit.solver
    saturation = min(fit.basis.n_points, NEIGHBOR_CAP) / fit.basis.n_points
    return {
        **{name: {"eps": tuning.eps_star, "d": tuning.d_est,
                  "boundary_warning": tuning.boundary_warning, "plateau": tuning.plateau}
           for name, tuning in (("kde", fit.kde_tuning), ("vb", fit.vb_tuning))},
        "eigensolver": {"path": solver.path, "matvecs": solver.matvecs,
                        "max_residual": solver.max_residual,
                        "gram_deviation": solver.gram_deviation},
        "lambda_edge": solver.lambda_edge,
        "m_eff": solver.m_eff,
        "rows_at_cap": fit.rows_at_cap,
        "table_saturation": saturation,
        "eps_follows_cap": saturation < CAP_SATURATION_FLAG,
    }


def save_model(path, basis: DiffusionBasis, operator: ShiftOperator,
               points: np.ndarray, metadata: dict | None = None) -> Path:
    """Write a fitted forecaster to exactly ``path`` as one uncompressed npz,
    making its directory first if it is missing.

    Keys: ``format_version`` (int, :data:`MODEL_FORMAT_VERSION`); ``points``
    (N, D), the training points after any delay embedding, in time order;
    ``peq`` (N,), ``lam`` (M,) and ``phi`` (N, M) of the basis; ``a``
    (M, M) and the scalar ``tau`` of the shift operator; ``metadata``, a
    JSON object string written as strict JSON, so a NaN in it raises
    ValueError (``build-basis`` writes ``source``, ``lags`` and ``fit``, the
    :func:`fit_record` of the fit, which holds the tunings' eps and d).
    Every entry is a plain array, so ``np.load(path, allow_pickle=False)``
    reads the file. A change to the keys or their meaning takes a new
    version; :func:`load_model` rejects any other version. Version 2 holds
    the entries above; version 1 also held the basis's ``eps``, ``d``,
    ``alpha`` and ``beta`` and the operator's ``n_pairs``, and a version-1
    file is rebuilt with ``build-basis``. The zip entries carry a fixed
    date, so the bytes depend only on the model. The entries are checked as
    :func:`load_model` checks them before anything is made, so a rejected
    model writes nothing.
    """
    import zipfile

    entries = {
        "format_version": np.int64(MODEL_FORMAT_VERSION),
        "points": np.asarray(points, dtype=float),
        "peq": basis.peq, "lam": basis.lam, "phi": basis.phi,
        "a": operator.a, "tau": operator.tau,
        "metadata": json.dumps(metadata or {}, sort_keys=True, allow_nan=False),
    }
    # row-major, so products on a loaded model do not depend on the solver's layout
    entries = {key: np.asarray(value, order="C") for key, value in entries.items()}
    _unpack(entries)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key, value in entries.items():
            with zf.open(zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_DATE), "w",
                         force_zip64=True) as fh:
                np.lib.format.write_array(fh, value, allow_pickle=False)
    return path


def load_model(path) -> tuple[DiffusionBasis, ShiftOperator, np.ndarray, dict]:
    """Read a bundle written by :func:`save_model`: the basis, the shift
    operator, the training points and the metadata.

    Raises ValueError on a file that is not a bundle, a wrong or missing
    ``format_version``, a missing key, shapes that disagree on N or M, a
    non-finite entry, ``tau <= 0`` or a nonpositive ``peq``.
    """
    import zipfile

    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a single array")
        with npz:
            entries = {key: npz[key] for key in npz.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path}: not a model bundle ({err})") from err
    return _unpack(entries)


def _unpack(entries: dict) -> tuple[DiffusionBasis, ShiftOperator, np.ndarray, dict]:
    """Validate bundle entries and build the model objects from them."""
    version = entries.get("format_version")
    if version is None or version.shape != () or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"model bundle format_version {version} is not {MODEL_FORMAT_VERSION}; "
                         "rebuild the model with build-basis")
    missing = [key for key in (*_ARRAYS, *_SCALARS, "metadata") if key not in entries]
    if missing:
        raise ValueError(f"model bundle is missing {', '.join(missing)}")
    for key in (*_ARRAYS, *_SCALARS):
        value = entries[key]
        if value.dtype.kind not in "fiu" or not np.isfinite(value).all():
            raise ValueError(f"model bundle entry {key} must be finite numbers")
    phi, points = entries["phi"], entries["points"]
    if phi.ndim != 2 or points.ndim != 2:
        raise ValueError("model bundle phi and points must be matrices")
    n, m = phi.shape
    shapes = {"peq": (n,), "lam": (m,), "a": (m, m), "points": (n, points.shape[1])}
    shapes.update({key: () for key in _SCALARS})
    for key, shape in shapes.items():
        if entries[key].shape != shape:
            raise ValueError(f"model bundle {key} has shape {entries[key].shape}, "
                             f"expected {shape} for N={n}, M={m}")
    basis = DiffusionBasis(phi=phi, lam=entries["lam"], peq=entries["peq"])
    operator = ShiftOperator(a=entries["a"], tau=float(entries["tau"]))
    metadata = json.loads(str(entries["metadata"]))
    if not isinstance(metadata, dict):
        raise ValueError("model bundle metadata must be a JSON object")
    return basis, operator, points, metadata

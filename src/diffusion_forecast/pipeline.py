"""End-to-end fitting: tune both kernel families, estimate the sampling
density, build the basis, and estimate the shift operator; save and load the
fitted model as one bundle file."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import NEIGHBOR_CAP, DiffusionBasis, NormalizationLedger, build_basis, build_vb_kernel
from .dataset import TimeSeries, knn
from .forecast import ShiftOperator, estimate_shift_operator
from .tuning import (
    BandwidthProfile,
    DensityEstimate,
    PairwiseKernelSum,
    TuningResult,
    adhoc_bandwidth,
    kde,
    tune,
)

BETA = -0.5

# Layout version of the model bundle; load_model reads only this version.
MODEL_FORMAT_VERSION = 1
# Zip entry date in place of the wall clock, so that equal models give equal bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_SCALARS = ("eps", "d", "alpha", "beta", "tau", "n_pairs")
_ARRAYS = ("points", "peq", "lam", "phi", "a")


@dataclass(frozen=True)
class FitResult:
    """Everything produced while fitting a forecaster to a training series."""

    basis: DiffusionBasis
    operator: ShiftOperator
    density: DensityEstimate
    profile: BandwidthProfile
    kde_tuning: TuningResult
    vb_tuning: TuningResult
    ledger: NormalizationLedger


def fit_forecaster(
    ts: TimeSeries,
    n_basis: int,
    k0: int = 8,
    neighbor_cap: int = NEIGHBOR_CAP,
    stride: int = 1,
) -> FitResult:
    """Fit the full nonparametric forecaster to a training series.

    Runs the bandwidth sweep twice, once per kernel family: first for the
    ad-hoc kernel behind the density estimate, then for the
    variable-bandwidth kernel behind the basis, each yielding its own
    (eps, d) pair.
    """
    pts = ts.points
    # one neighbor table serves the ad-hoc bandwidths, the histogram bounds,
    # and the sparse kernel assembly
    nl = knn(ts, min(ts.n_points, max(k0, neighbor_cap, 2)))
    profile = adhoc_bandwidth(ts, k0, neighbors=nl)

    kde_tuning = tune(PairwiseKernelSum(pts, profile.rho0, 2.0, nl))
    density = kde(ts, profile, kde_tuning.eps_star, kde_tuning.d_est)

    vb_tuning = tune(PairwiseKernelSum(pts, density.q**BETA, 4.0, nl))

    kernel = build_vb_kernel(ts, density, vb_tuning.eps_star, beta=BETA,
                             neighbor_cap=neighbor_cap, neighbors=nl)
    del nl  # the table is not needed past the kernel; free it before the eigensolve
    basis, ledger = build_basis(
        kernel, ts, density, vb_tuning.eps_star, vb_tuning.d_est, n_basis, beta=BETA,
    )
    operator = estimate_shift_operator(basis, ts.tau, stride=stride)
    return FitResult(
        basis=basis,
        operator=operator,
        density=density,
        profile=profile,
        kde_tuning=kde_tuning,
        vb_tuning=vb_tuning,
        ledger=ledger,
    )


def save_model(path, basis: DiffusionBasis, operator: ShiftOperator,
               points: np.ndarray, metadata: dict | None = None) -> Path:
    """Write a fitted forecaster to exactly ``path`` as one uncompressed npz.

    Keys: ``format_version`` (int, :data:`MODEL_FORMAT_VERSION`); ``points``
    (N, D), the training points after any delay embedding, in time order;
    ``peq`` (N,), ``lam`` (M,), ``phi`` (N, M) and the scalars ``eps``,
    ``d``, ``alpha``, ``beta`` of the basis; ``a`` (M, M), ``tau`` and
    ``n_pairs`` of the shift operator; ``metadata``, a JSON object string.
    Every entry is a plain array, so ``np.load(path, allow_pickle=False)``
    reads the file. A change to the keys or their meaning takes a new
    version; :func:`load_model` rejects any other version. The zip entries
    carry a fixed date, so the bytes depend only on the model.
    """
    import zipfile

    entries = {
        "format_version": np.int64(MODEL_FORMAT_VERSION),
        "points": np.asarray(points, dtype=float),
        "peq": basis.peq, "lam": basis.lam, "phi": basis.phi,
        "eps": basis.eps, "d": basis.d, "alpha": basis.alpha, "beta": basis.beta,
        "tau": operator.tau, "a": operator.a, "n_pairs": np.int64(operator.n_pairs),
        "metadata": json.dumps(metadata or {}, sort_keys=True),
    }
    # row-major, so products on a loaded model do not depend on the solver's layout
    entries = {key: np.asarray(value, order="C") for key, value in entries.items()}
    _unpack(entries)
    path = Path(path)
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
        raise ValueError(f"model bundle format_version {version} is not {MODEL_FORMAT_VERSION}")
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
    if entries["tau"] <= 0:
        raise ValueError("model bundle tau must be positive")
    basis = DiffusionBasis(
        phi=phi, lam=entries["lam"], peq=entries["peq"],
        **{key: float(entries[key]) for key in ("eps", "d", "alpha", "beta")},
    )
    operator = ShiftOperator(a=entries["a"], tau=float(entries["tau"]),
                             n_pairs=int(entries["n_pairs"]))
    metadata = json.loads(str(entries["metadata"]))
    if not isinstance(metadata, dict):
        raise ValueError("model bundle metadata must be a JSON object")
    return basis, operator, points, metadata

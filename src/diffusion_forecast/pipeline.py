"""End-to-end fitting: tune both kernel families, estimate the sampling
density, build the basis, and estimate the shift operator."""

from __future__ import annotations

from dataclasses import dataclass

from .basis import DiffusionBasis, NormalizationLedger, build_basis, build_vb_kernel
from .dataset import TimeSeries, knn
from .forecast import ShiftOperator, estimate_shift_operator
from .tuning import (
    BandwidthProfile,
    DensityEstimate,
    PairwiseKernelSum,
    TuningResult,
    adhoc_bandwidth,
    kde,
    sq_bounds_from_neighbors,
    tune,
)

BETA = -0.5


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
    neighbor_cap: int | None = None,
    stride: int = 1,
) -> FitResult:
    """Fit the full nonparametric forecaster to a training series.

    Runs the bandwidth sweep twice, once per kernel family: first for the
    ad-hoc kernel behind the density estimate, then for the
    variable-bandwidth kernel behind the basis, each yielding its own
    (eps, d) pair.
    """
    pts = ts.points
    if neighbor_cap is None:
        neighbor_cap = min(ts.n_points, 1024)
    neighbor_cap = int(min(neighbor_cap, ts.n_points))
    # one neighbor table serves the ad-hoc bandwidths, the histogram bounds,
    # and the sparse kernel assembly
    nl = knn(ts, min(ts.n_points, max(k0, neighbor_cap, 2)))
    profile = adhoc_bandwidth(ts, k0, neighbors=nl)

    kde_sum = PairwiseKernelSum(
        pts, profile.rho0, c=2.0,
        sq_bounds=sq_bounds_from_neighbors(nl, pts, profile.rho0),
    )
    kde_tuning = tune(kde_sum)
    density = kde(ts, profile, kde_tuning.eps_star, kde_tuning.d_est)

    vb_scales = density.q**BETA
    vb_sum = PairwiseKernelSum(
        pts, vb_scales, c=4.0,
        sq_bounds=sq_bounds_from_neighbors(nl, pts, vb_scales),
    )
    vb_tuning = tune(vb_sum)

    kernel = build_vb_kernel(ts, density, vb_tuning.eps_star, beta=BETA,
                             neighbor_cap=neighbor_cap, neighbors=nl)
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

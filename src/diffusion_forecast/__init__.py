"""Nonparametric density forecasting for low-dimensional stochastic dynamics.

Learns an orthonormal basis adapted to the invariant measure of a dynamical
system from time-series data, estimates the sampling-interval evolution
operator on that basis through the shift map, and forecasts full probability
densities and their moments.
"""

__version__ = "0.1.0"

from .baselines import (
    AffineModel,
    GaussianState,
    ensemble_forecast,
    iterated_local_linear_forecast,
    iterated_local_linear_ladder,
    local_linear_forecast,
    local_linear_ladder,
)
from .basis import (
    DiffusionBasis,
    build_basis,
    build_vb_kernel,
)
from .dataset import (
    NeighborList,
    TimeSeries,
    delay_embed,
    knn,
    load_series,
    split,
)
from .evaluation import SkillReport, rmse_and_correlation
from .experiments import LorenzConfig, NinoConfig, TorusConfig, load_config
from .forecast import (
    DensityCoefficients,
    MomentForecast,
    ShiftOperator,
    estimate_shift_operator,
    forecast_ladder,
    forecast_moments,
    gaussian_density_values,
    project_density,
    reconstruct_density,
)
from .pipeline import FitResult, fit_forecaster, fit_record, load_model, save_model
from .simulators import (
    ODEModel,
    SDEModel,
    euler_maruyama,
    simulate_lorenz63,
    simulate_torus,
    torus_embed,
)
from .tuning import (
    BandwidthProfile,
    DensityEstimate,
    TuningResult,
    adhoc_bandwidth,
    default_bandwidth_grid,
    kde,
    tune,
)

__all__ = [
    "AffineModel",
    "BandwidthProfile",
    "DensityCoefficients",
    "DensityEstimate",
    "DiffusionBasis",
    "FitResult",
    "GaussianState",
    "LorenzConfig",
    "MomentForecast",
    "NeighborList",
    "NinoConfig",
    "ODEModel",
    "SDEModel",
    "ShiftOperator",
    "SkillReport",
    "TimeSeries",
    "TorusConfig",
    "TuningResult",
    "adhoc_bandwidth",
    "build_basis",
    "build_vb_kernel",
    "default_bandwidth_grid",
    "delay_embed",
    "ensemble_forecast",
    "estimate_shift_operator",
    "euler_maruyama",
    "fit_forecaster",
    "fit_record",
    "forecast_ladder",
    "forecast_moments",
    "gaussian_density_values",
    "iterated_local_linear_forecast",
    "iterated_local_linear_ladder",
    "kde",
    "knn",
    "load_config",
    "load_model",
    "load_series",
    "local_linear_forecast",
    "local_linear_ladder",
    "project_density",
    "reconstruct_density",
    "rmse_and_correlation",
    "save_model",
    "simulate_lorenz63",
    "simulate_torus",
    "split",
    "torus_embed",
    "tune",
]

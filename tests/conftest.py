import numpy as np
import pytest

from diffusion_forecast.dataset import TimeSeries


@pytest.fixture(scope="session")
def circle_points_3000():
    rng = np.random.default_rng(7)
    theta = rng.uniform(0, 2 * np.pi, 3000)
    return np.column_stack([np.cos(theta), np.sin(theta)])


@pytest.fixture(scope="session")
def circle_series_3000(circle_points_3000):
    return TimeSeries(circle_points_3000, tau=1.0)


@pytest.fixture(scope="session")
def circle_fit_3000(circle_series_3000):
    from diffusion_forecast.pipeline import fit_forecaster

    return fit_forecaster(circle_series_3000, n_basis=10)

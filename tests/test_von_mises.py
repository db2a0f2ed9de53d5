"""The von Mises circle gate: the gradient flow d theta = kappa sin(theta) dt
+ sqrt(2) dW, whose invariant density exp(-kappa cos theta) / (2 pi I0(kappa))
is not uniform on a compact manifold. Unlike OU it has no tails, so the
spectrum checks the bandwidth and the alpha normalization apart from the
density estimate's tail bias.

The series is drawn with ``euler_maruyama`` from theta0 = 0 (N=3000,
tau=0.5, 10 substeps, ``SeedSequence(seed)``), embedded as (cos theta,
sin theta) and fitted with M=10, at kappa = 1. The exact eigenvalues come in
pairs, 1.1655, 4.1338, 9.1288 (see ``_oracles.von_mises_spectrum``). The
bound sits above the spread of the relative errors of lambda_1..lambda_4
measured at seeds 0-2: -0.069, +0.013, -0.106, +0.038 (seed 0); -0.093,
+0.037, -0.100, +0.024 (seed 1); -0.058, -0.022, -0.081, +0.013 (seed 2).
The mean relative error of lambda_1..lambda_6 was 0.058, 0.059 and 0.048.
Only seed 0 is fitted here: the solve takes about 2100 Lanczos products
(3-5 s). The forecast moments are not gated yet.
"""

import math

import numpy as np
import pytest

from diffusion_forecast.dataset import TimeSeries
from diffusion_forecast.pipeline import fit_forecaster
from diffusion_forecast.simulators import SDEModel, euler_maruyama

from _oracles import gradient_flow_eigenfunctions, von_mises_spectrum

KAPPA, SEED = 1.0, 0
N_POINTS, N_BASIS, TAU, SUBSTEPS = 3000, 10, 0.5, 10


def von_mises_model(kappa):
    return SDEModel(dim=1, drift=lambda x: kappa * np.sin(x),
                    diffusion=lambda x: np.full(x.shape[:-1] + (1, 1), math.sqrt(2.0)),
                    wrap=np.array([2.0 * np.pi]))


@pytest.fixture(scope="module")
def von_mises_fit():
    ts = euler_maruyama(von_mises_model(KAPPA), np.zeros(1), TAU, SUBSTEPS, N_POINTS,
                        np.random.SeedSequence(SEED))
    theta = ts.points[:, 0]
    return fit_forecaster(TimeSeries(np.column_stack([np.cos(theta), np.sin(theta)]), tau=TAU),
                          N_BASIS)


def test_the_first_four_eigenvalues(von_mises_fit):
    exact = von_mises_spectrum(KAPPA, 5)[1:]
    rel = np.abs(von_mises_fit.basis.lam[1:5] - exact) / exact
    assert np.all(rel <= 0.13), rel


def test_the_oracle_is_self_consistent():
    # kappa = 0 is Brownian motion on the circle: 0 and the pairs k^2
    assert np.allclose(von_mises_spectrum(0.0, 7), [0, 1, 1, 4, 4, 9, 9], rtol=0, atol=1e-12)
    for kappa, pairs in ((1.0, [1.1655, 4.1338, 9.1288]), (2.0, [1.6474, 4.5406, 9.5176])):
        lam = von_mises_spectrum(kappa, 7)
        assert abs(lam[0]) <= 1e-12
        # the supersymmetric partner of H is H shifted by pi: exact pairs
        assert np.allclose(lam[1::2], lam[2::2], rtol=1e-12, atol=0)
        assert np.allclose(lam[1::2], pairs, rtol=0, atol=5e-5)
        # a central-difference generator on a 1000-cell grid, solved
        # densely, agrees to its O(h^2) truncation error
        n_cells = 1000
        centers = (np.arange(n_cells) + 0.5) * (2.0 * np.pi / n_cells)
        _, lam_fd, _ = gradient_flow_eigenfunctions(n_cells, -kappa * np.cos(centers), n_modes=7)
        assert np.allclose(lam_fd[1:], lam[1:], rtol=1e-4, atol=0)

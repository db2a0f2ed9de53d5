import numpy as np
import pytest

from diffusion_forecast.basis import DiffusionBasis
from diffusion_forecast.dataset import TimeSeries
from diffusion_forecast.forecast import (
    DensityCoefficients,
    MomentForecast,
    ShiftOperator,
    estimate_shift_operator,
    evolve_coefficients,
    evolve_ladder,
    forecast_ladder,
    forecast_moments,
    gaussian_density_values,
    project_density,
    reconstruct_density,
)
from diffusion_forecast.pipeline import load_model, save_model
from diffusion_forecast.simulators import SDEModel, euler_maruyama

from _oracles import (
    TWO_PI,
    backward_generator,
    gradient_flow_eigenfunctions,
    periodic_interp,
    propagator,
)


def synthetic_basis(n=500, m=6, seed=0):
    """Orthonormal columns scaled so (1/N) sum phi^2 = 1, first column 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m))
    a[:, 0] = 1.0
    q, _ = np.linalg.qr(a)
    phi = q * np.sqrt(n) * np.sign(q[0, 0] if q[0, 0] != 0 else 1.0)
    if phi[:, 0].mean() < 0:
        phi[:, 0] *= -1
    lam = np.arange(m, dtype=float)
    return DiffusionBasis(phi=phi, lam=lam, peq=np.full(n, 0.2), eps=0.1, d=1.0,
                          alpha=-0.25, beta=-0.5)


class TestEstimateShiftOperator:
    def test_static_dynamics_identity(self):
        basis = synthetic_basis(n=4000, m=5, seed=1)
        # duplicate-pairing: phi rows repeat, so x_{i+1} = x_i
        phi = np.repeat(basis.phi[:2000], 2, axis=0)
        static = DiffusionBasis(phi=phi, lam=basis.lam, peq=np.full(4000, 0.2),
                                eps=0.1, d=1.0, alpha=-0.25, beta=-0.5)
        op = estimate_shift_operator(static, tau=1.0, stride=2)
        assert np.allclose(op.a, np.eye(5), atol=0.1)

    def test_mass_row_is_unit_vector(self, circle_fit_3000):
        op = circle_fit_3000.operator
        row0 = op.a[0]
        tol = 2.0 / np.sqrt(op.n_pairs)
        assert abs(row0[0] - 1.0) < tol
        assert np.all(np.abs(row0[1:]) < tol)

    def test_stride_subsamples_pairs(self):
        basis = synthetic_basis(n=101, m=3)
        op1 = estimate_shift_operator(basis, tau=0.5, stride=1)
        op4 = estimate_shift_operator(basis, tau=0.5, stride=4)
        assert op1.n_pairs == 100
        assert op4.n_pairs == 25

    def test_wrong_stride(self, circle_fit_3000):
        with pytest.raises(ValueError, match="stride"):
            estimate_shift_operator(circle_fit_3000.basis, tau=1.0, stride=0)


class TestProjectDensity:
    def test_roundtrip_of_invariant_density(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        p_inv = reconstruct_density(DensityCoefficients(np.eye(basis.n_basis)[0]), basis)
        coeffs = project_density(p_inv, basis)
        e0 = np.zeros(basis.n_basis)
        e0[0] = 1.0
        assert np.max(np.abs(coeffs.c - e0)) < 1e-8

    def test_linear_combination_recovers_coefficients(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        target = np.zeros(basis.n_basis)
        target[0] = 1.0
        target[1] = 0.5
        p = reconstruct_density(DensityCoefficients(target), basis)
        assert np.all(p > 0)  # small enough mixture to stay positive
        coeffs = project_density(p, basis)
        assert np.max(np.abs(coeffs.c - target)) < 1e-8

    def test_raw_invariant_estimate_is_near_e0(self, circle_fit_3000):
        # feeding peq itself differs from the exact round trip by the
        # deviation of the leading basis column from a constant
        basis = circle_fit_3000.basis
        coeffs = project_density(basis.peq, basis)
        assert coeffs.c[0] == 1.0
        assert np.max(np.abs(coeffs.c[1:])) < 0.1

    def test_scaling_invariance(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        p = reconstruct_density(DensityCoefficients(np.eye(basis.n_basis)[0]), basis)
        c1 = project_density(p, basis)
        c2 = project_density(7.0 * p, basis)
        assert np.allclose(c1.c, c2.c)

    def test_rejects_negative_values(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        bad = -np.ones(basis.n_points)
        with pytest.raises(ValueError, match="nonnegative"):
            project_density(bad, basis)

    def test_rejects_zero_density(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        with pytest.raises(ValueError, match="identically zero"):
            project_density(np.zeros(basis.n_points), basis)

    @pytest.mark.parametrize("value, match", [(np.nan, "not NaN"), (np.inf, "non-finite"),
                                              (-np.inf, "nonnegative")],
                             ids=["nan", "inf", "-inf"])
    # inf times the basis entries of opposite signs: the expected NaN coefficients
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_rejects_a_non_finite_value(self, circle_fit_3000, value, match):
        basis = circle_fit_3000.basis
        p = basis.peq.copy()
        p[3] = value
        with pytest.raises(ValueError, match=match):
            project_density(p, basis)
        with pytest.raises(ValueError, match=match):
            project_density(np.column_stack([basis.peq, p]), basis)

    def test_batch_matches_columns(self, circle_fit_3000, circle_points_3000):
        basis = circle_fit_3000.basis
        cols = np.column_stack([gaussian_density_values(circle_points_3000, mu, 0.3)
                                for mu in ([1.0, 0.0], [0.0, -1.0], [-0.6, 0.8])])
        batch = project_density(cols, basis)
        assert batch.c.shape == (basis.n_basis, 3)
        for b in range(3):
            assert np.allclose(batch.c[:, b], project_density(cols[:, b], basis).c,
                               rtol=1e-12, atol=1e-14)

    def test_batch_checks_every_column(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        cols = np.column_stack([basis.peq, np.zeros(basis.n_points)])
        with pytest.raises(ValueError, match="identically zero"):
            project_density(cols, basis)
        cols[:, 1] = -basis.peq
        with pytest.raises(ValueError, match="nonnegative"):
            project_density(cols, basis)


class TestStep:
    """Operator steps through ``evolve_coefficients``."""

    def test_zero_steps_is_identity(self):
        op = ShiftOperator(a=np.eye(3) * 0.5 + 0.5, tau=0.1, n_pairs=10)
        c = np.array([1.0, 0.2, -0.1])
        out = evolve_coefficients(c, op, 0)
        assert np.array_equal(out, c)

    def test_negative_steps_rejected(self):
        op = ShiftOperator(a=np.diag([1.0, 0.8]), tau=1.0, n_pairs=10)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_coefficients(np.array([1.0, 0.8]), op, -3)

    def test_mass_repinned_each_step(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        op = ShiftOperator(a=a, tau=1.0, n_pairs=10)
        out = evolve_coefficients(np.array([1.0, 0.8]), op, 3)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.8 / 8.0)

    def test_overflow_detected(self):
        a = np.diag([1.0, 3.0])
        op = ShiftOperator(a=a, tau=1.0, n_pairs=10)
        with pytest.raises(FloatingPointError):
            evolve_coefficients(np.array([1.0, 1.0]), op, 40)

    def test_nonpositive_mass_detected(self):
        a = np.diag([-1.0, 1.0])
        op = ShiftOperator(a=a, tau=1.0, n_pairs=10)
        with pytest.raises(ValueError, match="mass"):
            evolve_coefficients(np.array([1.0, 1.0]), op, 1)

    def test_batch_matches_loop(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        op = circle_fit_3000.operator
        rng = np.random.default_rng(5)
        cols = np.abs(rng.normal(size=(basis.n_basis, 3))) * 0.1
        cols[0] = 1.0
        batch = evolve_coefficients(cols, op, 4)
        for b in range(3):
            single = evolve_coefficients(cols[:, b], op, 4)
            assert np.allclose(batch[:, b], single)


class TestReconstructAndMoments:
    def test_reconstruct_e0_is_peq_times_leading_column(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        c = DensityCoefficients(np.eye(basis.n_basis)[0])
        assert np.array_equal(reconstruct_density(c, basis), basis.peq * basis.phi[:, 0])

    def test_moment_of_basis_function_is_coefficient(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        c = np.zeros(basis.n_basis)
        c[0] = 1.0
        c[2] = 0.3
        mean, _ = forecast_moments(DensityCoefficients(c), basis, basis.phi[:, 2])
        assert mean[0] == pytest.approx(0.3, abs=1e-10)

    def test_invariant_expectation_matches_climatology(self, circle_points_3000, circle_fit_3000):
        basis = circle_fit_3000.basis
        c = DensityCoefficients(np.eye(basis.n_basis)[0])
        mean, var = forecast_moments(c, basis, circle_points_3000)
        # expectation under the estimated invariant measure tracks the sample
        # mean up to the leading-column warp
        assert np.allclose(mean, circle_points_3000.mean(axis=0), atol=0.05)
        assert np.all(var >= 0)

    def test_batched_moments_shape(self, circle_fit_3000, circle_points_3000):
        basis = circle_fit_3000.basis
        cols = np.tile(np.eye(basis.n_basis)[0][:, None], (1, 4))
        mean, var = forecast_moments(cols, basis, circle_points_3000)
        assert mean.shape == (2, 4) and var.shape == (2, 4)

    def test_ladder_matches_per_lead_loop(self, circle_fit_3000, circle_points_3000):
        basis, op = circle_fit_3000.basis, circle_fit_3000.operator
        c0 = project_density(gaussian_density_values(circle_points_3000, [1.0, 0.0], 0.3), basis)
        fc = forecast_ladder(c0, op, basis, circle_points_3000, 4)
        assert fc.mean.shape == fc.variance.shape == (5, 2)
        assert np.array_equal(fc.lead_times, np.arange(5) * op.tau)
        vec = c0.c
        for lead in range(5):
            mean, var = forecast_moments(vec, basis, circle_points_3000)
            assert np.array_equal(fc.mean[lead], mean) and np.array_equal(fc.variance[lead], var)
            vec = evolve_coefficients(vec, op, 1)

    def test_ladder_batch_shape(self, circle_fit_3000, circle_points_3000):
        basis, op = circle_fit_3000.basis, circle_fit_3000.operator
        cols = np.tile(np.eye(basis.n_basis)[0][:, None], (1, 4))
        fc = forecast_ladder(cols, op, basis, circle_points_3000, 3)
        assert fc.mean.shape == fc.variance.shape == (4, 2, 4)
        assert len(list(evolve_ladder(cols, op, 3))) == 4

    def test_moment_forecast_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MomentForecast(mean=np.zeros((2, 1)), variance=np.array([[1.0], [-0.5]]),
                           lead_times=np.array([0.0, 1.0]))


class TestGaussianDensityValues:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 2))
        mean = np.array([0.5, -0.2])
        var = np.array([0.3, 0.7])
        out = gaussian_density_values(pts, mean, var)
        expected = (np.exp(-((pts[:, 0] - 0.5) ** 2) / 0.6 - (pts[:, 1] + 0.2) ** 2 / 1.4)
                    / (2 * np.pi * np.sqrt(0.3 * 0.7)))
        assert np.allclose(out, expected)

    def test_wrapped_coordinates(self):
        pts = np.array([[0.05], [TWO_PI - 0.05]])
        out = gaussian_density_values(pts, np.array([0.0]), 0.04, wrap=np.array([TWO_PI]))
        assert out[0] == pytest.approx(out[1], rel=1e-12)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError, match="positive"):
            gaussian_density_values(np.zeros((3, 1)), np.zeros(1), 0.0)

    @pytest.mark.parametrize("variance", [np.nan, [0.5, np.nan]], ids=["scalar", "one-coordinate"])
    def test_rejects_nan_variance(self, variance):
        with pytest.raises(ValueError, match="not NaN"):
            gaussian_density_values(np.zeros((3, 2)), np.zeros(2), variance)


class TestOperatorSerialization:
    def test_round_trip(self, tmp_path, circle_fit_3000, circle_series_3000):
        fit = circle_fit_3000
        op = fit.operator
        path = save_model(tmp_path / "model.npz", fit.basis, op, circle_series_3000.points)
        back = load_model(path)[1]
        assert np.array_equal(back.a, op.a)
        assert back.tau == op.tau and back.n_pairs == op.n_pairs


class TestUnbiasednessSurrogate:
    def test_averaging_shifts_toward_oracle(self):
        """Shift-operator estimates from independent realizations average
        toward the semigroup matrix computed by the grid oracle, on a fixed
        basis of grid-computed eigenfunctions."""
        model = SDEModel(
            dim=1,
            drift=lambda x: np.sin(x),
            diffusion=lambda x: np.full(x.shape[:-1] + (1, 1), 0.5),
            wrap=np.array([TWO_PI]),
        )
        tau, m, n = 0.1, 8, 2000
        n_cells = 512
        h = TWO_PI / n_cells
        grid = (np.arange(n_cells) + 0.5) * h
        # invariant measure of d theta = sin(theta) dt + 0.5 dW
        log_peq = -8.0 * np.cos(grid)
        centers, _, funcs = gradient_flow_eigenfunctions(n_cells, log_peq,
                                                         diff_like=0.125, n_modes=m)
        p_eq = np.exp(log_peq)
        p_eq /= p_eq.sum() * h
        _, gen_b = backward_generator(n_cells, np.sin, 0.125)
        evolved = propagator(gen_b, tau) @ funcs
        # oracle[l, j] = <phi_j, e^{tau L} phi_l> under p_eq
        oracle = (evolved * p_eq[:, None]).T @ funcs * h

        estimates = []
        for r in range(10):
            ts = euler_maruyama(model, np.array([np.pi]), tau, substeps=10,
                                n_samples=n, seed=100 + r)
            theta = ts.points[:, 0]
            phi_pts = np.column_stack([periodic_interp(centers, funcs[:, j], theta)
                                       for j in range(m)])
            estimates.append(phi_pts[1:].T @ phi_pts[:-1] / (n - 1))
        single = np.linalg.norm(estimates[0] - oracle)
        averaged = np.linalg.norm(np.mean(estimates, axis=0) - oracle)
        assert averaged < single

import dataclasses
import logging
import re

import numpy as np
import pytest

from diffusion_forecast import dataset, forecast
from diffusion_forecast.basis import DiffusionBasis
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
    observable_readout,
    periodic_interp,
    propagator,
    wrapped_gaussian_density,
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
    return DiffusionBasis(phi=phi, lam=lam, peq=np.full(n, 0.2))


class TestEstimateShiftOperator:
    def test_static_dynamics_identity(self):
        basis = synthetic_basis(n=40, m=5, seed=1)
        # the state holds still for runs of 100 samples, so x_{i+1} = x_i on
        # all but the 39 pairs that cross from one run to the next
        phi = np.repeat(basis.phi, 100, axis=0)
        static = DiffusionBasis(phi=phi, lam=basis.lam, peq=np.full(4000, 0.2))
        op = estimate_shift_operator(static, tau=1.0)
        assert np.allclose(op.a, np.eye(5), atol=0.1)

    def test_mass_row_is_unit_vector(self, circle_fit_3000):
        op = circle_fit_3000.operator
        row0 = op.a[0]
        tol = 2.0 / np.sqrt(circle_fit_3000.basis.n_points - 1)  # one over each shift pair
        assert abs(row0[0] - 1.0) < tol
        assert np.all(np.abs(row0[1:]) < tol)


class TestProjectDensity:
    def test_roundtrip_of_invariant_density(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        p_inv = reconstruct_density(np.eye(basis.n_basis)[0], basis)
        coeffs = project_density(p_inv, basis)
        e0 = np.zeros(basis.n_basis)
        e0[0] = 1.0
        assert np.max(np.abs(coeffs.c - e0)) < 1e-8

    def test_linear_combination_recovers_coefficients(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        target = np.zeros(basis.n_basis)
        target[0] = 1.0
        target[1] = 0.5
        p = reconstruct_density(target, basis)
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
        p = reconstruct_density(np.eye(basis.n_basis)[0], basis)
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
        op = ShiftOperator(a=np.eye(3) * 0.5 + 0.5, tau=0.1)
        c = np.array([1.0, 0.2, -0.1])
        out = evolve_coefficients(c, op, 0)
        assert np.array_equal(out, c)

    def test_negative_steps_rejected(self):
        op = ShiftOperator(a=np.diag([1.0, 0.8]), tau=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_coefficients(np.array([1.0, 0.8]), op, -3)

    def test_mass_repinned_each_step(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        op = ShiftOperator(a=a, tau=1.0)
        out = evolve_coefficients(np.array([1.0, 0.8]), op, 3)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.8 / 8.0)

    def test_overflow_detected(self):
        a = np.diag([1.0, 3.0])
        op = ShiftOperator(a=a, tau=1.0)
        with pytest.raises(FloatingPointError):
            evolve_coefficients(np.array([1.0, 1.0]), op, 40)

    def test_nonpositive_mass_detected(self):
        a = np.diag([-1.0, 1.0])
        op = ShiftOperator(a=a, tau=1.0)
        with pytest.raises(ValueError, match="mass"):
            evolve_coefficients(np.array([1.0, 1.0]), op, 1)

    @pytest.mark.parametrize("coeffs", [[1.0, np.nan], [np.nan, 0.5],
                                        [[1.0, 1.0], [0.5, np.nan]]],
                             ids=["coefficient", "mass-coefficient", "batch-column"])
    def test_nan_coefficient_fails_loudly(self, coeffs):
        op = ShiftOperator(a=np.diag([1.0, 0.8]), tau=1.0)
        with pytest.raises(FloatingPointError, match="non-finite or overflowing coefficient"):
            evolve_coefficients(np.array(coeffs), op, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ShiftOperator(a=np.array([[1.0, 0.0], [bad, 0.8]]), tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_tau_that_is_not_positive_and_finite_rejected(self, tau):
        # lead_times would be tau * lead: zero, negative, NaN or infinite
        with pytest.raises(ValueError, match=f"tau must be positive and finite, got {tau}"):
            ShiftOperator(a=np.eye(2), tau=tau)

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
        c = np.eye(basis.n_basis)[0]
        assert np.array_equal(reconstruct_density(c, basis), basis.peq * basis.phi[:, 0])

    def test_moment_of_basis_function_is_coefficient(self, circle_fit_3000):
        basis = circle_fit_3000.basis
        c = np.zeros(basis.n_basis)
        c[0] = 1.0
        c[2] = 0.3
        mean, _ = forecast_moments(c, basis, basis.phi[:, 2])
        assert mean[0] == pytest.approx(0.3, abs=1e-10)

    def test_invariant_expectation_matches_climatology(self, circle_points_3000, circle_fit_3000):
        basis = circle_fit_3000.basis
        c = np.eye(basis.n_basis)[0]
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
            # a fresh copy of the basis holds no readout, so each lead's
            # moments here are read out afresh
            mean, var = forecast_moments(vec, dataclasses.replace(basis), circle_points_3000)
            assert np.array_equal(fc.mean[lead], mean) and np.array_equal(fc.variance[lead], var)
            vec = evolve_coefficients(vec, op, 1)

    def test_ladder_batch_shape(self, circle_fit_3000, circle_points_3000):
        basis, op = circle_fit_3000.basis, circle_fit_3000.operator
        cols = DensityCoefficients(np.tile(np.eye(basis.n_basis)[0][:, None], (1, 4)))
        fc = forecast_ladder(cols, op, basis, circle_points_3000, 3)
        assert fc.mean.shape == fc.variance.shape == (4, 2, 4)
        assert len(list(evolve_ladder(cols, op, 3))) == 4

    def test_moment_forecast_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MomentForecast(mean=np.zeros((2, 1)), variance=np.array([[1.0], [-0.5]]),
                           lead_times=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative, not NaN"):
            MomentForecast(mean=np.zeros((1, 1)), variance=np.array([[np.nan]]),
                           lead_times=np.array([0.0]))

    @pytest.mark.parametrize("coeffs", [[1.0, np.nan, 0.1], [1.0, np.inf, 0.1],
                                        [[1.0, 1.0], [0.2, np.nan], [0.1, 0.1]]],
                             ids=["nan", "inf", "batch-column"])
    def test_non_finite_coefficients_fail_loudly(self, coeffs):
        # a zero-lead ladder makes no operator step, so only the readout
        # itself can catch them
        basis = synthetic_basis(n=100, m=3)
        op = ShiftOperator(a=np.eye(3), tau=1.0)
        g = basis.phi[:, 1:3]
        with pytest.raises(ValueError, match="coefficients must be finite"):
            forecast_moments(np.array(coeffs), basis, g)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            forecast_ladder(DensityCoefficients(np.array(coeffs)), op, basis, g, n_leads=0)


class TestObservableReadout:
    """The readout <g, phi_j>, <g^2, phi_j> kept on the basis between leads."""

    @staticmethod
    def counting_basis():
        """A synthetic basis whose phi counts the products g^T phi that read
        it, and the list those products are appended to."""
        calls = []

        class CountingPhi(np.ndarray):
            def __rmatmul__(self, other):
                calls.append(np.shape(other))
                return np.asarray(other) @ self.view(np.ndarray)

        basis = synthetic_basis(n=300, m=5, seed=2)
        return dataclasses.replace(basis, phi=basis.phi.view(CountingPhi)), calls

    @staticmethod
    def assert_matches_oracle(basis, g):
        ghat, g2hat = forecast._observable_readout(basis, g)
        want, want2 = observable_readout(g, np.asarray(basis.phi))
        assert ghat.tobytes() == want.tobytes() and g2hat.tobytes() == want2.tobytes()

    def test_equals_the_oracle_whether_reused_or_recomputed(self):
        basis = synthetic_basis(n=300, m=5, seed=2)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(300, 3))
        self.assert_matches_oracle(basis, g)  # first call
        first = forecast._observable_readout(basis, g)
        self.assert_matches_oracle(basis, g)  # repeated call
        assert forecast._observable_readout(basis, g)[0] is first[0]
        self.assert_matches_oracle(basis, rng.normal(size=(300, 3)))  # other content
        g[7, 1] += 1.0  # the same array, written between calls
        self.assert_matches_oracle(basis, g)

    def test_equal_observables_are_read_out_once(self):
        basis, calls = self.counting_basis()
        g = np.random.default_rng(1).normal(size=(300, 2))
        c = np.eye(5)[0]
        forecast_moments(c, basis, g)
        forecast_moments(c, basis, g.copy())
        assert len(calls) == 2  # g and g*g, once
        forecast_moments(c, basis, g[:, :1])
        assert len(calls) == 4  # another shape replaces the readout

    def test_nan_observables_are_read_out_on_every_call(self):
        basis, calls = self.counting_basis()
        g = np.random.default_rng(1).normal(size=(300, 2))
        g[4, 0] = np.nan
        want = observable_readout(g, np.asarray(basis.phi))
        for n_calls in (1, 2):
            got = forecast._observable_readout(basis, g)
            assert len(calls) == 2 * n_calls
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_twenty_lead_ladder_reads_out_once(self):
        basis, calls = self.counting_basis()
        op = ShiftOperator(a=np.diag([1.0, 0.9, 0.8, 0.7, 0.6]), tau=0.5)
        cols = np.tile(np.eye(5)[0][:, None], (1, 3))
        cols[1] = [0.1, -0.2, 0.3]
        fc = forecast_ladder(DensityCoefficients(cols), op, basis, basis.phi[:, 1:3] + 0.5, 20)
        assert fc.mean.shape == (21, 2, 3)
        assert calls == [(2, 300), (2, 300)]

    @pytest.mark.parametrize("name", ["phi", "lam", "peq"])
    def test_basis_arrays_are_read_only(self, name):
        given = synthetic_basis(n=50, m=3).phi.copy()
        basis = DiffusionBasis(phi=given, lam=np.arange(3.0), peq=np.full(50, 0.2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(basis, name)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            given[0, 0] = 1.0

    def test_clamp_log_counts_the_clamped_entries(self, caplog):
        basis = synthetic_basis(n=300, m=5, seed=2)
        g = basis.phi[:, 1:3]
        c = np.eye(5)[0] + 10.0 * np.eye(5)[1]
        ghat, g2hat = observable_readout(g, np.asarray(basis.phi))
        raw = g2hat.T @ c - (ghat.T @ c) ** 2
        n_negative = np.count_nonzero(raw < 0)
        assert n_negative >= 1
        with caplog.at_level(logging.INFO, logger="diffusion_forecast.forecast"):
            _, var = forecast_moments(c, basis, g)
        assert np.count_nonzero(var == 0.0) == n_negative
        assert [r.getMessage() for r in caplog.records] == [
            f"clamping {n_negative} negative forecast variances (worst {raw.min():.3e})"]


def _edge_points(p):
    edges = np.array([0.0, -0.0, p, -p, 2 * p, -2 * p, np.nextafter(p, 0), np.nextafter(-p, 0),
                      np.nextafter(2 * p, 0), p / 2, -p / 2, -5e-324, np.nan, np.inf, -np.inf])
    return np.column_stack([edges, edges[::-1]])


def _density_case(dim, wrap, low, high, mean_low, mean_high, var, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(low, high, (2000, dim)), rng.uniform(mean_low, mean_high, (7, dim)),
            var, None if wrap is None else np.array(wrap))


# (points, means, variance, wrap) of the shapes the forecasts use and past them
DENSITY_CASES = {
    "circle": lambda: _density_case(1, [TWO_PI], 0.0, TWO_PI, 0.0, TWO_PI, 0.5, 1),
    "torus": lambda: _density_case(2, [TWO_PI, TWO_PI], 0.0, TWO_PI, 0.0, TWO_PI, [0.3, 0.7], 2),
    "mixed-wrap": lambda: _density_case(2, [TWO_PI, 0.0], -3.0, 9.0, 0.0, TWO_PI, 0.4, 3),
    "wide-1d": lambda: _density_case(1, [TWO_PI], -20.0, 20.0, -9.0, 9.0, 0.8, 4),
    "wide-2d": lambda: _density_case(2, [TWO_PI, 1.0], -20.0, 20.0, -9.0, 9.0, [0.8, 0.2], 5),
    "lorenz": lambda: _density_case(3, None, -20.0, 45.0, -15.0, 40.0, 0.01, 6),
    "edges": lambda: (_edge_points(TWO_PI), np.array([[0.0, 0.0], [np.pi, TWO_PI], [-0.0, 1.0]]),
                      0.5, np.array([TWO_PI, TWO_PI])),
}


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

    @pytest.mark.parametrize("dim", [1, 3, 5, 9])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrap"])
    def test_batch_equals_per_mean_calls(self, monkeypatch, dim, wrapped):
        rng = np.random.default_rng(dim)
        pts = rng.uniform(-4.0, 8.0, (301, dim))
        means = rng.uniform(-4.0, 8.0, (7, dim))
        var = rng.uniform(0.5, 4.0, dim)
        # every other coordinate is an angle; a non-finite period wraps nothing
        wrap = np.where(np.arange(dim) % 2 == 0, TWO_PI, np.inf) if wrapped else None
        singles = [gaussian_density_values(pts, mean, var, wrap=wrap) for mean in means]
        # small blocks: the batch spans many row blocks and a partial last one
        monkeypatch.setattr(dataset, "BLOCK_ENTRIES", 100)
        batch = gaussian_density_values(pts, means, var, wrap=wrap)
        assert batch.shape == (301, 7)
        for b, single in enumerate(singles):
            assert np.array_equal(batch[:, b], single)

    @pytest.mark.parametrize("mean", [np.zeros(3), np.zeros((4, 3)), np.zeros((2, 4, 2))],
                             ids=["one", "batch", "3-d"])
    def test_rejects_a_mean_of_another_dimension(self, mean):
        with pytest.raises(ValueError, match=re.escape(f"mean of shape {mean.shape} does not "
                                                       "match points of shape (5, 2)")):
            gaussian_density_values(np.zeros((5, 2)), mean, 1.0)

    def test_rejects_a_period_count_unlike_the_dimension(self):
        with pytest.raises(ValueError, match=re.escape("wrap of shape (1,) does not give one "
                                                       "period per coordinate")):
            gaussian_density_values(np.zeros((5, 2)), np.zeros(2), 1.0, wrap=np.array([TWO_PI]))

    @pytest.mark.parametrize("variance", [np.nan, [0.5, np.nan]], ids=["scalar", "one-coordinate"])
    def test_rejects_nan_variance(self, variance):
        with pytest.raises(ValueError, match="not NaN"):
            gaussian_density_values(np.zeros((3, 2)), np.zeros(2), variance)

    @pytest.mark.parametrize("case", sorted(DENSITY_CASES))
    @pytest.mark.parametrize("batch", [False, True], ids=["one-mean", "batch"])
    def test_equals_its_definition_bitwise(self, case, batch):
        points, means, var, wrap = DENSITY_CASES[case]()
        # np.remainder warns of an invalid value at NaN and infinite points
        with np.errstate(invalid="ignore"):
            got = gaussian_density_values(points, means if batch else means[0], var, wrap=wrap)
            want = wrapped_gaussian_density(points, means, var, wrap)
        assert got.tobytes() == (want if batch else want[:, 0]).tobytes()


class TestOperatorSerialization:
    def test_round_trip(self, tmp_path, circle_fit_3000, circle_series_3000):
        fit = circle_fit_3000
        op = fit.operator
        path = save_model(tmp_path / "model.npz", fit.basis, op, circle_series_3000.points)
        back = load_model(path)[1]
        assert np.array_equal(back.a, op.a)
        assert back.tau == op.tau


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

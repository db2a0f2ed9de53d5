import numpy as np
import pytest

from diffusion_forecast.baselines import (
    AffineModel,
    GaussianState,
    _affine_least_squares,
    ensemble_forecast,
    fit_local_affine,
    iterated_local_linear_forecast,
    iterated_local_linear_ladder,
    local_linear_forecast,
)
from diffusion_forecast.dataset import TimeSeries
from diffusion_forecast.simulators import (
    ODEModel,
    SDEModel,
    lorenz_model,
    simulate_lorenz63,
    torus_embed,
    torus_model,
)


def affine_trajectory(linear, offset, x0, n):
    dim = len(offset)
    out = np.empty((n, dim))
    x = np.asarray(x0, dtype=float)
    for i in range(n):
        out[i] = x
        x = linear @ x + offset
    return TimeSeries(out, tau=1.0)


def spiral_series(n=200):
    rot = 0.93 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    return affine_trajectory(rot, np.array([0.3, -0.1]), [4.0, 0.0], n), rot, np.array([0.3, -0.1])


class TestLocalLinear:
    def test_recovers_scalar_affine_map(self):
        train = affine_trajectory(np.array([[2.0]]), np.array([1.0]), [1e-3], 20)
        model = fit_local_affine(train, np.array([0.5]), 1, k=15)
        assert model.linear[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert model.offset[0] == pytest.approx(1.0, abs=1e-10)
        init = GaussianState.isotropic(np.array([0.5]), 0.0)
        out = local_linear_forecast(train, init, 1, k=15)
        assert out.mean[0] == pytest.approx(2.0, abs=1e-9)

    def test_exact_on_spiral_at_every_lead(self):
        train, rot, off = spiral_series()
        init = GaussianState.isotropic(np.array([2.0, 1.0]), 0.04)
        for lead in (1, 3, 7):
            expected_mean = init.mean.copy()
            lin = np.eye(2)
            for _ in range(lead):
                expected_mean = rot @ expected_mean + off
                lin = rot @ lin
            out = local_linear_forecast(train, init, lead, k=15)
            assert np.allclose(out.mean, expected_mean, atol=1e-9)
            assert np.allclose(out.cov, lin @ init.cov @ lin.T, atol=1e-9)

    def test_lead_zero_identity(self):
        train, _, _ = spiral_series()
        init = GaussianState.isotropic(np.array([1.0, 1.0]), 0.2)
        out = local_linear_forecast(train, init, 0)
        assert np.array_equal(out.mean, init.mean)
        assert np.array_equal(out.cov, init.cov)

    def test_zero_covariance_stays_zero(self):
        train, _, _ = spiral_series()
        init = GaussianState.isotropic(np.array([1.0, 1.0]), 0.0)
        out = local_linear_forecast(train, init, 2)
        assert np.allclose(out.cov, 0.0)

    def test_iterated_equals_direct_on_affine_truth(self):
        train, _, _ = spiral_series()
        init = GaussianState.isotropic(np.array([2.0, -1.0]), 0.09)
        for lead in (1, 4, 8):
            a = local_linear_forecast(train, init, lead)
            b = iterated_local_linear_forecast(train, init, lead)
            assert np.allclose(a.mean, b.mean, atol=1e-8)
            assert np.allclose(a.cov, b.cov, atol=1e-8)

    def test_single_step_methods_identical(self):
        rng = np.random.default_rng(3)
        train = TimeSeries(rng.normal(size=(80, 2)), tau=1.0)
        init = GaussianState.isotropic(rng.normal(size=2), 0.01)
        a = local_linear_forecast(train, init, 1)
        b = iterated_local_linear_forecast(train, init, 1)
        assert np.allclose(a.mean, b.mean)
        assert np.allclose(a.cov, b.cov)

    def test_neighbor_order_does_not_matter(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=(15, 3))
        base = _affine_least_squares(x, y)
        perm = rng.permutation(15)
        shuffled = _affine_least_squares(x[perm], y[perm])
        assert np.allclose(base.linear, shuffled.linear)
        assert np.allclose(base.offset, shuffled.offset)

    def test_degenerate_neighbors_flagged(self):
        x = np.ones((10, 2))
        y = np.ones((10, 2))
        # RIDGE keeps the coincident-neighbour system solvable
        model = _affine_least_squares(x, y)
        assert np.all(np.isfinite(model.linear))

    def test_no_lookahead_leakage(self):
        # neighbors whose shifted partner would leave the block are excluded
        train = affine_trajectory(np.array([[1.1]]), np.array([0.0]), [1.0], 16)
        last = train.points[-1, 0]
        model = fit_local_affine(train, np.array([last]), 2, k=14)
        assert np.all(np.isfinite(model.linear))
        with pytest.raises(ValueError, match="usable"):
            fit_local_affine(train, np.array([last]), 2, k=15)

    def test_lorenz_iterated_covariance_inflates(self):
        ts = simulate_lorenz63(n_samples=3000, dt_sample=0.1, seed=2)
        clim_var = ts.points.var(axis=0).mean()
        init = GaussianState.isotropic(ts.points[1500], 0.01)
        traces = []
        for lead in (5, 30, 60):
            out = iterated_local_linear_forecast(ts, init, lead, k=15)
            traces.append(np.trace(out.cov) / 3.0)
        assert traces[0] < traces[1] < traces[2]
        assert traces[2] > clim_var  # chained linearizations overshoot climatology

    @pytest.mark.parametrize("forecast", [local_linear_forecast, iterated_local_linear_forecast])
    @pytest.mark.parametrize("lead", [1, 2, 5])
    def test_conjugated_covariance_is_symmetric(self, forecast, lead):
        # at this covariance scale the rounding asymmetry of lin @ cov @ lin.T
        # exceeds GaussianState's absolute 1e-12 symmetry tolerance
        lin = np.array([[0.6, -0.7, 0.2], [0.7, 0.5, -0.3], [0.1, 0.3, 0.8]])
        train = affine_trajectory(lin, np.array([0.3, -0.1, 0.2]), [4.0, 0.0, 1.0], 200)
        root = np.array([[1.0, 0.3, -0.2], [0.0, 2.0, 0.5], [0.0, 0.0, 3.0]])
        init = GaussianState(mean=train.points[50], cov=1e6 * root @ root.T)
        out = forecast(train, init, lead)
        assert np.array_equal(out.cov, out.cov.T)


def lorenz_train_and_states(n_states=6):
    ts = simulate_lorenz63(n_samples=900, dt_sample=0.1, seed=11)
    rng = np.random.default_rng(12)
    states = ts.points[::150][:n_states] + rng.normal(0.0, 0.1, (n_states, 3))
    return ts, states


class TestBatches:
    @pytest.mark.parametrize("forecast", [local_linear_forecast, iterated_local_linear_forecast])
    @pytest.mark.parametrize("per_state_cov", [False, True], ids=["shared", "per-state"])
    def test_batch_equals_single_state_calls(self, forecast, per_state_cov):
        train, states = lorenz_train_and_states()
        if per_state_cov:
            roots = np.random.default_rng(13).normal(0.0, 0.1, (len(states), 3, 3))
            covs = roots @ np.swapaxes(roots, -1, -2)
        else:
            covs = np.broadcast_to(0.01 * np.eye(3), (len(states), 3, 3))
        batch_init = GaussianState(mean=states, cov=covs if per_state_cov else covs[0])
        for lead in (0, 1, 4, 9):
            batch = forecast(train, batch_init, lead)
            assert batch.mean.shape == states.shape
            for b, (mean, cov) in enumerate(zip(states, covs)):
                single = forecast(train, GaussianState(mean=mean, cov=cov), lead)
                assert np.array_equal(batch.mean[b], single.mean)
                assert np.array_equal(batch.cov if batch.cov.ndim == 2 else batch.cov[b],
                                      single.cov)

    def test_ladder_step_equals_restart(self):
        train, states = lorenz_train_and_states(3)
        for init in (GaussianState.isotropic(states[0], 0.01),
                     GaussianState.isotropic(states, 0.01)):
            ladder = iterated_local_linear_ladder(train, init.mean, 6)
            for lead, (mean, linear) in enumerate(ladder):
                restart = iterated_local_linear_forecast(train, init, lead)
                walked = init.propagate(mean, linear)
                assert np.array_equal(walked.mean, restart.mean)
                assert np.array_equal(walked.cov, restart.cov)

    def test_batch_fit_is_one_neighbour_search(self, monkeypatch):
        from diffusion_forecast import baselines

        train, states = lorenz_train_and_states()
        calls = []
        real = baselines.knn_points

        def counting(*args, **kwargs):
            calls.append(kwargs["query"].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "knn_points", counting)
        model = fit_local_affine(train, states, 3)
        assert calls == [states.shape]
        assert model.linear.shape == (len(states), 3, 3)
        assert model.offset.shape == states.shape
        assert model.fit_residual.shape == (len(states),)
        # a single state makes one one-row search per direct forecast and
        # per step of the iterated ladder
        init = GaussianState.isotropic(states[0], 0.01)
        calls.clear()
        local_linear_forecast(train, init, 5)
        assert calls == [(1, 3)]
        calls.clear()
        for step, _ in enumerate(iterated_local_linear_ladder(train, init.mean, 4)):
            assert calls == [(1, 3)] * step

    @pytest.mark.parametrize("cov, match", [
        (np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
                   [[1.0, 0.0], [0.0, -1.0]]]), "state 2 must be positive semidefinite"),
        (np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]],
                   [[1.0, 0.0], [0.0, 1.0]]]), "state 1 must be symmetric"),
    ], ids=["indefinite", "asymmetric"])
    def test_bad_state_in_batch_is_named(self, cov, match):
        with pytest.raises(ValueError, match=match):
            GaussianState(mean=np.zeros((3, 2)), cov=cov)

    def test_non_finite_affine_state_is_named(self):
        linear = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(ValueError, match="state 2 has non-finite"):
            AffineModel(linear=linear, offset=np.zeros((3, 2)), fit_residual=np.zeros(3))

    def test_blown_up_ensemble_member_names_its_state(self):
        model = ODEModel(dim=1, rhs=lambda x: (x * x,))
        init = GaussianState.isotropic(np.array([[0.0], [0.0], [50.0]]), 1e-4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="member of state 2"):
                ensemble_forecast(model, init, 10, 6, rng_seed=0, dt_sample=1.0)

    @pytest.mark.parametrize("model, mean, observable", [
        (torus_model(), np.array([1.0, 2.0]), lambda s: torus_embed(s)[:, [0, 2]]),
        (lorenz_model(), np.array([1.0, 1.0, 25.0]), None),
    ], ids=["torus", "lorenz"])
    def test_one_state_batch_equals_single_state(self, model, mean, observable):
        runs = [
            ensemble_forecast(model, GaussianState.isotropic(m, 0.05), 60, 3, rng_seed=8,
                              dt_sample=0.1, substeps=5, observable=observable)
            for m in (mean, mean[None, :])
        ]
        assert runs[1].mean.shape == runs[0].mean.shape + (1,)
        assert np.array_equal(runs[1].mean[..., 0], runs[0].mean)
        assert np.array_equal(runs[1].variance[..., 0], runs[0].variance)


class TestGaussianState:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_psd_enforced(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rounding_level_negative_eigenvalue_accepted(self):
        # eigenvalue ratio -8e-17: rounding of a chained local-linear
        # covariance, below the absolute 1e-10 but far inside the scaled floor
        cov = np.diag([6.1e8, -5e-8])
        assert np.array_equal(GaussianState(mean=np.zeros(2), cov=cov).cov, cov)

    @pytest.mark.parametrize("eigs", [(1.0, -1e-3), (6.1e8, -1e3), (1e-6, -1e-9)])
    def test_indefinite_rejected_at_any_scale(self, eigs):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianState(mean=np.zeros(2), cov=np.diag(eigs))

    def test_isotropic_builder(self):
        g = GaussianState.isotropic(np.array([1.0, 2.0]), 0.25)
        assert np.array_equal(g.cov, 0.25 * np.eye(2))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, entry, bad):
        # LAPACK's eigvalsh returns [0, -0] for [[nan, 0], [0, 1]], so only the
        # symmetry test can catch it
        cov = np.eye(2)
        cov[entry] = cov[entry[::-1]] = bad
        with pytest.raises(ValueError, match="covariance has non-finite"):
            GaussianState(mean=np.zeros(2), cov=cov)

    def test_non_finite_covariance_of_a_batch_state_is_named(self):
        cov = np.stack([np.eye(2)] * 3)
        cov[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="covariance of state 1 has non-finite"):
            GaussianState(mean=np.zeros((3, 2)), cov=cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="mean has non-finite"):
            GaussianState(mean=np.array([0.0, bad]), cov=np.eye(2))

    def test_non_finite_mean_of_a_batch_state_is_named(self):
        mean = np.zeros((3, 2))
        mean[2, 1] = np.nan
        with pytest.raises(ValueError, match="mean of state 2 has non-finite"):
            GaussianState(mean=mean, cov=np.eye(2))

    def test_huge_finite_mean_accepted(self):
        # its sum of squares overflows; the exact finiteness test must decide
        mean = np.array([1e200, -1e200])
        assert np.array_equal(GaussianState(mean=mean, cov=np.eye(2)).mean, mean)


class TestEnsembleForecast:
    def test_frozen_dynamics_keeps_moments(self):
        model = SDEModel(
            dim=2,
            drift=lambda x: np.zeros_like(x),
            diffusion=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
        )
        init = GaussianState(mean=np.array([1.0, -1.0]), cov=np.diag([0.09, 0.04]))
        mf = ensemble_forecast(model, init, n_ens=4000, lead_steps=5, rng_seed=0,
                               dt_sample=0.5)
        for lead in range(6):
            assert np.array_equal(mf.mean[lead], mf.mean[0])
            assert np.array_equal(mf.variance[lead], mf.variance[0])
        assert np.allclose(mf.mean[0], init.mean, atol=3 * 0.3 / np.sqrt(4000))

    def test_brownian_variance_within_three_se(self):
        model = SDEModel(
            dim=1,
            drift=lambda x: np.zeros_like(x),
            diffusion=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        )
        n_ens = 4000
        init = GaussianState.isotropic(np.array([0.0]), 0.25)
        mf = ensemble_forecast(model, init, n_ens=n_ens, lead_steps=4, rng_seed=1,
                               dt_sample=0.5, substeps=5)
        for lead, t in enumerate(mf.lead_times):
            expected = 0.25 + t
            se = expected * np.sqrt(2.0 / (n_ens - 1))
            assert abs(mf.variance[lead, 0] - expected) < 3 * se

    @pytest.mark.parametrize("model, init, observable, substeps, shape", [
        # 2 states with their own covariances, as the batch SDE case
        (torus_model(), GaussianState(mean=np.array([[1.0, 2.0], [4.0, 0.5]]),
                                      cov=np.array([np.diag([0.1, 0.2]), np.diag([0.05, 0.1])])),
         lambda s: torus_embed(s)[:, [0, 2]], 5, (4, 2, 2)),
        (lorenz_model(), GaussianState.isotropic(np.array([1.0, 1.0, 25.0]), 0.01), None, 10,
         (4, 3)),
    ], ids=["torus-batch", "lorenz"])
    def test_one_step_call_per_lead(self, monkeypatch, model, init, observable, substeps, shape):
        # the traced benchmark wraps baselines.sde_step_batch, so every step
        # goes through the module-level names: one call per lead, all members
        from diffusion_forecast import baselines

        calls = {"sde_step_batch": 0, "rk4_step_batch": 0}
        for name in calls:
            real = getattr(baselines, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(baselines, name, counting)
        lead_steps = 3
        mf = ensemble_forecast(model, init, 3000, lead_steps, rng_seed=7, dt_sample=0.1,
                               substeps=substeps, observable=observable)
        stepper = "sde_step_batch" if isinstance(model, SDEModel) else "rk4_step_batch"
        assert calls == {name: lead_steps if name == stepper else 0 for name in calls}
        assert mf.mean.shape == mf.variance.shape == shape
        assert np.all(mf.variance > 0)

    def test_monte_carlo_error_shrinks_with_members(self):
        model = SDEModel(
            dim=1,
            drift=lambda x: np.zeros_like(x),
            diffusion=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        )
        init = GaussianState.isotropic(np.array([0.0]), 0.0)

        def spread_of_means(n_ens, base_seed):
            outs = [
                ensemble_forecast(model, init, n_ens, 1, rng_seed=base_seed + r,
                                  dt_sample=1.0).mean[1, 0]
                for r in range(24)
            ]
            return np.std(outs)

        ratio = spread_of_means(1000, 100) / spread_of_means(250, 400)
        assert ratio < 0.8  # quadrupling members roughly halves the error

    def test_observable_mapping(self):
        model = ODEModel(dim=3, rhs=lambda x, y, z: (0.0, 0.0, 0.0))
        init = GaussianState.isotropic(np.array([1.0, 2.0, 3.0]), 0.01)
        mf = ensemble_forecast(model, init, 500, 2, rng_seed=2, dt_sample=0.1,
                               observable=lambda s: s[:, [2]])
        assert mf.mean.shape == (3, 1)
        assert mf.mean[0, 0] == pytest.approx(3.0, abs=0.02)

    def test_ode_model_integrates(self):
        init = GaussianState.isotropic(np.array([1.0, 1.0, 25.0]), 0.01)
        mf = ensemble_forecast(lorenz_model(), init, 200, 3, rng_seed=3,
                               dt_sample=0.1, substeps=10)
        assert np.all(np.isfinite(mf.mean))


def test_affine_model_validation():
    with pytest.raises(ValueError, match="finite"):
        AffineModel(linear=np.array([[np.inf]]), offset=np.zeros(1), fit_residual=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        AffineModel(linear=np.eye(1), offset=np.zeros(1), fit_residual=-1.0)


@pytest.mark.parametrize("residual", [np.nan, np.array([0.0, np.nan])], ids=["one", "batch"])
def test_affine_model_rejects_nan_residual(residual):
    batch = np.shape(residual)
    with pytest.raises(ValueError, match="nonnegative, not NaN"):
        AffineModel(linear=np.tile(np.eye(1), batch + (1, 1)), offset=np.zeros(batch + (1,)),
                    fit_residual=residual)

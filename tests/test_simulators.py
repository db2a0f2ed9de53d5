import math
import re

import numpy as np
import pytest

from _oracles import euler_maruyama_series, lorenz63_rk4_series
from diffusion_forecast import simulators
from diffusion_forecast.simulators import (
    ODEModel,
    SDEModel,
    TWO_PI,
    euler_maruyama,
    lorenz_model,
    rk4_step_batch,
    sde_step_batch,
    simulate_lorenz63,
    simulate_torus,
    torus_embed,
    torus_model,
)


def constant_sde():
    return SDEModel(
        dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
    )


def brownian_sde():
    return SDEModel(
        dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.ones(x.shape[:-1] + (1, 1)),
    )


def ou_sde():
    return SDEModel(
        dim=1,
        drift=lambda x: -x,
        diffusion=lambda x: np.ones(x.shape[:-1] + (1, 1)),
    )


def circle_sde():
    return SDEModel(
        dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.full(x.shape[:-1] + (1, 1), np.sqrt(2.0)),
        wrap=np.array([TWO_PI]),
    )


SDE_CASES = {
    "circle": (circle_sde, np.array([0.5]), 1.0, 10),
    "ou": (ou_sde, np.array([0.3]), 0.2, 4),
    "torus": (torus_model, np.array([1.0, 5.5]), 0.1, 10),
}


class TestEulerMaruyama:
    def test_zero_drift_zero_diffusion_constant(self):
        ts = euler_maruyama(constant_sde(), np.array([1.5]), 0.1, 5, 20, seed=0)
        assert np.allclose(ts.points, 1.5)

    def test_brownian_variance_grows_linearly(self):
        # 10^4 paths to t = 1; sample variance of x(1) should be 1
        rng = np.random.default_rng(0)
        n_paths, substeps = 10000, 10
        from diffusion_forecast.simulators import sde_step_batch

        x = np.zeros((n_paths, 1))
        noise = rng.standard_normal((substeps, n_paths, 1))
        x = sde_step_batch(brownian_sde(), x, 1.0, substeps, noise)
        var = x.var()
        se = np.sqrt(2.0 / (n_paths - 1))
        assert abs(var - 1.0) < 3 * se

    def test_ou_stationary_variance(self):
        ts = euler_maruyama(ou_sde(), np.array([0.0]), 0.2, 10, 20000, seed=3)
        assert abs(ts.points.var() - 0.5) / 0.5 < 0.05

    def test_deterministic_given_seed(self):
        a = euler_maruyama(ou_sde(), np.array([0.3]), 0.1, 4, 50, seed=9)
        b = euler_maruyama(ou_sde(), np.array([0.3]), 0.1, 4, 50, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_weak_error_shrinks_with_substeps(self):
        # OU mean after t=1 from x0=1 is exp(-1); the Euler bias halves when
        # the internal step halves
        n_paths = 100000
        from diffusion_forecast.simulators import sde_step_batch

        biases = []
        for substeps in (4, 8):
            rng = np.random.default_rng(17)
            x = np.ones((n_paths, 1))
            noise = rng.standard_normal((substeps, n_paths, 1))
            x = sde_step_batch(ou_sde(), x, 1.0, substeps, noise)
            biases.append(abs(x.mean() - np.exp(-1.0)))
        assert biases[1] < biases[0]

    def test_nonfinite_state_reports_step(self):
        blowup = SDEModel(
            dim=1,
            drift=lambda x: x**3,
            diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        )
        # x**3 itself overflows on the way to the non-finite state
        with pytest.raises(FloatingPointError, match="sample"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            euler_maruyama(blowup, np.array([5.0]), 1.0, 4, 50, seed=0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            euler_maruyama(constant_sde(), np.array([0.0]), 0.1, 0, 5, seed=0)
        with pytest.raises(ValueError):
            euler_maruyama(constant_sde(), np.array([0.0]), -0.1, 2, 5, seed=0)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_rejected_before_any_draw(self, n_samples):
        rng, untouched = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
            euler_maruyama(ou_sde(), np.array([0.0]), 0.1, 2, n_samples, rng)
        assert rng.standard_normal() == untouched.standard_normal()

    def test_x0_of_the_wrong_size_is_named(self):
        with pytest.raises(ValueError, match="x0 has 1 components, the model has dim 2"):
            euler_maruyama(torus_model(), np.array([0.5]), 0.1, 2, 5, seed=0)

    @pytest.mark.parametrize("case", sorted(SDE_CASES))
    def test_series_equals_per_sample_array_steps_bitwise(self, case):
        make, x0, dt, substeps = SDE_CASES[case]
        ts = euler_maruyama(make(), x0, dt, substeps, 300, seed=11)
        expected = euler_maruyama_series(make(), x0, dt, substeps, 300,
                                         np.random.default_rng(11))
        assert ts.points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", sorted(SDE_CASES))
    def test_generator_is_left_where_per_sample_draws_leave_it(self, case, monkeypatch):
        # blocks of 7 samples: 40 samples end on a partial block
        monkeypatch.setattr(simulators, "rows_per_block", lambda width: 7)
        make, x0, dt, substeps = SDE_CASES[case]
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        ts = euler_maruyama(make(), x0, dt, substeps, 40, rng)
        expected = euler_maruyama_series(make(), x0, dt, substeps, 40, oracle_rng)
        assert ts.points.tobytes() == expected.tobytes()
        assert rng.standard_normal() == oracle_rng.standard_normal()

    def test_one_step_call_per_sample_through_the_module(self, monkeypatch):
        # the traced benchmark counts simulators.sde_step_batch calls
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return sde_step_batch(*args)

        monkeypatch.setattr(simulators, "sde_step_batch", counted)
        euler_maruyama(torus_model(), np.array([1.0, 2.0]), 0.1, 3, 25, seed=0)
        assert calls == [(1, 2)] * 25

    def test_seed_sequence_label_is_one_deterministic_line(self):
        labels = [euler_maruyama(ou_sde(), np.array([0.0]), 0.1, 2, 3,
                                 np.random.SeedSequence(42).spawn(3)[1]).origin_label
                  for _ in range(2)]
        assert labels[0] == labels[1]
        assert "\n" not in labels[0]
        assert labels[0] == "sde(seed=SeedSequence(entropy=42, spawn_key=(1,)))"

    def test_generator_label_names_no_address(self):
        label = euler_maruyama(ou_sde(), np.array([0.0]), 0.1, 2, 3,
                               np.random.default_rng(1)).origin_label
        assert label == "sde(seed=PCG64)"
        assert euler_maruyama(ou_sde(), np.array([0.0]), 0.1, 2, 3, 7).origin_label == "sde(seed=7)"


def dense_sde():
    # three coordinates: einsum does not sum three products in order, so a
    # lone row keeps the einsum path
    mix = np.arange(1.0, 10.0).reshape(3, 3) / 10.0
    return SDEModel(
        dim=3,
        drift=lambda x: -0.3 * x + np.sin(x),
        diffusion=lambda x: mix * (1.0 + 0.1 * np.cos(x[..., :1, None])),
    )


class TestSdeStep:
    @pytest.mark.parametrize("make", [circle_sde, torus_model, dense_sde],
                             ids=["dim1", "dim2", "dim3"])
    def test_one_row_steps_as_inside_a_batch(self, make):
        # one row of dim <= 2 runs on Python floats, a batch through einsum:
        # same bits
        model = make()
        rng = np.random.default_rng(8)
        batch = rng.uniform(0.0, TWO_PI, size=(400, model.dim))
        noise = rng.standard_normal((10, 400, model.dim))
        stepped = sde_step_batch(model, batch, 0.5, 10, noise)
        alone = np.vstack([sde_step_batch(model, batch[r:r + 1], 0.5, 10, noise[:, r:r + 1])
                           for r in range(400)])
        assert stepped.shape == alone.shape == (400, model.dim)
        assert alone.tobytes() == stepped.tobytes()

    def test_zero_substeps_rejected(self):
        with pytest.raises(ValueError, match="substeps must be >= 1"):
            sde_step_batch(ou_sde(), np.zeros((1, 1)), 0.1, 0, np.zeros((0, 1, 1)))

    @pytest.mark.parametrize("state_shape, noise_shape", [
        ((5, 2), (3, 1, 2)),
        ((1, 2), (4, 1, 2)),
        ((1, 2), (2, 1, 2)),
        ((5, 2), (3, 5, 1)),
        ((5, 2), (3, 10)),
    ], ids=["one-path-for-a-batch", "extra-substeps", "missing-substeps",
            "wrong-dim", "flat"])
    def test_noise_of_the_wrong_shape_rejected(self, state_shape, noise_shape):
        with pytest.raises(ValueError, match="noise has shape"):
            sde_step_batch(torus_model(), np.ones(state_shape), 0.1, 3, np.zeros(noise_shape))

    def test_state_must_be_a_batch(self):
        with pytest.raises(ValueError, match="state must be a"):
            sde_step_batch(torus_model(), np.ones(2), 0.1, 3, np.zeros((3, 2)))

    @pytest.mark.parametrize("make", [circle_sde, torus_model], ids=["dim1", "dim2"])
    @pytest.mark.parametrize("scale", [1.0, 100.0], ids=["near", "far"])
    def test_batch_wraps_as_remainder(self, make, scale):
        # one substep, so the wrap is the last operation: steps that stay in
        # [-p, 2p) are shifted, larger ones go to np.remainder; both give its bits
        model = make()
        free = SDEModel(dim=model.dim, drift=model.drift, diffusion=model.diffusion)
        rng = np.random.default_rng(11)
        batch = rng.uniform(0.0, TWO_PI, size=(500, model.dim))
        noise = scale * rng.standard_normal((1, 500, model.dim))
        want = np.remainder(sde_step_batch(free, batch, 0.5, 1, noise), TWO_PI)
        assert sde_step_batch(model, batch, 0.5, 1, noise).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim, wrap", [
        (2, np.array([TWO_PI])),
        (1, np.array([TWO_PI, TWO_PI])),
        (1, np.array([[TWO_PI]])),
        (2, np.array([[TWO_PI, TWO_PI]])),
        (1, TWO_PI),
    ], ids=["one-period-for-dim-2", "two-periods-for-dim-1", "2-d-for-dim-1", "2-d-for-dim-2",
            "scalar"])
    def test_a_wrap_of_another_shape_is_rejected(self, dim, wrap):
        # a short wrap would leave a coordinate unwrapped without a word, a
        # long or 2-d one fail mid-step
        with pytest.raises(ValueError, match=re.escape(
                f"wrap of shape {np.shape(wrap)} does not give one period per coordinate "
                f"of a dim-{dim} model")):
            SDEModel(dim=dim, drift=lambda x: x, diffusion=lambda x: x, wrap=wrap)


@pytest.mark.parametrize("low, high", [(-20.0, 20.0), (0.0, TWO_PI)])
def test_numpy_and_math_sin_cos_agree_bitwise(low, high):
    # a float path for a model written with np.sin / np.cos would call
    # math.sin / math.cos; on this numpy build they round alike
    x = np.random.default_rng(2).uniform(low, high, size=100_000)
    values = x.tolist()
    assert np.sin(x).tobytes() == np.array([math.sin(v) for v in values]).tobytes()
    assert np.cos(x).tobytes() == np.array([math.cos(v) for v in values]).tobytes()


class TestTorus:
    def test_embedding_identity(self):
        _, embedded = simulate_torus(n_samples=300, substeps=10, seed=1, burn_in=5)
        x, y, z = embedded.points.T
        residual = (np.sqrt(x * x + y * y) - 2.0) ** 2 + z * z - 1.0
        assert np.max(np.abs(residual)) < 1e-12

    def test_intrinsic_embedded_paired(self):
        intrinsic, embedded = simulate_torus(n_samples=100, substeps=5, seed=2, burn_in=0)
        assert np.allclose(torus_embed(intrinsic.points), embedded.points)

    def test_requested_plenty_of_samples(self):
        intrinsic, embedded = simulate_torus(n_samples=250, substeps=5, seed=0, burn_in=10)
        assert intrinsic.n_points == 250
        assert embedded.n_points == 250
        assert intrinsic.tau == embedded.tau == 0.1

    def test_angles_stay_wrapped(self):
        intrinsic, _ = simulate_torus(n_samples=500, substeps=10, seed=3, burn_in=0)
        assert np.all(intrinsic.points >= 0.0)
        assert np.all(intrinsic.points < TWO_PI)

    def test_phase_runs_faster_than_inclination(self):
        intrinsic, _ = simulate_torus(n_samples=2000, substeps=10, seed=4, burn_in=10)
        d = np.diff(intrinsic.points, axis=0)
        d = (d + np.pi) % TWO_PI - np.pi  # unwrap single-step increments
        assert np.mean(np.abs(d[:, 1])) > np.mean(np.abs(d[:, 0]))

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_no_samples_rejected_before_simulating(self, monkeypatch, n_samples):
        def euler_maruyama(*args, **kwargs):
            raise AssertionError("the torus was simulated")

        monkeypatch.setattr(simulators, "euler_maruyama", euler_maruyama)
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
            simulate_torus(n_samples, 0.1, 2)

    def test_negative_burn_in_rejected(self):
        # points[-5:] would silently keep only the last 5 samples
        with pytest.raises(ValueError, match="burn_in"):
            simulate_torus(n_samples=100, substeps=5, burn_in=-5)

    def test_wrap_then_embed_equals_embed(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(-50, 50, size=(200, 2))
        wrapped = np.mod(angles, TWO_PI)
        assert np.allclose(torus_embed(angles), torus_embed(wrapped), atol=1e-12)


class TestLorenz:
    def test_trajectory_bounded_by_trapping_ball(self):
        ts = simulate_lorenz63(n_samples=10000, dt_sample=0.1, seed=0)
        shifted = ts.points - np.array([0.0, 0.0, 38.0])
        assert np.max(np.linalg.norm(shifted, axis=1)) < 45.0

    def test_long_run_mean_of_z(self):
        ts = simulate_lorenz63(n_samples=100000, dt_sample=0.1, seed=1)
        assert abs(ts.points[:, 2].mean() - 23.5) < 0.5

    def test_step_refinement_consistency(self):
        # same sampling times, doubled internal resolution
        x0 = np.array([1.0, 1.0, 1.05])
        a = simulate_lorenz63(n_samples=100, dt_sample=0.1, x0=x0, transient_steps=0)
        model = lorenz_model()
        x = x0.reshape(1, 3)
        for _ in range(100):
            x = rk4_step_batch(model, x, 0.1, 20)
        rel = np.linalg.norm(a.points[-1] - x[0]) / np.linalg.norm(x[0])
        assert rel < 1e-3

    def test_deterministic_given_seed(self):
        a = simulate_lorenz63(n_samples=50, seed=7)
        b = simulate_lorenz63(n_samples=50, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_dt_choices(self):
        for dt in (0.1, 0.5):
            ts = simulate_lorenz63(n_samples=20, dt_sample=dt, seed=0)
            assert ts.tau == dt

    @pytest.mark.parametrize("transient_steps", [0, 1000])
    @pytest.mark.parametrize("dt_sample", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_series_equals_array_rk4_bitwise(self, seed, dt_sample, transient_steps):
        ts = simulate_lorenz63(n_samples=50, dt_sample=dt_sample, seed=seed,
                               transient_steps=transient_steps)
        x0 = np.array([1.0, 1.0, 1.05]) + 1e-3 * np.random.default_rng(seed).standard_normal(3)
        expected = lorenz63_rk4_series(x0, dt_sample, 50, transient_steps)
        assert ts.points.tobytes() == expected.tobytes()

    def test_one_row_steps_as_inside_a_batch(self):
        # one row runs on Python floats, a batch on (B,) columns: same bits
        model = lorenz_model()
        batch = simulate_lorenz63(n_samples=500, dt_sample=0.1, seed=4).points
        stepped = rk4_step_batch(model, batch, 0.1, 10)
        alone = np.vstack([rk4_step_batch(model, row[None, :], 0.1, 10) for row in batch])
        assert stepped.shape == alone.shape == (500, 3)
        assert alone.tobytes() == stepped.tobytes()

    @pytest.mark.parametrize("kwargs, match", [
        (dict(dt_sample=-0.1), "dt_sample"),
        (dict(dt_sample=-0.1, transient_steps=0), "dt_sample"),
        (dict(dt_sample=float("nan")), "dt_sample"),
        (dict(transient_steps=-5), "transient_steps"),
        (dict(x0=np.array([1.0, 1.0])), "x0"),
        (dict(x0=np.array([1.0, np.inf, 1.0])), "x0"),
        (dict(n_samples=0), "n_samples"),
    ], ids=["negative-dt", "negative-dt-no-transient", "nan-dt", "negative-transient",
            "two-component-x0", "infinite-x0", "no-samples"])
    def test_bad_parameters_rejected_before_integrating(self, monkeypatch, kwargs, match):
        def no_integration(*args, **kw):
            raise AssertionError("integrated before validating")

        monkeypatch.setattr(simulators, "rk4_step_batch", no_integration)
        with pytest.raises(ValueError, match=match):
            simulate_lorenz63(**{"n_samples": 10, **kwargs})

    def test_nonfinite_state_reports_sample(self):
        with pytest.raises(FloatingPointError, match="non-finite state at sample 0"):
            simulate_lorenz63(n_samples=5, x0=np.array([1e200, -1e200, 1e200]), transient_steps=0)

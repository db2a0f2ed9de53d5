import io
import json
import zipfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from diffusion_forecast.basis import DiffusionBasis
from diffusion_forecast.dataset import TimeSeries
from diffusion_forecast.forecast import (
    estimate_shift_operator,
    forecast_ladder,
    gaussian_density_values,
    project_density,
)
from diffusion_forecast.pipeline import (
    MODEL_FORMAT_VERSION,
    fit_forecaster,
    fit_record,
    load_model,
    save_model,
)
from diffusion_forecast.simulators import simulate_lorenz63

KEYS = {"format_version", "points", "peq", "lam", "phi", "a", "tau", "metadata"}
# the scalars a format-1 bundle held beside the format-2 entries
FORMAT_1_SCALARS = {"eps": np.float64(0.01), "d": np.float64(2.0), "alpha": np.float64(-0.5),
                    "beta": np.float64(-0.5), "n_pairs": np.int64(199)}


def small_model(n=200, m=4, seed=0):
    """Basis, operator and points of a synthetic model: orthonormal columns
    with (1/N) sum phi^2 = 1 and a constant first column."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2))
    a = rng.normal(size=(n, m))
    a[:, 0] = 1.0
    q, _ = np.linalg.qr(a)
    basis = DiffusionBasis(phi=q * np.sqrt(n), lam=np.arange(m, dtype=float),
                           peq=rng.uniform(0.5, 1.5, n))
    return basis, estimate_shift_operator(basis, tau=0.1), points


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def rewrite(path, drop=(), **changes):
    """Rewrite a saved bundle with some entries replaced or dropped."""
    with np.load(path, allow_pickle=False) as npz:
        entries = {key: npz[key] for key in npz.files if key not in drop}
    entries.update(changes)
    np.savez(path, **entries)


@pytest.fixture(scope="module")
def lorenz_fit():
    """A Lorenz-63 fit on the dense eigensolver path, and its points."""
    points = simulate_lorenz63(1200, seed=5).points
    return fit_forecaster(TimeSeries(points, tau=0.1), 60), points


@pytest.mark.parametrize("m", [0, 301])
def test_a_basis_size_out_of_range_is_rejected_before_the_neighbour_search(monkeypatch, m):
    from diffusion_forecast import pipeline

    def knn(*args):
        raise AssertionError("the neighbour search ran")

    monkeypatch.setattr(pipeline, "knn", knn)
    ts = TimeSeries(np.random.default_rng(0).normal(size=(300, 3)), tau=0.1)
    with pytest.raises(ValueError, match=rf"basis size m={m} out of range \[1, 300\]"):
        fit_forecaster(ts, m)


class TestFitRecord:
    @pytest.mark.parametrize("case", ["circle", "lorenz"])
    def test_strict_json(self, case, circle_fit_3000, lorenz_fit):
        fit = circle_fit_3000 if case == "circle" else lorenz_fit[0]
        record = fit_record(fit)
        assert json.loads(json.dumps(record, allow_nan=False)) == record
        solver = fit.solver
        residual = record["eigensolver"]["max_residual"]
        if case == "circle":
            assert solver.path == "lanczos" and np.isfinite(residual)
        else:
            # the dense path computes no residual: null, not NaN
            assert solver.path == "dense" and residual is None
        assert record == {
            "kde": {"eps": fit.kde_tuning.eps_star, "d": fit.kde_tuning.d_est,
                    "boundary_warning": fit.kde_tuning.boundary_warning,
                    "plateau": fit.kde_tuning.plateau},
            "vb": {"eps": fit.vb_tuning.eps_star, "d": fit.vb_tuning.d_est,
                   "boundary_warning": fit.vb_tuning.boundary_warning,
                   "plateau": fit.vb_tuning.plateau},
            "eigensolver": {"path": solver.path, "matvecs": solver.matvecs,
                            "max_residual": residual, "gram_deviation": solver.gram_deviation},
            "lambda_edge": solver.lambda_edge,
            "m_eff": solver.m_eff,
            "rows_at_cap": fit.rows_at_cap,
            "table_saturation": min(fit.basis.n_points, 1024) / fit.basis.n_points,
            "eps_follows_cap": False,
        }
        # the deviation build_basis gated, of the columns before the basis
        # copied them row-major, so a recomputation differs by rounding only
        phi = fit.basis.phi
        gram = phi.T @ phi / phi.shape[0]
        assert 0 <= solver.gram_deviation <= 1e-8
        assert solver.gram_deviation == pytest.approx(np.max(np.abs(gram - np.eye(phi.shape[1]))),
                                                      abs=1e-13)
        assert record["m_eff"] == np.count_nonzero(fit.basis.lam < record["lambda_edge"])
        assert 1 <= record["m_eff"] <= fit.basis.n_basis

    @pytest.mark.parametrize("case", ["circle", "lorenz"])
    def test_fitted_tunings_have_no_plateau(self, case, circle_fit_3000, lorenz_fit):
        fit = circle_fit_3000 if case == "circle" else lorenz_fit[0]
        record = fit_record(fit)
        assert record["kde"]["plateau"] is False and record["vb"]["plateau"] is False

    def test_rows_cut_at_the_neighbour_cap(self, circle_fit_3000):
        # 3000 circle points: the 1024-wide table cuts rows whose last
        # neighbour the kernel still keeps; 1000 points: the table holds all
        assert 0 < fit_record(circle_fit_3000)["rows_at_cap"] < 3000
        fit = fit_forecaster(TimeSeries(simulate_lorenz63(1000, seed=5).points, tau=0.1), 10)
        assert fit_record(fit)["rows_at_cap"] == 0


    def test_a_table_that_saturates_low_flags_the_eps(self, monkeypatch):
        # 64 of 400 points: the kernel sums saturate at 0.16, below 0.30
        from diffusion_forecast import pipeline

        monkeypatch.setattr(pipeline, "NEIGHBOR_CAP", 64)
        fit = fit_forecaster(TimeSeries(simulate_lorenz63(400, seed=5).points, tau=0.1), 10)
        record = fit_record(fit)
        assert record["table_saturation"] == 64 / 400
        assert record["eps_follows_cap"] is True

    @pytest.mark.parametrize("n, flagged", [(2000, False), (3000, False), (3400, False),
                                            (3500, True), (5500, True), (8000, True)],
                             ids=["lorenz-skill", "circle-spectrum", "3400", "3500",
                                  "desk-lorenz", "desk-torus"])
    def test_the_flag_is_set_below_a_saturation_of_0_30(self, lorenz_fit, n, flagged):
        # the record reads N from the basis; a stand-in basis of n points
        fit = lorenz_fit[0]
        fake = SimpleNamespace(n_points=n)
        record = fit_record(replace(fit, basis=fake))
        assert record["table_saturation"] == min(n, 1024) / n
        assert record["eps_follows_cap"] is flagged


class TestModelBundle:
    def test_round_trip_bitwise(self, tmp_path, circle_fit_3000, circle_series_3000):
        fit = circle_fit_3000
        metadata = {"source": "circle", "lags": 1, "fit": fit_record(fit)}
        path = save_model(tmp_path / "circle.npz", fit.basis, fit.operator,
                          circle_series_3000.points, metadata)
        with np.load(path, allow_pickle=False) as npz:
            assert set(npz.files) == KEYS
            assert npz["format_version"] == MODEL_FORMAT_VERSION
        basis, op, points, meta = load_model(path)
        for name in ("phi", "lam", "peq"):
            assert np.array_equal(getattr(basis, name), getattr(fit.basis, name))
        assert np.array_equal(op.a, fit.operator.a)
        assert op.tau == fit.operator.tau
        assert np.array_equal(points, circle_series_3000.points)
        assert meta == metadata

    @pytest.mark.parametrize("case", ["circle", "lorenz"])
    def test_forecast_from_fit_equals_forecast_from_bundle(self, tmp_path, case, circle_fit_3000,
                                                           circle_series_3000, lorenz_fit):
        if case == "circle":
            fit, points, var = circle_fit_3000, circle_series_3000.points, 0.1
        else:
            (fit, points), var = lorenz_fit, 0.5
        # the circle fit takes the Lanczos path and the Lorenz fit the dense one
        assert fit.solver.path == {"circle": "lanczos", "lorenz": "dense"}[case]
        assert fit.basis.phi.flags.c_contiguous
        path = save_model(tmp_path / "model.npz", fit.basis, fit.operator, points)
        basis, op, _, _ = load_model(path)
        values = gaussian_density_values(points, points[3], var)
        want = forecast_ladder(project_density(values, fit.basis), fit.operator, fit.basis,
                               points, 20)
        got = forecast_ladder(project_density(values, basis), op, basis, points, 20)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.variance, want.variance)

    def test_bytes_are_deterministic(self, tmp_path):
        model = small_model()
        first = save_model(tmp_path / "a.npz", *model, {"lags": 2})
        second = save_model(tmp_path / "b.npz", *model, {"lags": 2})
        assert first.read_bytes() == second.read_bytes()
        with zipfile.ZipFile(first) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_written_to_exactly_the_given_path(self, tmp_path):
        # two models whose names differ only after a dot stay apart
        save_model(tmp_path / "model.m3.npz", *small_model(m=3))
        save_model(tmp_path / "model.m5.npz", *small_model(m=5))
        save_model(tmp_path / "plain", *small_model(m=2))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.m3.npz", "model.m5.npz", "plain"]
        assert load_model(tmp_path / "model.m3.npz")[0].n_basis == 3
        assert load_model(tmp_path / "model.m5.npz")[0].n_basis == 5
        assert load_model(tmp_path / "plain")[0].n_basis == 2

    @pytest.mark.parametrize("change, match", [
        pytest.param(lambda e: {"points": e["points"][:-1]}, "points has shape", id="N-points"),
        pytest.param(lambda e: {"peq": e["peq"][:-1]}, "peq has shape", id="N-peq"),
        pytest.param(lambda e: {"lam": np.append(e["lam"], 9.0)}, "lam has shape", id="M-lam"),
        pytest.param(lambda e: {"a": e["a"][:-1, :-1]}, "a has shape", id="M-a"),
        pytest.param(lambda e: {"tau": np.array([0.1])}, "tau has shape", id="tau-vector"),
        pytest.param(lambda e: {"tau": np.float64(0.0)}, "tau must be positive", id="tau-zero"),
        pytest.param(lambda e: {"tau": np.float64(-0.1)}, "tau must be positive", id="tau-negative"),
        pytest.param(lambda e: {"format_version": np.int64(MODEL_FORMAT_VERSION + 1)},
                     "format_version", id="version"),
        pytest.param(lambda e: {"format_version": np.int64(MODEL_FORMAT_VERSION - 1),
                                **FORMAT_1_SCALARS},
                     f"format_version {MODEL_FORMAT_VERSION - 1} is not {MODEL_FORMAT_VERSION}; "
                     "rebuild the model with build-basis", id="format-1"),
        pytest.param(lambda e: {"phi": np.where(np.eye(*e["phi"].shape) > 0, np.nan, e["phi"])},
                     "finite", id="phi-nan"),
        pytest.param(lambda e: {"tau": np.float64(np.inf)}, "finite", id="tau-inf"),
        pytest.param(lambda e: {"peq": -e["peq"]}, "must be positive", id="peq-negative"),
        pytest.param(lambda e: {"metadata": np.array(json.dumps([1]))}, "JSON object",
                     id="metadata-list"),
    ])
    def test_corrupted_entry_rejected(self, tmp_path, change, match):
        path = save_model(tmp_path / "m.npz", *small_model())
        with np.load(path, allow_pickle=False) as npz:
            entries = {key: npz[key] for key in npz.files}
        rewrite(path, **change(entries))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    @pytest.mark.parametrize("key, match", [
        ("a", "missing a"), ("tau", "missing tau"), ("metadata", "missing metadata"),
        ("format_version", "format_version"),
    ])
    def test_missing_key_rejected(self, tmp_path, key, match):
        path = save_model(tmp_path / "m.npz", *small_model())
        rewrite(path, drop=(key,))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda tmp: b"", id="empty"),
        pytest.param(lambda tmp: b"lead,truth\n0,1\n", id="csv"),
        pytest.param(lambda tmp: b"PK\x03\x04" + b"\x00" * 40, id="zip-magic-only"),
        pytest.param(lambda tmp: npy_bytes(np.ones(3)), id="npy"),
        pytest.param(lambda tmp: save_model(tmp / "whole.npz", *small_model()).read_bytes()[:4000],
                     id="truncated-bundle"),
    ])
    def test_non_bundle_file_rejected(self, tmp_path, make):
        path = tmp_path / "m.npz"
        path.write_bytes(make(tmp_path))
        with pytest.raises(ValueError, match="not a model bundle"):
            load_model(path)

    def test_save_refuses_nan_metadata(self, tmp_path):
        # strict JSON: a NaN would be written as the non-standard token NaN
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(tmp_path / "m.npz", *small_model(), {"residual": float("nan")})
        assert not (tmp_path / "m.npz").exists()

    def test_makes_a_missing_nested_directory(self, tmp_path):
        path = save_model(tmp_path / "a" / "b" / "m.npz", *small_model())
        assert path == tmp_path / "a" / "b" / "m.npz"
        assert load_model(path)[0].n_basis == 4

    def test_a_rejected_model_makes_no_directory(self, tmp_path):
        basis, op, points = small_model()
        with pytest.raises(ValueError, match="points has shape"):
            save_model(tmp_path / "a" / "m.npz", basis, op, points[:-1])
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(tmp_path / "a" / "m.npz", basis, op, points, {"x": float("nan")})
        assert not (tmp_path / "a").exists()

    def test_save_refuses_inconsistent_model(self, tmp_path):
        basis, op, points = small_model()
        with pytest.raises(ValueError, match="points has shape"):
            save_model(tmp_path / "m.npz", basis, op, points[:-1])
        assert not (tmp_path / "m.npz").exists()

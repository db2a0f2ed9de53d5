"""Skill metrics, and reading experiment configuration files."""

import numpy as np
import pytest

from diffusion_forecast.evaluation import rmse_and_correlation
from diffusion_forecast.experiments import LorenzConfig, NinoConfig, TorusConfig, load_config


def test_a_degenerate_lead_is_flagged_and_reads_zero():
    truth = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])]
    forecast = [np.array([1.5, 2.5, 2.0]), np.full(3, 2.0)]  # a constant forecast at lead 2
    report = rmse_and_correlation(truth, forecast, [1, 2])
    assert report.degenerate.tolist() == [False, True]
    assert report.correlation[0] == np.corrcoef(truth[0], forecast[0])[0, 1]
    assert report.correlation[1] == 0.0
    assert report.rmse.tolist() == [np.sqrt(1.5 / 3), np.sqrt(5.0 / 3)]
    assert report.lead_times.tolist() == [1.0, 2.0]
    # no forecast spread given
    assert np.isnan(report.mean_forecast_stdev).all()


def test_climatology_overrides_the_pooled_truth():
    truth = [np.array([0.0, 2.0]), np.array([1.0, 3.0])]
    forecast = [np.array([0.5, 1.5]), np.array([1.0, 2.0])]
    assert rmse_and_correlation(truth, forecast, [1, 2]).climatological_stdev == np.std(
        [0.0, 2.0, 1.0, 3.0])
    report = rmse_and_correlation(truth, forecast, [1, 2], climatology=np.array([[0.0], [4.0]]))
    assert report.climatological_stdev == 2.0


def test_state_vectors_aggregate_over_coordinates():
    rng = np.random.default_rng(0)
    truth = [rng.normal(size=(5, 3)) for _ in range(2)]
    forecast = [t + rng.normal(0.0, 0.3, t.shape) for t in truth]
    stdev = [rng.uniform(0.1, 1.0, t.shape) for t in truth]
    report = rmse_and_correlation(truth, forecast, [0.5, 1.0], forecast_stdevs_per_lead=stdev)
    for i, (t, f, s) in enumerate(zip(truth, forecast, stdev)):
        assert report.rmse[i] == np.sqrt(np.mean((f - t) ** 2))
        assert report.correlation[i] == np.corrcoef(t.ravel(), f.ravel())[0, 1]
        assert report.mean_forecast_stdev[i] == np.sqrt(np.mean(s * s))
    assert not report.degenerate.any()


def test_lead_major_arrays_score_as_per_lead_lists():
    rng = np.random.default_rng(1)
    truth = rng.normal(size=(4, 6))
    forecast = truth + rng.normal(0.0, 0.4, truth.shape)
    stdev = rng.uniform(0.1, 1.0, truth.shape)
    leads = [1.0, 2.0, 3.0, 4.0]
    arrays = rmse_and_correlation(truth, forecast, leads, forecast_stdevs_per_lead=stdev)
    lists = rmse_and_correlation(list(truth), list(forecast), leads,
                                 forecast_stdevs_per_lead=list(stdev))
    for name in ("rmse", "correlation", "mean_forecast_stdev", "degenerate"):
        assert getattr(arrays, name).tobytes() == getattr(lists, name).tobytes()
    assert arrays.climatological_stdev == lists.climatological_stdev


# an error names its lead by the lead time given for it, not by its position
@pytest.mark.parametrize("truth, forecast, leads, match", [
    ([np.zeros(3), np.zeros(3)], [np.zeros(3), np.zeros(4)], [1, 2],
     "lead 2: truth and forecast shapes disagree"),
    ([np.zeros(3)], [np.zeros(3)], [1, 2], "one truth/forecast pair required per lead"),
    ([np.zeros(1)], [np.zeros(1)], [1], "lead 1: need at least 2 verification points"),
    ([np.zeros(3), np.zeros(3)], [np.zeros(3), np.zeros(3)], [1, np.nan],
     "lead times must be finite, got nan at position 1"),
    ([np.zeros(3), [0.0, np.nan, 0.0]], [np.zeros(3), np.zeros(3)], [1, 2],
     "lead 2: truth has non-finite entries"),
    ([np.zeros(3), np.zeros(3)], [[0.0, 0.0, np.inf], np.zeros(3)], [1, 2],
     "lead 1: forecast has non-finite entries"),
    ([], [], [], "need at least one lead"),
    ([1.0, 2.0], [1.0, 2.0], [1, 2], "lead 1: need at least 2 verification points"),
    ([np.zeros(3), [0.0, np.nan, 0.0]], [np.zeros(3), np.zeros(3)], [0.5, 12],
     "lead 12: truth has non-finite entries"),
], ids=["shapes", "lead-count", "one-point", "nan-lead", "nan-truth", "inf-forecast",
        "no-leads", "float-per-lead", "leads-not-from-0"])
def test_bad_skill_inputs_are_rejected(truth, forecast, leads, match):
    with pytest.raises(ValueError, match=match):
        rmse_and_correlation(truth, forecast, leads)


@pytest.mark.parametrize("bad", [-0.2, np.nan, np.inf])
def test_a_negative_or_non_finite_stdev_is_rejected(bad):
    stdevs = [np.full(3, 0.1), [0.1, bad, 0.1]]
    with pytest.raises(ValueError, match="lead 2: forecast stdev must be nonnegative and finite"):
        rmse_and_correlation([np.arange(3.0)] * 2, [np.arange(3.0)] * 2, [1, 2],
                             forecast_stdevs_per_lead=stdevs)


# a stdev entry per lead, shaped like the forecast; a missing, surplus or
# misshapen entry is named by its lead time
@pytest.mark.parametrize("stdevs, match", [
    ([np.full(5, 0.1)], r"lead 3: no forecast stdev; 1 given for 2 leads"),
    ([np.full(5, 0.1)] * 3, r"lead 3: forecast stdevs run past the last lead; 3 given for 2 leads"),
    ([np.full(5, 0.1), np.full(1, 0.1)],
     r"lead 3: forecast stdev of shape \(1,\) is not shaped like the forecast, \(5,\)"),
    ([np.full((5, 1), 0.1), np.full(5, 0.1)],
     r"lead 0.5: forecast stdev of shape \(5, 1\) is not shaped like the forecast, \(5,\)"),
    ([0.1, np.full(5, 0.1)],
     r"lead 0.5: forecast stdev of shape \(\) is not shaped like the forecast, \(5,\)"),
], ids=["short", "long", "one-entry", "column", "scalar"])
def test_a_stdev_not_matching_the_forecast_is_named(stdevs, match):
    truth = [np.arange(5.0)] * 2
    with pytest.raises(ValueError, match=match):
        rmse_and_correlation(truth, truth, [0.5, 3], forecast_stdevs_per_lead=stdevs)


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_values_take_the_type_of_their_key(tmp_path):
    path = write(tmp_path, "# desk run\n"
                           "with_ensemble = no\n"
                           "n_basis = 30  # small\n"
                           "dt = 0.25\n"
                           "\n"
                           "out_dir = runs/a b\n")
    config = load_config(path, LorenzConfig(with_ensemble=True))
    assert config.with_ensemble is False
    assert config.n_basis == 30 and type(config.n_basis) is int
    assert config.dt == 0.25
    assert config.out_dir == "runs/a b"
    assert config.n_samples == LorenzConfig().n_samples


@pytest.mark.parametrize("base, text, line, match", [
    (LorenzConfig(), "n_basis = 30\nbasis_size = 4\n", 2, "unknown config key 'basis_size'"),
    (LorenzConfig(), "n_basis = 30\n\nseed 4\n", 3, "expected 'key = value'"),
    (LorenzConfig(), "dt = 0.1\nn_basis = abc\n", 2, "config key n_basis: expected int, got 'abc'"),
    (LorenzConfig(), "dt = fast\n", 1, "config key dt: expected float, got 'fast'"),
    (LorenzConfig(), "# flags\nwith_ensemble = maybe\n", 2,
     "config key with_ensemble: expected bool, got 'maybe'"),
    # the driver a config is passed to is its experiment; paper_scale picks the paper's sizes
    (TorusConfig(), "# run\nexperiment = torus\n", 2, "unknown config key 'experiment'"),
    (LorenzConfig(), "paper_scale = true\n", 1, "unknown config key 'paper_scale'"),
    # a key of another driver's config is one this driver would ignore
    (TorusConfig(), "n_basis = 30\nwith_ensemble = false\n", 2,
     "unknown config key 'with_ensemble'"),
    (NinoConfig(), "n_samples = 600\n", 1, "unknown config key 'n_samples'"),
    # the second value of a key would override the first without a word
    (TorusConfig(), "seed = 1\nn_basis = 30\nseed = 2\n", 3,
     r"config key seed is set twice \(first on line 1\)"),
], ids=["unknown-key", "no-equals", "bad-int", "bad-float", "bad-bool", "experiment-key",
        "paper-scale-key", "torus-with-ensemble", "nino-n-samples", "repeated-key"])
def test_a_bad_line_is_named(tmp_path, base, text, line, match):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=match) as err:
        load_config(path, base)
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("base, text, where, match", [
    (LorenzConfig(), "dt = 0.1\nn_basis = 0\n", ":2: ", "n_basis must be >= 1"),
    (LorenzConfig(), "init_variance = -0.5\n", ":1: ", "init_variance must be positive"),
    (LorenzConfig(), "n_basis = 30\ndt = nan\n", ":2: ", "dt must be positive and finite, got nan"),
    (NinoConfig(), "perturbation_variance = inf\n", ":1: ",
     "perturbation_variance must be positive and finite"),
    (NinoConfig(), "n_basis = 30\ndata_format = fancy\n", ":2: ",
     "data_format must be a dated format, two-column-dated or noaa-monthly-grid, got 'fancy'"),
    (TorusConfig(), "n_basis = 30\nseed = -1\n", ":2: ", "seed must be >= 0"),
    # nino_lead14.csv holds the forecasts at lead 14
    (NinoConfig(), "n_basis = 30\nlead_steps = 13\n", ":2: ", "lead_steps must be >= 14"),
    # a check that ties two keys together names the file only
    (LorenzConfig(), "n_samples = 600\nn_basis = 200\n", ": ",
     r"basis size m=200 out of range \[1, 100\]"),
    (TorusConfig(), "n_samples = 100\nn_basis = 200\n", ": ",
     r"basis size m=200 out of range \[1, 100\]"),
], ids=["below-minimum", "not-positive", "nan-step", "inf-variance",
        "unknown-data-format", "negative-seed", "nino-short-ladder", "cross-field",
        "torus-cross-field"])
def test_a_rejected_value_is_located(tmp_path, base, text, where, match):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=match) as err:
        load_config(path, base)
    assert str(err.value).startswith(f"{path}{where}")


def test_keys_are_checked_together_after_the_last_line(tmp_path):
    # n_samples = 600 alone would leave 100 training points under the base's n_basis = 1000
    config = load_config(write(tmp_path, "n_samples = 600\nn_basis = 50\n"), LorenzConfig())
    assert (config.n_samples, config.n_basis) == (600, 50)

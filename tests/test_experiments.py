"""Smoke tests of the three experiment drivers at tiny sizes: the CSV
headers, the row counts and the manifest keys."""

import json
from dataclasses import replace

import numpy as np
import pytest

from diffusion_forecast.baselines import (
    GaussianState,
    iterated_local_linear_forecast,
    local_linear_forecast,
)
from diffusion_forecast.dataset import split
from diffusion_forecast.experiments import (
    lorenz_config,
    nino_config,
    run_lorenz_experiment,
    run_nino_experiment,
    run_torus_experiment,
    torus_config,
)
from diffusion_forecast.pipeline import fit_record
from diffusion_forecast.simulators import simulate_lorenz63


def _read_csv(path):
    lines = path.read_text().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _manifest_keys(path):
    return set(json.loads(path.read_text()))


def _check_fit_record(record, fit):
    """The manifest's fit entry is the fit's record, through a JSON round trip."""
    assert record == fit_record(fit)
    assert 1 <= record["m_eff"] <= fit.basis.n_basis


def test_torus_experiment(tmp_path):
    config = replace(torus_config(), n_samples=1200, n_basis=40, n_ens=300,
                     lead_steps=10, substeps=5)
    result = run_torus_experiment(config, out_dir=tmp_path)
    header, rows = _read_csv(result.csv_path)
    assert header == ["lead_time",
                      "diff_mean_x", "diff_stdev_x", "diff_mean_z", "diff_stdev_z",
                      "ens_mean_x", "ens_stdev_x", "ens_mean_z", "ens_stdev_z"]
    assert rows.shape == (11, 9)
    assert np.all(np.isfinite(rows))
    assert np.allclose(rows[:, 0], np.arange(11) * config.dt)
    assert _manifest_keys(result.manifest_path) == {
        "config", "p0_mean", "clim_stdev", "fit"}
    _check_fit_record(json.loads(result.manifest_path.read_text())["fit"], result.fit)


def test_lorenz_experiment(tmp_path):
    config = replace(lorenz_config(), n_samples=1400, n_basis=60, n_verify=200,
                     lead_steps=20, n_ens=20)
    result = run_lorenz_experiment(config, out_dir=tmp_path)
    (run,) = result.runs.values()
    header, rows = _read_csv(run.csv_path)
    assert header == ["lead_time"] + [f"{stat}_{name}"
                                      for name in ("diffusion", "local_linear", "iterated", "ensemble")
                                      for stat in ("rmse", "stdev")]
    assert rows.shape == (21, 9)
    assert np.all(np.isfinite(rows))
    assert _manifest_keys(result.manifest_path) == {"config", "dts", "clim_stdev", "fit"}
    records = json.loads(result.manifest_path.read_text())["fit"]
    assert list(records) == [repr(config.dt)]
    _check_fit_record(records[repr(config.dt)], run.fit)


def test_lorenz_experiment_rejects_a_short_verification_block_before_fitting(tmp_path,
                                                                             monkeypatch):
    from diffusion_forecast import experiments

    fits = []
    monkeypatch.setattr(experiments, "fit_forecaster", lambda *args: fits.append(args))
    config = replace(lorenz_config(), n_samples=700, n_basis=30, n_verify=50, lead_steps=80)
    with pytest.raises(ValueError, match="verification block is shorter than the forecast "
                                         "horizon"):
        run_lorenz_experiment(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert fits == []


def test_lorenz_experiment_rejects_too_large_a_basis_before_simulating(tmp_path, monkeypatch):
    from diffusion_forecast import experiments

    def simulate(*args, **kwargs):
        raise AssertionError("the series was simulated")

    monkeypatch.setattr(experiments, "simulate_lorenz63", simulate)
    config = replace(lorenz_config(), n_samples=400, n_verify=100, n_basis=350, lead_steps=20)
    with pytest.raises(ValueError, match=r"basis size m=350 out of range \[1, 300\]"):
        run_lorenz_experiment(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_lorenz_baseline_columns_equal_per_state_calls(tmp_path):
    config = replace(lorenz_config(), n_samples=1000, n_basis=30, n_verify=40,
                     lead_steps=8, with_ensemble=False)
    (run,) = run_lorenz_experiment(config, out_dir=tmp_path).runs.values()
    header, rows = _read_csv(run.csv_path)
    # the driver's verification states, rebuilt as it builds them
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    ts = simulate_lorenz63(n_samples=config.n_samples, dt_sample=config.dt, seed=seeds[0])
    train, verify = split(ts, config.n_samples - config.n_verify)
    n_states = config.n_verify - config.lead_steps
    x0 = verify.points[:n_states]
    rng = np.random.default_rng(seeds[1])
    x_hat = x0 + rng.normal(0.0, np.sqrt(config.perturbation_variance), size=x0.shape)
    truth = np.stack([verify.points[lead:lead + n_states]
                      for lead in range(config.lead_steps + 1)])
    for name, forecast in (("local_linear", local_linear_forecast),
                           ("iterated", iterated_local_linear_forecast)):
        states = [[forecast(train, GaussianState.isotropic(x, config.init_variance), lead)
                   for x in x_hat] for lead in range(config.lead_steps + 1)]
        err = np.array([[s.mean for s in row] for row in states]) - truth
        assert np.array_equal(rows[:, header.index(f"rmse_{name}")],
                              np.sqrt(np.mean(err * err, axis=(1, 2))))
        spread = np.sqrt([np.mean([np.diag(s.cov) for s in row]) for row in states])
        assert np.allclose(rows[:, header.index(f"stdev_{name}")], spread, rtol=1e-12, atol=0)


@pytest.mark.parametrize("run, config, match", [
    (run_lorenz_experiment,
     replace(lorenz_config(), n_samples=100, n_verify=100, n_basis=30, lead_steps=20),
     r"n_train=0 out of range"),
    (run_lorenz_experiment,
     replace(lorenz_config(), n_samples=400, n_verify=100, n_basis=350, lead_steps=20),
     r"basis size m=350 out of range \[1, 300\]"),
    (run_torus_experiment,
     replace(torus_config(), n_samples=1200, n_basis=40, n_ens=300, lead_steps=10, substeps=5,
             init_variance=1e-300),
     "density is identically zero"),
], ids=["lorenz-no-training-block", "lorenz-basis-too-large", "torus-zero-density"])
def test_a_run_that_fails_leaves_no_directory(tmp_path, run, config, match):
    with pytest.raises(ValueError, match=match):
        run(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _write_noaa_grid(path, rng):
    t = np.arange((2013 - 1950 + 1) * 12)
    values = (np.sin(2 * np.pi * t / 50) + 0.5 * np.sin(2 * np.pi * t / 17 + 1)
              + rng.normal(0.0, 0.1, t.size))
    lines = [f"{1950 + i} " + " ".join(f"{v:.4f}" for v in row)
             for i, row in enumerate(values.reshape(-1, 12))]
    path.write_text("\n".join(lines) + "\n")


def test_nino_experiment(tmp_path):
    data = tmp_path / "nino34.txt"
    _write_noaa_grid(data, np.random.default_rng(3))
    config = nino_config(data_path=str(data))
    result = run_nino_experiment(config, out_dir=tmp_path)
    header, rows = _read_csv(result.skill_csv_path)
    assert header == ["lead_months", "rmse", "correlation", "mean_forecast_stdev",
                      "climatological_stdev"]
    assert rows.shape == (24, 5)
    # Jan 2000 - Sep 2013 verifies 165 months; the last 24 cannot start a full ladder
    header, rows = _read_csv(result.lead14_csv_path)
    assert header == ["target_month_index", "truth", "forecast_mean", "forecast_stdev"]
    assert rows.shape == (165 - 24, 4)
    assert _manifest_keys(result.manifest_path) == {
        "config", "start", "n_points_used", "train_rows", "verification_count",
        "fit"}
    _check_fit_record(json.loads(result.manifest_path.read_text())["fit"], result.fit)


@pytest.mark.parametrize("fmt", ["csv", "single-column"])
def test_nino_experiment_needs_a_dated_format(tmp_path, fmt):
    # the experiment slices calendar windows from the file's start date
    data = tmp_path / "nino34.txt"
    _write_noaa_grid(data, np.random.default_rng(3))
    with pytest.raises(ValueError, match="two-column-dated or noaa-monthly-grid"):
        run_nino_experiment(replace(nino_config(data_path=str(data)), data_format=fmt),
                            out_dir=tmp_path)
    assert not (tmp_path / "nino34").exists()


@pytest.mark.parametrize("text, match", [
    ("1950 1.0 2.0 3.0\n", r"nino34.txt:1: expected 'year v1 \.\.\. v12' \(13 fields\), got 4"),
    ("1950 " + " ".join(["0.5"] * 12) + "\n", "does not cover"),
], ids=["malformed", "short"])
def test_nino_experiment_rejects_data_before_making_its_directory(tmp_path, text, match):
    data = tmp_path / "nino34.txt"
    data.write_text(text)
    with pytest.raises(ValueError, match=match):
        run_nino_experiment(nino_config(data_path=str(data)), out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_nino_experiment_with_too_large_a_basis_leaves_no_directory(tmp_path):
    # 600 training months embed to 596 rows with 5 lags
    data = tmp_path / "nino34.txt"
    _write_noaa_grid(data, np.random.default_rng(3))
    config = replace(nino_config(data_path=str(data)), n_basis=598)
    with pytest.raises(ValueError, match=r"basis size m=598 out of range \[1, 596\]"):
        run_nino_experiment(config, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()

"""Smoke tests of the three experiment drivers at tiny sizes: the CSV
headers, the row counts and the manifest keys."""

import json
from dataclasses import replace

import numpy as np

from diffusion_forecast.experiments import (
    lorenz_config,
    nino_config,
    run_lorenz_experiment,
    run_nino_experiment,
    run_torus_experiment,
    torus_config,
)


def _read_csv(path):
    lines = path.read_text().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _manifest_keys(path):
    return set(json.loads(path.read_text()))


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
        "config", "p0_mean", "clim_stdev", "kde_eps", "kde_d", "vb_eps", "vb_d"}


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
    assert _manifest_keys(result.manifest_path) == {"config", "dts", "clim_stdev"}


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
        "kde_eps", "kde_d", "vb_eps", "vb_d"}

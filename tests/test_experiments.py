"""Smoke tests of the three experiment drivers at tiny sizes: the CSV
headers, the row counts and the manifest keys."""

import inspect
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from diffusion_forecast.baselines import (
    GaussianState,
    iterated_local_linear_forecast,
    local_linear_forecast,
)
from diffusion_forecast.dataset import split
from diffusion_forecast.experiments import (
    LorenzConfig,
    NinoConfig,
    TorusConfig,
    paper_scale,
    run_lorenz_experiment,
    run_nino_experiment,
    run_torus_experiment,
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
    config = replace(TorusConfig(), n_samples=1200, n_basis=40, n_ens=300,
                     lead_steps=10, substeps=5)
    result = run_torus_experiment(replace(config, out_dir=str(tmp_path)))
    header, rows = _read_csv(*result.csv_paths)
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
    config = replace(LorenzConfig(), n_samples=1400, n_basis=60, n_verify=200,
                     lead_steps=20, n_ens=20)
    result = run_lorenz_experiment(replace(config, out_dir=str(tmp_path)))
    header, rows = _read_csv(*result.csv_paths)
    assert header == ["lead_time"] + [f"{stat}_{name}"
                                      for name in ("diffusion", "local_linear", "iterated", "ensemble")
                                      for stat in ("rmse", "stdev")]
    assert rows.shape == (21, 9)
    assert np.all(np.isfinite(rows))
    assert np.allclose(rows[:, 0], np.arange(21) * config.dt)
    assert _manifest_keys(result.manifest_path) == {"config", "clim_stdev", "fit"}
    manifest = json.loads(result.manifest_path.read_text())
    assert isinstance(manifest["clim_stdev"], float) and manifest["clim_stdev"] > 0
    _check_fit_record(manifest["fit"], result.fit)


def test_lorenz_paper_scale_at_the_second_interval_writes_that_run_alone(tmp_path):
    # the paper's dt = 0.5 forecasts are a second run of the preset, not a side effect
    config = replace(paper_scale(LorenzConfig()), dt=0.5, n_samples=1000, n_basis=30,
                     n_verify=100, lead_steps=8, n_ens=20, out_dir=str(tmp_path))
    result = run_lorenz_experiment(config)
    where = tmp_path / "lorenz63"
    assert sorted(path.name for path in where.iterdir()) == ["lorenz_skill_dt0.5.csv",
                                                             "manifest.json"]
    _, rows = _read_csv(*result.csv_paths)
    assert np.allclose(rows[:, 0], np.arange(9) * 0.5)
    assert json.loads(result.manifest_path.read_text())["config"]["dt"] == 0.5


@pytest.mark.parametrize("config, refused", [
    (paper_scale(LorenzConfig()), True),
    (replace(paper_scale(LorenzConfig()), with_ensemble=False), False),
    (LorenzConfig(), False),
], ids=["paper-scale", "paper-scale-without-ensemble", "desk"])
def test_lorenz_experiment_refuses_an_ensemble_larger_than_memory_before_simulating(
        tmp_path, monkeypatch, config, refused):
    from diffusion_forecast import experiments

    def simulate(*args, **kwargs):
        raise AssertionError("the series was simulated")

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 20}  # a 4.29 GB machine
    monkeypatch.setattr(experiments, "simulate_lorenz63", simulate)
    monkeypatch.setattr(experiments.os, "sysconf", pages.__getitem__)
    if refused:
        with pytest.raises(ValueError, match=r"ensemble of 4900 states x 50000 members needs a "
                                             r"594 GB moments buffer, more than the 4\.29 GB"):
            run_lorenz_experiment(replace(config, out_dir=str(tmp_path / "out")))
    else:
        with pytest.raises(AssertionError, match="the series was simulated"):
            run_lorenz_experiment(replace(config, out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_lorenz_experiment_rejects_a_short_verification_block_before_fitting():
    # the config refuses sizes the run cannot use, so no driver sees them
    with pytest.raises(ValueError, match="verification block is shorter than the forecast "
                                         "horizon"):
        replace(LorenzConfig(), n_samples=700, n_basis=30, n_verify=50, lead_steps=80)


def test_lorenz_experiment_rejects_too_large_a_basis_before_simulating():
    with pytest.raises(ValueError, match=r"basis size m=350 out of range \[1, 300\]"):
        replace(LorenzConfig(), n_samples=400, n_verify=100, n_basis=350, lead_steps=20)


def test_lorenz_experiment_rejects_a_config_with_no_training_block_before_simulating():
    with pytest.raises(ValueError, match=r"n_train=0 out of range \[1, 99\]"):
        replace(LorenzConfig(), n_samples=100, n_verify=100, n_basis=30, lead_steps=20)


def test_lorenz_baseline_columns_equal_per_state_calls(tmp_path):
    config = replace(LorenzConfig(), n_samples=1000, n_basis=30, n_verify=40,
                     lead_steps=8, with_ensemble=False)
    run = run_lorenz_experiment(replace(config, out_dir=str(tmp_path)))
    header, rows = _read_csv(*run.csv_paths)
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


@pytest.mark.parametrize("run, make, sizes, match", [
    (run_lorenz_experiment, LorenzConfig,
     dict(n_samples=100, n_verify=100, n_basis=30, lead_steps=20),
     r"n_train=0 out of range"),
    (run_lorenz_experiment, LorenzConfig,
     dict(n_samples=400, n_verify=100, n_basis=350, lead_steps=20),
     r"basis size m=350 out of range \[1, 300\]"),
    (run_torus_experiment, TorusConfig,
     dict(n_samples=1200, n_basis=40, n_ens=300, lead_steps=10, substeps=5, init_variance=1e-300),
     "density is identically zero"),
], ids=["lorenz-no-training-block", "lorenz-basis-too-large", "torus-zero-density"])
def test_a_run_that_fails_leaves_no_directory(tmp_path, run, make, sizes, match):
    with pytest.raises(ValueError, match=match):
        run(make(**sizes, out_dir=str(tmp_path / "out")))
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
    config = NinoConfig(data_path=str(data))
    result = run_nino_experiment(replace(config, out_dir=str(tmp_path)))
    skill_csv, lead14_csv = result.csv_paths
    header, rows = _read_csv(skill_csv)
    assert header == ["lead_months", "rmse", "correlation", "mean_forecast_stdev",
                      "climatological_stdev"]
    assert rows.shape == (24, 5)
    # Jan 2000 - Sep 2013 verifies 165 months; the last 24 cannot start a full ladder
    header, rows = _read_csv(lead14_csv)
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
        run_nino_experiment(replace(NinoConfig(data_path=str(data)), data_format=fmt,
                                    out_dir=str(tmp_path)))
    assert not (tmp_path / "nino34").exists()


@pytest.mark.parametrize("text, match", [
    ("1950 1.0 2.0 3.0\n", r"nino34.txt:1: expected 'year v1 \.\.\. v12' \(13 fields\), got 4"),
    ("1950 " + " ".join(["0.5"] * 12) + "\n", "does not cover"),
], ids=["malformed", "short"])
def test_nino_experiment_rejects_data_before_making_its_directory(tmp_path, text, match):
    data = tmp_path / "nino34.txt"
    data.write_text(text)
    with pytest.raises(ValueError, match=match):
        run_nino_experiment(replace(NinoConfig(data_path=str(data)),
                                    out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_nino_experiment_with_too_large_a_basis_leaves_no_directory(tmp_path):
    # 600 training months embed to 596 rows with 5 lags
    data = tmp_path / "nino34.txt"
    _write_noaa_grid(data, np.random.default_rng(3))
    config = replace(NinoConfig(data_path=str(data)), n_basis=598)
    with pytest.raises(ValueError, match=r"basis size m=598 out of range \[1, 596\]"):
        run_nino_experiment(replace(config, out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def _tiny_run(name, tmp_path):
    """Each driver at a few seconds' size, writing under a missing nested
    directory; returns its result."""
    out_dir = str(tmp_path / "runs" / "a")
    if name == "torus":
        return run_torus_experiment(TorusConfig(n_samples=400, n_basis=10, n_ens=50,
                                                lead_steps=3, substeps=2, out_dir=out_dir))
    if name == "lorenz63":
        return run_lorenz_experiment(LorenzConfig(n_samples=500, n_verify=60, n_basis=10,
                                                  lead_steps=5, with_ensemble=False,
                                                  out_dir=out_dir))
    data = tmp_path / "nino34.txt"
    _write_noaa_grid(data, np.random.default_rng(3))
    return run_nino_experiment(NinoConfig(data_path=str(data), n_basis=10, out_dir=out_dir))


@pytest.mark.parametrize("name", ["torus", "lorenz63", "nino34"])
def test_the_manifest_names_the_directory_that_holds_the_files(tmp_path, name):
    result = _tiny_run(name, tmp_path)
    files = list(result.csv_paths)
    config = json.loads(result.manifest_path.read_text())["config"]
    # the manifest records exactly the keys of the driver's config
    make = {"torus": TorusConfig, "lorenz63": LorenzConfig, "nino34": NinoConfig}[name]
    assert sorted(config) == sorted(f.name for f in fields(make))
    where = Path(config["out_dir"]) / name
    assert result.manifest_path == where / "manifest.json"
    assert [path.parent for path in files] == [where] * len(files)
    assert sorted(path.name for path in where.iterdir()) == sorted(
        path.name for path in [result.manifest_path, *files])


@pytest.mark.parametrize("run", [run_torus_experiment, run_lorenz_experiment,
                                 run_nino_experiment])
def test_a_driver_takes_where_it_writes_only_from_the_config(run):
    assert list(inspect.signature(run).parameters) == ["config"]

"""Drivers for the three reference experiments: the torus SDE moment
validation, the Lorenz-63 forecast-skill comparison, and the Nino-3.4 index
forecast."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import GaussianState, ensemble_forecast, iterated_local_linear_ladder, local_linear_ladder
from .dataset import TimeSeries, delay_embed, load_series, split, write_csv
from .evaluation import ExperimentConfig, SkillReport, rmse_and_correlation
from .forecast import MomentForecast, forecast_ladder, gaussian_density_values, project_density
from .pipeline import FitResult, fit_forecaster, fit_record
from .simulators import (TWO_PI, lorenz_model, lorenz_substeps, simulate_lorenz63, simulate_torus,
                         torus_embed, torus_model)


def torus_config(paper_scale: bool = False, seed: int = 0) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment="torus", seed=seed, paper_scale=paper_scale)
    if paper_scale:
        cfg = replace(cfg, n_samples=20000, n_basis=1000, n_ens=50000)
    return cfg


def lorenz_config(paper_scale: bool = False, seed: int = 0) -> ExperimentConfig:
    cfg = ExperimentConfig(
        experiment="lorenz63", seed=seed, paper_scale=paper_scale,
        n_samples=6000, n_basis=1000, n_verify=500, lead_steps=80,
        init_variance=0.01, n_ens=200,
    )
    if paper_scale:
        cfg = replace(cfg, n_samples=10000, n_basis=4500, n_verify=5000,
                      lead_steps=100, n_ens=50000)
    return cfg


def nino_config(data_path: str = "", paper_scale: bool = False, seed: int = 0) -> ExperimentConfig:
    # The published configuration is already desk sized; paper_scale is a no-op.
    return ExperimentConfig(
        experiment="nino34", seed=seed, paper_scale=paper_scale,
        n_samples=600, n_basis=80, n_verify=2, lead_steps=24, lags=5,
        init_variance=0.01, data_path=data_path,
    )


@dataclass(frozen=True)
class TorusExperimentResult:
    lead_times: np.ndarray
    diffusion: MomentForecast
    ensemble: MomentForecast
    clim_stdev: np.ndarray
    fit: FitResult
    csv_path: Path
    manifest_path: Path


@dataclass(frozen=True)
class LorenzRun:
    dt: float
    lead_times: np.ndarray
    rmse: dict
    spread: dict
    clim_stdev: float
    fit: FitResult
    csv_path: Path


@dataclass(frozen=True)
class LorenzExperimentResult:
    runs: dict
    manifest_path: Path


@dataclass(frozen=True)
class NinoExperimentResult:
    skill: SkillReport
    lead14_truth: np.ndarray
    lead14_mean: np.ndarray
    lead14_stdev: np.ndarray
    fit: FitResult
    skill_csv_path: Path
    lead14_csv_path: Path
    manifest_path: Path


def run_torus_experiment(config: ExperimentConfig, out_dir=None) -> TorusExperimentResult:
    """Validate the first two forecast moments of the embedded fast (x) and
    slow (z) coordinates against a true-model ensemble."""
    if config.experiment != "torus":
        raise ValueError("config.experiment must be 'torus'")
    seeds = np.random.SeedSequence(config.seed).spawn(3)  # sim, p0 mean, ensemble

    intrinsic, embedded = simulate_torus(
        n_samples=config.n_samples, dt_sample=config.dt,
        substeps=config.substeps, seed=seeds[0],
    )
    fit = fit_forecaster(embedded, config.n_basis)

    p0_mean = np.random.default_rng(seeds[1]).uniform(0.0, TWO_PI, size=2)
    wrap = np.array([TWO_PI, TWO_PI])
    p0_angles = gaussian_density_values(intrinsic.points, p0_mean,
                                        config.init_variance, wrap=wrap)
    # the basis lives on the embedded manifold, so express the initial
    # density against its volume form: dV = (2 + sin(theta)) dtheta dphi
    p0_vals = p0_angles / (2.0 + np.sin(intrinsic.points[:, 0]))
    coeffs = project_density(p0_vals, fit.basis)

    observables = embedded.points[:, [0, 2]]
    diffusion = forecast_ladder(coeffs, fit.operator, fit.basis, observables, config.lead_steps)
    lead_times = diffusion.lead_times

    ens = ensemble_forecast(
        torus_model(),
        GaussianState.isotropic(p0_mean, config.init_variance),
        n_ens=config.n_ens, lead_steps=config.lead_steps,
        rng_seed=seeds[2], dt_sample=config.dt, substeps=config.substeps,
        observable=lambda s: torus_embed(s)[:, [0, 2]],
    )

    clim = observables.std(axis=0)
    header, cols = ["lead_time"], [lead_times]
    for prefix, fc in (("diff", diffusion), ("ens", ens)):
        for j, name in enumerate("xz"):
            header += [f"{prefix}_mean_{name}", f"{prefix}_stdev_{name}"]
            cols += [fc.mean[:, j], np.sqrt(fc.variance[:, j])]
    # made only once the run has succeeded, so a rejected run leaves nothing
    out = Path(out_dir or config.out_dir) / "torus"
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "torus_moments.csv"
    write_csv(csv_path, header, np.column_stack(cols))
    manifest_path = _write_manifest(out, config, {
        "p0_mean": list(p0_mean),
        "clim_stdev": list(clim),
        "fit": fit_record(fit),
    })
    return TorusExperimentResult(
        lead_times=lead_times, diffusion=diffusion, ensemble=ens,
        clim_stdev=clim, fit=fit, csv_path=csv_path, manifest_path=manifest_path,
    )


def run_lorenz_experiment(config: ExperimentConfig, out_dir=None) -> LorenzExperimentResult:
    """Compare diffusion, local-linear, iterated local-linear, and (optionally)
    true-model ensemble forecasts on Lorenz-63 over a ladder of leads."""
    if config.experiment != "lorenz63":
        raise ValueError("config.experiment must be 'lorenz63'")
    if config.n_verify - config.lead_steps < 2:
        raise ValueError("verification block is shorter than the forecast horizon")
    n_train = config.n_samples - config.n_verify
    if 0 < n_train < config.n_basis:  # fit_forecaster's check, made before simulating
        raise ValueError(f"basis size m={config.n_basis} out of range [1, {n_train}]")
    out = Path(out_dir or config.out_dir) / "lorenz63"
    dts = (0.1, 0.5) if config.paper_scale else (config.dt,)
    runs = {}
    for dt in dts:
        runs[dt] = _lorenz_single_dt(replace(config, dt=dt), out)
    manifest_path = _write_manifest(out, config, {
        "dts": list(dts),
        "clim_stdev": {repr(dt): runs[dt].clim_stdev for dt in dts},
        "fit": {repr(dt): fit_record(runs[dt].fit) for dt in dts},
    })
    return LorenzExperimentResult(runs=runs, manifest_path=manifest_path)


def _lorenz_single_dt(config: ExperimentConfig, out: Path) -> LorenzRun:
    seeds = np.random.SeedSequence(config.seed).spawn(3)  # sim, perturb, ensemble
    ts = simulate_lorenz63(n_samples=config.n_samples, dt_sample=config.dt, seed=seeds[0])
    n_train = config.n_samples - config.n_verify
    train, verify = split(ts, n_train)
    fit = fit_forecaster(train, config.n_basis)

    n_lead = config.lead_steps
    v_idx = np.arange(config.n_verify - n_lead)
    rng = np.random.default_rng(seeds[1])
    x0_true = verify.points[v_idx]
    x_hat = x0_true + rng.normal(0.0, np.sqrt(config.perturbation_variance), size=x0_true.shape)

    # (lead, state, coordinate), as each forecast's mean.transpose(0, 2, 1)
    truth = np.stack([verify.points[v_idx + lead] for lead in range(n_lead + 1)])

    p0 = gaussian_density_values(train.points, x_hat, config.init_variance)
    init = GaussianState.isotropic(x_hat, config.init_variance)
    forecasts = {
        "diffusion": forecast_ladder(project_density(p0, fit.basis), fit.operator, fit.basis,
                                     train.points, n_lead),
        "local_linear": local_linear_ladder(train, init, n_lead, k=15),
        "iterated": iterated_local_linear_ladder(train, init, n_lead, k=15),
    }
    if config.with_ensemble:
        forecasts["ensemble"] = ensemble_forecast(lorenz_model(), init, config.n_ens, n_lead,
                                                  rng_seed=seeds[2], dt_sample=config.dt,
                                                  substeps=lorenz_substeps(config.dt))
    rmse = {name: _agg_rmse(fc.mean.transpose(0, 2, 1) - truth) for name, fc in forecasts.items()}
    spread = {name: np.sqrt(np.mean(fc.variance, axis=(1, 2))) for name, fc in forecasts.items()}

    clim = float(np.sqrt(np.mean(verify.points.var(axis=0))))
    lead_times = forecasts["diffusion"].lead_times
    # made only once the first run has succeeded, so a rejected run leaves nothing
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"lorenz_skill_dt{config.dt:g}.csv"
    header = ["lead_time"]
    cols = [lead_times]
    for name in rmse:
        header += [f"rmse_{name}", f"stdev_{name}"]
        cols += [rmse[name], spread[name]]
    write_csv(csv_path, header, np.column_stack(cols))
    return LorenzRun(dt=config.dt, lead_times=lead_times, rmse=rmse, spread=spread,
                     clim_stdev=clim, fit=fit, csv_path=csv_path)


def _agg_rmse(err: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(err * err, axis=(1, 2)))


def run_nino_experiment(config: ExperimentConfig, out_dir=None) -> NinoExperimentResult:
    """Forecast the Nino-3.4 monthly index: train on Jan 1950 - Dec 1999,
    verify on Jan 2000 - Sep 2013, with a 5-lag delay embedding."""
    if config.experiment != "nino34":
        raise ValueError("config.experiment must be 'nino34'")
    if not config.data_path or not Path(config.data_path).exists():
        raise FileNotFoundError(
            "Nino-3.4 data file not found. Download the monthly index "
            "(e.g. the 'NINO3.4' anomaly column of the NOAA CPC sstoi.indices "
            "or ersst5.nino.mth ASCII products, or any 'year v1 ... v12' grid) "
            "and pass its path via --data / config data_path. "
            "No automatic download is attempted."
        )
    raw, start = load_series(config.data_path, config.data_format)

    offset = (1950 - start[0]) * 12 + (1 - start[1])
    if offset < 0:
        raise ValueError(f"data starts {start[0]}-{start[1]:02d}, after Jan 1950")
    total_needed = offset + 600 + 2  # training window plus at least two verification months
    if raw.n_points < total_needed:
        raise ValueError("data file does not cover Jan 1950 - Dec 1999 plus verification")
    end = min(raw.n_points, offset + 765)  # cap at Sep 2013 when available
    values = raw.points[offset:end, 0]
    series = TimeSeries(values[:, None], tau=raw.tau, origin_label=raw.origin_label)

    lags = config.lags
    embedded = delay_embed(series, lags)
    n_train_raw = 600
    train_rows = n_train_raw - lags + 1  # newest coordinate stays inside the training window
    train_embedded = TimeSeries(embedded.points[:train_rows], series.tau,
                                origin_label=f"{series.origin_label}|train-embedded")

    n_lead = config.lead_steps
    t = values.shape[0]
    init_times = np.arange(n_train_raw, t - n_lead)  # raw index of the newest coordinate
    if init_times.size < 2:
        raise ValueError("verification window is too short for the lead ladder")
    fit = fit_forecaster(train_embedded, config.n_basis)
    states = embedded.points[init_times - (lags - 1)]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    x_hat = states + rng.normal(0.0, np.sqrt(config.perturbation_variance), size=states.shape)

    p0 = gaussian_density_values(train_embedded.points, x_hat, config.init_variance)
    observable = train_embedded.points[:, 0]  # newest raw value at each training row
    diffusion = forecast_ladder(project_density(p0, fit.basis), fit.operator, fit.basis,
                                observable, n_lead)
    means = diffusion.mean[:, 0]
    stdevs = np.sqrt(diffusion.variance[:, 0])
    v_count = init_times.size

    leads = np.arange(1, n_lead + 1)
    truth_per_lead = [values[init_times + lead] for lead in leads]
    mean_per_lead = [means[lead] for lead in leads]
    stdev_per_lead = [stdevs[lead] for lead in leads]
    skill = rmse_and_correlation(
        truth_per_lead, mean_per_lead, leads.astype(float),
        forecast_stdevs_per_lead=stdev_per_lead,
        climatology=values[n_train_raw:],
    )

    # made only once the run has succeeded, so a rejected run leaves nothing
    out = Path(out_dir or config.out_dir) / "nino34"
    out.mkdir(parents=True, exist_ok=True)
    skill_csv = out / "nino_skill.csv"
    write_csv(
        skill_csv,
        ["lead_months", "rmse", "correlation", "mean_forecast_stdev", "climatological_stdev"],
        np.column_stack([
            skill.lead_times, skill.rmse, skill.correlation, skill.mean_forecast_stdev,
            np.full(n_lead, skill.climatological_stdev),
        ]),
    )
    lead14 = 14 if n_lead >= 14 else n_lead
    lead14_csv = out / "nino_lead14.csv"
    write_csv(
        lead14_csv,
        ["target_month_index", "truth", "forecast_mean", "forecast_stdev"],
        np.column_stack([
            (init_times + lead14).astype(float),
            values[init_times + lead14],
            means[lead14],
            stdevs[lead14],
        ]),
    )
    manifest_path = _write_manifest(out, config, {
        "start": list(start),
        "n_points_used": int(t),
        "train_rows": int(train_rows),
        "verification_count": int(v_count),
        "fit": fit_record(fit),
    })
    return NinoExperimentResult(
        skill=skill,
        lead14_truth=values[init_times + lead14],
        lead14_mean=means[lead14],
        lead14_stdev=stdevs[lead14],
        fit=fit,
        skill_csv_path=skill_csv,
        lead14_csv_path=lead14_csv,
        manifest_path=manifest_path,
    )


def _write_manifest(out: Path, config: ExperimentConfig, extra: dict) -> Path:
    manifest = {"config": asdict(config), **extra}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path

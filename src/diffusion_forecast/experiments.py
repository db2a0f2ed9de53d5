"""Drivers for the three reference experiments: the torus SDE moment
validation, the Lorenz-63 forecast-skill comparison, and the Nino-3.4 index
forecast.

Each driver takes a frozen config of exactly the keys it reads, whose
defaults are its desk sizes, kept to minutes on one core; ``paper_scale``
puts the published sizes over them. Of the fit, only ``n_basis`` is a key:
the neighbour cap NEIGHBOR_CAP, the kernel exponent BETA, the ad-hoc
bandwidth's neighbourhood size ADHOC_K0 = 8 and the shift map's use of
every consecutive pair are constants of ``fit_forecaster``. ``out_dir`` is
the one setting for where a run writes: each driver writes under
``out_dir/<torus|lorenz63|nino34>``, and its manifest records it.
``load_config`` reads a config file over a base config of one of the three
types.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .baselines import GaussianState, ensemble_forecast, iterated_local_linear_ladder, local_linear_ladder
from .dataset import DATED_FORMATS, TimeSeries, delay_embed, load_series, split, write_csv, write_json
from .evaluation import rmse_and_correlation
from .forecast import forecast_ladder, gaussian_density_values, project_density
from .pipeline import FitResult, fit_forecaster, fit_record
from .simulators import (TWO_PI, lorenz_model, lorenz_substeps, simulate_lorenz63, simulate_torus,
                         torus_embed, torus_model)


class _Config:
    """Checks every key of a config on its own; checks that tie keys
    together go in a subclass's ``__post_init__``. A subclass whose run
    needs more of a key than _MINIMUMS gives sets it in ``minimums``."""

    minimums: ClassVar[dict] = {}

    def __post_init__(self):
        for f in fields(self):
            self.check_key(f.name, getattr(self, f.name))

    @classmethod
    def check_key(cls, name: str, value, label: str | None = None) -> None:
        """ValueError if ``value`` is not allowed for the key ``name`` on its
        own. The message calls the key ``label``, by default ``name``: the
        CLI passes the flag that set it."""
        label = label or name
        if name == "data_format" and value not in DATED_FORMATS:
            raise ValueError(f"{label} must be a dated format, {' or '.join(DATED_FORMATS)}, "
                             f"got {value!r}")
        least = cls.minimums.get(name, _MINIMUMS.get(name))
        if least is not None and value < least:
            raise ValueError(f"{label} must be >= {least}")
        if name in _POSITIVE and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{label} must be positive and finite, got {value}")


@dataclass(frozen=True)
class TorusConfig(_Config):
    """The torus moment run, fit on all ``n_samples`` points."""

    n_samples: int = 8000
    dt: float = 0.1
    substeps: int = 50
    n_basis: int = 400
    lead_steps: int = 100
    init_variance: float = 0.1
    n_ens: int = 10000
    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        super().__post_init__()
        # fit_forecaster's check, made before simulating
        if self.n_basis > self.n_samples:
            raise ValueError(f"basis size m={self.n_basis} out of range [1, {self.n_samples}]")


@dataclass(frozen=True)
class LorenzConfig(_Config):
    """The Lorenz-63 skill run at ``dt = 0.1``. The paper also forecasts at
    ``dt = 0.5``: that is a second run of this config with ``dt`` replaced,
    in its own ``out_dir``. At paper scale the ensemble of 4900 states x
    50000 members is bounded by time, about 6 h at ``dt = 0.1``, not by
    memory: it is reduced lead by lead, a block of states at a time."""

    n_samples: int = 6000
    dt: float = 0.1
    n_basis: int = 1000
    lead_steps: int = 80
    init_variance: float = 0.01
    n_ens: int = 200
    seed: int = 0
    out_dir: str = "runs"
    n_verify: int = 500
    perturbation_variance: float = 0.01
    with_ensemble: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.n_verify - self.lead_steps < 2:
            raise ValueError("verification block is shorter than the forecast horizon")
        # split's and fit_forecaster's checks, made before simulating
        n_train = self.n_samples - self.n_verify
        if n_train < 1:
            raise ValueError(f"n_train={n_train} out of range [1, {self.n_samples - 1}]")
        if n_train < self.n_basis:
            raise ValueError(f"basis size m={self.n_basis} out of range [1, {n_train}]")


@dataclass(frozen=True)
class NinoConfig(_Config):
    """The Nino-3.4 run; its published sizes are its desk sizes. The 600
    training months and the Jan 2000 start of verification are fixed by the
    calendar windows of the paper. ``data_format``, the layout of the data
    file, is one of the dated formats of ``load_series``,
    ``dataset.DATED_FORMATS``. ``lead_steps`` is at least 14, the lead of the
    forecasts ``nino_lead14.csv`` holds."""

    minimums: ClassVar[dict] = {"lead_steps": 14}

    data_path: str = ""
    data_format: str = "noaa-monthly-grid"
    lags: int = 5
    n_basis: int = 80
    lead_steps: int = 24
    init_variance: float = 0.01
    perturbation_variance: float = 0.01
    seed: int = 0
    out_dir: str = "runs"


# The least value of each integer key, unless a config's ``minimums`` says more.
_MINIMUMS = dict(n_samples=16, n_basis=1, lags=1, n_ens=2, n_verify=2, lead_steps=1,
                 substeps=1, seed=0)
_POSITIVE = ("dt", "init_variance", "perturbation_variance")


_PAPER_SIZES = {
    TorusConfig: dict(n_samples=20000, n_basis=1000, n_ens=50000),
    LorenzConfig: dict(n_samples=10000, n_basis=4500, n_verify=5000, lead_steps=100, n_ens=50000),
}


def paper_scale(config: TorusConfig | LorenzConfig) -> TorusConfig | LorenzConfig:
    """``config`` with the paper's sizes in place of its own; a ValueError
    for a ``NinoConfig``, whose defaults are already the published sizes."""
    if type(config) not in _PAPER_SIZES:
        raise ValueError("the Nino-3.4 run has no paper scale: its published sizes are its "
                         "defaults")
    return replace(config, **_PAPER_SIZES[type(config)])


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def load_config(path, base: TorusConfig | LorenzConfig | NinoConfig
                ) -> TorusConfig | LorenzConfig | NinoConfig:
    """Read a flat ``key = value`` config file over ``base``, a
    ``TorusConfig``, ``LorenzConfig`` or ``NinoConfig``; a key that is not a
    field of ``base``'s type is unknown, and a key may be set once. Errors
    name ``path:line``, or only ``path`` for a check across keys."""
    text = Path(path).read_text()
    overrides = {}
    first_line = {}
    valid = {f.name for f in fields(base)}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{line_no}: config key {key} is set twice "
                             f"(first on line {first_line[key]})")
        first_line[key] = line_no
        current = getattr(base, key)
        try:
            overrides[key] = _coerce(value, current)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{line_no}: config key {key}: expected "
                             f"{type(current).__name__}, got {value!r}") from None
        try:
            type(base).check_key(key, overrides[key])
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
    try:
        return replace(base, **overrides)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _coerce(value: str, current):
    """``value`` as the type of ``current``; KeyError or ValueError if it is
    not one."""
    if isinstance(current, bool):
        return _BOOL_STRINGS[value.lower()]
    if isinstance(current, (int, float)):
        return type(current)(value)
    return value


@dataclass(frozen=True)
class ExperimentResult:
    """What a driver returns: the fit, the CSV files it wrote and its
    manifest."""

    fit: FitResult
    csv_paths: tuple[Path, ...]
    manifest_path: Path


def run_torus_experiment(config: TorusConfig) -> ExperimentResult:
    """Validate the first two forecast moments of the embedded fast (x) and
    slow (z) coordinates against a true-model ensemble."""
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

    ens = ensemble_forecast(
        torus_model(),
        GaussianState.isotropic(p0_mean, config.init_variance),
        n_ens=config.n_ens, lead_steps=config.lead_steps,
        rng_seed=seeds[2], dt_sample=config.dt, substeps=config.substeps,
        observable=lambda s: torus_embed(s)[:, [0, 2]],
    )

    header, cols = ["lead_time"], [diffusion.lead_times]
    for prefix, fc in (("diff", diffusion), ("ens", ens)):
        for j, name in enumerate("xz"):
            header += [f"{prefix}_mean_{name}", f"{prefix}_stdev_{name}"]
            cols += [fc.mean[:, j], np.sqrt(fc.variance[:, j])]
    out = Path(config.out_dir) / "torus"
    csv_path = out / "torus_moments.csv"
    write_csv(csv_path, header, np.column_stack(cols))
    manifest_path = _write_manifest(out, config, {
        "p0_mean": list(p0_mean),
        "clim_stdev": list(observables.std(axis=0)),
        "fit": fit_record(fit),
    })
    return ExperimentResult(fit, (csv_path,), manifest_path)


def run_lorenz_experiment(config: LorenzConfig) -> ExperimentResult:
    """Compare diffusion, local-linear, iterated local-linear, and (optionally)
    true-model ensemble forecasts on Lorenz-63 over a ladder of leads, at
    the sampling interval ``config.dt``."""
    n_lead = config.lead_steps
    n_states = config.n_verify - n_lead
    seeds = np.random.SeedSequence(config.seed).spawn(3)  # sim, perturb, ensemble
    ts = simulate_lorenz63(n_samples=config.n_samples, dt_sample=config.dt, seed=seeds[0])
    train, verify = split(ts, config.n_samples - config.n_verify)
    fit = fit_forecaster(train, config.n_basis)

    v_idx = np.arange(n_states)
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
        "local_linear": local_linear_ladder(train, init, n_lead),
        "iterated": iterated_local_linear_ladder(train, init, n_lead),
    }
    if config.with_ensemble:
        forecasts["ensemble"] = ensemble_forecast(lorenz_model(), init, config.n_ens, n_lead,
                                                  rng_seed=seeds[2], dt_sample=config.dt,
                                                  substeps=lorenz_substeps(config.dt))
    rmse = {name: _agg_rmse(fc.mean.transpose(0, 2, 1) - truth) for name, fc in forecasts.items()}
    spread = {name: np.sqrt(np.mean(fc.variance, axis=(1, 2))) for name, fc in forecasts.items()}

    clim = float(np.sqrt(np.mean(verify.points.var(axis=0))))
    out = Path(config.out_dir) / "lorenz63"
    csv_path = out / f"lorenz_skill_dt{config.dt:g}.csv"
    header = ["lead_time"]
    cols = [forecasts["diffusion"].lead_times]
    for name in rmse:
        header += [f"rmse_{name}", f"stdev_{name}"]
        cols += [rmse[name], spread[name]]
    write_csv(csv_path, header, np.column_stack(cols))
    manifest_path = _write_manifest(out, config, {"clim_stdev": clim, "fit": fit_record(fit)})
    return ExperimentResult(fit, (csv_path,), manifest_path)


def _agg_rmse(err: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(err * err, axis=(1, 2)))


def run_nino_experiment(config: NinoConfig) -> ExperimentResult:
    """Forecast the Nino-3.4 monthly index: train on Jan 1950 - Dec 1999,
    verify on Jan 2000 - Sep 2013, with a 5-lag delay embedding."""
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
    series = TimeSeries(values[:, None], tau=raw.tau)

    lags = config.lags
    embedded = delay_embed(series, lags)
    n_train_raw = 600
    train_rows = n_train_raw - lags + 1  # newest coordinate stays inside the training window
    train_embedded = TimeSeries(embedded.points[:train_rows], series.tau)

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

    # lead-major, leads 1..n_lead; row 0 of the forecast is lead 0
    leads = np.arange(1, n_lead + 1)
    skill = rmse_and_correlation(
        values[init_times + leads[:, None]], means[1:], leads.astype(float),
        forecast_stdevs_per_lead=stdevs[1:],
        climatology=values[n_train_raw:],
    )

    out = Path(config.out_dir) / "nino34"
    skill_csv = out / "nino_skill.csv"
    write_csv(
        skill_csv,
        ["lead_months", "rmse", "correlation", "mean_forecast_stdev", "climatological_stdev"],
        np.column_stack([
            skill.lead_times, skill.rmse, skill.correlation, skill.mean_forecast_stdev,
            np.full(n_lead, skill.climatological_stdev),
        ]),
    )
    lead14 = NinoConfig.minimums["lead_steps"]
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
    return ExperimentResult(fit, (skill_csv, lead14_csv), manifest_path)


def _write_manifest(out: Path, config: TorusConfig | LorenzConfig | NinoConfig,
                    extra: dict) -> Path:
    path = out / "manifest.json"
    write_json(path, {"config": asdict(config), **extra})
    return path

"""Forecast-skill metrics and experiment configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import DATED_FORMATS


@dataclass(frozen=True)
class SkillReport:
    """Per-lead skill of a mean forecast against verification truth.

    ``mean_forecast_stdev`` aggregates the forecast's own spread in the
    root-mean sense, the convention under which a well-calibrated forecast's
    spread matches its RMSE. ``degenerate`` flags leads where the correlation
    was undefined (constant forecast or truth) and reported as 0.
    """

    lead_times: np.ndarray
    rmse: np.ndarray
    correlation: np.ndarray
    mean_forecast_stdev: np.ndarray
    climatological_stdev: float
    degenerate: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self):
        if np.any(self.rmse < 0):
            raise ValueError("rmse must be nonnegative")
        if np.any(np.abs(self.correlation) > 1.0 + 1e-12):
            raise ValueError("correlation must lie in [-1, 1]")


def rmse_and_correlation(
    truth_per_lead,
    forecast_means_per_lead,
    lead_times,
    forecast_stdevs_per_lead=None,
    climatology: np.ndarray | None = None,
) -> SkillReport:
    """Skill of per-lead mean forecasts against aligned truth.

    Parameters
    ----------
    truth_per_lead, forecast_means_per_lead : sequences of ndarray
        One aligned pair of arrays per lead; entries may be scalars or
        state vectors (RMSE then aggregates over coordinates too).
    forecast_stdevs_per_lead : sequence of ndarray, optional
        Forecast spread per verification point (scalar or per-coordinate),
        aggregated to one root-mean value per lead.
    climatology : ndarray, optional
        Series whose population standard deviation defines the skill floor;
        defaults to the pooled truth values.

    A non-finite lead time, truth or forecast entry, or a negative or
    non-finite stdev, is a ValueError that names its lead.
    """
    lead_times = np.asarray(lead_times, dtype=float)
    n_leads = len(lead_times)
    if len(truth_per_lead) != n_leads or len(forecast_means_per_lead) != n_leads:
        raise ValueError("one truth/forecast pair required per lead")
    if not np.isfinite(lead_times).all():
        i = np.flatnonzero(~np.isfinite(lead_times))[0]
        raise ValueError(f"lead {i}: lead time must be finite, got {lead_times[i]}")
    rmse = np.empty(n_leads)
    corr = np.zeros(n_leads)
    degenerate = np.zeros(n_leads, dtype=bool)
    spread = np.full(n_leads, np.nan)
    pooled = []
    for i in range(n_leads):
        t = np.asarray(truth_per_lead[i], dtype=float)
        f = np.asarray(forecast_means_per_lead[i], dtype=float)
        if t.shape != f.shape:
            raise ValueError(f"lead {i}: truth and forecast shapes disagree")
        if t.shape[0] < 2:
            raise ValueError(f"lead {i}: need at least 2 verification points")
        for name, values in (("truth", t), ("forecast", f)):
            if not np.isfinite(values).all():
                raise ValueError(f"lead {i}: {name} has non-finite entries")
        err = f - t
        rmse[i] = float(np.sqrt(np.mean(err * err)))
        tf, ff = t.ravel(), f.ravel()
        st, sf = tf.std(), ff.std()
        if st == 0.0 or sf == 0.0:
            degenerate[i] = True
        else:
            corr[i] = float(np.clip(np.corrcoef(tf, ff)[0, 1], -1.0, 1.0))
        pooled.append(tf)
        if forecast_stdevs_per_lead is not None:
            s = np.asarray(forecast_stdevs_per_lead[i], dtype=float)
            if not (np.isfinite(s) & (s >= 0)).all():
                raise ValueError(f"lead {i}: forecast stdev must be nonnegative and finite")
            spread[i] = float(np.sqrt(np.mean(s * s)))
    if climatology is None:
        clim = float(np.concatenate(pooled).std())
    else:
        clim = float(np.asarray(climatology, dtype=float).ravel().std())
    return SkillReport(
        lead_times=lead_times,
        rmse=rmse,
        correlation=corr,
        mean_forecast_stdev=spread,
        climatological_stdev=clim,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the experiment drivers; the driver a config is passed to
    is the experiment it runs.

    Desk-scale defaults keep runtimes in minutes on one core; the presets
    ``torus_config`` and ``lorenz_config`` take ``paper_scale=True`` (the
    CLI's ``--paper-scale``) for the published sizes.
    Of the fit, only ``n_basis`` is a key: the neighbour cap NEIGHBOR_CAP,
    the kernel exponent BETA, the ad-hoc bandwidth's k0 = 8 and the shift
    map's use of every consecutive pair are constants of ``fit_forecaster``.
    ``data_format``, the layout of the Nino-3.4 file, is one of the dated
    formats of ``load_series``, ``dataset.DATED_FORMATS``.
    ``out_dir`` is the one setting for where a run writes: each driver
    writes under ``out_dir/<torus|lorenz63|nino34>``, and its manifest
    records it.
    """

    n_samples: int = 8000
    dt: float = 0.1
    n_basis: int = 400
    lags: int = 5
    n_ens: int = 10000
    n_verify: int = 500
    lead_steps: int = 100
    seed: int = 0
    substeps: int = 50
    init_variance: float = 0.1
    perturbation_variance: float = 0.01
    data_path: str = ""
    data_format: str = "noaa-monthly-grid"
    out_dir: str = "runs"
    with_ensemble: bool = True

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))
        if self.n_basis > self.n_samples:
            raise ValueError("n_basis cannot exceed n_samples")


_MINIMUMS = dict(n_samples=16, n_basis=1, lags=1, n_ens=2, n_verify=2, lead_steps=1,
                 substeps=1)
_POSITIVE = ("dt", "init_variance", "perturbation_variance")


def _check_field(name: str, value) -> None:
    """ValueError if ``value`` is not allowed for the config key ``name`` on
    its own; checks that tie keys together stay in ``__post_init__``."""
    if name == "data_format" and value not in DATED_FORMATS:
        raise ValueError(f"data_format must be a dated format, {' or '.join(DATED_FORMATS)}, "
                         f"got {value!r}")
    if name in _MINIMUMS and value < _MINIMUMS[name]:
        raise ValueError(f"{name} must be >= {_MINIMUMS[name]}")
    if name in _POSITIVE and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read a flat ``key = value`` config file over a base configuration.
    Errors name ``path:line``, or only ``path`` for a check across keys."""
    base = base or ExperimentConfig()
    text = Path(path).read_text()
    overrides = {}
    valid = {f.name: f.type for f in fields(ExperimentConfig)}
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
        current = getattr(base, key)
        try:
            overrides[key] = _coerce(value, current)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{line_no}: config key {key}: expected "
                             f"{type(current).__name__}, got {value!r}") from None
        try:
            _check_field(key, overrides[key])
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

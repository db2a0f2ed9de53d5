"""Forecast-skill metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    degenerate: np.ndarray

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
        One aligned pair of arrays per lead, or lead-major arrays whose row
        l is lead l; each holds one entry per verification point, at least
        2, and an entry may be a scalar or a state vector (RMSE then
        aggregates over coordinates too).
    forecast_stdevs_per_lead : sequence of ndarray, optional
        Forecast spread per verification point (scalar or per-coordinate),
        aggregated to one root-mean value per lead.
    climatology : ndarray, optional
        Series whose population standard deviation defines the skill floor;
        defaults to the pooled truth values.

    No lead, or a non-finite lead time, is a ValueError. A non-finite truth
    or forecast entry, or a negative or non-finite stdev, is a ValueError
    that names its lead by its lead time.
    """
    lead_times = np.asarray(lead_times, dtype=float)
    n_leads = len(lead_times)
    if n_leads == 0:
        raise ValueError("need at least one lead")
    if len(truth_per_lead) != n_leads or len(forecast_means_per_lead) != n_leads:
        raise ValueError("one truth/forecast pair required per lead")
    if not np.isfinite(lead_times).all():
        i = np.flatnonzero(~np.isfinite(lead_times))[0]
        raise ValueError(f"lead times must be finite, got {lead_times[i]} at position {i}")
    rmse = np.empty(n_leads)
    corr = np.zeros(n_leads)
    degenerate = np.zeros(n_leads, dtype=bool)
    spread = np.full(n_leads, np.nan)
    pooled = []
    for i, lead in enumerate(lead_times.tolist()):
        t = np.asarray(truth_per_lead[i], dtype=float)
        f = np.asarray(forecast_means_per_lead[i], dtype=float)
        if t.shape != f.shape:
            raise ValueError(f"lead {lead:g}: truth and forecast shapes disagree")
        if t.ndim == 0 or t.shape[0] < 2:
            raise ValueError(f"lead {lead:g}: need at least 2 verification points")
        for name, values in (("truth", t), ("forecast", f)):
            if not np.isfinite(values).all():
                raise ValueError(f"lead {lead:g}: {name} has non-finite entries")
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
                raise ValueError(f"lead {lead:g}: forecast stdev must be nonnegative and finite")
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


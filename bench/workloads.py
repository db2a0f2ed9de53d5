"""The benchmark workloads. ``run.py`` starts this file in a fresh
process per run; it prints one JSON object as its last line.

Every workload runs the same four user operations through the package's
public functions, in the order of the experiment drivers and the CLI:
simulate -> fit_forecaster -> forecast (density values, projection, lead
ladder) -> baseline. The benchmark calls each function through its defining
module (``forecast.project_density``, ...) so the traced run can wrap it.

A run makes a fixed number of whole passes per workload, each on fresh
inputs drawn from (seed, pass index); timings are medians over the passes and
accuracy figures their means, so the same seed always gives the same figures.
``--seconds`` is accepted but does not change the work: the pass counts set
the run length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy

import diffusion_forecast
from diffusion_forecast import baselines, dataset, forecast, pipeline, simulators

from layers import PER_LAYER, instrument, layer_metrics
from reference import reference_seconds
from tracer import Tracer

TWO_PI = 2.0 * np.pi
CIRCLE_SPECTRUM = np.array([1.0, 1.0, 4.0, 4.0, 9.0, 9.0])

# full: the measured sizes; tiny: the smoke test's sizes
SIZES = {
    "full": {
        "circle-spectrum": dict(n=3000, m=10, tau=1.0, substeps=10, leads=8, densities=256,
                                ens_densities=16, init_var=0.5, n_ens=1000, passes=7),
        "lorenz-skill": dict(n_train=2000, n_verify=140, m=500, leads=80, init_var=0.01,
                             perturb_var=0.01, passes=6),
    },
    "tiny": {
        "circle-spectrum": dict(n=300, m=10, tau=1.0, substeps=2, leads=4, densities=2,
                                ens_densities=2, init_var=0.5, n_ens=100, passes=1),
        "lorenz-skill": dict(n_train=600, n_verify=100, m=50, leads=20, init_var=0.01,
                             perturb_var=0.01, passes=1),
    },
}


class Ledger:
    """Attempted and failed counts per kind of operation, plus broken checks.

    ``attempt`` runs one operation and returns its result, or None if it
    raised; the failure is counted, never hidden.
    """

    def __init__(self):
        self.fingerprint = ""
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: set[str] = set()
        self.broken: list[str] = []

    def tally(self, kind: str, attempted: int, failed: int) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def attempt(self, kind: str, fn, *args, **kwargs):
        result = self.try_quietly(kind, fn, *args, **kwargs)
        self.tally(kind, 1, result is None)
        return result

    def try_quietly(self, kind: str, fn, *args, **kwargs):
        """Run ``fn``; on failure keep the message but count nothing."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, FloatingPointError, RuntimeError) as err:
            self.errors.add(f"{kind}: {err}")
            return None

    def require(self, kind: str, result):
        """A result the rest of the pass cannot do without."""
        if result is None:
            raise RuntimeError(f"{kind} failed: {sorted(e for e in self.errors if e.startswith(kind))}")
        return result

    def record_inputs(self, points) -> None:
        """Keep a digest of the first pass's simulated series."""
        if not self.fingerprint:
            self.fingerprint = hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest()[:16]

    def check(self, ok, message: str) -> None:
        if not ok:
            self.broken.append(message)


def check_fit(ledger: Ledger, fit, n_basis: int) -> None:
    b = fit.basis
    lam = b.lam
    ledger.check(np.all(np.isfinite(lam)) and np.all(np.isfinite(b.phi)), "basis is not finite")
    ledger.check(np.all(np.isfinite(fit.operator.a)), "shift operator is not finite")
    ledger.check(lam.shape == (n_basis,) and b.phi.shape == (b.n_points, n_basis),
                 "basis has the wrong shape")
    ledger.check(np.all(np.diff(lam) >= 0), "eigenvalues are not ascending")
    ledger.check(abs(lam[0]) <= 1e-8, f"lambda_0 = {lam[0]:.3e} is not 0")
    gram = b.phi.T @ b.phi / b.n_points
    dev = float(np.max(np.abs(gram - np.eye(n_basis))))
    ledger.check(dev <= 1e-8, f"phi is not orthonormal (max deviation {dev:.2e})")


def check_moments(ledger: Ledger, name: str, mean, var, shape) -> None:
    ledger.check(mean.shape == shape and var.shape == shape,
                 f"{name} moments have shape {mean.shape}, expected {shape}")
    ledger.check(np.all(np.isfinite(mean)) and np.all(np.isfinite(var)), f"{name} moments are not finite")
    ledger.check(np.all(var >= 0), f"{name} variance is negative")


def project_all(ledger: Ledger, values_fn, n_densities: int, fit):
    """Density values and projection for each initial density; returns the
    (M, B) coefficients of those that projected and their indices."""
    cols, ok = [], []
    for j in range(n_densities):
        values = values_fn(j)
        coeffs = ledger.attempt("project", forecast.project_density, values, fit.basis)
        if coeffs is not None:
            cols.append(coeffs.c)
            ok.append(j)
    return np.column_stack(cols), np.array(ok, dtype=int)


def ladder(ledger: Ledger, coeffs, ok, fit, observables, n_leads: int):
    """Moments at leads 0..n_leads, shape (n_leads + 1, G, B), of the
    densities that come through the whole ladder, and their indices.

    The densities are evolved as one batch. When a batch step raises, each
    column takes that step on its own; a density whose step raises is a
    failed "evolve" operation and leaves the forecast.
    """
    b = coeffs.shape[1]
    means = np.full((n_leads + 1, observables.shape[1], b), np.nan)
    variances = np.full_like(means, np.nan)
    alive = np.arange(b)
    vec = coeffs
    for lead in range(n_leads + 1):
        if lead > 0:
            try:
                vec = forecast.evolve_coefficients(vec, fit.operator, 1)
            except (ValueError, FloatingPointError):
                stepped = [ledger.try_quietly("evolve", forecast.evolve_coefficients,
                                              vec[:, [k]], fit.operator, 1) for k in range(len(alive))]
                keep = [k for k, col in enumerate(stepped) if col is not None]
                if not keep:
                    raise RuntimeError(f"every density failed the lead ladder at lead {lead}")
                vec = np.hstack([stepped[k] for k in keep])
                alive = alive[keep]
        m, v = forecast.forecast_moments(vec, fit.basis, observables)
        means[lead][:, alive] = m
        variances[lead][:, alive] = v
    ledger.tally("evolve", b, b - len(alive))
    return means[:, :, alive], variances[:, :, alive], ok[alive]


def circle_model() -> simulators.SDEModel:
    """Brownian motion on the unit circle, d(theta) = sqrt(2) dW. Its
    generator is d^2/dtheta^2, so the data-adapted basis is the Fourier basis
    with eigenvalues k^2, and E[exp(i k theta_t)] decays as exp(-k^2 t)."""
    return simulators.SDEModel(
        dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.full(x.shape[:-1] + (1, 1), np.sqrt(2.0)),
        wrap=np.array([TWO_PI]),
    )


def circle_embed(theta) -> np.ndarray:
    return np.column_stack([np.cos(theta[:, 0]), np.sin(theta[:, 0])])


def circle_moments(mu: float, s2: float, t: np.ndarray):
    """Exact mean and variance of (cos, sin) of theta_t, theta_0 ~ N(mu, s2)."""
    c1 = np.exp(-(s2 / 2.0 + t))
    c2 = np.exp(-(2.0 * s2 + 4.0 * t))
    mean = np.stack([c1 * np.cos(mu), c1 * np.sin(mu)], axis=-1)
    second = np.stack([0.5 + 0.5 * c2 * np.cos(2 * mu), 0.5 - 0.5 * c2 * np.cos(2 * mu)], axis=-1)
    return mean, second - mean * mean


def circle_pass(ss, sz, ledger: Ledger, timer):
    sim_ss, p0_ss, ens_ss = ss.spawn(3)
    model = circle_model()
    rng = np.random.default_rng(p0_ss)
    theta0 = rng.uniform(0.0, TWO_PI, size=1)
    mus = rng.uniform(0.0, TWO_PI, size=sz["densities"])
    leads = sz["leads"]

    with timer("simulate"):
        angles = ledger.require("simulate", ledger.attempt(
            "simulate", simulators.euler_maruyama, model, theta0, sz["tau"], sz["substeps"],
            sz["n"], sim_ss))
        ts = dataset.TimeSeries(circle_embed(angles.points), tau=sz["tau"], origin_label="circle")
    ledger.record_inputs(angles.points)
    with timer("fit"):
        fit = ledger.require("fit", ledger.attempt("fit", pipeline.fit_forecaster, ts, sz["m"]))
    with timer("forecast"):
        coeffs, ok = project_all(ledger, lambda j: forecast.gaussian_density_values(
            angles.points, mus[j:j + 1], sz["init_var"], wrap=np.array([TWO_PI])),
            sz["densities"], fit)
        diff_mean, diff_var, ok = ladder(ledger, coeffs, ok, fit, ts.points, leads)
    with timer("baseline"):
        ens = [ledger.attempt(
            "baseline", baselines.ensemble_forecast, model,
            baselines.GaussianState.isotropic(mus[j:j + 1], sz["init_var"]),
            n_ens=sz["n_ens"], lead_steps=leads, rng_seed=seed, dt_sample=sz["tau"],
            substeps=sz["substeps"], observable=circle_embed)
            for j, seed in enumerate(ens_ss.spawn(sz["ens_densities"]))]

    check_fit(ledger, fit, sz["m"])
    check_moments(ledger, "diffusion", diff_mean, diff_var, (leads + 1, 2, len(ok)))
    t = np.arange(leads + 1) * sz["tau"]
    diff_err = []
    for col, j in enumerate(ok):
        exact_mean, exact_var = circle_moments(mus[j], sz["init_var"], t)
        diff_err.append(np.max(np.abs(diff_mean[:, :, col] - exact_mean)))
        if j < len(ens) and ens[j] is not None:
            check_moments(ledger, "ensemble", ens[j].mean, ens[j].variance, (leads + 1, 2))
            # |cos|, |sin| <= 1, so each ensemble mean has standard error <= 1/sqrt(n_ens)
            err = np.max(np.abs(ens[j].mean - exact_mean))
            ledger.check(err <= 6.0 / np.sqrt(sz["n_ens"]),
                         f"ensemble mean is {err:.3f} from the exact circle moments")
    lam = fit.basis.lam[1:7]
    spectrum_relerr = float(np.mean(np.abs(lam - CIRCLE_SPECTRUM) / CIRCLE_SPECTRUM))
    return {
        "accuracy_err": spectrum_relerr,
        "spectrum_relerr": spectrum_relerr,
        "moment_err_mean": float(np.mean(diff_err)),
        "clamped_var_frac": float(np.mean(diff_var == 0.0)),
    }


def lorenz_pass(ss, sz, ledger: Ledger, timer):
    sim_ss, perturb_ss = ss.spawn(2)
    leads = sz["leads"]
    n_states = sz["n_verify"] - leads

    with timer("simulate"):
        ts = ledger.require("simulate", ledger.attempt(
            "simulate", simulators.simulate_lorenz63, sz["n_train"] + sz["n_verify"], seed=sim_ss))
        train, verify = dataset.split(ts, sz["n_train"])
    ledger.record_inputs(ts.points)
    with timer("fit"):
        fit = ledger.require("fit", ledger.attempt("fit", pipeline.fit_forecaster, train, sz["m"]))
    rng = np.random.default_rng(perturb_ss)
    x_hat = verify.points[:n_states] + rng.normal(0.0, np.sqrt(sz["perturb_var"]), (n_states, 3))
    with timer("forecast"):
        coeffs, ok = project_all(ledger, lambda v: forecast.gaussian_density_values(
            train.points, x_hat[v], sz["init_var"]), n_states, fit)
        diff_mean, diff_var, ok = ladder(ledger, coeffs, ok, fit, train.points, leads)
    with timer("baseline"):
        direct = np.full((leads + 1, n_states, 3), np.nan)
        iterated = np.full((n_states, 3), np.nan)
        for v in range(n_states):
            init = baselines.GaussianState.isotropic(x_hat[v], sz["init_var"])
            direct[0, v] = x_hat[v]
            for lead in range(1, leads + 1):
                out = ledger.attempt("baseline", baselines.local_linear_forecast, train, init, lead)
                if out is not None:
                    direct[lead, v] = out.mean
            out = ledger.attempt("baseline", baselines.iterated_local_linear_forecast, train, init, leads)
            if out is not None:
                iterated[v] = out.mean

    check_fit(ledger, fit, sz["m"])
    check_moments(ledger, "diffusion", diff_mean, diff_var, (leads + 1, 3, len(ok)))
    done = ~np.isnan(direct)
    ledger.check(np.all(np.isfinite(direct[done])), "local-linear means are not finite")
    ledger.check(np.all(np.isfinite(iterated[~np.isnan(iterated)])), "iterated means are not finite")
    truth = np.stack([verify.points[lead:lead + n_states] for lead in range(leads + 1)])
    clim = float(np.sqrt(np.mean(verify.points.var(axis=0))))
    err = diff_mean.transpose(0, 2, 1) - truth[:, ok]
    rmse = np.sqrt(np.mean(err * err, axis=(1, 2)))
    ll_err = np.where(done, direct - truth, 0.0)
    ll_rmse = np.sqrt(np.sum(ll_err * ll_err, axis=(1, 2)) / np.maximum(done.sum(axis=(1, 2)), 1))
    return {
        "accuracy_err": float(np.mean(rmse) / clim),
        "forecast_rmse": float(np.mean(rmse) / clim),
        "local_linear_rmse": float(np.mean(ll_rmse) / clim),
        "clamped_var_frac": float(np.mean(diff_var == 0.0)),
    }


# end-to-end metrics this process measures; run.py adds setup_s. The stages
# made of many small calls are reported in multiples of the reference work
# timed around them (see reference.py). The fit is mostly large array
# kernels, which a busy host slows much less than it slows the reference,
# so it is reported in seconds. Raw seconds of every stage are on the line
# before the result.
E2E = [("simulate_ref", "ref"), ("fit_s", "s"), ("forecast_ref", "ref"),
       ("baseline_ref", "ref"), ("total_ref", "ref"), ("peak_rss_mb", "MB"),
       ("accuracy_err", "ratio")]

PASSES = {"circle-spectrum": circle_pass, "lorenz-skill": lorenz_pass}
STAGES = ("simulate", "fit", "forecast", "baseline")


def one_pass(workload: str, seed: int, index: int, sz, ledger: Ledger) -> tuple[dict, dict]:
    """Pass ``index`` of a run; its inputs depend only on (seed, index).

    Returns each stage's seconds (``fit_s``, ...) and its time in multiples
    of the reference work timed just before and just after it (``fit_ref``,
    ...), plus the totals over the four user operations.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    times: dict[str, float] = {}
    refs = [reference_seconds()]

    @contextmanager
    def timer(stage: str):
        start = time.perf_counter()
        yield
        times[f"{stage}_s"] = time.perf_counter() - start
        refs.append(reference_seconds())
        times[f"{stage}_ref"] = times[f"{stage}_s"] / np.sqrt(refs[-2] * refs[-1])

    accuracy = PASSES[workload](ss, sz, ledger, timer)
    # the totals cover the four user operations, not the benchmark's checks
    for unit in ("s", "ref"):
        times[f"total_{unit}"] = sum(times[f"{s}_{unit}"] for s in STAGES)
    times["reference_s"] = float(np.median(refs))
    return times, accuracy


def environment(seed: int) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "package": diffusion_forecast.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    sz = SIZES[args.scale][args.workload]
    ledger = Ledger()
    timings, accuracy = [], []
    # the traced run measures pass 0 only
    for i in range(1 if args.trace else sz["passes"]):
        t, acc = one_pass(args.workload, args.seed, i, sz, ledger)
        timings.append(t)
        accuracy.append(acc)
    ops = {k: [n, ledger.failed.get(k, 0)] for k, n in ledger.attempted.items()}

    report = {name: float(np.mean([a[name] for a in accuracy])) for name in accuracy[0]}
    metrics = {s: float(np.median([t[s] for t in timings])) for s, _ in E2E if s in timings[0]}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["accuracy_err"] = report.pop("accuracy_err")
    units = dict(E2E)
    if args.trace:
        # pass 0 again, untraced and warm, then traced; their difference is
        # the tracing overhead, free of the first pass's cold start
        warm, _ = one_pass(args.workload, args.seed, 0, sz, ledger)
        with Tracer() as tracer:
            instrument(tracer)
            traced, _ = one_pass(args.workload, args.seed, 0, sz, ledger)
        metrics = layer_metrics(tracer, args.workload)
        metrics["bench.trace_overhead_s"] = traced["total_s"] - warm["total_s"]
        units = dict(PER_LAYER)

    attempted = sum(n for n, _ in ops.values())
    failed = sum(f for _, f in ops.values())
    report["failed_frac"] = failed / attempted
    print(json.dumps({
        "env": environment(args.seed),
        "inputs": ledger.fingerprint,
        "passes": len(timings),
        "pass_times": {s: [t[s] for t in timings] for s in timings[0]},
        "operations": ops,
        "errors": sorted(ledger.errors)[:5],
        "broken_checks": ledger.broken,
        "report": report,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, sort_keys=True))
    if ledger.broken:
        print("broken checks: " + "; ".join(ledger.broken), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

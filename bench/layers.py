"""Which package boundaries the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules the workloads exercise: simulators, dataset,
tuning, basis, forecast, baselines and pipeline. A function imported by
name into another module is wrapped in that caller module. Its span is named
``<defining module>.<function>``; the suffix ``@baselines`` marks the two
functions the baselines import from other layers.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

LAYERS = ("simulators", "dataset", "tuning", "basis", "forecast", "baselines", "pipeline")

SIM_ENTRIES = ("simulators.simulate_lorenz63", "simulators.euler_maruyama")

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("basis.eigensolve_s", "s"),
    ("basis.arpack_calls", "count"),
    ("basis.arpack_matvecs", "count"),
    ("basis.arpack_matvec_flops", "flop"),
    ("basis.dense_calls", "count"),
    ("basis.dense_matrix_mb", "MB"),
    ("basis.kernel_s", "s"),
    ("basis.kernel_nnz_per_row", "count"),
    ("basis.normalize_s", "s"),
    ("tuning.kernel_sum_s", "s"),
    ("tuning.kernel_sum_pairs", "count"),
    ("tuning.tune_s", "s"),
    ("tuning.tune_evals", "count"),
    ("tuning.kde_s", "s"),
    ("tuning.boundary_flags", "count"),
    ("dataset.knn_s", "s"),
    ("dataset.knn_calls", "count"),
    ("dataset.knn_pairs", "count"),
    ("forecast.shift_s", "s"),
    ("forecast.density_eval_s", "s"),
    ("forecast.project_s", "s"),
    ("forecast.evolve_s", "s"),
    ("forecast.moments_s", "s"),
    ("forecast.moments_calls", "count"),
    ("forecast.clamped_entries", "count"),
    ("simulators.simulate_s", "s"),
    ("simulators.step_calls", "count"),
    ("simulators.us_per_sample", "us"),
    ("baselines.ensemble_s", "s"),
    ("baselines.ensemble_step_s", "s"),
    ("baselines.ensemble_self_s", "s"),
    ("baselines.local_linear_s", "s"),
    ("baselines.iterated_s", "s"),
    ("baselines.affine_fits", "count"),
    ("baselines.failed_calls", "count"),
    ("pipeline.fit_self_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("bench.trace_overhead_s", "s"),
]

KNN_SPANS = ("dataset.knn", "dataset.knn_points@baselines")


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``basis`` so the ARPACK
    call can be timed and its matrix-vector products counted. The operator
    wrapper computes exactly ``a @ x``, as ARPACK's own wrapping does."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def eigsh(self, a, *args, **kwargs):
        matvecs = [0]

        def matvec(x):
            matvecs[0] += 1
            return a @ x

        op = self._real.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
        try:
            return self._tracer.call("basis.eigsh", self._real.eigsh, (op,) + args, kwargs)
        finally:
            counts = self._tracer.counts
            counts["arpack_calls"] += 1
            counts["arpack_matvecs"] += matvecs[0]
            counts["arpack_matvec_flops"] += 2.0 * a.nnz * matvecs[0]


class _CountingSum:
    """Callable stand-in for a PairwiseKernelSum that counts grid points."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, eps_grid):
        self._tracer.counts["tune_evals"] += np.size(eps_grid)
        return self._inner(eps_grid)


def instrument(tracer: Tracer) -> None:
    """Wrap every measured boundary; ``tracer.close()`` undoes it."""
    from diffusion_forecast import basis, baselines, forecast, pipeline, simulators

    def knn_self(t, args, kwargs, result):
        n = args[0].n_points
        t.counts["knn_pairs"] += n * n

    def knn_query(t, args, kwargs, result):
        pts = args[0]
        query = kwargs.get("query", args[2] if len(args) > 2 else None)
        rows = pts.shape[0] if query is None else np.atleast_2d(query).shape[0]
        t.counts["knn_pairs"] += rows * pts.shape[0]

    def sim_samples(t, args, kwargs, result):
        if not t.inside(SIM_ENTRIES):
            ts = result[1] if isinstance(result, tuple) else result
            t.counts["sim_samples"] += ts.n_points

    def count(key):
        def after(t, args, kwargs, result):
            t.counts[key] += 1
        return after

    def tuned(t, args, kwargs, result):
        t.counts["boundary_flags"] += bool(result.boundary_warning)

    def kernel_built(t, args, kwargs, result):
        t.counts["kernel_rows"] += result.shape[0]
        t.counts["kernel_nnz"] += result.nnz

    def dense_eigh(t, args, kwargs, result):
        n = args[0].shape[0]
        t.counts["dense_calls"] += 1
        t.counts["dense_matrix_mb"] = max(t.counts["dense_matrix_mb"], n * n * 8 / 1e6)

    def moments(t, args, kwargs, result):
        t.counts["moments_calls"] += 1
        t.counts["clamped_entries"] += int(np.count_nonzero(result[1] == 0.0))

    def affine(t, args, kwargs, result):
        lead = kwargs.get("lead_steps", args[2] if len(args) > 2 else None)
        t.counts["affine_fits"] += lead != 0

    tracer.wrap(simulators, "simulate_lorenz63", "simulators.simulate_lorenz63", sim_samples)
    tracer.wrap(simulators, "euler_maruyama", "simulators.euler_maruyama", sim_samples)
    tracer.wrap(simulators, "sde_step_batch", "simulators.sde_step_batch", count("step_calls"))
    tracer.wrap(simulators, "rk4_step_batch", "simulators.rk4_step_batch", count("step_calls"))

    tracer.wrap(pipeline, "fit_forecaster", "pipeline.fit_forecaster")
    tracer.wrap(pipeline, "knn", "dataset.knn", knn_self)
    tracer.wrap(pipeline, "tune", "tuning.tune", tuned)
    tracer.wrap(pipeline, "kde", "tuning.kde")
    tracer.wrap(pipeline, "build_vb_kernel", "basis.build_vb_kernel", kernel_built)
    tracer.wrap(pipeline, "build_basis", "basis.build_basis")
    tracer.wrap(basis, "eigh", "basis.eigh", dense_eigh)
    tracer.wrap(pipeline, "estimate_shift_operator", "forecast.estimate_shift_operator")

    pairwise = pipeline.PairwiseKernelSum

    def kernel_sum(*args, **kwargs):
        inner = tracer.call("tuning.PairwiseKernelSum", pairwise, args, kwargs)
        tracer.counts["kernel_sum_pairs"] += inner.n * inner.n
        return _CountingSum(inner, tracer)

    tracer.replace(pipeline, "PairwiseKernelSum", kernel_sum)
    tracer.replace(basis, "spla", _SplaProxy(basis.spla, tracer))

    tracer.wrap(forecast, "gaussian_density_values", "forecast.gaussian_density_values")
    tracer.wrap(forecast, "project_density", "forecast.project_density")
    tracer.wrap(forecast, "evolve_coefficients", "forecast.evolve_coefficients")
    tracer.wrap(forecast, "forecast_moments", "forecast.forecast_moments", moments)

    tracer.wrap(baselines, "ensemble_forecast", "baselines.ensemble_forecast")
    tracer.wrap(baselines, "sde_step_batch", "simulators.sde_step_batch@baselines")
    tracer.wrap(baselines, "local_linear_forecast", "baselines.local_linear_forecast")
    tracer.wrap(baselines, "iterated_local_linear_forecast", "baselines.iterated_local_linear_forecast")
    tracer.wrap(baselines, "fit_local_affine", "baselines.fit_local_affine", affine)
    tracer.wrap(baselines, "knn_points", "dataset.knn_points@baselines", knn_query)


def expected_spans(workload: str) -> set[str]:
    """Spans that must fire at least once on ``workload``; a refactor that
    bypasses one of these names would otherwise report a silent 0."""
    fit = {
        "pipeline.fit_forecaster", "dataset.knn", "tuning.PairwiseKernelSum", "tuning.tune",
        "tuning.kde", "basis.build_vb_kernel", "basis.build_basis",
        "basis.eigh", "forecast.estimate_shift_operator",
        "forecast.gaussian_density_values", "forecast.project_density",
        "forecast.evolve_coefficients", "forecast.forecast_moments",
    }
    if workload == "circle-spectrum":
        return fit | {
            "simulators.euler_maruyama", "simulators.sde_step_batch",
            "baselines.ensemble_forecast", "simulators.sde_step_batch@baselines",
        }
    return fit | {
        "simulators.simulate_lorenz63", "simulators.rk4_step_batch",
        "baselines.local_linear_forecast", "baselines.iterated_local_linear_forecast",
        "baselines.fit_local_affine", "dataset.knn_points@baselines",
    }


def layer_metrics(tracer: Tracer, workload: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass, every name in PER_LAYER except
    the tracing overhead, which the caller adds."""
    missing = sorted(name for name in expected_spans(workload) if tracer.calls[name] == 0)
    if missing:
        raise RuntimeError(f"traced boundaries never fired on {workload}: {', '.join(missing)}")
    c = tracer.counts
    own = tracer.self_times()
    total = tracer.total
    simulate_s = total(*SIM_ENTRIES)
    ensemble_s = total("baselines.ensemble_forecast")
    ensemble_step_s = total("simulators.sde_step_batch@baselines")
    out = {
        "basis.eigensolve_s": total("basis.eigh", "basis.eigsh"),
        "basis.arpack_calls": c["arpack_calls"],
        "basis.arpack_matvecs": c["arpack_matvecs"],
        "basis.arpack_matvec_flops": c["arpack_matvec_flops"],
        "basis.dense_calls": c["dense_calls"],
        "basis.dense_matrix_mb": c["dense_matrix_mb"],
        "basis.kernel_s": own["basis.build_vb_kernel"],
        "basis.kernel_nnz_per_row": c["kernel_nnz"] / c["kernel_rows"] if c["kernel_rows"] else 0.0,
        "basis.normalize_s": own["basis.build_basis"],
        "tuning.kernel_sum_s": total("tuning.PairwiseKernelSum"),
        "tuning.kernel_sum_pairs": c["kernel_sum_pairs"],
        "tuning.tune_s": total("tuning.tune"),
        "tuning.tune_evals": c["tune_evals"],
        "tuning.kde_s": total("tuning.kde"),
        "tuning.boundary_flags": c["boundary_flags"],
        "dataset.knn_s": total(*KNN_SPANS),
        "dataset.knn_calls": sum(tracer.calls[name] for name in KNN_SPANS),
        "dataset.knn_pairs": c["knn_pairs"],
        "forecast.shift_s": total("forecast.estimate_shift_operator"),
        "forecast.density_eval_s": total("forecast.gaussian_density_values"),
        "forecast.project_s": total("forecast.project_density"),
        "forecast.evolve_s": total("forecast.evolve_coefficients"),
        "forecast.moments_s": total("forecast.forecast_moments"),
        "forecast.moments_calls": c["moments_calls"],
        "forecast.clamped_entries": c["clamped_entries"],
        "simulators.simulate_s": simulate_s,
        "simulators.step_calls": c["step_calls"],
        "simulators.us_per_sample": 1e6 * simulate_s / c["sim_samples"] if c["sim_samples"] else 0.0,
        "baselines.ensemble_s": ensemble_s,
        "baselines.ensemble_step_s": ensemble_step_s,
        "baselines.ensemble_self_s": own["baselines.ensemble_forecast"],
        "baselines.local_linear_s": total("baselines.local_linear_forecast"),
        "baselines.iterated_s": total("baselines.iterated_local_linear_forecast"),
        "baselines.affine_fits": c["affine_fits"],
        "baselines.failed_calls": (tracer.errors["baselines.local_linear_forecast"]
                                   + tracer.errors["baselines.iterated_local_linear_forecast"]),
        "pipeline.fit_self_s": own["pipeline.fit_forecaster"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.split(".")[0] == layer)
    return {name: float(value) for name, value in out.items()}

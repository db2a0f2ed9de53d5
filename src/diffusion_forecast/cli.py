"""Command-line surface: simulate, build-basis, forecast, baseline, evaluate,
and the three packaged experiments."""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import GaussianState, ensemble_forecast, iterated_local_linear_ladder, local_linear_ladder
from .dataset import (SERIES_FORMATS, delay_embed, load_series, read_csv, write_csv, write_json,
                      write_series_csv)
from .evaluation import rmse_and_correlation
from .experiments import (
    LorenzConfig,
    NinoConfig,
    TorusConfig,
    load_config,
    paper_scale,
    run_lorenz_experiment,
    run_nino_experiment,
    run_torus_experiment,
)
from .forecast import (
    DensityCoefficients,
    MomentForecast,
    evolve_ladder,
    forecast_ladder,
    gaussian_density_values,
    project_density,
    reconstruct_density,
)
from .pipeline import fit_forecaster, fit_record, load_model, save_model
from .simulators import lorenz_model, lorenz_substeps, simulate_lorenz63, simulate_torus, torus_model


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads the value of `--mean -0.5,1.0` as an option; attach it
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--mean", "--var") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusion-forecast",
        description="Nonparametric density forecasting on a data-adapted diffusion basis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate training data from a built-in system")
    p.add_argument("system", choices=["torus", "lorenz63"])
    p.add_argument("--n-samples", type=int, default=8000)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--substeps", type=int, default=None,
                   help="steps per sample for the torus (default 50); Lorenz-63 steps at most 0.01")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="runs/simulate")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("build-basis",
                       help="fit the forecaster (basis and shift operator) to a series "
                            "and save it as one model file")
    p.add_argument("--series", required=True, help="series CSV (written by simulate) or text file")
    p.add_argument("--format", default="csv", choices=SERIES_FORMATS,
                   help="layout of --series: csv (a header row, then one column per "
                        "coordinate, as simulate writes), single-column (one value a line), "
                        "two-column-dated (YYYY-MM,value lines) or noaa-monthly-grid "
                        "(rows of year v1 ... v12); in the three text layouts a value at "
                        "or below -99 ends the series")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--lags", type=int, default=1)
    p.add_argument("--m", type=int, required=True, help="number of basis functions")
    p.add_argument("--out", required=True,
                   help="model file (npz) holding the basis, the shift operator, the "
                        "training points and, in its metadata entry fit, the fit "
                        "diagnostics; written to exactly this path")
    p.add_argument("--dump-tuning", action="store_true",
                   help="also write the (log eps, log T) sweep curves next to the "
                        "model file, as <out>_tuning_{kde,vb}.csv without a .npz suffix")
    p.set_defaults(handler=_cmd_build_basis)

    p = sub.add_parser("forecast", help="evolve a Gaussian initial density and report moments")
    p.add_argument("--model", required=True, help="model file written by build-basis")
    p.add_argument("--mean", required=True, help="comma-separated initial mean")
    p.add_argument("--var", required=True,
                   help="initial variance (scalar or comma-separated diagonal)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-density", action="store_true",
                   help="also write the density at every lead to <out>.density.csv, "
                        "without a .csv suffix in <out>")
    p.set_defaults(handler=_cmd_forecast)

    p = sub.add_parser("baseline", help="reference forecasts from the training series")
    p.add_argument("--series", help="training series CSV for the local-linear and iterated methods")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--method", required=True, choices=["local-linear", "iterated", "ensemble"])
    p.add_argument("--mean", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="neighbours of the local-linear and iterated methods (default 15)")
    p.add_argument("--system", choices=["torus", "lorenz63"],
                   help="true model for the ensemble method")
    p.add_argument("--n-ens", type=int, default=None,
                   help="members of the ensemble method (default 10000)")
    p.add_argument("--substeps", type=int, default=None,
                   help="steps per sample of the ensemble method for the torus (default 50); "
                        "Lorenz-63 steps at most 0.01")
    p.add_argument("--seed", type=int, default=None, help="seed of the ensemble method (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("evaluate", help="skill metrics from (lead, truth, forecast) rows")
    p.add_argument("--input", required=True,
                   help="CSV with columns lead,truth,forecast[,stdev]")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run a packaged experiment end to end")
    p.add_argument("name", choices=["torus", "lorenz63", "nino34"])
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--data", default=None, help="Nino-3.4 data file")
    p.set_defaults(handler=_cmd_experiment)

    return parser


def _substeps(args, dt: float) -> int:
    """Steps per sample of ``dt``: ``--substeps`` (50 if not given) for the
    torus; Lorenz-63 steps at most 0.01."""
    if args.system == "lorenz63":
        return lorenz_substeps(dt)
    return 50 if args.substeps is None else args.substeps


def _cmd_simulate(args) -> int:
    substeps = _substeps(args, args.dt)
    if args.system == "torus":
        series = dict(zip(("torus_intrinsic.csv", "torus_embedded.csv"),
                          simulate_torus(args.n_samples, args.dt, substeps, args.seed)))
    else:
        series = {"lorenz63.csv": simulate_lorenz63(args.n_samples, args.dt, args.seed)}
    out = Path(args.out_dir)
    for name, ts in series.items():
        write_series_csv(ts, out / name)
    manifest = {
        "system": args.system, "n_samples": args.n_samples, "dt": args.dt,
        "substeps": substeps, "seed": args.seed, "tau": args.dt, "files": list(series),
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {', '.join(manifest['files'])} to {out}")
    return 0


def _cmd_build_basis(args) -> int:
    ts, _ = load_series(args.series, args.format, tau=args.tau)
    ts = delay_embed(ts, args.lags)  # rejects lags < 1; the same points at 1
    fit = fit_forecaster(ts, args.m)
    out = Path(args.out)
    record = fit_record(fit)
    save_model(out, fit.basis, fit.operator, ts.points,
               {"source": str(args.series), "lags": args.lags, "fit": record})
    if args.dump_tuning:
        for name, tuning in (("kde", fit.kde_tuning), ("vb", fit.vb_tuning)):
            write_csv(_sidecar(out, f"_tuning_{name}.csv"), ["log_eps", "log_t"], tuning.curve)
    solver = record["eigensolver"]
    # the dense path computes no residual; the line keeps printing it as nan
    residual = float("nan") if solver["max_residual"] is None else solver["max_residual"]
    print(f"wrote {out} (eigensolver {solver['path']}, {solver['matvecs']} ARPACK matvecs, "
          f"max residual {residual:.1e}, lambda_edge {record['lambda_edge']:.3g}, "
          f"M_eff {record['m_eff']})")
    return 0


def _sidecar(out: Path, tail: str) -> Path:
    """``out`` with ``tail`` in place of a trailing ``.csv`` or ``.npz`` and
    after any other name, so ``run.m3`` and ``run.m5`` keep apart."""
    name = out.name[:-len(out.suffix)] if out.suffix in (".csv", ".npz") else out.name
    return out.with_name(name + tail)


def _parse_gaussian(args) -> tuple[np.ndarray, np.ndarray]:
    """The initial mean and diagonal variance from ``--mean`` and ``--var``;
    a single variance applies to every coordinate, and any other count than
    one or the mean's dimension is a ValueError."""
    mean, var = (np.array([float(tok) for tok in text.split(",")]) for text in (args.mean, args.var))
    if var.size not in (1, mean.size):
        raise ValueError(f"--var has {var.size} entries; give one, or one per coordinate "
                         f"of --mean ({mean.size})")
    return mean, np.resize(var, mean.size)


def _check_steps(args) -> None:
    """The one check of ``--steps``, for forecast and baseline alike."""
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")


def _cmd_forecast(args) -> int:
    _check_steps(args)
    basis, op, observables, _ = load_model(args.model)
    mean, var = _parse_gaussian(args)
    if observables.shape[1] != mean.size:
        raise ValueError("initial mean dimension does not match the training points")
    coeffs = project_density(gaussian_density_values(observables, mean, var), basis)
    out = _write_moments(Path(args.out), forecast_ladder(coeffs, op, basis, observables, args.steps))
    if args.dump_density:
        density = np.column_stack([reconstruct_density(DensityCoefficients(vec), basis)
                                   for vec in evolve_ladder(coeffs, op, args.steps)])
        write_csv(_sidecar(out, ".density.csv"),
                  [f"lead{j}" for j in range(args.steps + 1)], density)
    print(f"wrote {out}")
    return 0


def _write_moments(out: Path, fc: MomentForecast) -> Path:
    """Write a one-state forecast of the state's coordinates to ``out``, as
    lead_time, mean_x0..mean_x{dim-1} and stdev_x0..stdev_x{dim-1} columns."""
    dim = fc.mean.shape[1]
    header = ["lead_time"] + [f"mean_x{j}" for j in range(dim)] + [f"stdev_x{j}" for j in range(dim)]
    write_csv(out, header, np.column_stack([fc.lead_times, fc.mean, np.sqrt(fc.variance)]))
    return out


def _cmd_baseline(args) -> int:
    _check_steps(args)
    ensemble = args.method == "ensemble"
    # each flag a method does not read, in the parser's order; each has no default
    ignored = ("series", "k") if ensemble else ("system", "n_ens", "substeps", "seed")
    for name in ignored:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is not read by the {args.method} method")
    if ensemble:
        if not args.system:
            raise ValueError("--system is required for the ensemble method")
    elif not args.series:
        raise ValueError(f"--series is required for the {args.method} method")
    else:
        ts, _ = load_series(args.series, "csv", tau=args.tau)
    mean, var = _parse_gaussian(args)
    init = GaussianState(mean=mean, cov=np.diag(var))
    if ensemble:
        model = torus_model() if args.system == "torus" else lorenz_model()
        fc = ensemble_forecast(model, init, 10000 if args.n_ens is None else args.n_ens,
                               args.steps, 0 if args.seed is None else args.seed,
                               dt_sample=args.tau, substeps=_substeps(args, args.tau))
    else:
        ladder = local_linear_ladder if args.method == "local-linear" else iterated_local_linear_ladder
        fc = ladder(ts, init, args.steps, k=15 if args.k is None else args.k)
    out = _write_moments(Path(args.out), fc)
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    header, rows = read_csv(args.input)
    if header[:3] != ["lead", "truth", "forecast"]:
        raise ValueError("expected header lead,truth,forecast[,stdev]")
    has_stdev = len(header) > 3 and header[3] == "stdev"
    data = {}
    for parts in rows.tolist():
        entry = data.setdefault(parts[0], ([], [], []))
        entry[0].append(parts[1])
        entry[1].append(parts[2])
        if has_stdev:
            entry[2].append(parts[3])
    leads = sorted(data)
    truth = [np.array(data[ld][0]) for ld in leads]
    fc = [np.array(data[ld][1]) for ld in leads]
    stdev = [np.array(data[ld][2]) for ld in leads] if has_stdev else None
    report = rmse_and_correlation(truth, fc, np.array(leads), forecast_stdevs_per_lead=stdev)
    out = Path(args.out)
    write_csv(out, ["lead", "rmse", "correlation", "mean_forecast_stdev",
                    "climatological_stdev", "degenerate"],
              [[ld, report.rmse[i], report.correlation[i], report.mean_forecast_stdev[i],
                report.climatological_stdev, int(report.degenerate[i])]
               for i, ld in enumerate(leads)])
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    make, run = {"torus": (TorusConfig, run_torus_experiment),
                 "lorenz63": (LorenzConfig, run_lorenz_experiment),
                 "nino34": (NinoConfig, run_nino_experiment)}[args.name]
    if args.data is not None and make is not NinoConfig:
        raise ValueError(f"--data is the Nino-3.4 data file; experiment {args.name} reads none")
    config = paper_scale(make()) if args.paper_scale else make()
    if args.config:
        config = load_config(args.config, config)
    flags = {"--seed": ("seed", args.seed), "--out-dir": ("out_dir", args.out_dir),
             "--data": ("data_path", args.data)}
    overrides = {}
    for flag, (key, value) in flags.items():
        if value is not None:
            make.check_key(key, value, label=flag)
            overrides[key] = value
    config = replace(config, **overrides)
    print(f"wrote {' and '.join(map(str, run(config).csv_paths))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

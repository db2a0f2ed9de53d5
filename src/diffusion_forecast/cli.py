"""Command-line surface: simulate, build-basis, forecast, baseline, ensemble,
evaluate and experiment. Each command, and each system under simulate,
ensemble and experiment, declares only the flags it reads, so argparse
refuses any other flag, or a prefix of one, before a file is read."""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from functools import partial
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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """Takes a flag only by its full name: ``--out`` is no ``--out-dir``. A
    command given ``systems`` takes one of them first, and refuses a flag
    written before it by the flag's name, where argparse would read the
    flag's value as a bad system."""

    def __init__(self, systems=(), **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.systems = systems

    def parse_known_args(self, args=None, namespace=None):
        flag = args[0].split("=")[0] if self.systems and args else ""
        if flag.startswith("-") and flag not in ("-h", "--help"):
            self.error(f"{flag} goes after the system: "
                       f"{self.prog} {{{','.join(self.systems)}}} {flag} ...")
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffusion-forecast",
                     description="Nonparametric density forecasting on a data-adapted diffusion basis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    flags = partial(argparse.ArgumentParser, add_help=False)
    step = flags()
    step.add_argument("--dt", type=float, default=0.1, help="time between samples (default 0.1)")
    step.add_argument("--seed", type=int, default=0)
    substeps = flags()
    substeps.add_argument("--substeps", type=int, default=50, help="SDE steps per sample (default 50)")
    initial = flags()
    initial.add_argument("--mean", required=True, help="comma-separated initial mean")
    initial.add_argument("--var", required=True, help="initial variance (one, or one per coordinate)")
    initial.add_argument("--steps", type=int, required=True, help="leads after lead 0")
    initial.add_argument("--out", required=True, help="moments CSV: lead_time, mean_x*, stdev_x*")
    tau = flags()
    tau.add_argument("--tau", type=float, required=True, help="sampling interval of the series")

    p = flags()
    p.add_argument("--n-samples", type=int, default=8000)
    p.add_argument("--out-dir", default="runs/simulate")
    _systems(sub, "simulate", "generate training data from a built-in system; Lorenz-63 "
                              "steps at most 0.01", _cmd_simulate,
             {"torus": [step, substeps], "lorenz63": [step]}, p)

    p = sub.add_parser("build-basis", parents=[tau],
                       help="fit the forecaster (basis and shift operator) to a series "
                            "and save it as one model file")
    p.add_argument("--series", required=True, help="series CSV (written by simulate) or text file")
    p.add_argument("--format", default="csv", choices=SERIES_FORMATS,
                   help="layout of --series: csv (a header row, then one column per "
                        "coordinate, as simulate writes), single-column (one value a line), "
                        "two-column-dated (YYYY-MM,value lines) or noaa-monthly-grid "
                        "(rows of year v1 ... v12); in the three text layouts a value at "
                        "or below -99 ends the series")
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

    p = sub.add_parser("forecast", parents=[initial],
                       help="evolve a Gaussian initial density and report moments")
    p.add_argument("--model", required=True, help="model file written by build-basis")
    p.add_argument("--dump-density", action="store_true",
                   help="also write the density at every lead to <out>.density.csv, "
                        "without a .csv suffix in <out>")
    p.set_defaults(handler=_cmd_forecast)

    p = sub.add_parser("baseline", parents=[tau, initial],
                       help="local-linear or iterated local-linear forecasts from a training series")
    p.add_argument("--series", required=True, help="training series CSV")
    p.add_argument("--method", required=True, choices=["local-linear", "iterated"])
    p.set_defaults(handler=_cmd_baseline)

    p = flags()
    p.add_argument("--n-ens", type=int, default=10000, help="members (default 10000)")
    _systems(sub, "ensemble", "true-model ensemble forecasts, stepped as simulate steps", _cmd_ensemble,
             {"torus": [step, substeps], "lorenz63": [step]}, p, initial)

    p = sub.add_parser("evaluate", help="skill metrics from (lead, truth, forecast) rows")
    p.add_argument("--input", required=True,
                   help="CSV with the header lead,truth,forecast or lead,truth,forecast,stdev")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    paper, data = flags(), flags()
    paper.add_argument("--paper-scale", action="store_true", help="the paper's sizes")
    data.add_argument("--data", help="Nino-3.4 data file")
    # an override left out keeps the config's value
    p = flags()
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None, help="the config's seed")
    p.add_argument("--out-dir", default=None, help="the config's out_dir")
    _systems(sub, "experiment", "run a packaged experiment end to end", _cmd_experiment,
             {"torus": [paper], "lorenz63": [paper], "nino34": [data]}, p)
    return parser


def _systems(sub, command: str, about: str, handler, own: dict, *common) -> None:
    """``command`` with one subcommand per system of ``own``, each taking the
    flags of the parent parsers ``common`` and of its own list."""
    systems = sub.add_parser(command, help=about, systems=tuple(own)).add_subparsers(
        dest="system", required=True)
    for name, parents in own.items():
        systems.add_parser(name, parents=[*common, *parents]).set_defaults(handler=handler)


def _substeps(args) -> int:
    """Steps per sample of ``--dt``: ``--substeps`` for the torus, the one
    system that declares it; Lorenz-63 steps at most 0.01."""
    return args.substeps if args.system == "torus" else lorenz_substeps(args.dt)


def _cmd_simulate(args) -> int:
    substeps = _substeps(args)
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
    """The one check of ``--steps``, for forecast, baseline and ensemble alike."""
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
        density = np.column_stack([reconstruct_density(vec, basis)
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
    ts, _ = load_series(args.series, "csv", tau=args.tau)
    mean, var = _parse_gaussian(args)
    ladder = local_linear_ladder if args.method == "local-linear" else iterated_local_linear_ladder
    fc = ladder(ts, GaussianState(mean=mean, cov=np.diag(var)), args.steps)
    print(f"wrote {_write_moments(Path(args.out), fc)}")
    return 0


def _cmd_ensemble(args) -> int:
    _check_steps(args)
    mean, var = _parse_gaussian(args)
    model = torus_model() if args.system == "torus" else lorenz_model()
    fc = ensemble_forecast(model, GaussianState(mean=mean, cov=np.diag(var)), args.n_ens,
                           args.steps, args.seed, dt_sample=args.dt, substeps=_substeps(args))
    print(f"wrote {_write_moments(Path(args.out), fc)}")
    return 0


def _cmd_evaluate(args) -> int:
    header, rows = read_csv(args.input)
    if header not in (["lead", "truth", "forecast"], ["lead", "truth", "forecast", "stdev"]):
        raise ValueError(f"expected header lead,truth,forecast[,stdev], got {','.join(header)}")
    has_stdev = len(header) == 4
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
                 "nino34": (NinoConfig, run_nino_experiment)}[args.system]
    nino = make is NinoConfig  # the one system with --data and without --paper-scale
    config = make() if nino or not args.paper_scale else paper_scale(make())
    if args.config:
        config = load_config(args.config, config)
    flags = {"--seed": ("seed", args.seed), "--out-dir": ("out_dir", args.out_dir),
             "--data": ("data_path", args.data if nino else None)}
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

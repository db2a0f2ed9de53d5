"""Round trip through the command line: simulate -> build-basis -> forecast ->
baseline -> evaluate, on a small torus series; the true-model ensemble; and
the parser, which declares each flag only on the commands that read it."""

import argparse
import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diffusion_forecast import cli
from diffusion_forecast.baselines import GaussianState, ensemble_forecast
from diffusion_forecast.cli import main
from diffusion_forecast.dataset import load_series
from diffusion_forecast.experiments import (ExperimentResult, LorenzConfig, NinoConfig, TorusConfig,
                                            paper_scale)
from diffusion_forecast.forecast import (
    evolve_ladder,
    forecast_ladder,
    gaussian_density_values,
    project_density,
)
from diffusion_forecast.pipeline import fit_forecaster, fit_record, load_model, save_model
from diffusion_forecast.simulators import lorenz_model, lorenz_substeps, simulate_lorenz63, torus_model

N_SAMPLES = 1500
STEPS = 5
VAR = 0.1


def _read_csv(path):
    """Header and float rows of a CSV; fails on any cell that is not a float."""
    lines = path.read_text().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _vector(values):
    return ",".join(repr(float(v)) for v in values)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    series = d / "sim" / "torus_embedded.csv"
    model = d / "model" / "basis.npz"
    assert main(["simulate", "torus", "--n-samples", str(N_SAMPLES),
                 "--out-dir", str(d / "sim")]) == 0
    mean = load_series(series, "csv", tau=0.1)[0].points[0]
    # the mean has negative coordinates and goes in as `--mean -0.08,...`,
    # a value that argparse alone would take for an option
    assert mean[0] < 0
    assert main(["build-basis", "--series", str(series), "--tau", "0.1", "--m", "40",
                 "--out", str(model), "--dump-tuning"]) == 0
    assert main(["forecast", "--model", str(model),
                 "--mean", _vector(mean), "--var", repr(VAR), "--steps", str(STEPS),
                 "--out", str(d / "forecast.csv"), "--dump-density"]) == 0
    assert main(["baseline", "--series", str(series), "--tau", "0.1",
                 "--method", "local-linear", "--mean", _vector(mean), "--var", "0.01",
                 "--steps", str(STEPS), "--out", str(d / "baseline.csv")]) == 0
    # two verification points per lead: the diffusion and local-linear means
    # of x0 and x1 against each other
    _, fc = _read_csv(d / "forecast.csv")
    _, bl = _read_csv(d / "baseline.csv")
    lines = ["lead,truth,forecast,stdev"]
    for i in range(STEPS + 1):
        for j in (1, 2):
            lines.append(",".join([str(i), _vector([bl[i, j], fc[i, j], fc[i, j + 3]])]))
    (d / "pairs.csv").write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--input", str(d / "pairs.csv"), "--out", str(d / "skill.csv")]) == 0
    return {"dir": d, "model": model, "mean": mean}


@pytest.fixture(scope="module")
def refit(run):
    """The fit that build-basis made in ``run``, made again in process."""
    ts, _ = load_series(run["dir"] / "sim" / "torus_embedded.csv", "csv", tau=0.1)
    return fit_forecaster(ts, 40)


def test_simulate_writes_both_series(run):
    for name, dim in (("torus_intrinsic.csv", 2), ("torus_embedded.csv", 3)):
        header, rows = _read_csv(run["dir"] / "sim" / name)
        assert header == [f"x{j}" for j in range(dim)]
        assert rows.shape == (N_SAMPLES, dim)


def test_simulate_lorenz_manifest_records_the_step_it_ran(tmp_path):
    # Lorenz-63 steps at most 0.01: 25 steps at dt 0.25
    assert main(["simulate", "lorenz63", "--n-samples", "30", "--dt", "0.25",
                 "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["substeps"] == 25
    _, rows = _read_csv(tmp_path / "lorenz63.csv")
    assert np.array_equal(rows, simulate_lorenz63(30, 0.25, 0).points)


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--n-samples", "30"]),
    ("ensemble", ["--mean", "1,1,25", "--var", "0.01", "--steps", "3", "--n-ens", "10"]),
], ids=["simulate", "ensemble"])
def test_lorenz63_takes_no_substeps(tmp_path, capsys, command, flags):
    # Lorenz-63 steps at most 0.01, so a --substeps would go unread
    out = ["--out-dir", str(tmp_path / "d")] if command == "simulate" else ["--out", str(tmp_path / "d")]
    with pytest.raises(SystemExit) as exit_:
        main([command, "lorenz63", *flags, "--substeps", "3", *out])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --substeps 3\n")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv, systems", [
    (["ensemble", "--dt", "0.1", "torus", "--mean", "1,2", "--var", "0.1", "--steps", "2",
      "--out", "e.csv"], "torus,lorenz63"),
    (["simulate", "--n-samples", "10", "lorenz63"], "torus,lorenz63"),
    (["experiment", "--seed", "1", "torus"], "torus,lorenz63,nino34"),
], ids=["ensemble", "simulate", "experiment"])
def test_a_flag_before_the_system_is_refused_by_name(capsys, argv, systems):
    # argparse alone takes the flag's value for the system: "invalid choice: '0.1'"
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    command, flag = argv[:2]
    assert capsys.readouterr().err.endswith(
        f"diffusion-forecast {command}: error: {flag} goes after the system: "
        f"diffusion-forecast {command} {{{systems}}} {flag} ...\n")


@pytest.mark.parametrize("command, flags", [
    ("build-basis", ["--series", "train.csv", "--m", "5", "--out", "m.npz"]),
    ("baseline", ["--series", "train.csv", "--method", "local-linear", "--mean", "1",
                  "--var", "0.1", "--steps", "2", "--out", "b.csv"]),
], ids=["build-basis", "baseline"])
def test_a_series_has_no_default_sampling_interval(capsys, command, flags):
    # without --tau every lead time would be read in units of an interval of 1
    with pytest.raises(SystemExit) as exit_:
        main([command, *flags])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --tau\n")


def test_build_basis_names_a_ragged_series_row(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("x0,x1\n0.1,0.2\n0.3\n0.5,0.6\n")
    assert main(["build-basis", "--series", str(series), "--tau", "0.1", "--m", "2",
                 "--out", str(tmp_path / "m.npz")]) == 1
    assert capsys.readouterr().err == f"error: {series}:3: 1 cells, the header has 2\n"
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("lags", ["0", "-4"])
def test_build_basis_rejects_fewer_than_one_lag(run, tmp_path, capsys, lags):
    series = run["dir"] / "sim" / "torus_embedded.csv"
    assert main(["build-basis", "--series", str(series), "--tau", "0.1", "--lags", lags, "--m", "5",
                 "--out", str(tmp_path / "m.npz")]) == 1
    assert capsys.readouterr().err == f"error: lags must be >= 1, got {lags}\n"
    assert not (tmp_path / "m.npz").exists()


def test_build_basis_at_one_lag_saves_the_unembedded_fit(run, refit, tmp_path):
    series = run["dir"] / "sim" / "torus_embedded.csv"
    out = tmp_path / "m.npz"
    assert main(["build-basis", "--series", str(series), "--tau", "0.1", "--lags", "1",
                 "--m", "40", "--out", str(out)]) == 0
    points = load_series(series, "csv", tau=0.1)[0].points
    want = save_model(tmp_path / "want.npz", refit.basis, refit.operator, points,
                      {"source": str(series), "lags": 1, "fit": fit_record(refit)})
    assert out.read_bytes() == want.read_bytes()
    assert out.read_bytes() == run["model"].read_bytes()


def test_tuning_dump_holds_plain_floats(run):
    for name in ("kde", "vb"):
        header, rows = _read_csv(run["dir"] / "model" / f"basis_tuning_{name}.csv")
        assert header == ["log_eps", "log_t"]
        assert rows.ndim == 2 and rows.shape[1] == 2 and rows.shape[0] > 10


def test_model_is_one_file(run, refit):
    assert sorted(p.name for p in (run["dir"] / "model").iterdir()) == [
        "basis.npz", "basis_tuning_kde.csv", "basis_tuning_vb.csv"]
    basis, op, points, metadata = load_model(run["model"])
    series = load_series(run["dir"] / "sim" / "torus_embedded.csv", "csv", tau=0.1)[0]
    assert np.array_equal(points, series.points)
    assert op.tau == 0.1 and basis.n_points == N_SAMPLES and basis.n_basis == 40
    assert metadata == {"source": str(run["dir"] / "sim" / "torus_embedded.csv"), "lags": 1,
                        "fit": fit_record(refit)}


def _ladder_inputs(run):
    basis, op, points, _ = load_model(run["model"])
    coeffs = project_density(gaussian_density_values(points, run["mean"], np.full(3, VAR)), basis)
    return basis, op, points, coeffs


def test_forecast_matches_lead_ladder(run):
    header, rows = _read_csv(run["dir"] / "forecast.csv")
    assert header == ["lead_time", "mean_x0", "mean_x1", "mean_x2",
                      "stdev_x0", "stdev_x1", "stdev_x2"]
    basis, op, points, coeffs = _ladder_inputs(run)
    fc = forecast_ladder(coeffs, op, basis, points, STEPS)
    assert np.array_equal(rows, np.column_stack([fc.lead_times, fc.mean, np.sqrt(fc.variance)]))


def test_density_dump_matches_lead_ladder(run):
    header, rows = _read_csv(run["dir"] / "forecast.density.csv")
    assert header == [f"lead{j}" for j in range(STEPS + 1)]
    basis, op, _, coeffs = _ladder_inputs(run)
    expected = np.column_stack([basis.peq * (basis.phi @ v) for v in evolve_ladder(coeffs, op, STEPS)])
    assert np.array_equal(rows, expected)


def test_baseline_rows(run):
    header, rows = _read_csv(run["dir"] / "baseline.csv")
    assert header == ["lead_time", "mean_x0", "mean_x1", "mean_x2",
                      "stdev_x0", "stdev_x1", "stdev_x2"]
    assert rows.shape == (STEPS + 1, 7)
    assert np.array_equal(rows[0, 1:4], run["mean"])
    assert np.allclose(rows[0, 4:], 0.1)


def test_ensemble_baseline_needs_no_series(tmp_path):
    out = tmp_path / "ensemble.csv"
    assert main(["ensemble", "lorenz63", "--dt", "0.1", "--mean", "1,1,25", "--var", "0.01",
                 "--steps", "3", "--n-ens", "50", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    mf = ensemble_forecast(lorenz_model(), GaussianState(mean=np.array([1.0, 1.0, 25.0]),
                                                         cov=np.diag(np.full(3, 0.01))),
                           50, 3, 0, dt_sample=0.1, substeps=10)
    assert np.array_equal(rows, np.column_stack([mf.lead_times, mf.mean, np.sqrt(mf.variance)]))


@pytest.mark.parametrize("system, dt, substeps", [
    ("lorenz63", 0.5, lorenz_substeps(0.5)), ("torus", 0.1, 50),
])
def test_ensemble_baseline_integrates_as_simulate_does(tmp_path, system, dt, substeps):
    # Lorenz-63 steps at most 0.01; the torus takes --substeps, 50
    out = tmp_path / "ensemble.csv"
    mean = [1.0, 1.0, 25.0] if system == "lorenz63" else [1.0, 2.0]
    assert main(["ensemble", system, "--dt", repr(dt), "--mean", ",".join(map(repr, mean)),
                 "--var", "0.01", "--steps", "3", "--n-ens", "20", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    model = lorenz_model() if system == "lorenz63" else torus_model()
    mf = ensemble_forecast(model, GaussianState(mean=np.array(mean), cov=0.01 * np.eye(len(mean))),
                           20, 3, 0, dt_sample=dt, substeps=substeps)
    assert np.array_equal(rows, np.column_stack([mf.lead_times, mf.mean, np.sqrt(mf.variance)]))


@pytest.mark.parametrize("name, config_text", [("torus", None), ("nino34", None),
                                                 ("torus", "seed = 3\n")],
                         ids=["torus", "nino", "torus-over-a-config"])
def test_a_rejected_flag_is_named_by_its_flag(tmp_path, monkeypatch, capsys, name, config_text):
    seen = []
    run_name = {"torus": "run_torus_experiment", "nino34": "run_nino_experiment"}[name]
    monkeypatch.setattr(cli, run_name, seen.append)
    flags = ["--seed", "-1", "--out-dir", str(tmp_path)]
    if name == "nino34":
        flags += ["--data", "nino34.txt"]
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
        flags += ["--config", str(tmp_path / "run.cfg")]
    assert main(["experiment", name, *flags]) == 1
    assert seen == []
    assert capsys.readouterr() == ("", "error: --seed must be >= 0\n")


@pytest.mark.parametrize("name, driver, flags, sizes", [
    ("torus", "run_torus_experiment", ["--paper-scale"],
     dict(n_samples=20000, n_basis=1000, lead_steps=100, n_ens=50000, dt=0.1)),
    ("torus", "run_torus_experiment", [],
     dict(n_samples=8000, n_basis=400, lead_steps=100, n_ens=10000, dt=0.1)),
    ("lorenz63", "run_lorenz_experiment", ["--paper-scale"],
     dict(n_samples=10000, n_basis=4500, n_verify=5000, lead_steps=100, n_ens=50000, dt=0.1)),
    ("lorenz63", "run_lorenz_experiment", [],
     dict(n_samples=6000, n_basis=1000, n_verify=500, lead_steps=80, n_ens=200, dt=0.1)),
    ("nino34", "run_nino_experiment", ["--data", "nino34.txt"],
     dict(n_basis=80, lead_steps=24, lags=5, data_path="nino34.txt")),
    # a flag the driver cannot use is not declared on its system
    ("nino34", "run_nino_experiment", ["--paper-scale"], None),
    ("torus", "run_torus_experiment", ["--data", "nino34.txt"], None),
    ("lorenz63", "run_lorenz_experiment", ["--data", "nino34.txt"], None),
], ids=["torus-paper-scale", "torus-desk", "lorenz-paper-scale", "lorenz-desk", "nino-desk",
        "nino-paper-scale", "torus-data", "lorenz-data"])
def test_paper_scale_reaches_the_driver_as_the_preset(tmp_path, monkeypatch, capsys,
                                                      name, driver, flags, sizes):
    seen = []
    csv_paths = (tmp_path / "a.csv", tmp_path / "b.csv")[:2 if name == "nino34" else 1]
    monkeypatch.setattr(cli, driver, lambda config: seen.append(config) or ExperimentResult(
        fit=None, csv_paths=csv_paths, manifest_path=tmp_path / "manifest.json"))
    if sizes is None:
        with pytest.raises(SystemExit) as exit_:
            main(["experiment", name, *flags, "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (exit_.value.code, seen, out) == (2, [], "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
        return
    assert main(["experiment", name, *flags, "--out-dir", str(tmp_path)]) == 0
    out, _ = capsys.readouterr()
    (config,) = seen
    preset = {"torus": TorusConfig, "lorenz63": LorenzConfig, "nino34": NinoConfig}[name]()
    preset = paper_scale(preset) if "--paper-scale" in flags else preset
    preset = replace(preset, out_dir=str(tmp_path))
    assert config == (replace(preset, data_path="nino34.txt") if name == "nino34" else preset)
    assert {key: getattr(config, key) for key in sizes} == sizes
    assert out == f"wrote {' and '.join(map(str, csv_paths))}\n"


_REQUIRED = "the following arguments are required: --series"


@pytest.mark.parametrize("command, message", [
    pytest.param(["baseline", "--method", "local-linear", "--tau", "0.1"], _REQUIRED,
                 id="local-linear---series"),
    pytest.param(["baseline", "--method", "iterated", "--tau", "0.1"], _REQUIRED,
                 id="iterated---series"),
    # the true model is the subcommand after ensemble; a flag in its place is named
    pytest.param(["ensemble", "--dt", "0.1"],
                 "--dt goes after the system: diffusion-forecast ensemble {torus,lorenz63} --dt ...",
                 id="ensemble---system"),
])
def test_baseline_without_its_input_fails_cleanly(tmp_path, capsys, command, message):
    out = tmp_path / "out" / "baseline.csv"
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--mean", "1,1,25", "--var", "0.01", "--steps", "3", "--out", str(out)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("command, flags, ignored", [
    ("ensemble", ["--series", "train.csv"], "--series train.csv"),
    ("local-linear", ["--series", "train.csv", "--system", "torus"], "--system torus"),
    ("iterated", ["--series", "train.csv", "--system", "lorenz63"], "--system lorenz63"),
    ("ensemble", ["--k", "3"], "--k 3"),
    ("local-linear", ["--series", "train.csv", "--n-ens", "5"], "--n-ens 5"),
    ("iterated", ["--series", "train.csv", "--substeps", "3"], "--substeps 3"),
    ("iterated", ["--series", "train.csv", "--seed", "4"], "--seed 4"),
    # every refused flag is named, in the order given
    ("local-linear", ["--series", "train.csv", "--seed", "4", "--substeps", "3", "--n-ens", "5"],
     "--seed 4 --substeps 3 --n-ens 5"),
    # a flag given at its default value is still given
    ("local-linear", ["--series", "train.csv", "--seed", "0"], "--seed 0"),
    ("ensemble", ["--k", "15"], "--k 15"),
    # the fits take no neighbour count: every one is on 15
    ("local-linear", ["--series", "train.csv", "--k", "15"], "--k 15"),
], ids=["ensemble-series", "local-linear-system", "iterated-system", "ensemble-k",
        "local-linear-n-ens", "iterated-substeps", "iterated-seed", "local-linear-three",
        "local-linear-default-seed", "ensemble-default-k", "local-linear-k"])
def test_baseline_rejects_a_flag_its_method_ignores(tmp_path, capsys, command, flags, ignored):
    # train.csv does not exist: the flag is refused by the parser, before any file is read
    out = tmp_path / "out" / "baseline.csv"
    source = (["ensemble", "lorenz63", "--dt", "0.1"] if command == "ensemble"
              else ["baseline", "--method", command, "--tau", "0.1"])
    with pytest.raises(SystemExit) as exit_:
        main([*source, *flags, "--mean", "1,1,25", "--var", "0.01", "--steps", "3",
              "--out", str(out)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {ignored}\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("tau", ["inf", "nan"])
def test_baseline_rejects_a_nonfinite_tau(run, tmp_path, capsys, tau):
    out = tmp_path / "out" / "baseline.csv"
    assert main(["baseline", "--method", "local-linear", "--series",
                 str(run["dir"] / "sim" / "torus_embedded.csv"), "--tau", tau,
                 "--mean", _vector(run["mean"]), "--var", "0.01", "--steps", "3",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: sampling interval must be positive and finite, "
                                       f"got {tau}\n")
    assert not out.parent.exists()


_STEPS = ("--steps", "-1", "--steps must be >= 0, got -1")


@pytest.mark.parametrize("method, flag, value, message", [
    ("local-linear", *_STEPS), ("iterated", *_STEPS), ("ensemble", *_STEPS),
], ids=["local-linear-steps", "iterated-steps", "ensemble-steps"])
def test_baseline_rejects_a_bad_count(run, tmp_path, capsys, method, flag, value, message):
    out = tmp_path / "out" / "baseline.csv"
    args = {"--steps": "3", flag: value}
    source = (["ensemble", "lorenz63", "--n-ens", "10"] if method == "ensemble"
              else ["baseline", "--method", method, "--tau", "0.1",
                    "--series", str(run["dir"] / "sim" / "torus_embedded.csv")])
    assert main([*source, "--mean", _vector(run["mean"]), "--var", "0.01",
                 "--steps", args["--steps"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("method", ["local-linear", "iterated"])
def test_baseline_rejects_a_series_too_wide_to_fit(tmp_path, capsys, method):
    # baseline reads any CSV, and 15 neighbours cannot fit an affine map in
    # dim 15
    series = tmp_path / "wide.csv"
    rows = np.random.default_rng(0).normal(size=(40, 15))
    series.write_text("\n".join([",".join(f"x{j}" for j in range(15)),
                                 *(_vector(row) for row in rows)]) + "\n")
    out = tmp_path / "out" / "baseline.csv"
    assert main(["baseline", "--method", method, "--tau", "0.1", "--series", str(series),
                 "--mean", _vector(rows[3]), "--var", "0.01", "--steps", "3",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: 15 neighbours cannot determine an affine fit "
                                       "in dim 15; need dim <= 14\n")
    assert not out.parent.exists()


def test_forecast_rejects_negative_steps(run, tmp_path, capsys):
    out = tmp_path / "out" / "forecast.csv"
    assert main(["forecast", "--model", str(run["model"]), "--mean", _vector(run["mean"]),
                 "--var", repr(VAR), "--steps", _STEPS[1], "--out", str(out),
                 "--dump-density"]) == 1
    assert capsys.readouterr().err == f"error: {_STEPS[2]}\n"
    assert not out.parent.exists()


def test_ensemble_baseline_rejects_a_mean_of_another_dimension(tmp_path, capsys):
    out = tmp_path / "ensemble.csv"
    assert main(["ensemble", "lorenz63", "--dt", "0.1", "--mean", "1,2", "--var", "0.1",
                 "--steps", "3", "--n-ens", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: initial mean has 2 components, the model has dim 3\n"
    assert not out.exists()


@pytest.mark.parametrize("args, value", [
    (["simulate", "torus", "--n-samples", "10", "--dt", "nan"], "nan"),
    (["simulate", "lorenz63", "--n-samples", "10", "--dt", "inf"], "inf"),
    (["ensemble", "torus", "--mean", "1,2", "--var", "0.1", "--steps", "2", "--n-ens", "10",
      "--dt", "nan"], "nan"),
], ids=["simulate-torus-nan", "simulate-lorenz-inf", "ensemble-nan"])
def test_a_non_finite_time_step_is_an_error_line(tmp_path, capsys, args, value):
    out = tmp_path / ("d" if args[0] == "simulate" else "e.csv")
    assert main(args + ["--out-dir" if args[0] == "simulate" else "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dt_sample must be positive and finite, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["forecast", "baseline", "ensemble"])
def test_a_var_of_another_length_names_both_flags(run, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    source = {"forecast": ["forecast", "--model", str(run["model"])],
              "baseline": ["baseline", "--method", "local-linear", "--tau", "0.1",
                           "--series", str(run["dir"] / "sim" / "torus_embedded.csv")],
              "ensemble": ["ensemble", "lorenz63"]}[command]
    assert main([*source, "--mean", "1,2,3", "--var", "0.1,0.2", "--steps", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --var has 2 entries; give one, or one per coordinate of --mean (3)\n")
    assert not out.exists()


def test_evaluate_rows(run):
    text = (run["dir"] / "skill.csv").read_text()
    header, rows = _read_csv(run["dir"] / "skill.csv")
    assert header == ["lead", "rmse", "correlation", "mean_forecast_stdev",
                      "climatological_stdev", "degenerate"]
    assert rows.shape == (STEPS + 1, 6)
    assert np.array_equal(rows[:, 0], np.arange(STEPS + 1))
    # the degenerate flag is written as an integer
    assert all(line.rsplit(",", 1)[1] in ("0", "1") for line in text.splitlines()[1:])


@pytest.mark.parametrize("row", ["1,0.5,0.4", "1,0.5,0.4,0.1,7"], ids=["short", "long"])
def test_evaluate_rejects_a_row_unlike_the_header(tmp_path, capsys, row):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"lead,truth,forecast,stdev\n0,1.0,1.1,0.2\n{row}\n")
    assert main(["evaluate", "--input", str(pairs), "--out", str(tmp_path / "skill.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {pairs}:3: ")
    assert not (tmp_path / "skill.csv").exists()


@pytest.mark.parametrize("row, message", [
    # the rows group by lead, and a NaN lead is a group of its own
    ("nan,1.0,1.1,0.2", "lead times must be finite, got nan at position 2"),
    ("1,nan,1.1,0.2", "lead 1: truth has non-finite entries"),
    ("1,1.0,inf,0.2", "lead 1: forecast has non-finite entries"),
    ("1,1.0,1.1,-0.2", "lead 1: forecast stdev must be nonnegative and finite"),
    ("1,1.0,1.1,nan", "lead 1: forecast stdev must be nonnegative and finite"),
], ids=["lead", "truth", "forecast", "negative-stdev", "nan-stdev"])
def test_evaluate_rejects_a_non_finite_or_negative_cell(tmp_path, capsys, row, message):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("lead,truth,forecast,stdev\n0,1.0,1.1,0.2\n0,2.0,1.9,0.2\n"
                     f"1,1.5,1.4,0.2\n{row}\n")
    assert main(["evaluate", "--input", str(pairs), "--out", str(tmp_path / "out" / "skill.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_names_a_lead_by_its_lead_time(tmp_path, capsys):
    # leads 1 and 2: the second lead is lead 2, not lead 1
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("lead,truth,forecast\n1,1.0,1.1\n1,2.0,1.9\n2,1.5,1.4\n2,nan,1.6\n")
    assert main(["evaluate", "--input", str(pairs), "--out", str(tmp_path / "skill.csv")]) == 1
    assert capsys.readouterr().err == "error: lead 2: truth has non-finite entries\n"
    assert not (tmp_path / "skill.csv").exists()


@pytest.mark.parametrize("header", ["lead,truth,forecast,spread", "lead,truth,forecast,stdev,extra",
                                    "lead,forecast,truth"], ids=["spread", "extra", "swapped"])
def test_evaluate_reads_only_its_two_headers(tmp_path, capsys, header):
    # a column it would not read is refused, not dropped
    pairs = tmp_path / "pairs.csv"
    cells = header.count(",") + 1
    pairs.write_text(f"{header}\n" + "".join(f"{i},{','.join(['1.0'] * (cells - 1))}\n"
                                             for i in range(3)))
    assert main(["evaluate", "--input", str(pairs), "--out", str(tmp_path / "out" / "skill.csv")]) == 1
    assert capsys.readouterr().err == (f"error: expected header lead,truth,forecast[,stdev], "
                                       f"got {header}\n")
    assert not (tmp_path / "out").exists()


def test_sidecars_of_outputs_named_apart_after_a_dot_stay_apart(run, tmp_path):
    series = str(run["dir"] / "sim" / "torus_embedded.csv")
    for tag, m in (("m3", 3), ("m5", 5)):
        assert main(["build-basis", "--series", series, "--tau", "0.1", "--m", str(m),
                     "--out", str(tmp_path / f"run.{tag}"), "--dump-tuning"]) == 0
        assert main(["forecast", "--model", str(tmp_path / f"run.{tag}"),
                     "--mean", _vector(run["mean"]), "--var", repr(VAR), "--steps", "2",
                     "--out", str(tmp_path / f"fc.{tag}"), "--dump-density"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"run.{t}{tail}" for t in ("m3", "m5") for tail in ("", "_tuning_kde.csv", "_tuning_vb.csv")]
        + [f"fc.{t}{tail}" for t in ("m3", "m5") for tail in ("", ".density.csv")])


def test_build_basis_reports_the_eigensolver(run, refit, tmp_path, capsys):
    series = run["dir"] / "sim" / "torus_embedded.csv"
    assert main(["build-basis", "--series", str(series),
                 "--tau", "0.1", "--m", "40", "--out", str(tmp_path / "m.npz")]) == 0
    solver = refit.solver
    assert 0 < solver.m_eff < 40
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 'm.npz'} (eigensolver dense, 0 ARPACK matvecs, "
        f"max residual nan, lambda_edge {solver.lambda_edge:.3g}, M_eff {solver.m_eff})\n")


def _leaves(parser, words=()):
    """(command words, parser) of every leaf command under ``parser``."""
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield words, parser
    for action in subcommands:
        for name, child in action.choices.items():
            yield from _leaves(child, (*words, name))


def _flag_actions(parser):
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


LEAVES = {" ".join(words): leaf for words, leaf in _leaves(cli._build_parser())}


def test_the_leaves_are_the_commands_and_their_systems():
    assert sorted(LEAVES) == [
        "baseline", "build-basis", "ensemble lorenz63", "ensemble torus", "evaluate",
        "experiment lorenz63", "experiment nino34", "experiment torus", "forecast",
        "simulate lorenz63", "simulate torus"]


@pytest.mark.parametrize("name", sorted(LEAVES))
def test_a_flag_exists_only_on_the_leaves_that_read_it(capsys, name):
    leaf = LEAVES[name]
    argv = name.split()
    for action in _flag_actions(leaf):
        if action.required:
            value = action.choices[0] if action.choices else {int: "1", float: "0.5"}.get(action.type, "x")
            argv += [action.option_strings[0], value]
    assert cli._build_parser().parse_args(argv).handler is leaf.get_default("handler")
    own = {flag for action in _flag_actions(leaf) for flag in action.option_strings}
    foreign = {flag: action.nargs for other in LEAVES.values() for action in _flag_actions(other)
               for flag in action.option_strings if flag not in own}
    assert foreign
    for flag, nargs in sorted(foreign.items()):
        given = [flag] if nargs == 0 else [flag, "3"]
        with pytest.raises(SystemExit) as exit_:
            cli._build_parser().parse_args([*argv, *given])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {' '.join(given)}\n")


def _args_reads(functions, name):
    """Every ``args.<dest>`` that the cli function ``name`` reads, or that a
    cli function it passes ``args`` to reads."""
    reads, todo, seen = set(), [name], set()
    while todo:
        function = todo.pop()
        seen.add(function)
        for node in ast.walk(functions[function]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions
                  and any(getattr(arg, "id", None) == "args" for arg in node.args)
                  and node.func.id not in seen):
                todo.append(node.func.id)
    return reads


@pytest.mark.parametrize("name", sorted(LEAVES))
def test_every_flag_of_a_leaf_is_read_by_its_handler(name):
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    leaf = LEAVES[name]
    declared = {action.dest for action in _flag_actions(leaf)}
    assert declared - _args_reads(functions, leaf.get_default("handler").__name__) == set()

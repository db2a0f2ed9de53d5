"""Package hygiene: the public names resolve, no module reaches into a
sibling's private names (a private import is how duplicate copies of a job
start), every import is used, and every call the benchmark makes binds."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffusion_forecast
from diffusion_forecast.dataset import TimeSeries, write_series_csv
from diffusion_forecast.pipeline import fit_forecaster, save_model

SRC = Path(diffusion_forecast.__file__).parent
SCIPY_SUBMODULES = ("scipy.sparse", "scipy.linalg", "scipy.spatial")
PRINT_SCIPY = f"print(*[name for name in {SCIPY_SUBMODULES!r} if name in sys.modules])"


def test_every_public_name_resolves():
    missing = [name for name in diffusion_forecast.__all__
               if not hasattr(diffusion_forecast, name)]
    assert missing == []


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("diffusion_forecast")
        if sibling:
            for alias in node.names:
                dunder = alias.name.startswith("__") and alias.name.endswith("__")
                if alias.name.startswith("_") and not dunder:
                    yield f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def _bench_wrapped_names(path):
    """(module, name) of every ``tracer.wrap`` and ``tracer.replace`` call."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wrap", "replace")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "tracer"):
            module, name = node.args[:2]
            yield module.id, name.value


def test_every_name_the_benchmark_wraps_exists():
    layers = SRC.parents[1] / "bench" / "layers.py"
    wrapped = sorted(set(_bench_wrapped_names(layers)))
    assert len(wrapped) > 20
    missing = [f"{module}.{name}" for module, name in wrapped
               if not hasattr(importlib.import_module(f"diffusion_forecast.{module}"), name)]
    assert missing == []


def _module_attributes(path, modules):
    """(module, name) of every ``module.name`` the file reads, for the
    package modules it imports under their own names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield node.value.id, node.attr


def test_every_package_name_the_benchmark_calls_exists():
    # the workloads call the package through its modules; a rename or a
    # deletion there should fail here, not only in the benchmark run
    workloads = SRC.parents[1] / "bench" / "workloads.py"
    modules = {"baselines", "dataset", "forecast", "pipeline", "simulators"}
    used = sorted(set(_module_attributes(workloads, modules)))
    assert {module for module, _ in used} == modules
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(f"diffusion_forecast.{module}"), name)]
    assert missing == []


def _bench_calls(path):
    """(line, callee, args, keywords) of every call ``path`` makes into the
    package: a call of ``module.name`` or ``module.Class.method`` for a
    package module it imports, and the call ``Ledger.attempt`` or
    ``try_quietly`` makes of such a function with the arguments after it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "diffusion_forecast"
               for alias in node.names}

    def resolve(node):
        if isinstance(node, ast.Name) and node.id in modules:
            return importlib.import_module(f"diffusion_forecast.{node.id}")
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            return None if owner is None else getattr(owner, node.attr)
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr in ("attempt", "try_quietly"):
            func, args = args[1], args[2:]
        callee = resolve(func) if isinstance(func, ast.Attribute) else None
        if callee is not None:
            yield node.lineno, callee, args, node.keywords


def test_every_call_the_benchmark_makes_binds_to_its_callee():
    # a parameter the workloads pass, deleted or renamed, would only raise a
    # TypeError inside a benchmark run, which the ledger does not catch; the
    # signatures bench/workloads.py calls change only with the benchmark
    workloads = SRC.parents[1] / "bench" / "workloads.py"
    calls = list(_bench_calls(workloads))
    assert len(calls) >= 15
    unbound = []
    for line, callee, args, keywords in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in args) and \
            all(kw.arg is not None for kw in keywords), f"workloads.py:{line}: unpacked arguments"
        try:
            inspect.signature(callee).bind(*args, **{kw.arg: kw.value for kw in keywords})
        except TypeError as err:
            unbound.append(f"workloads.py:{line}: {callee.__qualname__}: {err}")
    assert unbound == []


def _unused_imports(path):
    """``file:line: name`` of every name an import statement binds at any
    level that the file never reads; ``__future__`` imports are directives,
    and the names ``__all__`` lists are read by ``import *``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    yield f"{path.name}:{node.lineno}: {bound}"


def test_every_imported_name_is_used():
    # the package and its tests have no linter to find an import left
    # behind when the code that read it goes
    files = sorted([*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")])
    assert len(files) > 20
    found = [line for path in files for line in _unused_imports(path)]
    assert found == []


def _names(path):
    """Every identifier the module's code uses: imported, read or an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_cdist_is_referenced_only_in_dataset():
    # one pairwise sweep, the kNN search of dataset.knn_points, serves every
    # all-pairs computation; a cdist call anywhere else would be a second one
    users = sorted(path.name for path in SRC.glob("*.py") if "cdist" in set(_names(path)))
    assert users == ["dataset.py"]


def test_remainder_is_referenced_only_in_dataset():
    # dataset.wrap_period is the one periodic wrap, equal bit for bit to
    # np.remainder; a remainder call anywhere else would be a second one
    users = sorted(path.name for path in SRC.glob("*.py") if "remainder" in set(_names(path)))
    assert users == ["dataset.py"]


def test_no_module_reads_the_machines_memory():
    # work is sized by dataset.rows_per_block alone; a module that reads the
    # physical memory would size or refuse it by the machine
    users = sorted(path.name for path in SRC.glob("*.py") if "sysconf" in set(_names(path)))
    assert users == []


def test_the_fit_stages_read_pairs_only_from_the_neighbour_table():
    # the kernel sums, the density estimate and the kernel read the kNN
    # table; a distance sweep of their own would go back to all pairs
    found = {name: sorted({"sq_distance_blocks", "cdist"} & set(_names(SRC / name)))
             for name in ("tuning.py", "basis.py", "pipeline.py")}
    assert found == {"tuning.py": [], "basis.py": [], "pipeline.py": []}


def test_fit_diagnostics_reach_output_only_through_fit_record():
    # pipeline.fit_record is the one renderer of the tunings, the solver
    # record, the spectral edge and M_eff; a driver reading them itself
    # would start a second manifest layout
    fields = {"eps_star", "d_est", "boundary_warning", "plateau", "lambda_edge",
              "m_eff", "matvecs", "max_residual", "gram_deviation", "table_saturation",
              "eps_follows_cap"}
    found = {name: sorted(fields & set(_names(SRC / name))) for name in ("experiments.py", "cli.py")}
    assert found == {"experiments.py": [], "cli.py": []}


def _hidden_memos(path):
    """``module.function: attribute`` of every ``object.__setattr__`` call
    whose target is not ``self``: state set on another object, outside its
    fields."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and getattr(child.func.value, "id", None) == "object"
                    and getattr(child.args[0], "id", None) != "self"):
                attr = child.args[1]
                name = attr.value if isinstance(attr, ast.Constant) else ast.unparse(attr)
                yield f"{path.stem}.{function}: {name}"
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def test_the_hidden_memos_are_the_two_known_ones():
    # a memo set on a frozen dataclass from outside it is state its fields
    # do not show; these two wait for the ladders to be called once per
    # batch, and each goes from this list when it is deleted
    found = sorted(memo for path in SRC.glob("*.py") for memo in _hidden_memos(path))
    assert found == ["baselines.fit_local_affine: _ranking",
                     "forecast._observable_readout: _readout"]


def _mkdir_calls(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "mkdir":
            yield node.lineno


def test_only_the_file_writers_make_directories():
    # dataset's writers and pipeline.save_model make their file's directory
    # once the output is ready; a caller making it itself could leave an
    # empty directory behind a run that fails before its first write
    users = sorted(path.name for path in SRC.glob("*.py") if list(_mkdir_calls(path)))
    assert users == ["dataset.py", "pipeline.py"]


def test_the_fit_has_one_neighbour_search_in_pipeline():
    # fit_forecaster makes one kNN table and hands it to every stage; a knn
    # in the stages themselves would be a second search over the same points
    users = sorted(name for name in ("basis.py", "tuning.py") if "knn" in set(_names(SRC / name)))
    assert users == []


def _calls_in_loops(path, name):
    """Line numbers of every ``name(...)`` call inside a for or while loop
    or a comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for loop in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(loop, loops):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    yield node.lineno


def test_the_drivers_read_every_forecaster_as_one_moment_ladder():
    # every forecaster returns a MomentForecast over its leads, and the
    # Gaussian densities take a batch of means; a per-lead or per-mean call,
    # or moments pulled out of covariances, would be a second path
    per_lead = {"local_linear_forecast", "iterated_local_linear_forecast", "propagate", "diagonal"}
    found = {name: sorted(per_lead & set(_names(SRC / name))) for name in ("experiments.py", "cli.py")}
    assert found == {"experiments.py": [], "cli.py": []}
    looped = {name: list(_calls_in_loops(SRC / name, "gaussian_density_values"))
              for name in ("experiments.py", "cli.py")}
    assert looped == {"experiments.py": [], "cli.py": []}


def _fit_forecaster_calls(path):
    """(positional count, keyword names) of every fit_forecaster call."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "fit_forecaster":
            yield len(node.args), [kw.arg for kw in node.keywords]


def test_the_drivers_fit_a_series_and_a_basis_size_only():
    calls = {name: list(_fit_forecaster_calls(SRC / name)) for name in ("experiments.py", "cli.py")}
    assert calls == {"experiments.py": [(2, [])] * 3, "cli.py": [(2, [])]}


def test_the_local_linear_forecasts_take_a_series_a_state_and_leads_only():
    # every fit is on baselines.LOCAL_LINEAR_K neighbours; a fourth
    # parameter would be an option no caller sets
    baselines = importlib.import_module("diffusion_forecast.baselines")
    found = {name: [(p.name, p.kind.name, p.default is p.empty)
                    for p in inspect.signature(getattr(baselines, name)).parameters.values()]
             for name in ("local_linear_forecast", "iterated_local_linear_forecast",
                          "local_linear_ladder", "iterated_local_linear_ladder")}
    want = [("train", "POSITIONAL_OR_KEYWORD", True), ("init", "POSITIONAL_OR_KEYWORD", True)]
    assert found == {
        "local_linear_forecast": want + [("lead_steps", "POSITIONAL_OR_KEYWORD", True)],
        "iterated_local_linear_forecast": want + [("lead_steps", "POSITIONAL_OR_KEYWORD", True)],
        "local_linear_ladder": want + [("n_leads", "POSITIONAL_OR_KEYWORD", True)],
        "iterated_local_linear_ladder": want + [("n_leads", "POSITIONAL_OR_KEYWORD", True)],
    }


def test_a_config_naming_a_fit_constant_is_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_basis = 30\nstride = 2\n")
    for base in (diffusion_forecast.TorusConfig(), diffusion_forecast.LorenzConfig(),
                 diffusion_forecast.NinoConfig()):
        with pytest.raises(ValueError, match="unknown config key 'stride'") as err:
            diffusion_forecast.load_config(path, base)
        assert str(err.value).startswith(f"{path}:2: ")


def _config_reads(path):
    """{driver: (config type name, sorted ``config.<key>`` names it reads)}
    for every function whose ``config`` parameter is annotated."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef) and node.args.args \
                and node.args.args[0].arg == "config" and node.args.args[0].annotation:
            reads = {child.attr for child in ast.walk(node)
                     if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                     and child.value.id == "config"}
            yield node.name, (ast.unparse(node.args.args[0].annotation), sorted(reads))


def test_each_driver_reads_exactly_the_keys_of_its_config():
    # a key a driver does not read is one a config file could set to no effect
    experiments = importlib.import_module("diffusion_forecast.experiments")
    drivers = {name: reads for name, reads in _config_reads(SRC / "experiments.py")
               if name.startswith("run_")}
    assert sorted(drivers) == ["run_lorenz_experiment", "run_nino_experiment",
                               "run_torus_experiment"]
    for name, (config_type, reads) in drivers.items():
        keys = sorted(f.name for f in dataclasses.fields(getattr(experiments, config_type)))
        assert (name, reads) == (name, keys)


def test_series_files_are_read_only_through_load_series():
    # dataset.load_series reads every format, and one line loop in it holds
    # the sentinel rule; a second reader would start a second copy of both
    dataset = importlib.import_module("diffusion_forecast.dataset")
    assert [name for name in ("load_monthly_series", "read_series_csv")
            if hasattr(dataset, name)] == []
    readers = {"load_series", "load_monthly_series", "read_series_csv", "_load_series_arg"}
    found = {name: sorted(readers & set(_names(SRC / name))) for name in ("cli.py", "experiments.py")}
    assert found == {"cli.py": ["load_series"], "experiments.py": ["load_series"]}
    # the constant's definition and its one use
    assert list(_names(SRC / "dataset.py")).count("SENTINEL_THRESHOLD") == 2


def _fresh_interpreter(code, *argv):
    """The last line that ``code`` prints in a fresh interpreter, which takes
    the package from this checkout and ``argv`` as its arguments."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.splitlines()[-1]


def test_importing_the_package_loads_no_scipy():
    assert _fresh_interpreter("import sys, diffusion_forecast; " + PRINT_SCIPY) == ""


@pytest.fixture(scope="module")
def light_inputs(tmp_path_factory):
    """A small circle series, its model file and a file of forecast pairs."""
    d = tmp_path_factory.mktemp("light")
    theta = np.random.default_rng(0).uniform(0, 2 * np.pi, 300)
    ts = TimeSeries(np.column_stack([np.cos(theta), np.sin(theta)]), tau=0.1)
    write_series_csv(ts, d / "series.csv")
    fit = fit_forecaster(ts, 5)
    save_model(d / "model.npz", fit.basis, fit.operator, ts.points, {"tau": 0.1})
    (d / "pairs.csv").write_text("lead,truth,forecast\n0,1.0,1.1\n0,2.0,1.9\n1,1.0,0.8\n1,2.0,2.3\n")
    return d


@pytest.mark.parametrize("command, loaded", [
    ("forecast --model {d}/model.npz --mean 1,0 --var 0.1 --steps 3 --out {d}/forecast.csv", ()),
    ("simulate lorenz63 --n-samples 20 --out-dir {d}/sim", ()),
    ("evaluate --input {d}/pairs.csv --out {d}/skill.csv", ()),
    ("ensemble lorenz63 --mean 1,1,20 --var 0.1 --steps 2 --n-ens 10 --out {d}/ensemble.csv", ()),
    # the fit loads all three, so the probe sees what a command loads
    ("build-basis --series {d}/series.csv --tau 0.1 --m 5 --out {d}/refit.npz", SCIPY_SUBMODULES),
], ids=["forecast", "simulate-lorenz63", "evaluate", "ensemble", "build-basis"])
def test_only_the_commands_that_fit_or_search_load_scipy(light_inputs, command, loaded):
    argv = command.format(d=light_inputs).split()
    code = ("import sys; from diffusion_forecast.cli import main; "
            "print(main(sys.argv[1:]), end=' '); " + PRINT_SCIPY)
    assert _fresh_interpreter(code, *argv).split() == ["0", *loaded]


def _imports_at_import_time(path):
    """The module of every import statement that runs when ``path`` is
    imported: each one outside a function body."""
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                yield from (alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                yield child.module
            yield from visit(child)

    yield from visit(ast.parse(path.read_text(), filename=str(path)))


def test_no_module_imports_scipy_at_import_time():
    # scipy.sparse, scipy.linalg and scipy.spatial took about half of the
    # package's import; the fit and the neighbour search import them on
    # first use, so loading a model, forecasting and scoring never do
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}: {name}" for path in modules for name in _imports_at_import_time(path)
             if name.split(".")[0] == "scipy"]
    assert found == []

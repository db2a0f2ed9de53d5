"""Package hygiene: the public names resolve, and no module reaches into a
sibling's private names (a private import is how duplicate copies of a job
start)."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import diffusion_forecast

SRC = Path(diffusion_forecast.__file__).parent


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
              "m_eff", "matvecs", "max_residual", "table_saturation", "eps_follows_cap"}
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

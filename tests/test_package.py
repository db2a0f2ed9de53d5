"""Package hygiene: the public names resolve, and no module reaches into a
sibling's private names (a private import is how duplicate copies of a job
start)."""

import ast
import importlib
from pathlib import Path

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
    # one pairwise sweep, dataset.sq_distance_blocks, serves every all-pairs
    # computation; a cdist call anywhere else would be a second one
    users = sorted(path.name for path in SRC.glob("*.py") if "cdist" in set(_names(path)))
    assert users == ["dataset.py"]

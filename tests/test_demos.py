"""Every ``parabolab`` name a demo script uses exists; read from each demo's AST, never run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _resolve(module: str, name: str):
    """The submodule ``module.name`` if there is one, else the attribute (None if missing)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def missing_names(source):
    tree = ast.parse(source)
    modules, missing = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "parabolab" and a.asname:
                    modules[a.asname] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "parabolab":
            for a in node.names:
                obj = _resolve(node.module, a.name)
                if obj is None:
                    missing.add(f"{node.module}.{a.name}")
                elif isinstance(obj, type(ast)):
                    modules[a.asname or a.name] = obj
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.add(f"{modules[node.value.id].__name__}.{node.attr}")
    return sorted(missing)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_names_exist(path):
    assert missing_names(path.read_text()) == []


def test_detector_sees_missing_names():
    source = ("from parabolab import mixed_norms as mn\n"
              "import parabolab.pde_solver as pde\n"
              "from parabolab.mixed_norms import INF, no_such_constant\n"
              "mn.localized_norm, mn.no_such_function, pde.solve, pde._mesh\n")
    assert missing_names(source) == ["parabolab.mixed_norms.no_such_constant",
                                     "parabolab.mixed_norms.no_such_function",
                                     "parabolab.pde_solver._mesh"]

"""Every ``parabolab`` name a demo script uses exists and every call to one binds.

Read from each demo's AST, never run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _resolve(module: str, name: str):
    """The submodule ``module.name`` if there is one, else the attribute (None if missing)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _imports(tree):
    """Local names of ``parabolab`` modules, of other ``parabolab`` objects, and missing names."""
    modules, names, missing = {}, {}, set()
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
                else:
                    names[a.asname or a.name] = obj
    return modules, names, missing


def missing_names(source):
    tree = ast.parse(source)
    modules, _, missing = _imports(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.add(f"{modules[node.value.id].__name__}.{node.attr}")
    return sorted(missing)


def unbound_calls(source):
    """``line: callee`` for each call to a ``parabolab`` callable that its signature rejects.

    Calls that unpack ``*`` or ``**`` are skipped.
    """
    tree = ast.parse(source)
    modules, names, _ = _imports(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            callee = names.get(f.id)
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            callee = getattr(modules.get(f.value.id), f.attr, None)
        else:
            continue
        if (not callable(callee) or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            inspect.signature(callee).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError:
            out.append((node.lineno, f"{callee.__module__}.{callee.__qualname__}"))
    return [f"{line}: {name}" for line, name in sorted(out)]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_names_exist(path):
    assert missing_names(path.read_text()) == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_calls_bind(path):
    assert unbound_calls(path.read_text()) == []


def test_detector_sees_missing_names():
    source = ("from parabolab import mixed_norms as mn\n"
              "import parabolab.pde_solver as pde\n"
              "from parabolab.mixed_norms import INF, no_such_constant\n"
              "mn.localized_norm, mn.no_such_function, pde.solve, pde._mesh\n")
    assert missing_names(source) == ["parabolab.mixed_norms.no_such_constant",
                                     "parabolab.mixed_norms.no_such_function",
                                     "parabolab.pde_solver._mesh"]


def test_detector_sees_calls_that_do_not_bind():
    source = ("from parabolab import sde_mc as sde\n"
              "from parabolab.mixed_norms import MixedNormSpec\n"
              "sde.sup_moment(ens)\n"
              "sde.sup_moment(ens, T=0.5)\n"
              "sde.modulus_report(ens)\n"
              "MixedNormSpec(2.0, 4.0, order='time-outer', method='fft')\n"
              "sde.sup_moment(*args, T=0.5)\n"
              "sde.sup_moment(**kw)\n"
              "len(sde.SDE_FAMILIES)\n")
    assert unbound_calls(source) == ["4: parabolab.sde_mc.sup_moment",
                                     "5: parabolab.sde_mc.modulus_report",
                                     "6: parabolab.mixed_norms.MixedNormSpec"]

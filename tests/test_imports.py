"""Every name a package module imports is used there or re-exported by its ``__all__``;
a fresh ``import parabolab.cli`` stays clear of the heavy scipy subpackages."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import parabolab

MODULES = sorted(p for p in Path(parabolab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # quoted annotations name types too
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _referenced(ast.parse(ann.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    return sorted(_imported(tree) - _referenced(tree) - _exported(tree))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import Callable as C, Sequence\n"
              "__all__ = ['Sequence']\n"
              "def f(x: 'C') -> None:\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["os"]


def test_cold_start_skips_scipy_signal_and_stats():
    # scipy.signal (which imports scipy.stats) is most of a fresh process's start-up
    src = str(Path(parabolab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import parabolab.cli; "
            "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []

"""Every package error derives from one of the two roots in ``parabolab.errors``."""

import ast
import builtins
from pathlib import Path

import pytest

import parabolab
from parabolab import errors

MODULES = sorted(Path(parabolab.__file__).parent.glob("*.py"))
ROOTS = {"InputError", "NumericalError"}
BARE = {"ValueError", "RuntimeError"}


def _base_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _classes(sources):
    """Class name -> base names, over every class any of the sources defines."""
    classes = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = [_base_name(b) for b in node.bases]
    return classes


def unrooted_errors(sources):
    """Exception classes whose bases reach a builtin exception without passing a root."""
    classes = _classes(sources)

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(b) for b in classes.get(name, ()))

    def rooted(name):
        return name in ROOTS or any(rooted(b) for b in classes.get(name, ()))

    return sorted(name for name in classes
                  if name not in ROOTS and is_exception(name) and not rooted(name))


def bare_raises(source):
    """Line numbers of ``raise ValueError(...)`` and ``raise RuntimeError(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _base_name(exc) in BARE:
                lines.append(node.lineno)
    return sorted(lines)


def test_every_error_class_has_a_root():
    assert unrooted_errors(p.read_text() for p in MODULES) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_bare_builtin_raises(path):
    assert bare_raises(path.read_text()) == []


def test_roots_keep_the_builtin_bases():
    assert issubclass(errors.InputError, ValueError)
    assert issubclass(errors.NumericalError, RuntimeError)


def test_detectors_see_unrooted_classes_and_bare_raises():
    source = ("from .errors import InputError\n"
              "class Rooted(InputError): pass\n"
              "class Child(Rooted): pass\n"
              "class Loose(ValueError): pass\n"
              "class Deeper(Loose): pass\n"
              "class Plain: pass\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise ValueError('x')\n"
              "    raise RuntimeError\n"
              "    raise Rooted('fine')\n")
    assert unrooted_errors([source, "class InputError(ValueError): pass\n"]) == [
        "Deeper", "Loose"]
    assert bare_raises(source) == [9, 10]

"""Every package error derives from one of the two roots in ``parabolab.errors``, and a
damaged export raises one of them."""

import ast
import builtins
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parabolab
from parabolab import errors
from parabolab import mixed_norms as mn
from parabolab import pde_solver as pde
from parabolab import sde_mc as sde
from parabolab import variational as vr

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


# ---------------------------------------------------------------------------
# damaged exports stay inside the input root
# ---------------------------------------------------------------------------

# the header keys each loader reads (an ensemble's scheme tag and frozen list
# have their own checks in ``load_ensemble``)
REQUIRED_KEYS = {
    "grid": ("t0", "dt", "nt", "x0", "dx", "nx", "boundary_tag"),
    "ensemble": ("family_tag", "params", "seed", "dt", "t0", "n_paths", "n_steps", "d",
                 "n_frozen"),
}


def _export(kind, prefix):
    """Write one small export of ``kind``; returns (json path, bin path, loader)."""
    if kind == "grid":
        f = mn.GridFunction(0.0, 0.5, (-1.0, 0.0), (0.25, 0.5), np.arange(24.0).reshape(2, 4, 3))
        return (*mn.save_grid_function(f, prefix), mn.load_grid_function)
    ens = sde.euler_maruyama(sde.build_coefficients("brownian", d=2), [0.0, 0.0],
                             0.0, 0.03, 0.01, 4, 7)
    return (*sde.export_ensemble(ens, prefix), sde.load_ensemble)


def _cut_last_value(jpath, bpath):
    bpath.write_bytes(bpath.read_bytes()[:-8])


def _add_a_value(jpath, bpath):
    bpath.write_bytes(bpath.read_bytes() + np.float64(1.0).tobytes())


def _truncate_header(jpath, bpath):
    jpath.write_text(jpath.read_text()[:-4])


def _delete_bin(jpath, bpath):
    bpath.unlink()


@pytest.mark.parametrize("kind", ["grid", "ensemble"])
@pytest.mark.parametrize("damage", [_cut_last_value, _add_a_value, _truncate_header,
                                    _delete_bin], ids=["short", "long", "bad-json",
                                                       "missing-bin"])
def test_damaged_export_raises_input_error(tmp_path, kind, damage):
    jpath, bpath, load = _export(kind, tmp_path / "x")
    damage(jpath, bpath)
    with pytest.raises(errors.InputError, match=r"x\.(json|bin)") as info:
        load(tmp_path / "x")
    assert isinstance(info.value, mn.GridError)


@pytest.mark.parametrize("kind", ["grid", "ensemble"])
def test_export_missing_header_key_raises_input_error(tmp_path, kind):
    jpath, _, load = _export(kind, tmp_path / "x")
    header = json.loads(jpath.read_text())
    for key in REQUIRED_KEYS[kind]:
        jpath.write_text(json.dumps({k: v for k, v in header.items() if k != key}))
        with pytest.raises(mn.GridError, match=rf"x\.json lacks {key}"):
            load(tmp_path / "x")


@pytest.mark.parametrize("changes", [{"nt": "2"}, {"nt": -2, "nx": [-4, 3]}, {"nx": 12}],
                         ids=["string-count", "negative-counts", "scalar-nx"])
def test_export_header_without_a_valid_shape(tmp_path, changes):
    jpath, _, _ = _export("grid", tmp_path / "x")
    jpath.write_text(json.dumps({**json.loads(jpath.read_text()), **changes}))
    with pytest.raises(mn.GridError, match=r"x\.(json|bin)"):
        mn.load_grid_function(tmp_path / "x")


@pytest.mark.parametrize("kind,changes", [
    ("ensemble", {"params": 3}), ("ensemble", {"params": []}), ("ensemble", {"dt": "x"}),
    ("ensemble", {"t0": None}), ("ensemble", {"seed": "s"}), ("ensemble", {"d": True}),
    ("grid", {"t0": "x"}), ("grid", {"dt": "x"}), ("grid", {"dx": ["a"]}), ("grid", {"x0": "ab"}),
], ids=["params-number", "params-list", "ensemble-dt-string", "t0-null", "seed-string",
        "d-bool", "grid-t0-string", "grid-dt-string", "dx-string-entry", "x0-string"])
def test_export_header_value_of_the_wrong_type(tmp_path, kind, changes):
    jpath, _, load = _export(kind, tmp_path / "x")
    jpath.write_text(json.dumps({**json.loads(jpath.read_text()), **changes}))
    with pytest.raises(mn.GridError, match=r"x\.json has bad values"):
        load(tmp_path / "x")


@pytest.mark.parametrize("kind", ["grid", "ensemble"])
@pytest.mark.parametrize("text", ["[]", "null", '"x"'])
def test_export_header_not_an_object(tmp_path, kind, text):
    jpath, _, load = _export(kind, tmp_path / "x")
    jpath.write_text(text)
    with pytest.raises(mn.GridError, match=r"x\.json lacks"):
        load(tmp_path / "x")


@pytest.mark.parametrize("frozen", [[-1], [4], [1.0], [True], "0"],
                         ids=["negative", "past-end", "float", "bool", "not-a-list"])
def test_ensemble_frozen_indices_outside_the_ensemble(tmp_path, frozen):
    jpath, _, _ = _export("ensemble", tmp_path / "x")
    jpath.write_text(json.dumps({**json.loads(jpath.read_text()), "frozen": frozen,
                                 "n_frozen": 1}))
    with pytest.raises(mn.GridError, match=r"x\.json lists frozen paths"):
        sde.load_ensemble(tmp_path / "x")


FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(2, 3), min_size=d + 1, max_size=d + 1), st.data())))
def test_grid_export_roundtrip_is_bitwise(tmp_path_factory, shape_and_data):
    shape, data = shape_and_data
    n = int(np.prod(shape))
    vals = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n))).reshape(shape)
    d = len(shape) - 1
    f = mn.GridFunction(-0.3, 0.1, (0.5,) * d, (1 / 3,) * d, vals,
                        data.draw(st.sampled_from(["zero-extension", "periodic"])))
    prefix = tmp_path_factory.mktemp("grid") / "g"
    mn.save_grid_function(f, prefix)
    g = mn.load_grid_function(prefix)
    assert np.array_equal(g.values.view(np.uint64), f.values.view(np.uint64))
    assert (g.t0, g.dt, g.x0, g.dx, g.boundary) == (f.t0, f.dt, f.x0, f.dx, f.boundary)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 3), st.data())
def test_ensemble_export_roundtrip_is_bitwise(tmp_path_factory, d, n_paths, n_steps, data):
    n = n_paths * (n_steps + 1) * d
    paths = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
    frozen = np.array(data.draw(st.lists(st.booleans(), min_size=n_paths, max_size=n_paths)))
    ens = sde.PathEnsemble(paths.reshape(n_paths, n_steps + 1, d), 0.25, 0.01, 11, "brownian",
                           {"R": 1.0, "n": math.inf}, frozen)
    prefix = tmp_path_factory.mktemp("ens") / "e"
    sde.export_ensemble(ens, prefix)
    back = sde.load_ensemble(prefix)
    assert np.array_equal(back.paths.view(np.uint64), ens.paths.view(np.uint64))
    assert np.array_equal(back.frozen, ens.frozen)
    assert (back.t0, back.dt, back.seed, back.family_tag, back.params) == (
        ens.t0, ens.dt, ens.seed, ens.family_tag, ens.params)


# ---------------------------------------------------------------------------
# a bad count raises the caller's input error before anything is sized by it
# ---------------------------------------------------------------------------


def _zeros(t, X):
    return np.zeros(X.shape[:-1])


def _problem():
    return vr.VariationalProblem(0.0, 1.0, [2.0], [1.0], [1.0], np.ones((1, 5)))


BAD_COUNTS = {
    "from_callable-nt-0": (lambda: mn.from_callable(_zeros, (0, 1), 0, [(0, 1)], (4,)),
                           mn.GridError),
    "from_callable-nt-negative": (lambda: mn.from_callable(_zeros, (0, 1), -1, [(0, 1)], (4,)),
                                  mn.GridError),
    "from_callable-nt-fraction": (lambda: mn.from_callable(_zeros, (0, 1), 2.5, [(0, 1)], (4,)),
                                  mn.GridError),
    "from_callable-nt-bool": (lambda: mn.from_callable(_zeros, (0, 1), True, [(0, 1)], (4,)),
                              mn.GridError),
    "from_callable-nx-0": (lambda: mn.from_callable(_zeros, (0, 1), 4, [(0, 1)], (0,)),
                           mn.GridError),
    "from_callable-nx-negative": (lambda: mn.from_callable(_zeros, (0, 1), 4, [(0, 1)], (-2,)),
                                  mn.GridError),
    "from_callable-nx-fraction": (lambda: mn.from_callable(_zeros, (0, 1), 4, [(0, 1)], (2.5,)),
                                  mn.GridError),
    "initial-condition-nx-0": (
        lambda: pde.spatial_initial_condition(_zeros, [(0, 1)], (0,)), mn.GridError),
    "initial-condition-nx-fraction": (
        lambda: pde.spatial_initial_condition(_zeros, [(0, 1)], (2.5,)), mn.GridError),
    "explicit_cutoff-0": (lambda: vr.explicit_cutoff(_problem(), 0), vr.FeasibilityError),
    "explicit_cutoff-fraction": (lambda: vr.explicit_cutoff(_problem(), 2.5),
                                 vr.FeasibilityError),
    "oracle-knot_count-fraction": (lambda: vr.oracle_infimum(_problem(), 2.5),
                                   vr.FeasibilityError),
    "random_profiles-one-knot": (lambda: vr.random_feasible_profiles(0, 1, 1, 2, 1),
                                 vr.FeasibilityError),
    "random_profiles-count-negative": (lambda: vr.random_feasible_profiles(0, 1, 4, -1, 1),
                                       vr.FeasibilityError),
    "resampled-0": (lambda: vr.linear_profile(0.0, 1.0, 5).resampled(0), vr.FeasibilityError),
    "euler_maruyama-n_paths-bool": (
        lambda: sde.euler_maruyama(sde.build_coefficients("brownian", d=1), [0.0], 0.0, 0.01,
                                   0.01, True, 1), sde.SdeParameterError),
    "sliced_w1-empty": (lambda: sde.sliced_wasserstein1(np.empty((0, 2)), np.empty((0, 2))),
                        sde.SdeParameterError),
    "ellipticity-nx-0": (lambda: pde.ellipticity_profiles(pde.identity_field(1), (0,), (0.5,),
                                                          (0,)), pde.CoefficientError),
    "ellipticity-nx-fraction": (lambda: pde.ellipticity_profiles(
        pde.identity_field(1), (0,), (0.5,), (2.5,)), pde.CoefficientError),
    "ellipticity-nx-bool": (lambda: pde.ellipticity_profiles(
        pde.identity_field(1), (0,), (0.5,), (True,)), pde.CoefficientError),
    "sa3_exponent-empty": (lambda: vr.sa3_exponent([], [], []), vr.FeasibilityError),
    "sa3_exponent-lengths": (lambda: vr.sa3_exponent([2.0], [], [1.0]), vr.FeasibilityError),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_bad_count_raises_the_input_error(case):
    call, error = BAD_COUNTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def test_count_returns_a_plain_int():
    for n in (2, np.int64(2), np.uint8(2)):
        assert type(mn._count(n, 2, 400, mn.GridError)) is int
    with pytest.raises(mn.GridError, match="integer count in 2..400"):
        mn._count(401, 2, 400, mn.GridError)

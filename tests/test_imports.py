"""Every name a package module imports is used there or re-exported by its ``__all__``;
scipy is imported only inside the functions that run it, so a fresh ``import
parabolab.cli`` loads none of it and each CLI kind loads only what it runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import parabolab

MODULES = sorted(p for p in Path(parabolab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
SRC = str(Path(parabolab.__file__).resolve().parents[1])


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


def _module_paths(node, at_import_only):
    """Dotted names imported under ``node``; ``at_import_only`` skips function bodies."""
    stack, names = [node], []
    while stack:
        node = stack.pop()
        if at_import_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return names


def scipy_imports(source):
    """(scipy modules imported when the module is, every scipy.stats import anywhere)."""
    tree = ast.parse(source)
    at_import = [m for m in _module_paths(tree, True) if m.split(".")[0] == "scipy"]
    stats = [m for m in _module_paths(tree, False) if m.startswith("scipy.stats")]
    return sorted(set(at_import)), sorted(set(stats))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_scipy_is_imported_only_inside_functions(path):
    assert scipy_imports(path.read_text()) == ([], [])


def test_scipy_detector_sees_module_level_and_stats_imports():
    source = ("import numpy as np\n"
              "try:\n"
              "    from scipy import fft\n"
              "except ImportError:\n"
              "    pass\n"
              "class C:\n"
              "    import scipy.sparse.linalg as splinalg\n"
              "def f():\n"
              "    from scipy import ndimage, stats\n")
    assert scipy_imports(source) == (["scipy", "scipy.fft", "scipy.sparse.linalg"],
                                     ["scipy.stats"])


def np_gradient_calls(source):
    """Line numbers of calls to ``np.gradient`` or ``numpy.gradient``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "gradient" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in {"np", "numpy"})


def max_steps_assignments(source):
    """Line numbers that assign ``MAX_STEPS``, as a name or an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:
            for leaf in ast.walk(target):
                if getattr(leaf, "id", getattr(leaf, "attr", None)) == "MAX_STEPS":
                    lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_grid_rules_live_in_mixed_norms(path):
    # one difference stencil (mixed_norms._axis_gradient) and one step cap
    source = path.read_text()
    assert np_gradient_calls(source) == []
    assert len(max_steps_assignments(source)) == (path.stem == "mixed_norms")


def test_grid_rule_detectors_see_gradients_and_cap_assignments():
    source = ("import numpy as np\n"
              "import numpy\n"
              "from . import mixed_norms as mn\n"
              "from .mixed_norms import MAX_STEPS\n"
              "MAX_STEPS = 10\n"
              "mn.MAX_STEPS = 5\n"
              "a, MAX_STEPS = 1, 2\n"
              "MAX_STEPS: int = 3\n"
              "def f(u):\n"
              "    MAX_STEPS += 1\n"
              "    g = np.gradient(u, 0.1)\n"
              "    return numpy.gradient(g) + mn.gradient(u) + MAX_STEPS\n")
    assert np_gradient_calls(source) == [11, 12]
    assert max_steps_assignments(source) == [5, 6, 7, 8, 10]


def cell_center_offsets(source):
    """Line numbers of ``np.arange(...) + 0.5``, in either order: cell centres built by hand."""
    def is_arange(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "arange" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"np", "numpy"})

    def is_half(node):
        return isinstance(node, ast.Constant) and node.value == 0.5

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and ((is_arange(node.left) and is_half(node.right))
                       or (is_half(node.left) and is_arange(node.right))))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_cell_centers_live_in_mixed_norms(path):
    # only mixed_norms builds cell-centre coordinates; the solver's mesh and ghost
    # layers come from mn.cell_centers
    assert bool(cell_center_offsets(path.read_text())) == (path.stem == "mixed_norms")


def test_cell_center_detector_sees_both_orders():
    source = ("import numpy as np\n"
              "import numpy\n"
              "a = x0 + (np.arange(n) + 0.5) * dx\n"
              "b = (0.5 + numpy.arange(-1, n + 1)) * dx\n"
              "c = np.arange(n) + 1.5\n"
              "d = np.linspace(0, 1, n) + 0.5\n"
              "e = mn.cell_centers(x0, dx, nx)\n")
    assert cell_center_offsets(source) == [3, 4]


def name_uses(source, name):
    """Line numbers where ``name`` is read, as a bare name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_one_factorization_and_one_diffusion_representation():
    # the solver factorizes at one site, and the package reads the diffusion
    # through a_diag only: no module builds or reads a matrix form a_matrix
    sources = {p.stem: p.read_text() for p in MODULES}
    assert sum(len(name_uses(s, "splu")) for s in sources.values()) == 1
    assert [stem for stem, s in sources.items() if name_uses(s, "a_matrix")] == []


def test_name_use_detector_sees_calls_and_references():
    source = ("from scipy.sparse.linalg import splu\n"
              "def a_matrix(t, X):\n"
              "    return X\n"
              "lu = splu(M)\n"
              "u.sample(field.a_matrix)\n"
              "A = field.a_matrix(0.0, X)\n")
    assert name_uses(source, "splu") == [4]
    assert name_uses(source, "a_matrix") == [5, 6]


def block_row_walkers(source):
    """Names of the functions that read ``_block_rows`` or ``BLOCK_BYTES`` and call ``range``."""
    walkers = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            body = ast.unparse(node)
            if (name_uses(body, "_block_rows") or name_uses(body, "BLOCK_BYTES")) \
                    and name_uses(body, "range"):
                walkers.append(node.name)
    return sorted(walkers)


def block_bytes_readers(source):
    """Names of the functions that read ``BLOCK_BYTES``; ``<module>`` for a read outside one."""
    readers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name == "BLOCK_BYTES" and isinstance(child.ctx, ast.Load):
                readers.add(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return sorted(readers)


def test_one_block_walker():
    # mixed_norms._blocks turns BLOCK_BYTES into row ranges, and nothing else
    # reads it: no module sizes a scratch buffer from the block rule
    sources = {p.stem: p.read_text() for p in MODULES}
    assert {stem: block_row_walkers(s) for stem, s in sources.items()
            if block_row_walkers(s)} == {"mixed_norms": ["_blocks"]}
    assert {stem: block_bytes_readers(s) for stem, s in sources.items()
            if block_bytes_readers(s)} == {"mixed_norms": ["_blocks"]}


def test_block_walker_detector_sees_row_ranges():
    source = ("def _blocks(n, row_size):\n"
              "    step = _block_rows(row_size)\n"
              "    return (slice(lo, lo + step) for lo in range(0, n, step))\n"
              "def scratch(n):\n"
              "    return np.empty((mn._block_rows(n), n))\n"
              "def walk(u):\n"
              "    for lo in range(0, len(u), mn.BLOCK_BYTES // 8):\n"
              "        yield u[lo]\n")
    assert block_row_walkers(source) == ["_blocks", "walk"]


def test_block_bytes_reader_detector_sees_every_read():
    source = ("BLOCK_BYTES = 1 << 19\n"
              "LIMIT = 2 * BLOCK_BYTES\n"
              "def scratch(n):\n"
              "    return np.empty(mn.BLOCK_BYTES // 8)\n"
              "def outer():\n"
              "    def inner():\n"
              "        return BLOCK_BYTES\n"
              "    return inner\n"
              "def patch():\n"
              "    mn.BLOCK_BYTES = 64\n")
    assert block_bytes_readers(source) == ["<module>", "inner", "scratch"]


def _scipy_after(statement):
    """The scipy modules a fresh interpreter holds after it runs ``statement``."""
    code = (f"import sys; sys.path.insert(0, {SRC!r})\n{statement}\n"
            "print('scipy:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split()[1:])


def _scipy_after_run(tmp_path, kind, parameters):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    argv = [kind, "--config", str(config), "--out", str(tmp_path / "out")]
    return _scipy_after(f"import parabolab.cli\nassert parabolab.cli.main({argv!r}) == 0")


def test_cli_import_loads_no_scipy():
    assert _scipy_after("import parabolab.cli") == set()


def test_sde_run_loads_no_heavy_scipy(tmp_path):
    loaded = _scipy_after_run(tmp_path, "sde", {"n_paths": 50, "T": 0.1})
    heavy = {"scipy.fft", "scipy.ndimage", "scipy.sparse.linalg", "scipy.special", "scipy.stats"}
    assert loaded & heavy == set()


def test_default_norms_run_loads_no_ndimage(tmp_path):
    # its localized norms all have finite spatial p; only p = inf needs the max filter
    assert "scipy.ndimage" not in _scipy_after_run(tmp_path, "norms", {})


def test_variational_run_loads_no_fft_or_sparse_lu(tmp_path):
    loaded = _scipy_after_run(tmp_path, "variational", {"n_instances": 1})
    assert loaded & {"scipy.fft", "scipy.sparse.linalg"} == set()


def test_cold_start_skips_scipy_signal_and_stats():
    # scipy.signal (which imports scipy.stats) is most of a fresh process's start-up
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import parabolab.cli; "
            "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []

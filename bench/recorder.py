"""Call recorder for the traced run.

The recorder wraps the public functions of each parabolab module from the
outside: it replaces every module attribute that refers to a public function
(including the names other modules imported with ``from ... import``) by a
wrapper that records calls, inclusive time and self time (inclusive time
minus the time of the recorded calls made underneath it).  Nothing inside the
package changes; ``uninstall`` puts every original back.

``cutoffs`` is not wrapped: it is reached only through field and coefficient
closures, so its time lands in the ``pde_solver`` and ``sde_mc`` spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

# layer name -> public names wrapped; None means the module's ``__all__``
LAYERS = {
    "variational": None,
    "pde_solver": None,
    "mixed_norms": None,
    "sde_mc": None,
    "degiorgi": None,
    "embeddings": None,
    "cli": ("main",),
}

PREDICATES = ("index_set_contains", "in_I_d_p0", "in_script_I", "check_Re1", "check_Re01")


def _problem_key(prob, knot_count) -> str:
    h = hashlib.blake2b(digest_size=12)
    for arr in (prob.alphas, prob.ps, prob.betas, prob.f_samples):
        h.update(arr.tobytes())
    h.update(repr((prob.tau, prob.delta, knot_count)).encode())
    return h.hexdigest()


def _observe_oracle(rec, args, kwargs, result, elapsed):
    knots = args[1] if len(args) > 1 else kwargs.get("knot_count", 41)
    rec.distinct.setdefault("variational.problems", set()).add(_problem_key(args[0], knots))


def _observe_solve(rec, args, kwargs, result, elapsed):
    u0, cfg = args[1], args[2]
    cells = 1
    for n in u0.nx:
        cells *= n
    steps = int(round(cfg.T / cfg.dt))
    rec.add("pde_solver.solve.cell_steps", cells * steps)
    rec.samples.setdefault("pde_solver.solve", []).append((cells, steps, elapsed))


def _observe_files(name):
    def observe(rec, args, kwargs, result, elapsed):
        rec.add(name + ".bytes", sum(os.path.getsize(p) for p in result))
    return observe


def _observe_em(rec, args, kwargs, result, elapsed):
    rec.add("sde_mc.euler_maruyama.path_steps", result.n_paths * result.n_steps)
    rec.add("sde_mc.euler_maruyama.paths", result.n_paths)
    rec.add("sde_mc.euler_maruyama.frozen", result.n_frozen)
    nbytes = result.paths.nbytes + (0 if result.frozen is None else result.frozen.nbytes)
    rec.add("sde_mc.euler_maruyama.bytes", nbytes)


OBSERVERS = {
    "variational.brute_force_infimum": _observe_oracle,
    "pde_solver.solve": _observe_solve,
    "mixed_norms.save_grid_function": _observe_files("mixed_norms.save_grid_function"),
    "sde_mc.export_ensemble": _observe_files("sde_mc.export_ensemble"),
    "sde_mc.euler_maruyama": _observe_em,
}


class Recorder:
    """Spans and counts of one traced run, kept in memory.

    ``stats[(tag, name)] = [calls, inclusive_s, self_s]``; ``values`` holds
    counts added by observers and by the workloads themselves, ``distinct``
    sets of argument fingerprints and ``samples`` per-call records.  ``tag`` labels
    the records of a workload phase (the two ensemble shapes of
    ``sde-ensemble``).
    """

    def __init__(self):
        self.stats: dict = {}
        self.values: dict = {}
        self.distinct: dict = {}
        self.samples: dict = {}
        self.tag = None
        self.active = True
        self._stack: list = []
        self._patches: list = []
        self._wrappers: dict | None = None

    # -- counts --------------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        key = (self.tag, name)
        self.values[key] = self.values.get(key, 0) + amount

    @contextmanager
    def phase(self, tag: str):
        previous, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = previous

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats.setdefault((self.tag, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
            if observe is not None:
                observe(self, args, kwargs, result, elapsed)
            return result

        return traced

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"parabolab.{layer}")
            for attr in names or module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        return wrappers

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for modname, module in list(sys.modules.items()):
            if modname != "parabolab" and not modname.startswith("parabolab."):
                continue
            for attr, val in list(vars(module).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, val))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- read-out ------------------------------------------------------------

    def stat(self, name: str, field: int, tag=any) -> float:
        return sum(v[field] for (t, n), v in self.stats.items()
                   if n == name and (tag is any or t == tag))

    def value(self, name: str, tag=any) -> float:
        return sum(v for (t, n), v in self.values.items()
                   if n == name and (tag is any or t == tag))


class NullRecorder:
    """Stand-in for untraced passes: counts and phases cost nothing."""

    tag = None
    active = False

    def add(self, name: str, amount: float = 1) -> None:
        pass

    @contextmanager
    def phase(self, tag: str):
        yield


CALLS, INCL, SELF = 0, 1, 2


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _solve_split(samples) -> tuple[float, float]:
    """(per-step seconds, fixed seconds) from the largest-grid solves at two step counts."""
    if not samples:
        return 0.0, 0.0
    cells = max(c for c, _, _ in samples)
    by_steps: dict = {}
    for c, steps, elapsed in samples:
        if c == cells:
            by_steps.setdefault(steps, []).append(elapsed)
    if len(by_steps) < 2:
        return 0.0, 0.0
    items = sorted(by_steps.items())
    (s_lo, v_lo), (s_hi, v_hi) = items[0], items[-1]
    t_lo, t_hi = sum(v_lo) / len(v_lo), sum(v_hi) / len(v_hi)
    per_step = (t_hi - t_lo) / (s_hi - s_lo)
    return per_step, t_lo - s_lo * per_step


def layer_metrics(rec: Recorder, passes: int) -> dict:
    """Per-layer metrics, per traced pass, in the order of ``BENCHMARK.json``."""
    n = passes
    s = rec.stat
    m = {}

    bfi = "variational.brute_force_infimum"
    calls = s(bfi, CALLS)
    m[f"{bfi}.calls"] = calls / n
    m[f"{bfi}.self_s"] = s(bfi, SELF) / n
    m[f"{bfi}.ms_per_call"] = 1e3 * _ratio(s(bfi, INCL), calls)
    m["variational.calibrate_sa3_constant.s"] = s("variational.calibrate_sa3_constant", INCL) / n
    m["variational.distinct_problems_per_call"] = _ratio(
        len(rec.distinct.get("variational.problems", ())), calls)
    m["variational.oracle_improved_frac"] = _ratio(rec.value("variational.improved"),
                                                   rec.value("variational.instances"))

    solve_s = s("pde_solver.solve", INCL)
    m["pde_solver.solve.calls"] = s("pde_solver.solve", CALLS) / n
    m["pde_solver.solve.s"] = solve_s / n
    m["pde_solver.solve.cell_steps_per_s"] = _ratio(rec.value("pde_solver.solve.cell_steps"),
                                                    solve_s)
    per_step, fixed = _solve_split(rec.samples.get("pde_solver.solve"))
    m["pde_solver.solve.per_step_ms"] = 1e3 * per_step
    m["pde_solver.solve.fixed_s"] = fixed
    m["pde_solver.max_principle_report.self_s"] = s("pde_solver.max_principle_report", SELF) / n
    m["pde_solver.check_hypotheses.s"] = s("pde_solver.check_hypotheses", INCL) / n
    m["pde_solver.weak_residual.s"] = s("pde_solver.weak_residual", INCL) / n

    for fn in ("localized_norm", "mixed_norm"):
        m[f"mixed_norms.{fn}.calls"] = s(f"mixed_norms.{fn}", CALLS) / n
        m[f"mixed_norms.{fn}.self_s"] = s(f"mixed_norms.{fn}", SELF) / n
    m["mixed_norms.v_norm.s"] = s("mixed_norms.v_norm", INCL) / n
    m["mixed_norms.save_grid_function.s"] = s("mixed_norms.save_grid_function", INCL) / n
    m["mixed_norms.save_grid_function.bytes"] = rec.value("mixed_norms.save_grid_function.bytes") / n
    m["mixed_norms.from_callable.s"] = s("mixed_norms.from_callable", INCL) / n

    for shape in ("wide", "long"):
        p = f"sde_mc.{shape}"
        em_s = s("sde_mc.euler_maruyama", INCL, shape)
        m[f"{p}.euler_maruyama.s"] = em_s / n
        m[f"{p}.euler_maruyama.path_steps_per_s"] = _ratio(
            rec.value("sde_mc.euler_maruyama.path_steps", shape), em_s)
        m[f"{p}.euler_maruyama.bytes"] = rec.value("sde_mc.euler_maruyama.bytes", shape) / n
        for fn in ("krylov_functional", "modulus_report", "sup_moment", "export_ensemble",
                   "load_ensemble"):
            m[f"{p}.{fn}.s"] = s(f"sde_mc.{fn}", INCL, shape) / n
        m[f"{p}.export_ensemble.bytes"] = rec.value("sde_mc.export_ensemble.bytes", shape) / n
        m[f"{p}.frozen_frac"] = _ratio(rec.value("sde_mc.euler_maruyama.frozen", shape),
                                       rec.value("sde_mc.euler_maruyama.paths", shape))

    for fn in ("energy_estimate_diagnostic", "local_max_diagnostic"):
        m[f"degiorgi.{fn}.s"] = s(f"degiorgi.{fn}", INCL) / n

    m["embeddings.predicates.calls"] = sum(s(f"embeddings.{p}", CALLS) for p in PREDICATES) / n
    m["embeddings.predicates.s"] = sum(s(f"embeddings.{p}", SELF) for p in PREDICATES) / n

    m["cli.main.calls"] = s("cli.main", CALLS) / n
    m["cli.main.self_s"] = s("cli.main", SELF) / n
    m["cli.report.bytes"] = rec.value("cli.report.bytes") / n
    m["cli.rejected_frac"] = _ratio(rec.value("cli.rejected"), rec.value("cli.runs"))
    m["cli.uncaught"] = rec.value("cli.uncaught") / n
    return m

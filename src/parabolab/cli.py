"""Experiment runner: declarative JSON configs, reproducible seeds, report emission.

Config format (JSON): ``{"kind": ..., "parameters": {...}, "seed": int,
"output_dir": str}`` with kind-specific parameter schemas; unknown keys are
rejected before any computation.  Reports are written as ``report.json``
(sorted keys, no timestamps, embeds the config hash and package version) plus
kind-specific CSV tables; wall-clock metadata goes to the ``meta.json``
sidecar, which is excluded from the byte-identical rerun guarantee.

Exit codes: 0 success; 2 for a rejected config and for any ``InputError``;
3 for any ``NumericalError``, ``LinAlgError``, ``FloatingPointError`` or
``MemoryError``; 4 acceptance failure.  Every error the package raises derives
from one of the two roots in ``parabolab.errors``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from . import degiorgi as dg
from . import mixed_norms as mn
from . import pde_solver as pde
from . import sde_mc as sde
from . import variational as vr
from .embeddings import ExponentConfig, check_Re01, check_Re1, in_I_d_p0
from .errors import InputError, NumericalError
from .mixed_norms import INF, GridFunction, MixedNormSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


class ValidationError(InputError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    parameters: dict = dc_field(default_factory=dict)
    seed: int = 0
    output_dir: str = "out"


FINITE_MAX = sys.float_info.max  # as an upper bound: admits every finite float, rejects inf


def _positive(lo=0.0, hi=math.inf, integer=False):
    def check(name, v):
        if integer and not isinstance(v, int):
            raise ValidationError(f"parameter {name} must be an integer, got {v!r}")
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValidationError(f"parameter {name} must be numeric, got {v!r}")
        if not lo < v <= hi:
            raise ValidationError(f"parameter {name} must lie in ({lo}, {hi}], got {v}")
        return v

    return check


def _nonnegative(hi=math.inf):
    def check(name, v):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v <= hi:
            raise ValidationError(
                f"parameter {name} must be a nonnegative number <= {hi}, got {v!r}")
        return v

    return check


def _choice(*options):
    def check(name, v):
        if v not in options:
            raise ValidationError(f"parameter {name} must be one of {sorted(options)}, got {v!r}")
        return v

    return check


def _index_list(n):
    """A list of integer indices in 1..n."""
    item = _positive(0, n, integer=True)

    def check(name, v):
        if not isinstance(v, (list, tuple)):
            raise ValidationError(f"parameter {name} must be a list of integers in 1..{n}")
        return [item(name, i) for i in v]

    return check


def _numeric_list(name, v):
    if not isinstance(v, (list, tuple)) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ValidationError(f"parameter {name} must be a list of numbers")
    return list(v)


def load_config(path, kind: str, seed, out) -> ExperimentConfig:
    """Read and validate a config file; CLI flags override seed/output_dir."""
    raw = {}
    if path is not None:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
    unknown = set(raw) - {"kind", "parameters", "seed", "output_dir"}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    cfg_kind = raw.get("kind", kind)
    if cfg_kind != kind:
        raise ValidationError(f"config kind {cfg_kind!r} does not match subcommand {kind!r}")
    if cfg_kind not in EXPERIMENTS:
        raise ValidationError(f"unknown kind {cfg_kind!r}")
    schema = EXPERIMENTS[cfg_kind][1]
    params = {key: default for key, (default, _) in schema.items() if default is not None}
    user = raw.get("parameters", {})
    if not isinstance(user, dict):
        raise ValidationError("parameters must be an object")
    for key, val in user.items():
        if key not in schema:
            raise ValidationError(f"unknown parameter {key!r} for kind {cfg_kind!r}")
        if isinstance(val, str) and val == "inf":
            val = INF
        params[key] = schema[key][1](key, val)
    cfg_seed = raw.get("seed", 0)
    if seed is not None:
        cfg_seed = seed
    if isinstance(cfg_seed, bool) or not isinstance(cfg_seed, int) or not 0 <= cfg_seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64 - 1], got {cfg_seed!r}")
    output_dir = raw.get("output_dir", "out")
    if out is not None:
        output_dir = out
    return ExperimentConfig(cfg_kind, params, cfg_seed, str(output_dir))


def _canonical(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(_canonical({"kind": config.kind, "parameters": config.parameters,
                                  "seed": config.seed}), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_report(outdir: Path, config: ExperimentConfig, body: dict, started: float) -> None:
    report = {
        "kind": config.kind,
        "seed": config.seed,
        "parameters": _canonical(config.parameters),
        "config_hash": config_hash(config),
        "version": __version__,
    }
    report.update(_canonical(body))
    (outdir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    meta = {"wall_seconds": time.time() - started, "written_at": time.time()}
    (outdir / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


# canned test functions of the ``norms`` kind on the unit box; None is seeded noise
NORM_FIXTURES = {
    "constant": lambda t, X: np.ones(X.shape[:-1]),
    "bump": lambda t, X: np.exp(-((X - 0.5) ** 2).sum(axis=-1) / 0.02 - (t - 0.5) ** 2 / 0.02),
    "indicator": lambda t, X: (t < 0.5) * np.ones(X.shape[:-1]),
    "random": None,
}


def _norms_fixture(name, d, nt, nx, rng):
    fn = NORM_FIXTURES[name]
    if fn is None:
        vals = rng.standard_normal((nt,) + (nx,) * d)
        return GridFunction._owning(0.0, 1.0 / nt, (0.0,) * d, (1.0 / nx,) * d, vals)
    return mn.from_callable(fn, (0.0, 1.0), nt, [(0.0, 1.0)] * d, (nx,) * d)


def run_norms(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.parameters
    rng = np.random.default_rng(config.seed)
    f = _norms_fixture(p["fixture"], p["d"], p["nt"], p["nx"], rng)
    spec_t = MixedNormSpec(p["p"], p["q"], "time-outer")
    spec_x = MixedNormSpec(p["p"], p["q"], "space-outer")
    records = [
        mn.norm_record("mixed_norm", spec_t, mn.mixed_norm(f, spec_t)),
        mn.norm_record("mixed_norm", spec_x, mn.mixed_norm(f, spec_x)),
        mn.norm_record("localized_norm", spec_t,
                       mn.localized_norm(f, spec_t, p["lattice_step"])),
    ]
    if p["q"] >= p["p"]:
        records.append(mn.norm_record("minkowski_gap", None,
                                      mn.minkowski_gap(f, p["p"], p["q"])))
    mn.save_grid_function(f, outdir / "field")
    return {"records": records}


def run_embed(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.parameters
    rng = np.random.default_rng(config.seed)
    rows = []
    for _ in range(p["n_points"]):
        def draw():
            return INF if rng.random() < 0.15 else float(np.exp(rng.uniform(0, math.log(64))))
        pq = sorted([draw(), draw()])
        cfg = ExponentConfig(d=p["d"], p0=p["p0"], p2=draw(), q2=draw(),
                             p3=pq[0], q3=pq[1])
        pp, qq = draw(), draw()
        re1 = check_Re1(cfg)
        rows.append({
            "d": p["d"], "p0": p["p0"], "p": pp, "q": qq,
            "predicate": "index_set", "value": in_I_d_p0(pp, qq, cfg),
        })
        rows.append({"d": p["d"], "p0": p["p0"], "p": cfg.p2, "q": cfg.q2,
                     "predicate": "drift_part_1", "value": repr(re1) if not isinstance(re1, bool) else re1})
        rows.append({"d": p["d"], "p0": p["p0"], "p": cfg.p3, "q": cfg.q3,
                     "predicate": "drift_part_2", "value": check_Re01(cfg)})
    _write_csv(outdir / "sweep.csv", [{k: str(v) for k, v in r.items()} for r in rows])
    return {"n_rows": len(rows), "rows": rows[:12]}


def run_variational(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.parameters
    rng = np.random.default_rng(config.seed)
    rows = []
    for k in range(p["n_instances"]):
        prob = vr._random_problem(rng, p["n_components"])
        oracle = vr.oracle_infimum(prob, p["knot_count"])
        explicit = vr.functional_value(prob, vr.explicit_cutoff(prob).resampled(p["knot_count"]))
        expo, rhs, c_fit = vr.sa3_bound_rhs(prob)
        rows.append({"instance": k, "gap": prob.delta, "oracle": oracle.value, "explicit": explicit,
                     "converged": oracle.converged, "fw_gap": oracle.fw_gap,
                     "exponent": expo, "rhs_value": rhs, "c_fit": c_fit,
                     "bounded": bool(oracle.value <= c_fit * rhs)})
        if k == 0:
            vr.profile_to_csv(oracle.profile, outdir / "best_profile.csv")
    return {"instances": rows}


def run_pde(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.parameters
    names = pde.PDE_FIXTURES[p["fixture"]]["params"]
    field = pde.build_field(p["fixture"], **{k: p[k] for k in names})
    field = field.with_forcing(lambda t, X: np.exp(-((X**2).sum(axis=-1)) / 0.32))
    box = [(-p["box"], p["box"])] * field.d
    u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]), box,
                                       (p["nx"],) * field.d, "periodic")
    cfg = pde.SolverConfig(dt=p["dt"], T=p["T"])
    u = pde.solve(field, u0, cfg)
    exp_cfg = ExponentConfig(d=field.d, p0=p["p0"], p4=p["p4"], q4=p["q4"])
    hyp = pde.check_hypotheses(field, exp_cfg, u0.x0, u0.dx, u0.nx)
    rep = pde.max_principle_report(u, field, exp_cfg, cfg.T, lattice_step=0.5)
    mn.save_grid_function(u, outdir / "solution")
    return {"hypotheses": hyp.as_dict(), "max_principle": rep.as_dict(),
            "grad_sup": mn.gradient_sup(u)}


def run_degiorgi(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.parameters
    field = pde.identity_field(1, forcing=lambda t, X: np.exp(-(X[..., 0] ** 2) / 0.18))
    u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                       [(-2.5, 2.5)], (p["nx"],), "periodic")
    u = pde.solve(field, u0, pde.SolverConfig(dt=p["dt"], T=4.0))
    up = dg.pad_run_backward(u, -4.0 - p["dt"])
    cfg = ExponentConfig(d=1, p0=INF, p4=p["p4"], q4=INF)
    rows = []
    diag = dg.energy_estimate_diagnostic(up, field, p["level"], 1.0, 2.0, cfg)
    sweep = dg.energy_gap_sweep(up, field, p["level"], cfg, [1.0, 0.5, 0.25])
    rows.append({"run_id": config_hash(config)[:12], "op": "energy_estimate",
                 "lhs": diag.lhs, "rhs": diag.rhs_total, "ratio": diag.ratio,
                 "gamma_fit": sweep["gamma_fit"]})
    lhs, rhs, ratio = dg.local_max_diagnostic(up, field, cfg, 2.0)
    rows.append({"run_id": config_hash(config)[:12], "op": "local_max",
                 "lhs": lhs, "rhs": rhs, "ratio": ratio, "gamma_fit": None})
    _write_csv(outdir / "diagnostics.csv", [{k: str(v) for k, v in r.items()} for r in rows])
    return {"diagnostics": rows}


def run_sde(config: ExperimentConfig, outdir: Path) -> dict:
    p = config.parameters
    coeffs = sde.build_coefficients(p["family"], d=p["d"], R=p["R"], alpha=p["alpha"],
                                    beta=p["beta"], lam=p["lambda"], n=p["n"])
    ens = sde.euler_maruyama(coeffs, p["x0"], 0.0, p["T"], p["dt"], p["n_paths"], config.seed)
    sup, sup_se = sde.sup_moment(ens)
    box = [(-4.0, 4.0)] * coeffs.d
    f = mn.from_callable(lambda t, X: ((X**2).sum(axis=-1) <= 1.0).astype(float),
                         (0.0, p["T"]), max(ens.n_steps, 2), box, (32,) * coeffs.d)
    kry, kry_se = sde.krylov_functional(ens, f, 0.0, p["T"])
    sde.export_ensemble(ens, outdir / "ensemble")
    return {"sup_moment": sup, "sup_stderr": sup_se,
            "occupation_estimate": kry, "occupation_stderr": kry_se,
            "n_frozen": ens.n_frozen}


def run_acceptance(config: ExperimentConfig, outdir: Path) -> dict:
    indices = config.parameters.get("criteria") or None  # an empty list runs them all
    results = acceptance.run_all(indices=indices)
    rows = [{"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]
    return {"criteria": rows, "all_passed": all(r.passed for r in results)}


# kind -> (runner, {parameter: (default, check)}); a None default leaves the
# parameter out of ``parameters`` unless the config gives it
EXPERIMENTS = {
    "norms": (run_norms, {
        "fixture": ("constant", _choice(*NORM_FIXTURES)),
        "d": (1, _positive(0, 3, integer=True)),
        "nt": (16, _positive(1, 512, integer=True)),
        "nx": (16, _positive(1, 512, integer=True)),
        "p": (2.0, _positive(0.999)),
        "q": (4.0, _positive(0.999)),
        "lattice_step": (0.25, _positive(0, 1.0)),
    }),
    "embed": (run_embed, {
        "d": (3, _positive(0, 3, integer=True)),
        "p0": (INF, _positive(0.5)),
        "n_points": (200, _positive(0, 100000, integer=True)),
    }),
    "variational": (run_variational, {
        "n_components": (2, _positive(0, 4, integer=True)),
        "n_instances": (5, _positive(0, 1000, integer=True)),
        "knot_count": (33, _positive(2, 400, integer=True)),
    }),
    "pde": (run_pde, {
        "fixture": ("example-6.2", _choice(*pde.PDE_FIXTURES)),
        "d": (2, _positive(0, 3, integer=True)),
        "alpha": (0.2, _positive(0, 10)),
        "R": (1.0, _positive(0.999)),
        "n": (4, _positive(0.999)),
        "nx": (48, _positive(3, 512, integer=True)),
        "dt": (0.02, _positive(0, 1.0)),
        "T": (0.5, _positive(0, FINITE_MAX)),
        "box": (4.0, _positive(0, FINITE_MAX)),
        "p0": (2.4, _positive(0.5)),
        "p4": (4.0, _positive(0.999)),
        "q4": (INF, _positive(0.999)),
    }),
    "degiorgi": (run_degiorgi, {
        "nx": (80, _positive(3, 512, integer=True)),
        "dt": (0.02, _positive(0, 1.0)),
        "level": (0.0, _nonnegative()),
        "p4": (4.0, _positive(1.999)),
    }),
    "sde": (run_sde, {
        "family": ("brownian", _choice(*sde.SDE_FAMILIES)),
        "d": (2, _positive(0, 3, integer=True)),
        "alpha": (0.0, _nonnegative(10)),
        "beta": (0.0, _nonnegative(10)),
        "lambda": (0.0, _nonnegative(100)),
        "R": (1.0, _positive(0.999)),
        "n": (1.0, _positive(0.999)),
        "n_paths": (2000, _positive(0, 10**6, integer=True)),
        "dt": (0.01, _positive(0, 1e-2)),
        "T": (0.5, _positive(0, FINITE_MAX)),
        "x0": ([0.0, 0.0], _numeric_list),
    }),
    "acceptance": (run_acceptance, {
        "criteria": (None, _index_list(len(acceptance.CRITERIA))),
    }),
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    started = time.time()
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner, _ = EXPERIMENTS[config.kind]
    try:
        body = runner(config, outdir)
    except InputError as exc:
        _write_error(outdir, config.kind, config_hash(config), "validation", str(exc))
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        _write_error(outdir, config.kind, config_hash(config), "numerical", str(exc))
        return EXIT_NUMERICAL
    _write_report(outdir, config, body, started)
    (outdir / "error.json").unlink(missing_ok=True)
    if config.kind == "acceptance" and not body.get("all_passed", True):
        return EXIT_ACCEPTANCE
    return EXIT_OK


def _write_error(outdir: Path, kind: str, chash, category: str, message: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in ("report.json", "meta.json"):
        (outdir / stale).unlink(missing_ok=True)
    record = {"error": category, "message": message, "kind": kind, "config_hash": chash}
    (outdir / "error.json").write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")


def list_builtin_fixtures() -> dict:
    """Catalog of named coefficient families and canned test functions."""
    catalog = {}
    for name, info in pde.PDE_FIXTURES.items():
        catalog[name] = {"kind": "pde", "condition": info["condition"]}
    for name, condition in sde.SDE_FAMILIES.items():
        entry = catalog.get(name)
        if entry is not None:
            entry["kind"] = "pde+sde"
        else:
            catalog[name] = {"kind": "sde", "condition": condition}
    for name in NORM_FIXTURES:
        catalog[name] = {"kind": "test-function", "condition": "none"}
    return catalog


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="parabolab",
                                     description="numerical laboratory experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in (*EXPERIMENTS, "fixtures"):
        sp = sub.add_parser(kind)
        sp.add_argument("--config", default=None, help="JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    if args.command == "fixtures":
        print(json.dumps(list_builtin_fixtures(), sort_keys=True, indent=1))
        return EXIT_OK
    try:
        config = load_config(args.config, args.command, args.seed, args.out)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out is not None:  # a rejected config has no hash
            _write_error(Path(args.out), args.command, None, "validation", str(exc))
        return EXIT_VALIDATION
    rc = run(config)
    if rc == EXIT_OK:
        print(f"ok: report in {config.output_dir}")
    else:
        print(f"failed with exit code {rc}; see {config.output_dir}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())

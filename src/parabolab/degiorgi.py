"""Level-set truncation machinery: schedules, level energies, and the fast-decay recursion.

Levels climb like ``kappa_n = kappa (1 - 2^(1-n))`` while cylinders shrink
like ``tau_n = tau + (sigma - tau) 2^(1-n)``, with the intermediate radii
``tau~_n = tau + 3 (sigma - tau) 2^(-n-1)`` interleaving strictly.  The
recursion lemma is exercised on the worst-case equality iteration
``a_(n+1) = C0 lambda^n a_n sum_j a_n^(delta_j)``: seeds at or below
``(m C0 lambda^((1+delta)/delta))^(-1/delta)`` must obey the induction bound
``a_n <= a_1 lambda^(-(n-1)/delta)``.

The energy and local-maximum diagnostics evaluate both sides of the
corresponding estimates on solver output around origin-centered cylinders
(pad runs backward in time with zeros when needed).

Only the measure bound :func:`lk1_check` is a standalone exact inequality.
Its two siblings -- the truncated-gradient bound and the shrunk-window level
bound, both of which weigh the cylinder energy norm of a truncation against a
level-gap power -- are exercised implicitly: ``energy_estimate_diagnostic``
computes exactly the windowed truncation norms and the cylinder energy norm
those bounds relate, so their content shows up as the boundedness of its
recorded ratios rather than as separately calibrated operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mixed_norms as mn
from .embeddings import ExponentConfig, PreconditionError, in_script_I
from .errors import NumericalError
from .mixed_norms import INF, Cylinder, GridFunction, MixedNormSpec
from .pde_solver import CoefficientField, _cell_forcing

__all__ = [
    "DiagnosticAnomaly",
    "LevelSchedule",
    "RecursionParams",
    "RecursionResult",
    "schedule",
    "level_truncate",
    "level_energy",
    "lk1_check",
    "recursion_threshold",
    "recursion_simulate",
    "iteration_exponents",
    "EnergyDiagnostic",
    "energy_estimate_diagnostic",
    "energy_gap_sweep",
    "local_max_diagnostic",
    "pad_run_backward",
]


class DiagnosticAnomaly(NumericalError):
    """A diagnostic produced a combination that should be impossible."""


@dataclass(frozen=True)
class LevelSchedule:
    kappa: float
    tau: float
    sigma: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise PreconditionError("base level kappa must be positive")
        if not (1.0 <= self.tau < self.sigma <= 2.0):
            raise PreconditionError("need 1 <= tau < sigma <= 2")


def schedule(sched: LevelSchedule, n: int) -> tuple[float, float, float]:
    """(kappa_n, tau_n, tau~_n) for n >= 1."""
    if n < 1:
        raise PreconditionError(f"schedule index must be >= 1, got {n}")
    kap = sched.kappa * (1.0 - 2.0 ** (1 - n))
    tau_n = sched.tau + (sched.sigma - sched.tau) * 2.0 ** (1 - n)
    tau_tilde = sched.tau + 3.0 * (sched.sigma - sched.tau) * 2.0 ** (-n - 1)
    return kap, tau_n, tau_tilde


def level_truncate(u: GridFunction, kappa: float) -> GridFunction:
    """Pointwise positive part above the level: ``(u - kappa)^+``."""
    if kappa < 0:
        raise PreconditionError("levels are nonnegative")
    return u._with_owned(np.maximum(u.values - kappa, 0.0))


def level_energy(u: GridFunction, kappa: float, cyl: Cylinder, r: float, s: float) -> float:
    """Windowed mixed norm of the truncation: ``||1_cyl (u - kappa)^+||`` (space r, time s)."""
    w = level_truncate(u, kappa)
    return mn.cylinder_norm(w, MixedNormSpec(r, s, "time-outer"), cyl)


def lk1_check(u: GridFunction, kappa0: float, kappa1: float, cyl: Cylinder,
              r: float, s: float) -> tuple[float, float]:
    """Both sides of the level-set measure bound; lhs <= rhs holds exactly.

    lhs is the windowed norm of the indicator of ``{u > kappa1}``, rhs the
    :func:`level_energy` at ``kappa0`` divided by ``kappa1 - kappa0``.
    """
    if not 0 < kappa0 < kappa1:
        raise PreconditionError("need 0 < kappa0 < kappa1")
    ind = u._with_owned((u.values > kappa1).astype(float))
    lhs = mn.cylinder_norm(ind, MixedNormSpec(r, s, "time-outer"), cyl)
    return lhs, level_energy(u, kappa0, cyl, r, s) / (kappa1 - kappa0)


# ---------------------------------------------------------------------------
# fast-decay recursion
# ---------------------------------------------------------------------------


RECURSION_TERMS = 50  # length of the simulated sequence a_1, ..., a_50


@dataclass(frozen=True)
class RecursionParams:
    C0: float
    lam: float
    deltas: tuple
    a1: float

    def __post_init__(self):
        d = tuple(float(x) for x in np.atleast_1d(self.deltas))
        object.__setattr__(self, "deltas", d)
        if not (self.C0 > 1 and self.lam > 1):
            raise PreconditionError("need C0 > 1 and lambda > 1")
        if len(d) < 1 or any(x <= 0 for x in d):
            raise PreconditionError("need m >= 1 positive exponents")
        if self.a1 < 0:
            raise PreconditionError("seed must be nonnegative")


def recursion_threshold(params: RecursionParams) -> float:
    m = len(params.deltas)
    delta = min(params.deltas)
    return (m * params.C0 * params.lam ** ((1 + delta) / delta)) ** (-1.0 / delta)


@dataclass
class RecursionResult:
    a: np.ndarray
    threshold: float
    below_threshold: bool
    bound_ok: bool
    diverged: bool


def recursion_simulate(params: RecursionParams) -> RecursionResult:
    """Iterate the worst-case equality recursion and check the decay induction.

    Below-threshold seeds must satisfy ``a_n <= a_1 lambda^(-(n-1)/delta)``
    for all n up to ``RECURSION_TERMS`` (floating-point <= with 1e-12 slack).
    Seeds far above threshold typically diverge; divergence is reported, not
    asserted.
    """
    m = len(params.deltas)
    delta = min(params.deltas)
    thr = recursion_threshold(params)
    a = [params.a1]
    diverged = False
    for n in range(1, RECURSION_TERMS):
        an = a[-1]
        with np.errstate(over="ignore"):
            nxt = params.C0 * params.lam**n * an * sum(an**dj for dj in params.deltas)
        if not math.isfinite(nxt) or nxt > 1e200:
            diverged = True
            a.append(math.inf)
            break
        a.append(nxt)
    arr = np.array(a)
    below = params.a1 <= thr * (1 + 1e-15)
    bound_ok = True
    if below:
        n_idx = np.arange(arr.size)
        bound = params.a1 * params.lam ** (-(n_idx) / delta)  # n_idx = n - 1
        bound_ok = bool(np.all(arr <= bound * (1 + 1e-12) + 1e-300))
    return RecursionResult(arr, thr, below, bound_ok, diverged)


# ---------------------------------------------------------------------------
# energy and local-maximum diagnostics on solver output
# ---------------------------------------------------------------------------


def pad_run_backward(u: GridFunction, t_lo: float) -> GridFunction:
    """Extend a solver run by zero samples back to time ``t_lo`` (vanishing past).

    At most ``mn.MAX_STEPS`` rows are added; a ``t_lo`` further back, or NaN,
    raises :class:`PreconditionError` before anything is allocated.
    """
    steps = (u.t0 - t_lo) / u.dt - 1e-12
    if not steps <= mn.MAX_STEPS:
        raise PreconditionError(f"t_lo = {t_lo:g} lies more than MAX_STEPS = {mn.MAX_STEPS} "
                                "steps before the run")
    if steps <= 0:
        return u
    n_extra = math.ceil(steps)
    vals = np.concatenate([np.zeros((n_extra,) + u.nx), u.values], axis=0)
    return GridFunction._owning(u.t0 - n_extra * u.dt, u.dt, u.x0, u.dx, vals, u.boundary)


def iteration_exponents(cfg: ExponentConfig) -> dict:
    """The three window exponent pairs used by the energy diagnostic.

    ``(r2, s2)`` from the b1 Hoelder split (reduces to (2, 2) when b1 is
    absent with p0 = inf), ``(r3, s3)`` from the forcing split (needs
    p4 >= 2), and ``(r1, s1) := (r2, s2)`` by convention.
    """
    if cfg.p4 < 2:
        raise PreconditionError("forcing split needs p4 >= 2")
    inv_r2 = 0.5 - (0.0 if math.isinf(cfg.p0) else 0.5 / cfg.p0) \
        - (0.0 if math.isinf(cfg.p2) else 1.0 / cfg.p2)
    if inv_r2 <= 0:
        raise PreconditionError("b1 exponents leave no room for the window pair (r2, s2)")
    inv_s2 = 0.5 - (0.0 if math.isinf(cfg.q2) else 1.0 / cfg.q2)
    if inv_s2 <= 0:
        raise PreconditionError("q2 leaves no room for s2")
    r2, s2 = 1.0 / inv_r2, 1.0 / inv_s2
    inv_r3 = 0.5 - (0.0 if math.isinf(cfg.p4) else 1.0 / cfg.p4)
    r3 = INF if inv_r3 == 0 else 1.0 / inv_r3
    inv_s3 = 1.0 - (0.0 if math.isinf(cfg.q4) else 1.0 / cfg.q4)
    s3 = INF if inv_s3 == 0 else 1.0 / inv_s3
    kap = cfg.kappa
    for (r, s) in ((r2, s2), (r3, s3)):
        if not in_script_I(max(r, 2.0), s, kap, cfg.d):
            raise PreconditionError(f"derived pair ({r}, {s}) not admissible for kappa={kap}")
    return {"r1": r2, "s1": s2, "r2": r2, "s2": s2, "r3": r3, "s3": s3}


def _cyl_v_norm(w: GridFunction, cyl: Cylinder, kappa: float) -> float:
    part1 = mn.cylinder_norm(w, MixedNormSpec(2.0, INF, "time-outer"), cyl)
    part2 = mn.cylinder_norm(mn.gradient_magnitude(w), MixedNormSpec(kappa, 2.0, "space-outer"),
                             cyl)
    return part1 + part2


@dataclass
class EnergyDiagnostic:
    lhs: float
    rhs_terms: dict
    rhs_total: float
    ratio: float


def energy_estimate_diagnostic(
    u: GridFunction,
    field: CoefficientField,
    kappa_level: float,
    tau1: float,
    tau2: float,
    cfg: ExponentConfig,
) -> EnergyDiagnostic:
    """Both sides of the truncated energy estimate on nested cylinders.

    ``lhs = ||w||^2`` in the cylinder energy norm on Q_tau1;
    ``rhs = (tau2 - tau1)^(-1) sum_i ||1_(Q_tau2) w||^2 + ||f||^2 ||1_(w!=0)||^2``
    with the window pairs from :func:`iteration_exponents`.  The power of the
    gap is fitted separately by :func:`energy_gap_sweep`.
    """
    if not (1.0 <= tau1 < tau2 <= 2.0):
        raise PreconditionError("need 1 <= tau1 < tau2 <= 2")
    tc = u.t_centers()
    if tc[0] > -(tau2**2) + 1e-9 or tc[-1] < tau2**2 - 1e-9 :
        raise PreconditionError("run does not cover the outer cylinder in time; pad it")
    pairs = iteration_exponents(cfg)
    origin = (0.0, (0.0,) * u.d)
    Q1, Q2 = Cylinder(tau1, origin), Cylinder(tau2, origin)
    w = level_truncate(u, kappa_level)
    lhs = _cyl_v_norm(w, Q1, cfg.kappa) ** 2

    # (r1, s1) = (r2, s2), so both level terms are one window norm
    val = mn.cylinder_norm(w, MixedNormSpec(pairs["r2"], pairs["s2"], "time-outer"), Q2) ** 2
    terms = {"level_term_1": val, "level_term_2": val}
    wterm = val + val
    f_norm = 0.0
    if field.forcing is not None:
        f_gf = u._with_owned(u.sample(_cell_forcing(field)))
        f_norm = mn.cylinder_norm(f_gf, MixedNormSpec(cfg.p4, cfg.q4, "time-outer"), Q2)
    ind = u._with_owned((w.values > 0).astype(float))
    ind_norm = mn.cylinder_norm(ind, MixedNormSpec(pairs["r3"], pairs["s3"], "time-outer"), Q2)
    fterm = f_norm**2 * ind_norm**2
    terms["forcing_term"] = fterm
    rhs = (tau2 - tau1) ** -1.0 * wterm + fterm
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return EnergyDiagnostic(lhs, terms, rhs, ratio)


def energy_gap_sweep(u, field, kappa_level, cfg, gaps) -> dict:
    """Fit the gap power: regress the required prefactor on -log(gap).

    For each gap the diagnostic is run at (2 - gap, 2), and only its lhs and
    its right-side terms are read, not the gap prefactor; the fitted slope of
    ``log((lhs - forcing term)^+ / level term)`` against ``-log(gap)`` is the
    empirical gap power gamma.
    """
    xs, ys = [], []
    rows = []
    for gap in gaps:
        diag = energy_estimate_diagnostic(u, field, kappa_level, 2.0 - gap, 2.0, cfg)
        S = diag.rhs_terms["level_term_1"] + diag.rhs_terms["level_term_2"]
        F = diag.rhs_terms["forcing_term"]
        need = max(diag.lhs - F, 1e-300)
        if S > 0:
            xs.append(-math.log(gap))
            ys.append(math.log(need / S))
        rows.append({"gap": gap, "lhs": diag.lhs, "level_sum": S, "forcing_term": F})
    gamma_fit = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else math.nan
    return {"rows": rows, "gamma_fit": gamma_fit}


def local_max_diagnostic(u: GridFunction, field: CoefficientField, cfg: ExponentConfig,
                         p: float) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) of the local maximum estimate on Q_1 vs Q_2.

    ``lhs = ||u^+ 1_(Q_1)||_inf``, ``rhs = ||u^+ 1_(Q_2)||_(p,p) +
    ||f 1_(Q_2)||_(q4,p4)``; the ratio is scale invariant and should be
    stable under refinement.  rhs = 0 with lhs > 0 is flagged as an anomaly.
    """
    if not p > 0:
        raise PreconditionError("need p > 0")
    origin = (0.0, (0.0,) * u.d)
    Q1, Q2 = Cylinder(1.0, origin), Cylinder(2.0, origin)
    up = u._with_owned(np.maximum(u.values, 0.0))
    lhs = float(mn._cylinder_values(up, Q1).max())
    # p < 1 is a quasi-norm power, outside MixedNormSpec: the (p, p) sum by hand
    vals2 = mn._cylinder_values(up, Q2)
    upp = float((np.abs(vals2) ** p).sum() * (u.dt * u.cell_volume)) ** (1.0 / p)
    f_norm = 0.0
    if field.forcing is not None:
        f_norm = mn.cylinder_norm(u._with_owned(u.sample(_cell_forcing(field))),
                                  MixedNormSpec(cfg.p4, cfg.q4, "time-outer"), Q2)
    rhs = upp + f_norm
    if rhs == 0.0 and lhs > 0.0:
        raise DiagnosticAnomaly("vanishing right side with a positive maximum")
    ratio = lhs / rhs if rhs > 0 else 0.0
    return lhs, rhs, ratio

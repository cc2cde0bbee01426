"""Exponent bookkeeping and numerical checks of the interpolation inequalities.

All admissibility predicates work with ``math.inf`` as a first-class exponent
(``1/inf = 0``).  The interpolation constants are empirical: they are obtained
as the maximum over a frozen, seeded calibration family times a recorded
safety margin, never taken from closed-form constant chases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mixed_norms as mn
from .errors import InputError
from .mixed_norms import INF, Cylinder, GridFunction, MixedNormSpec

__all__ = [
    "B1_MUST_VANISH",
    "ExponentDomainError",
    "PreconditionError",
    "ExponentConfig",
    "kappa_from_p0",
    "in_I_d_p0",
    "index_set_contains",
    "in_script_I",
    "check_Re1",
    "check_Re01",
    "gn_ratio",
    "gn_ratio_sweep",
    "localized_gn_check",
    "calibrate_window_constant",
    "random_field_family",
]


class ExponentDomainError(InputError):
    """Exponent outside the admissible range of the operation."""


class PreconditionError(InputError):
    """An operation precondition (exponent relation, index-set membership) fails."""


class _B1MustVanish:
    """Sentinel: the drift part b1 must vanish for this p0 (no boolean answer)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "B1_MUST_VANISH"

    def __bool__(self):
        raise TypeError("B1_MUST_VANISH is not a boolean; b1 must vanish for p0 <= d")


B1_MUST_VANISH = _B1MustVanish()


def _inv(e: float) -> float:
    return 0.0 if math.isinf(e) else 1.0 / e


def kappa_from_p0(p0: float, d: int) -> float:
    """Gradient integrability exponent: ``2/kappa = 1/p0 + 1``."""
    if not p0 > d / 2:
        raise ExponentDomainError(f"p0 must exceed d/2 = {d/2}, got {p0}")
    return 2.0 / (_inv(p0) + 1.0)


@dataclass(frozen=True)
class ExponentConfig:
    """All exponents of the admissibility layer, with derived kappa/theta values.

    ``p0`` controls the degeneracy of the diffusion (inverse lower ellipticity
    in L~^p0), ``p1`` the distortion, ``(p2, q2)`` and ``(p3, q3)`` the two
    drift parts, ``(p4, q4)`` the forcing.
    """

    d: int
    p0: float
    p1: float = INF
    p2: float = INF
    q2: float = INF
    p3: float = INF
    q3: float = INF
    p4: float = INF
    q4: float = INF

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ExponentDomainError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not self.p0 > self.d / 2:
            raise ExponentDomainError(f"p0 must exceed d/2, got {self.p0}")
        for name in ("p1", "p2", "q2", "p3", "q3", "p4", "q4"):
            v = getattr(self, name)
            if not (v >= 1):
                raise ExponentDomainError(f"{name} must lie in [1, inf], got {v}")
        if self.p3 > self.q3:
            raise ExponentDomainError(f"need p3 <= q3, got p3={self.p3}, q3={self.q3}")
        lhs = _inv(self.p0) + _inv(self.p1)
        rhs = math.inf if self.d == 1 else 2.0 / (self.d - 1)
        if not lhs < rhs:
            raise ExponentDomainError(
                f"ellipticity exponents fail 1/p0 + 1/p1 < 2/(d-1): {lhs} >= {rhs}")

    @property
    def kappa(self) -> float:
        return kappa_from_p0(self.p0, self.d)

    @property
    def theta1(self) -> float:
        return 1.0 / (1.0 - (self.d - 1) / 2.0 * _inv(self.p0))

    @property
    def theta2(self) -> float:
        return 1.0 / (1.0 - self.d / 2.0 * _inv(self.p0))


def index_set_contains(p: float, q: float, d: int, p0: float) -> bool:
    """Strict membership ``1/p < (1 - 1/q)(2/d - 1/p0)``."""
    return _inv(p) < (1.0 - _inv(q)) * (2.0 / d - _inv(p0))


def in_I_d_p0(p: float, q: float, cfg: ExponentConfig) -> bool:
    if not (p >= 1 and q >= 1):
        raise ExponentDomainError("p, q must lie in [1, inf]")
    return index_set_contains(p, q, cfg.d, cfg.p0)


def in_script_I(r: float, s: float, kappa: float, d: int) -> bool:
    """Membership in the admissible window set for the iteration exponents.

    ``1/2 - 1/r < (1/s)(2/d + 1 - 2/kappa)``, strict.
    """
    if not (r >= 2 and s >= 1):
        raise ExponentDomainError(f"need r >= 2 and s >= 1, got r={r}, s={s}")
    return 0.5 - _inv(r) < _inv(s) * (2.0 / d + 1.0 - 2.0 / kappa)


def check_Re1(cfg: ExponentConfig):
    """Admissibility of the b1 exponents; for p0 <= d returns B1_MUST_VANISH."""
    if not cfg.p0 > cfg.d:
        return B1_MUST_VANISH
    return _inv(2 * cfg.p0) + _inv(cfg.p2) < (0.5 - _inv(cfg.q2)) * (2.0 / cfg.d - _inv(cfg.p0))


def check_Re01(cfg: ExponentConfig) -> bool:
    """Admissibility of the divergence-free drift exponents (p3, q3)."""
    t1, t2 = cfg.theta1, cfg.theta2
    return (cfg.d - 1) * t1 * _inv(cfg.p3) + (2 + t1 + cfg.d * (t2 - t1)) * _inv(cfg.q3) < 2


# ---------------------------------------------------------------------------
# interpolation inequality checks
# ---------------------------------------------------------------------------


def _gn_relation_theta(r: float, kappa: float, d: int) -> float:
    bracket = 2.0 / d + 1.0 - 2.0 / kappa
    if bracket <= 0:
        raise PreconditionError("kappa at or below the critical 2d/(d+2); relation degenerate")
    return (0.5 - _inv(r)) * 2.0 / bracket


def gn_ratio(f: GridFunction, r: float, s: float, theta: float, kappa: float) -> float:
    """LHS/RHS of the space-time interpolation bound; 1 exactly when theta = 0.

    The caller supplies theta; the relation
    ``1/2 - 1/r = (theta/2)(2/d + 1 - 2/kappa)`` is validated to 1e-12 rather
    than solved, to avoid silent root choices.  ``s * theta <= 2`` required.
    Returns 0 for the zero function.
    """
    if f.boundary != "zero-extension":
        raise PreconditionError("interpolation check needs a compactly supported (zero-extension) field")
    want = _gn_relation_theta(r, kappa, f.d)
    if not abs(want - theta) <= 1e-12:
        raise PreconditionError(f"exponent relation violated: theta should be {want}, got {theta}")
    if not (0.0 <= theta <= 1.0) or (not math.isinf(s) and s * theta > 2.0 + 1e-12):
        raise PreconditionError("need theta in [0,1] and s*theta <= 2")
    lhs = mn.mixed_norm(f, MixedNormSpec(r, s, "time-outer"))
    if lhs == 0.0:
        return 0.0
    if theta == 1.0:
        rhs = mn.mixed_norm(mn.gradient_magnitude(f), MixedNormSpec(kappa, 2.0, "time-outer"))
    else:
        denom = 2.0 - s * theta
        q_interp = INF if denom <= 0 or math.isinf(s) else 2.0 * (1.0 - theta) * s / denom
        interp = mn.mixed_norm(f, MixedNormSpec(2.0, q_interp, "time-outer"))
        if theta == 0.0:
            rhs = interp
        else:
            grad = mn.mixed_norm(mn.gradient_magnitude(f), MixedNormSpec(kappa, 2.0, "time-outer"))
            rhs = grad**theta * interp ** (1.0 - theta)
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


def random_field_family(d: int, n: int, seed: int) -> list[GridFunction]:
    """Seeded family of smooth compactly supported fields on [-4, 4] x [-2, 2]^d.

    Gaussian bump mixtures on 48 time cells and 32 cells per axis, shaped by
    a sharp plateau envelope vanishing outside the cylinder of radius
    ``support`` = 1.9 (and |t| <= support^2).
    """
    support = 1.9
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n):
        n_bumps = rng.integers(1, 4)
        cs = rng.uniform(-1.0, 1.0, size=(n_bumps, d + 1))
        ws = rng.uniform(0.15, 0.8, size=(n_bumps, d + 1))
        amp = rng.uniform(-2.0, 2.0, size=n_bumps)

        def fn(t, X, cs=cs, ws=ws, amp=amp):
            r2 = (X**2).sum(axis=-1)
            env = np.exp(-((r2 / support**2) ** 4)) * math.exp(-((t / support**2) ** 8))
            out = np.zeros(X.shape[:-1])
            for c, w, a in zip(cs, ws, amp):
                e = ((t - c[0] * support**2) / w[0]) ** 2
                e = e + (((X - c[1:] * 0.8 * support) / w[1:]) ** 2).sum(axis=-1)
                out += a * np.exp(-e)
            return out * env

        fields.append(
            mn.from_callable(fn, (-4.0, 4.0), 48, [(-2.0, 2.0)] * d, (32,) * d)
        )
    return fields


def gn_ratio_sweep(
    d: int, r: float, s: float, kappa: float, n_functions: int = 100, seed: int = 20250809
) -> dict:
    """Empirical constant sweep for the interpolation ratio over a seeded family.

    Returns the list of ratios and their max (the recorded C*); near the
    excluded corner (theta = 1 with kappa = d) the ratio may blow up and is
    recorded, not bounded.
    """
    theta = _gn_relation_theta(r, kappa, d)
    fields = random_field_family(d, n_functions, seed)
    ratios = [gn_ratio(f, r, s, theta, kappa) for f in fields]
    ratios = [x for x in ratios if x > 0]
    return {"theta": theta, "ratios": ratios, "c_star": max(ratios) if ratios else 0.0}


_WINDOW_CONSTANT_CACHE: dict = {}

CALIBRATION_MARGIN = 1.5
CALIBRATION_SEED = 20250809  # seed of the calibration family
CALIBRATION_FAMILY = 50  # fields in the calibration family


def _eb1_exponents(r: float, s: float, kappa: float, d: int) -> tuple[float, float]:
    if not in_script_I(r, s, kappa, d):
        raise PreconditionError(f"(r, s) = ({r}, {s}) outside the admissible window set")
    theta = _gn_relation_theta(r, kappa, d)
    if theta >= 1.0 - 1e-12:
        raise PreconditionError("r too large for this kappa, d (theta would reach 1)")
    beta = 2.0 * (1.0 - theta) * s / (2.0 - s * theta)
    return theta, beta


def _eb1_sides(f, tau1, tau2, r, s, kappa):
    _, beta = _eb1_exponents(r, s, kappa, f.d)
    origin = (0.0, (0.0,) * f.d)
    lhs = mn.cylinder_norm(f, MixedNormSpec(r, s, "time-outer"), Cylinder(tau1, origin))
    grad = mn.cylinder_norm(
        mn.gradient_magnitude(f), MixedNormSpec(kappa, 2.0, "time-outer"), Cylinder(tau2, origin)
    )
    fterm = mn.cylinder_norm(f, MixedNormSpec(2.0, beta, "time-outer"), Cylinder(tau2, origin))
    return lhs, grad, fterm


def calibrate_window_constant(r: float, s: float, kappa: float, d: int, eps: float) -> dict:
    """Empirical C_eps for the windowed interpolation bound.

    Maximizes the residual ``(lhs - eps*grad) * (tau2 - tau1) / fterm`` over a
    frozen seeded family and a fixed set of (tau1, tau2) pairs, then applies
    the recorded safety margin.  Cached per (r, s, kappa, d, eps).
    """
    key = (r, s, kappa, d, eps)
    if key in _WINDOW_CONSTANT_CACHE:
        return _WINDOW_CONSTANT_CACHE[key]
    fields = random_field_family(d, CALIBRATION_FAMILY, CALIBRATION_SEED)
    raw = 0.0
    for f in fields:
        for tau1, tau2 in ((1.0, 2.0), (1.0, 1.5), (1.5, 2.0), (1.0, 1.25)):
            lhs, grad, fterm = _eb1_sides(f, tau1, tau2, r, s, kappa)
            if fterm > 0:
                raw = max(raw, (lhs - eps * grad) * (tau2 - tau1) / fterm)
    result = {"raw_max": raw, "margin": CALIBRATION_MARGIN,
              "c_eps": CALIBRATION_MARGIN * max(raw, 1e-6)}
    _WINDOW_CONSTANT_CACHE[key] = result
    return result


def localized_gn_check(
    f: GridFunction,
    tau1: float,
    tau2: float,
    r: float,
    s: float,
    eps: float,
    kappa: float,
    c_eps: float | None = None,
) -> tuple[float, float]:
    """Both sides of the windowed interpolation bound on nested cylinders.

    ``lhs = ||1_(Q_tau1) f||``; ``rhs = eps * ||1_(Q_tau2) grad f|| +
    C_eps (tau2 - tau1)^(-1) ||1_(Q_tau2) f||_beta`` with the calibrated C_eps.
    """
    if not (1.0 <= tau1 < tau2 <= 2.0):
        raise PreconditionError(f"need 1 <= tau1 < tau2 <= 2, got {tau1}, {tau2}")
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    lhs, grad, fterm = _eb1_sides(f, tau1, tau2, r, s, kappa)
    if c_eps is None:
        c_eps = calibrate_window_constant(r, s, kappa, f.d, eps)["c_eps"]
    rhs = eps * grad + c_eps / (tau2 - tau1) * fterm
    return lhs, rhs

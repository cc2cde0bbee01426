"""Conservative finite-difference solver for div-form parabolic equations.

Solves ``du/dt = div(a grad u) + b . grad u + f`` with a possibly degenerate
diagonal ``a = diag(a_11, ..., a_dd)``, ``a_kk >= 0`` (every family of the
paper's Section 6 is diagonal).  The spatial operator is the conservative
flux-difference form with arithmetically face-averaged coefficients (zero flux
where ``a`` vanishes, no regularization); drift is first-order upwind per
component sign, applied explicitly while the summed Courant number is at most
``CFL_LIMIT``; diffusion is implicit (unconditionally stable under degeneracy).

Boundary handling: ``periodic`` wraps; ``zero-extension`` imposes the
homogeneous value at the box walls through odd-mirror ghost cells, which keeps
the wall condition second order (a literal outside-cell zero would move the
effective boundary by dx/2).

Comparison/positivity structure holds for every field the solver accepts:
``I - dt L`` is an M-matrix with row sums >= 1 and the upwind drift step is a
convex combination, so each step keeps the discrete maximum principle
``max|u^(n+1)| <= max|u^n| + dt max|f(t_n)|``, which ``solve`` checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cutoffs, mixed_norms as mn
from .embeddings import B1_MUST_VANISH, ExponentConfig, check_Re01, check_Re1
from .errors import InputError, NumericalError
from .mixed_norms import INF, GridFunction, MixedNormSpec

__all__ = [
    "CoefficientError",
    "SolverConfigError",
    "SolverError",
    "TestBankError",
    "CoefficientField",
    "EllipticityProfile",
    "SolverConfig",
    "HypothesisReport",
    "MaxPrincipleReport",
    "identity_field",
    "diagonal_power_field",
    "example_61_field",
    "example_62_field",
    "rotation_drift_field",
    "build_field",
    "PDE_FIXTURES",
    "spatial_initial_condition",
    "ellipticity_profiles",
    "check_hypotheses",
    "discrete_divergence",
    "solve",
    "weak_residual",
    "max_principle_report",
]


class CoefficientError(InputError):
    """Coefficient field has a negative diagonal entry at a sample."""


class SolverConfigError(InputError):
    """Invalid step sizes, CFL violation, or tolerance out of contract."""


class SolverError(NumericalError):
    """The implicit linear solve failed to reach the residual tolerance."""


class TestBankError(InputError):
    """A weak-form test function touches the boundary of the domain."""


@dataclass
class CoefficientField:
    """Evaluators for the equation data.

    ``a_diag(t, X) -> (..., d)`` holds the diagonal entries ``a_kk >= 0`` of
    ``a``; there are no cross terms, so the solver's M-matrix
    comparison/positivity structure holds for every field, and the package
    holds no ``(d, d)`` matrix form of ``a``.  ``b1``/``b2`` map
    ``(t, X) -> (..., d)``; ``forcing`` maps ``(t, X) -> (...)``, one value per
    cell, which is checked wherever it is sampled (:func:`_cell_forcing`).
    """

    name: str
    d: int
    a_diag: Callable
    b1: Callable | None = None
    b2: Callable | None = None
    forcing: Callable | None = None

    def b_total(self, t, X):
        out = np.zeros(X.shape[:-1] + (self.d,))
        if self.b1 is not None:
            out += self.b1(t, X)
        if self.b2 is not None:
            out += self.b2(t, X)
        return out


def _cell_forcing(field: CoefficientField) -> Callable:
    """``field.forcing`` as it is sampled: one value per cell of ``X``, else :class:`mn.GridError`.

    A call must return the shape ``X.shape[:-1]``; a scalar or any other
    shape is rejected rather than broadcast.
    """
    def forcing(t, X):
        f = field.forcing(t, X)
        if np.shape(f) != X.shape[:-1]:
            raise mn.GridError(f"forcing of field {field.name!r} must give one value per cell, "
                               f"shape {X.shape[:-1]}, got shape {np.shape(f)}")
        return f

    return forcing


# ---------------------------------------------------------------------------
# builtin coefficient families
# ---------------------------------------------------------------------------


def identity_field(d: int, forcing=None) -> CoefficientField:
    def a_diag(t, X):
        return np.ones(X.shape[:-1] + (d,))

    return CoefficientField("identity", d, a_diag, forcing=forcing)


def diagonal_power_field(d: int, alpha: float, R: float = 1.0, n: float = INF,
                         forcing=None) -> CoefficientField:
    """Each diagonal entry is the truncated power of its own coordinate squared."""
    fam = cutoffs.CutoffFamily(R, alpha, n)

    def a_diag(t, X):
        return fam.f_n(X**2)

    return CoefficientField("diagonal-power", d, a_diag, forcing=forcing)


def _example_61_alpha_max(d: int) -> float:
    """The singular family's ``alpha < min(d/2 - 1, 1/2 + 1/(d-1))`` (none admissible for d < 3)."""
    return min(d / 2 - 1, 0.5 + 1.0 / max(d - 1, 1))


def example_61_field(d: int = 3, alpha: float = 0.3, R: float = 2.0, n: float = INF,
                     forcing=None) -> CoefficientField:
    """Isotropic singular family ``a = f_(R,n)^(-alpha)(|x|^2) I`` (needs d >= 3)."""
    if d < 3:
        raise CoefficientError("the isotropic singular family requires d >= 3")
    hi = _example_61_alpha_max(d)
    if not 0 < alpha < hi:
        raise CoefficientError(
            f"requires 0 < alpha < min(d/2 - 1, 1/2 + 1/(d-1)) = {hi}, got {alpha}")
    fam = cutoffs.CutoffFamily(R, -alpha, n)

    def a_diag(t, X):
        scalar = fam.f_n((X**2).sum(axis=-1))
        return np.repeat(scalar[..., None], d, axis=-1)

    return CoefficientField("example-6.1", d, a_diag, forcing=forcing)


def example_62_field(alpha: float = 0.2, R: float = 1.0, n: float = INF,
                     forcing=None) -> CoefficientField:
    """Planar degenerate family ``a = diag(f^(alpha)(x2^2), f^(alpha)(x1^2))``."""
    if not 0 < alpha < 0.25:
        raise CoefficientError(f"requires d = 2 and 0 < alpha < 1/4, got alpha = {alpha}")
    fam = cutoffs.CutoffFamily(R, alpha, n)

    def a_diag(t, X):
        return np.stack([fam.f_n(X[..., 1] ** 2), fam.f_n(X[..., 0] ** 2)], axis=-1)

    return CoefficientField("example-6.2", 2, a_diag, forcing=forcing)


def rotation_drift_field(pure: bool = True, forcing=None) -> CoefficientField:
    """Unit diffusion with the divergence-free planar rotation drift (-x2, x1).

    ``pure=True`` uses the raw rotation (discrete divergence exactly zero);
    otherwise a radial plateau cutoff at radius 3 bounds the field for
    periodic boxes (divergence-free analytically, O(dx^2) discretely).
    """

    def b2(t, X):
        rot = np.stack([-X[..., 1], X[..., 0]], axis=-1)
        if pure:
            return rot
        r2 = (X**2).sum(axis=-1)
        chi = np.exp(-((r2 / 3.0**2) ** 4))
        return rot * chi[..., None]

    return CoefficientField("rotation-drift", 2, identity_field(2).a_diag, b2=b2,
                            forcing=forcing)


# each builder takes the named parameters; rotation-drift runs on periodic boxes
PDE_FIXTURES = {
    "identity": {"builder": identity_field, "params": ("d",), "condition": "d in {1,2,3}"},
    "diagonal-power": {"builder": diagonal_power_field, "params": ("d", "alpha", "R", "n"),
                       "condition": "alpha real, R >= 1, n >= 1 or inf"},
    "example-6.1": {"builder": example_61_field, "params": ("d", "alpha", "R", "n"),
                    "condition": "d >= 3, 0 < alpha < min(d/2 - 1, 1/2 + 1/(d-1))"},
    "example-6.2": {"builder": example_62_field, "params": ("alpha", "R", "n"),
                    "condition": "d = 2, 0 < alpha < 1/4"},
    "rotation-drift": {"builder": functools.partial(rotation_drift_field, pure=False),
                       "params": (), "condition": "d = 2, div b = 0"},
}


def build_field(name: str, **params) -> CoefficientField:
    if name not in PDE_FIXTURES:
        raise CoefficientError(f"unknown coefficient family {name!r}; "
                               f"known: {sorted(PDE_FIXTURES)}")
    return PDE_FIXTURES[name]["builder"](**params)


def spatial_initial_condition(values_or_fn, box, nx, boundary="periodic") -> GridFunction:
    """Initial data wrapped as a (degenerate) space-time grid; only slice 0 is read."""
    x0, dx, nx = mn._box_cells(box, nx)
    vals = values_or_fn(mn.cell_centers(x0, dx, nx)) if callable(values_or_fn) else values_or_fn
    vals = np.asarray(vals, dtype=float)
    return GridFunction._owning(0.0, 1.0, x0, dx, np.stack([vals, vals]), boundary)


# ---------------------------------------------------------------------------
# ellipticity profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipticityProfile:
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        bad = (self.lam > 0) & (self.lam > self.mu * (1 + 1e-12))
        if np.any(bad):
            raise CoefficientError("profile violates 0 <= lambda <= mu")


def ellipticity_profiles(field: CoefficientField, x0, dx, nx) -> EllipticityProfile:
    """Pointwise smallest directional ellipticity and largest distortion quotient at t = 0.

    ``lam(x) = lambda_min(a(0,x))``, ``mu(x)`` the distortion quotient
    ``max |a xi|^2 / (xi . a xi)`` over unit ``xi``; for diagonal PSD ``a``
    they are the smallest and the largest entry ``a_kk`` (``tests/test_pde_solver.py``
    keeps the xi-grid maximization as its reference).
    """
    x0 = tuple(np.atleast_1d(x0).astype(float))
    dx = tuple(np.atleast_1d(dx).astype(float))
    nx = tuple(mn._count(n, 1, INF, CoefficientError) for n in np.atleast_1d(nx))
    X = mn.cell_centers(x0, dx, nx)
    evals = np.sort(field.a_diag(0.0, X), axis=-1)
    scale = np.abs(evals).max()
    if evals.min() < -1e-12 * max(scale, 1.0):
        loc = np.unravel_index(np.argmin(evals[..., 0]), nx)
        raise CoefficientError(f"a not PSD at t=0.0, x={X[loc]}")
    return EllipticityProfile(evals[..., 0], np.maximum(0.0, evals[..., -1]))


# ---------------------------------------------------------------------------
# hypothesis report
# ---------------------------------------------------------------------------


def discrete_divergence(b_vals: np.ndarray, dx) -> np.ndarray:
    """Centered discrete divergence of a sampled vector field (one-sided at edges)."""
    out, g = np.zeros(b_vals.shape[:-1]), np.empty(b_vals.shape[:-1])
    for k in range(b_vals.shape[-1]):
        mn._axis_gradient(b_vals[..., k], k, dx[k], False, g)
        out += g
    return out


@dataclass
class HypothesisReport:
    lam_inv_norm: float
    mu_norm: float
    b1_norm: float
    b2_norm: float
    div_b2_neg_mass: float
    pp0_ok: bool
    re1: object
    re01_ok: bool
    hyp_a_ok: bool
    lam_zero_fraction: float

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["re1"] = repr(self.re1) if self.re1 is B1_MUST_VANISH else self.re1
        return d


def check_hypotheses(field: CoefficientField, cfg: ExponentConfig, x0, dx, nx) -> HypothesisReport:
    """Localized-norm and predicate report for the declared exponents.

    Ellipticity and divergence are sampled at t = 0, the drift norms on 8
    time cells of [0, 1].  A vanishing ellipticity on a set of cells with
    finite p0 shows up as an infinite ``lam_inv_norm`` (reported as
    hypothesis failure, not raised).
    """
    prof = ellipticity_profiles(field, x0, dx, nx)
    with np.errstate(divide="ignore"):
        lam_inv = np.where(prof.lam > 0, 1.0 / np.maximum(prof.lam, 1e-300), np.inf)
    lam_inv_norm = mn.localized_spatial_norm(lam_inv, dx, cfg.p0)
    mu_norm = mn.localized_spatial_norm(prof.mu, dx, cfg.p1)

    def st_norm(fn, spec):
        if fn is None:
            return 0.0
        box = [(x0[k], x0[k] + dx[k] * nx[k]) for k in range(len(nx))]
        g = mn.from_callable(lambda t, X: np.linalg.norm(fn(t, X), axis=-1),
                             (0.0, 1.0), 8, box, nx)
        return mn.localized_norm(g, spec)

    b1_norm = st_norm(field.b1, MixedNormSpec(cfg.p2, cfg.q2, "time-outer"))
    b2_norm = st_norm(field.b2, MixedNormSpec(cfg.p3, cfg.q3, "space-outer"))

    div_neg_mass = 0.0
    if field.b2 is not None:
        div = discrete_divergence(field.b2(0.0, mn.cell_centers(x0, dx, nx)), dx)
        div_neg_mass = max(div_neg_mass, float(np.maximum(-div, 0.0).sum() * np.prod(dx)))

    lam_zero_fraction = float((prof.lam <= 0).mean())
    hyp_a_ok = bool(np.isfinite(lam_inv_norm) and np.isfinite(mu_norm))
    return HypothesisReport(
        lam_inv_norm=float(lam_inv_norm),
        mu_norm=float(mu_norm),
        b1_norm=float(b1_norm),
        b2_norm=float(b2_norm),
        div_b2_neg_mass=div_neg_mass,
        pp0_ok=True,  # enforced by ExponentConfig construction
        re1=check_Re1(cfg),
        re01_ok=check_Re01(cfg),
        hyp_a_ok=hyp_a_ok,
        lam_zero_fraction=lam_zero_fraction,
    )


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


CFL_LIMIT = 1.0  # largest admissible summed Courant number sum_k dt|b_k|/dx_k
LINEAR_TOL = 1e-10  # relative residual each implicit solve must reach


@dataclass
class SolverConfig:
    dt: float
    T: float

    def __post_init__(self):
        _ = self.n_steps  # rejects a T that is not a whole number of steps

    @property
    def n_steps(self) -> int:
        return mn._whole_steps(self.T, self.dt, SolverConfigError)


def _neighbor(nx, axis: int, shift: int, periodic: bool):
    """Flat index and sign of each cell's unit-step neighbour along ``axis``.

    A periodic box wraps.  Past a zero wall the neighbour is the odd-mirror
    ghost, which is the cell itself with sign -1.
    """
    pos = np.indices(nx)
    p = pos[axis] + shift
    n = nx[axis]
    sign = np.ones(nx)
    if periodic:
        pos[axis] = p % n
    else:
        sign[(p < 0) | (p > n - 1)] = -1.0
        pos[axis] = np.clip(p, 0, n - 1)
    return np.ravel_multi_index(tuple(pos), nx).ravel(), sign.ravel()


def _assemble_diffusion(field: CoefficientField, t: float, x0, dx, nx, nbrs):
    """Sparse conservative discretization of ``div(a grad .)`` (no dt factor).

    ``nbrs[k][s]`` is the ``_neighbor`` map one step ``s`` (+1 or -1) along axis k.
    Each face has conductance g = mean of a_kk over its two cells / dx_k^2; ``a``
    is read once on ``mn.cell_centers``, plus, past each zero wall, on the
    one-cell ghost layer that ``mn.cell_centers`` builds in the wall cells' order.
    """
    from scipy import sparse

    N = int(np.prod(nx))
    idx = np.arange(N)
    rows, cols, data = [], [], []
    diag = np.zeros(N)
    a = field.a_diag(t, mn.cell_centers(x0, dx, nx)).reshape(N, len(nx))
    for k in range(len(nx)):
        akk = a[:, k]
        walls = []
        for s in (1, -1):
            nb, sign = nbrs[k][s]
            inner = sign > 0
            g = 0.5 * (akk + akk[nb]) / dx[k] ** 2
            rows.append(idx[inner])
            cols.append(nb[inner])
            data.append(g[inner])
            diag[inner] -= g[inner]
            if not inner.all():  # a zero wall: read a_kk on the ghost layer past it
                lo, n = list(x0), list(nx)
                lo[k], n[k] = (x0[k] + nx[k] * dx[k] if s > 0 else x0[k] - dx[k]), 1
                a_ghost = field.a_diag(t, mn.cell_centers(lo, dx, n))[..., k].ravel()
                walls.append((~inner, 0.5 * (akk[~inner] + a_ghost) / dx[k] ** 2))
        # a wall face pairs the cell with its odd-mirror ghost: -2g on the diagonal
        for wall, g in walls:
            diag[wall] -= 2.0 * g

    rows.append(idx)
    cols.append(idx)
    data.append(diag)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    return sparse.csr_matrix((data, (rows, cols)), shape=(N, N))


def _upwind_drift(u: np.ndarray, b_vals: np.ndarray, dx, nbrs) -> np.ndarray:
    flat = u.ravel()
    out = np.zeros_like(u)

    def ghost(k, s):  # neighbour values, odd-mirrored past a zero wall
        nb, sign = nbrs[k][s]
        return (sign * flat[nb]).reshape(u.shape)

    for k in range(u.ndim):
        bk = b_vals[..., k]
        back = (u - ghost(k, -1)) / dx[k]
        fwd = (ghost(k, 1) - u) / dx[k]
        out += np.maximum(bk, 0.0) * fwd + np.minimum(bk, 0.0) * back
    return out


def _courant(b_vals: np.ndarray, dt: float, dx, nbrs) -> float:
    """Largest summed Courant number ``sum_k dt |b_k| / dx_k`` over the cells.

    A cell whose upwind neighbour is the odd-mirror ghost ``-u`` counts its
    term twice: the explicit step's weight on the cell is then ``1 - 2 c``.
    The upwind step is monotone while the result is at most 1.
    """
    total = np.zeros(b_vals.shape[:-1]).ravel()
    for k in range(b_vals.shape[-1]):
        bk = b_vals[..., k].ravel()
        ghost = np.where(bk > 0, nbrs[k][1][1], nbrs[k][-1][1]) < 0
        total += (dt / dx[k]) * np.abs(bk) * (1.0 + ghost)
    return float(total.max())


def solve(field: CoefficientField, u0: GridFunction, cfg: SolverConfig) -> GridFunction:
    """March the implicit-diffusion / explicit-upwind-drift scheme to T.

    ``a`` is assembled and factorized once, at t = 0.  Returns the space-time
    solution sampled at the step times k*dt (the output grid's cells are
    centered on those nodes).  Each step checks its own drift samples against
    ``CFL_LIMIT`` (:func:`_courant`) and raises SolverConfigError above it.
    Raises SolverError if an implicit solve misses ``LINEAR_TOL``, or if a
    step breaks ``max|u^(n+1)| <= max|u^n| + dt max|f(t_n)|`` by more than
    that solve's residual tolerance (as does a NaN, or an inf under a finite
    tolerance).  A forcing that does not give one value per cell raises
    ``mn.GridError``.

    Working memory beside the factorization is the output array, filled step
    by step and handed to the returned grid without a copy, plus a few
    arrays of one time row.
    """
    from scipy import sparse
    from scipy.sparse import linalg as splinalg

    d = u0.d
    x0, dx, nx = u0.x0, u0.dx, u0.nx
    periodic = u0.boundary == "periodic"
    nbrs = [{s: _neighbor(nx, k, s, periodic) for s in (1, -1)} for k in range(d)]
    n_steps = cfg.n_steps
    X = mn.cell_centers(x0, dx, nx)

    has_drift = field.b1 is not None or field.b2 is not None
    N = int(np.prod(nx))
    L = _assemble_diffusion(field, 0.0, x0, dx, nx, nbrs)
    M = sparse.identity(N, format="csr") - cfg.dt * L
    # M is symmetric and strictly diagonally dominant, so diagonal pivots are
    # stable and a symmetric fill-reducing ordering about halves the LU fill
    lu = splinalg.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})

    u = np.asarray(u0.values[0], dtype=float).copy()
    u_max = float(np.abs(u).max())
    out = np.empty((n_steps + 1,) + nx)
    out[0] = u
    for step in range(n_steps):
        t = step * cfg.dt
        rhs = u.copy()
        bound = u_max
        if has_drift:
            b_vals = field.b_total(t, X)
            courant = _courant(b_vals, cfg.dt, dx, nbrs)
            if courant > CFL_LIMIT:
                raise SolverConfigError(f"summed Courant number sum_k dt|b_k|/dx_k = "
                                        f"{courant:.3f} exceeds {CFL_LIMIT} at t = {t:g}")
            rhs += cfg.dt * _upwind_drift(u, b_vals, dx, nbrs)
        if field.forcing is not None:
            f_vals = _cell_forcing(field)(t, X)
            rhs += cfg.dt * f_vals
            bound += cfg.dt * float(np.abs(f_vals).max())
        sol = lu.solve(rhs.ravel())
        res = np.linalg.norm(M @ sol - rhs.ravel())
        tol = LINEAR_TOL * (np.linalg.norm(rhs) + 1.0)
        if not res <= tol:
            raise SolverError(f"implicit solve residual {res:.3e} exceeds tolerance")
        u = sol.reshape(nx)
        # ||M^-1||_inf <= 1, and the residual bounds the solve's error in the max norm
        u_max = float(np.abs(u).max())
        if not u_max <= bound + tol:
            raise SolverError(f"step {step} breaks the discrete maximum principle: "
                              f"max|u| = {u_max:.6e} above {bound:.6e}")
        out[step + 1] = u
    return GridFunction._owning(-cfg.dt / 2.0, cfg.dt, x0, dx, out, u0.boundary)


# ---------------------------------------------------------------------------
# weak residual, maximum-principle report
# ---------------------------------------------------------------------------


def weak_residual(u: GridFunction, field: CoefficientField, test_bank) -> float:
    """Max over the bank of the integrated-by-parts identity residual.

    Each test function must vanish on a 2-cell rim in space and time;
    derivatives of both u and the tests are second-order differences, all
    pairings are midpoint quadrature.

    Working memory beside ``u`` and the bank: the flux ``a grad u`` (d arrays
    of u's size, written over ``grad u``), ``b . grad u`` and ``f`` when
    present, and one derivative of the current test function at a time, into
    which the pairings' products are written before they are summed.  The
    coefficient samples are dropped once the flux exists.
    """
    results = []
    du = mn.spatial_gradient(u)  # (d, nt, *nx)
    bgrad = None  # the drift pairing b . grad u, the same for every test function
    if field.b1 is not None or field.b2 is not None:
        b_vals = u.sample(field.b_total)
        bgrad = sum(b_vals[..., i] * du[i] for i in range(u.d))
        del b_vals
    # the flux a_kk d_k u, axis by axis over grad u
    a_vals = u.sample(field.a_diag)  # (nt, *nx, d)
    for k in range(u.d):
        np.multiply(a_vals[..., k], du[k], out=du[k])
    flux = du
    del a_vals
    f_vals = None
    if field.forcing is not None:
        f_vals = u.sample(_cell_forcing(field))
    meas = u.dt * u.cell_volume
    for phi in test_bank:
        if phi.values.shape != u.values.shape:
            raise TestBankError("test function must live on the solution grid")
        rim = np.ones_like(phi.values, dtype=bool)
        core = (slice(2, -2),) * (u.d + 1)
        rim[core] = False
        if np.any(np.abs(phi.values[rim]) > 0):
            raise TestBankError("test function touches the domain boundary")
        # each pairing's product is written over a derivative of phi and summed;
        # the time derivative is dropped before the gradient is made
        dphi_t = np.empty_like(phi.values)
        mn._axis_gradient(phi.values, 0, u.dt, False, dphi_t)
        u_t = np.multiply(u.values, dphi_t, out=dphi_t).sum() * meas
        drift = force = 0.0
        if bgrad is not None:
            drift = np.multiply(bgrad, phi.values, out=dphi_t).sum() * meas
        if f_vals is not None:
            force = np.multiply(f_vals, phi.values, out=dphi_t).sum() * meas
        del dphi_t
        dphi = mn.spatial_gradient(phi)
        diffusion = np.multiply(flux, dphi, out=dphi).sum() * meas
        del dphi
        # the terms in the identity's order; subtracting an absent term's 0.0 is exact
        results.append(abs(float(-u_t + diffusion - drift - force)))
    return max(results)


@dataclass
class MaxPrincipleReport:
    u_inf: float
    v_norm: float
    f_norm: float
    ratio: float | None

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def max_principle_report(u: GridFunction, field: CoefficientField, cfg: ExponentConfig,
                         T: float, lattice_step: float = 0.5) -> MaxPrincipleReport:
    """Pieces of the global boundedness estimate on [0, T].

    ``(||u||_inf + |||u|||_V) / |||f|||`` with the forcing norm in the
    declared (p4, q4) time-outer localized space.  A vanishing forcing gives
    ratio None (reported, not raised); a non-finite one raises GridError.

    Working memory is a few time blocks of about ``mn.BLOCK_BYTES``: ``u``
    is read in place (restricted by a copy only when ``[0, T]`` drops rows),
    ``||u||_inf`` is a max over blocks of ``|u|``, and the forcing is sampled
    block by block into the running window sums, so neither ``|u|`` nor the
    sampled forcing is ever held whole.  The values equal those of the
    whole-array formulas bit for bit.
    """
    lo, hi = mn._time_rows(u, 0.0, T)
    uT = u if hi - lo == u.nt else mn.restrict_time(u, 0.0, T)
    u_inf = max(float(np.abs(uT.values[rows]).max())
                for rows in mn._blocks(uT.nt, uT.values[0].size))
    vn = mn.v_norm(uT, cfg.kappa, lattice_step)
    if field.forcing is None:
        return MaxPrincipleReport(u_inf, vn, 0.0, None)
    f_norm = mn._sampled_localized_norm(uT, _cell_forcing(field),
                                        MixedNormSpec(cfg.p4, cfg.q4, "time-outer"), lattice_step)
    if f_norm == 0.0:
        return MaxPrincipleReport(u_inf, vn, 0.0, None)
    return MaxPrincipleReport(u_inf, vn, f_norm, (u_inf + vn) / f_norm)

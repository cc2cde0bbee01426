"""Monte Carlo engine for the mollified singular/degenerate diffusion families.

The scheme is plain Euler-Maruyama for ``dX = b dt + sqrt(2) sigma dW`` with a
diagonal ``sigma`` (all simulated families are bounded after the truncation
shift; the raw singular field is only simulated with an evaluation floor and is
documented as a heuristic).  Each path owns an independent counter-based Philox stream keyed
by ``(seed, path_index)``, so ensembles are bitwise reproducible and the first
k paths of a run coincide with a k-path run at the same seed; one generator is
re-keyed per path, so no OS entropy is read per path.  One draw, held in the path
array, serves an ensemble or all the coupled ensembles of a report.  Statistics are
fixed-order numpy reductions of each path on its own row, over contiguous views
of about ``mn.BLOCK_BYTES`` of paths, so they need O(block) extra memory, not
copies of the path array; frozen paths are reduced too and dropped afterwards.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import mixed_norms as mn
from . import pde_solver as pde
from .cutoffs import INF, CutoffFamily
from .errors import InputError
from .mixed_norms import GridFunction

__all__ = [
    "SdeParameterError",
    "SdeCoefficients",
    "PathEnsemble",
    "SDE_FAMILIES",
    "build_coefficients",
    "euler_maruyama",
    "krylov_functional",
    "modulus_report",
    "sup_moment",
    "sliced_wasserstein1",
    "approximation_cauchy_report",
    "uniqueness_perturbation_report",
    "export_ensemble",
    "load_ensemble",
]

RAW_FIELD_FLOOR = 1e-12
SCHEME_TAG = "euler-maruyama"  # the only scheme; recorded in every export header


class SdeParameterError(InputError):
    """Family parameters outside their validity range (message names the constraint)."""


@dataclass
class SdeCoefficients:
    """Diagonal diffusion ``sigma_diag`` (shape of X) and an optional drift ``b``.

    ``floor_hits`` counts evaluations clamped by the raw-field floor
    (only the unmollified singular family uses it).
    """

    d: int
    family_tag: str
    params: dict
    sigma_diag: Callable
    b: Callable | None = None
    floor_hits: int = 0


SDE_FAMILIES = {
    "brownian": "no constraints (sigma = I, b = 0)",
    "example-6.1": pde.PDE_FIXTURES["example-6.1"]["condition"],
    "example-6.2": pde.PDE_FIXTURES["example-6.2"]["condition"],
    "prop-6.1": "d >= 3, 0 < alpha < min(d/2 - 1, 1/2 + 1/(d-1)), 0 < beta < 2*alpha, lambda >= 0",
}


def _unit_diffusion(t, X):
    """``sigma = I``; with no drift, :func:`_coupled_ensembles` sums such a member's steps at once."""
    return np.ones(X.shape)


def build_coefficients(
    family_tag: str,
    d: int | None = None,
    R: float = 1.0,
    alpha: float = 0.0,
    beta: float = 0.0,
    lam: float = 0.0,
    n: float = INF,
) -> SdeCoefficients:
    """Construct the named diffusion family with validated parameter ranges.

    ``n = inf`` selects the raw field; for the singular family that means a
    hard floor at |x| = 1e-12 with clamped evaluations counted in
    ``floor_hits`` (heuristic, reported).  Families the solver shares take
    sigma from its diagonal fields at half the exponent, so ``sigma^2 = a``;
    their range checks also require ``alpha / 2 > 0``, which rejects the one
    positive alpha (the smallest subnormal) whose half underflows to zero.
    """
    params = {"R": R, "alpha": alpha, "beta": beta, "lambda": lam, "n": n}
    if family_tag == "brownian":
        return SdeCoefficients(d or 1, family_tag, params, _unit_diffusion)

    if family_tag in ("example-6.1", "prop-6.1"):
        d = d or 3
        hi = pde._example_61_alpha_max(d)

    if family_tag == "example-6.1":
        if d < 3 or not (alpha / 2.0 > 0 and alpha < hi):
            raise SdeParameterError(
                f"example-6.1 requires d >= 3 and 0 < alpha < min(d/2 - 1, 1/2 + 1/(d-1)) = {hi}")
        return SdeCoefficients(d, family_tag, params,
                               pde.example_61_field(d, alpha / 2.0, R, n).a_diag)

    if family_tag == "example-6.2":
        if d not in (None, 2) or not (alpha / 2.0 > 0 and alpha < 0.25):
            raise SdeParameterError("example-6.2 requires d = 2 and 0 < alpha < 1/4")
        return SdeCoefficients(2, family_tag, params,
                               pde.example_62_field(alpha / 2.0, R, n).a_diag)

    if family_tag == "prop-6.1":
        if d < 3 or not 0 <= alpha < hi:
            raise SdeParameterError(
                f"prop-6.1 requires d >= 3 and 0 <= alpha < min(d/2 - 1, 1/2 + 1/(d-1)) = {hi}")
        if lam < 0:
            raise SdeParameterError("prop-6.1 requires lambda >= 0")
        if lam > 0 and not (0 < beta < 2 * alpha):
            raise SdeParameterError("prop-6.1 requires 0 < beta < 2*alpha for a nonzero drift")
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        fams = {} if math.isinf(n) else {p: CutoffFamily(R, p / 2.0, n)
                                         for p in (-alpha, -beta - 1.0)}

        def radial(X, power):
            """``|x|^power``, by the cutoff family or, raw, floored at RAW_FIELD_FLOOR."""
            sq = (X**2).sum(axis=-1)
            if fams:
                return fams[power].f_n(sq)
            r = np.sqrt(sq)
            coeffs.floor_hits += int((r < RAW_FIELD_FLOOR).sum())
            return np.maximum(r, RAW_FIELD_FLOOR) ** power

        def sigma_diag(t, X):
            return np.repeat((inv_sqrt2 * radial(X, -alpha))[..., None], d, axis=-1)

        def b(t, X):
            return lam * X * radial(X, -beta - 1.0)[..., None]

        coeffs = SdeCoefficients(d, family_tag, params, sigma_diag, None if lam == 0 else b)
        return coeffs

    raise SdeParameterError(f"unknown family {family_tag!r}; known: {sorted(SDE_FAMILIES)}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass
class PathEnsemble:
    """N paths on a uniform time grid with per-path seed provenance."""

    paths: np.ndarray  # (N, n_steps + 1, d)
    t0: float
    dt: float
    seed: int
    family_tag: str
    params: dict
    frozen: np.ndarray  # (N,) bool

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    @property
    def d(self) -> int:
        return self.paths.shape[2]

    @property
    def n_frozen(self) -> int:
        return int(self.frozen.sum())

    def alive(self) -> np.ndarray:
        return ~self.frozen

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def _path_noise(seed: int, out: np.ndarray) -> None:
    """Fill ``out[i]`` with the Philox stream keyed (seed, i); path-major draws."""
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter zero, buffer empty: a fresh generator's state
    for i in range(len(out)):
        state["state"]["key"] = np.array([seed, i], dtype=np.uint64)
        bitgen.state = state
        gen.standard_normal(out=out[i])


def _start_point(x0, d: int) -> np.ndarray:
    """``x0`` as a length-``d`` vector; a scalar is repeated, anything else raises."""
    try:
        x0 = np.asarray(x0, dtype=float)
    except (TypeError, ValueError) as exc:  # not real numbers, or a ragged list
        raise SdeParameterError(f"x0 must be a real scalar or vector: {exc}") from None
    if x0.ndim and x0.shape != (d,):
        raise SdeParameterError(f"x0 must be a scalar or have length d = {d}, got {x0.shape}")
    return np.broadcast_to(x0, (d,))


def _real_list(values, name: str, finite: bool = False) -> list:
    """``values`` as a list of real numbers (bools are not), finite ones if ``finite``.

    Anything else raises :class:`SdeParameterError` naming ``name``.
    """
    kind = "finite real numbers" if finite else "real numbers"
    try:
        values = list(values)
    except TypeError:  # not iterable
        raise SdeParameterError(f"{name} must be a list of {kind}, got {values!r}") from None
    for v in values:
        try:
            ok = (isinstance(v, numbers.Real) and not isinstance(v, bool)
                  and (not finite or math.isfinite(v)))
        except OverflowError:  # an int past the float range
            ok = False
        if not ok:
            raise SdeParameterError(f"{name} must hold {kind}, got {v!r}")
    return values


def _coupled_ensembles(members, s: float, T: float, dt: float, n_paths: int, seed: int):
    """One :class:`PathEnsemble` per ``(coeffs, x0)`` member (all of one ``d``), from one draw.

    All is checked before the draw.  Each member but the last steps a copy of the draws, so
    each is bitwise its lone :func:`euler_maruyama` ensemble, freed when its caller drops it.

    A member with ``_unit_diffusion``, no drift and a finite ``x0`` is a random walk: its
    scaled draws are summed in place by one ``np.cumsum``, whose adds run left to right as
    the loop's do, so every ``X_k`` is bitwise the loop's.  Its increments are at most about
    0.15 |xi| (dt <= 1e-2), so no partial sum overflows and no path freezes.  Any other
    member, a custom callable that returns ones included, takes the step loop.
    """
    if not 0 < dt <= 1e-2 + 1e-15:
        raise SdeParameterError("dt must be positive and <= 1e-2")
    n_paths = mn._count(n_paths, 0, 10**6, SdeParameterError)
    n_steps = mn._whole_steps(T - s, dt, SdeParameterError)
    members = [(coeffs, _start_point(x0, coeffs.d)) for coeffs, x0 in members]
    sqrt2dt = math.sqrt(2.0 * dt)

    # the draws go where a path will be: step k reads slot k + 1, then writes X there
    draws = np.empty((n_paths, n_steps + 1, members[0][0].d))
    _path_noise(seed, draws[:, 1:])
    for i, (coeffs, x0) in enumerate(members):
        paths = draws if i == len(members) - 1 else draws.copy()
        frozen = np.zeros(n_paths, dtype=bool)
        if coeffs.sigma_diag is _unit_diffusion and coeffs.b is None and np.isfinite(x0).all():
            paths[:, 1:] *= sqrt2dt
            paths[:, 0] = x0
            np.cumsum(paths, axis=1, out=paths)
        else:
            X = np.tile(x0, (n_paths, 1))
            paths[:, 0] = X
            for k in range(n_steps if n_paths else 0):  # an empty ensemble takes no steps
                t = s + k * dt
                step = sqrt2dt * (coeffs.sigma_diag(t, X) * paths[:, k + 1])
                if coeffs.b is not None:
                    step = step + dt * coeffs.b(t, X)
                Xn = X + step
                frozen |= ~np.isfinite(Xn).all(axis=1)
                if frozen.any():
                    Xn[frozen] = X[frozen]
                X = Xn
                paths[:, k + 1] = X
        yield PathEnsemble(paths, s, dt, seed, coeffs.family_tag, dict(coeffs.params), frozen)
        del paths


def euler_maruyama(
    coeffs: SdeCoefficients,
    x0,
    s: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> PathEnsemble:
    """Simulate ``X_(k+1) = X_k + b dt + sqrt(2 dt) sigma_diag * xi`` from time s to T.

    Deterministic given the seed; a path that leaves the finite range is
    frozen at its last finite state and excluded from statistics (the count is
    carried on the ensemble).  One pass: every path's normal draws are written
    into the path array itself, then the whole ensemble is stepped together and
    each step overwrites its draws, so no second path-sized array is held.  The
    Brownian family (unit diffusion, no drift) from a finite ``x0`` is a random
    walk, summed from its scaled draws by one cumulative sum in place of the
    step loop, bitwise the loop's paths.
    """
    return next(_coupled_ensembles([(coeffs, x0)], s, T, dt, n_paths, seed))


# ---------------------------------------------------------------------------
# path statistics
# ---------------------------------------------------------------------------


def _live(alive: np.ndarray) -> np.ndarray:
    """The mask ``alive`` of the paths a statistic keeps; a statistic over none is an error."""
    if not alive.any():
        raise SdeParameterError("no live paths left in the ensemble")
    return alive


def _sup_sq_norm(P: np.ndarray) -> np.ndarray:
    """Per path, ``max_t |P_t|^2``; ``P`` is a block of whole paths, frozen or not.

    The coordinate squares are summed one axis at a time into a fresh
    per-block temporary.  numpy sums fewer than eight terms of a last axis in
    this order, so for d < 8 this is bitwise ``np.square(P).sum(axis=2)``
    (from eight on its pairwise sum may round differently); the square root
    commutes with the max bitwise.
    """
    sq = np.square(P[..., 0])
    for k in range(1, P.shape[2]):
        sq += np.square(P[..., k])
    return sq.max(axis=1)


def _finite_squares(ens: PathEnsemble, stat: Callable) -> np.ndarray:
    """``stat``'s squared norms of the live paths, from blocks of whole paths, frozen or not.

    ``stat`` maps a view ``ens.paths[rows]`` of about ``mn.BLOCK_BYTES`` of
    consecutive paths to their values, paths on the last axis; each block's
    values are written into one array over every path, and the frozen paths
    dropped once afterwards (no selection when every path is live), as in
    :func:`krylov_functional`.  Frozen paths may hold anything, so ``stat``
    runs with overflow and invalid-value warnings off; a live square that is
    not finite raises :class:`SdeParameterError`: a coordinate or increment
    above about 1.3e154 (or a non-finite one in a loaded ensemble) would
    otherwise turn the statistic into inf or NaN.
    """
    alive = _live(ens.alive())
    sq = None
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in mn._blocks(ens.n_paths, (ens.n_steps + 1) * ens.d):
            block = stat(ens.paths[rows])
            if sq is None:
                sq = np.empty(block.shape[:-1] + (ens.n_paths,))
            sq[..., rows] = block
    if not alive.all():
        sq = sq[..., alive]
    if not np.isfinite(sq).all():
        raise SdeParameterError("a live path's squared norm is not finite: a coordinate or "
                                "increment is above about 1.3e154, past the float range "
                                "when squared")
    return sq


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """(mean, stderr) over the paths; the stderr of a single path is 0."""
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(vals.mean()), se


def krylov_functional(ens: PathEnsemble, f: GridFunction, t0: float, t1: float
                      ) -> tuple[float, float]:
    """Path average of the occupation integral ``int_t0^t1 f(s, X_s) ds``.

    Left-endpoint quadrature on the ensemble's step grid; f is read by cell
    lookup with zero extension outside its grid.  Returns (estimate, stderr)
    over the non-frozen paths.
    """
    times = ens.times()
    alive = _live(ens.alive())
    k_idx = np.nonzero((times >= t0 - 1e-12) & (times < t1 - 1e-12))[0]
    if k_idx.size == 0:
        raise SdeParameterError("[t0, t1] does not meet the ensemble time grid")
    acc = np.zeros(ens.n_paths)
    for k in k_idx:
        idx, inside = mn._cell_index(f, times[k], ens.paths[:, k, :])
        acc += np.where(inside, f.values[idx], 0.0) * ens.dt
    return _mean_stderr(acc[alive])


@dataclass
class ModulusReport:
    deltas: np.ndarray
    moments: np.ndarray
    stderrs: np.ndarray
    slope: float
    intercept: float


def _lag_best(P: np.ndarray, order: list) -> np.ndarray:
    """Per lag m in ``order`` (sorted), per path: ``max_(t, j<=m) |P_(t+j) - P_t|^2``.

    One pass per lag j = 1..max(order), a running max over the passes.
    """
    best = np.zeros(P.shape[0])
    out = np.empty((len(order), P.shape[0]))
    j = 1
    for i, m in enumerate(order):
        while j <= m:
            np.maximum(best, _sup_sq_norm(P[:, j:] - P[:, :-j]), out=best)
            j += 1
        out[i] = best
    return out


def _range_best(P: np.ndarray, order: list) -> np.ndarray:
    """:func:`_lag_best` of ``(k, n + 1)`` scalar paths, from ranges of windows of m + 1 points.

    The window ``[t, t+w+s]`` is the union of ``[t, t+w]`` and
    ``[t+s, t+s+w]`` for s <= w + 1, so each doubling pass is one
    ``np.maximum`` and one ``np.minimum``.
    """
    n1 = P.shape[1]
    out = np.empty((len(order), P.shape[0]))
    hi = lo = P
    w = 0  # window width reached
    for i, m in enumerate(order):
        while w < m:
            s = min(w + 1, m - w)
            width = n1 - w - s
            hi = np.maximum(hi[:, :width], hi[:, s:s + width])
            lo = np.minimum(lo[:, :width], lo[:, s:s + width])
            w += s
        out[i] = (hi - lo).max(axis=1)
    return np.square(out, out=out)


def modulus_report(ens: PathEnsemble, delta_grid) -> ModulusReport:
    """Least-squares slope of ``log E[sup_t sup_(s<=delta) |X_(t+s) - X_t|^(1/2)]`` vs log delta.

    Each delta must be a whole number of steps dt (``mn._whole_steps``) within
    the ensemble's span, and
    the grid must span at least 1.5 decades with at least 3 values.

    At d = 1 the sup over t and lags j <= m of ``|X_(t+j) - X_t|`` is the
    largest range (max - min) over windows of m + 1 points, built by window
    doubling in about log2(max lag) passes per block instead of one pass per
    lag.  It is bitwise the lag loop's: a rounded difference is odd in its
    argument and monotone in each operand, so the largest rounded difference
    is the rounded difference of the window's max and min, and squaring is
    monotone on r >= 0.  A path whose squared increment overflows raises
    :class:`SdeParameterError`.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size < 3:
        raise SdeParameterError("need at least 3 delta values for the fit")
    lags = [mn._whole_steps(delta, ens.dt, SdeParameterError) for delta in deltas]
    if math.log10(deltas.max() / deltas.min()) < 1.5 - 1e-9:
        raise SdeParameterError("delta grid must span at least 1.5 decades")
    if max(lags) > ens.n_steps:
        raise SdeParameterError(f"delta={deltas.max()} does not fit in the horizon "
                                f"of {ens.n_steps} steps")
    order = sorted(set(lags))
    if ens.d == 1:
        roots = _finite_squares(ens, lambda P: _range_best(P[:, :, 0], order))
    else:
        roots = _finite_squares(ens, lambda P: _lag_best(P, order))
    np.sqrt(roots, out=roots)  # the fourth root in place: no second copy of the values
    np.sqrt(roots, out=roots)
    moments, errs = np.array([_mean_stderr(roots[order.index(m)]) for m in lags]).T
    slope, intercept = np.polyfit(np.log(deltas), np.log(moments), 1)
    return ModulusReport(deltas, moments, errs, float(slope), float(intercept))


def sup_moment(ens: PathEnsemble) -> tuple[float, float]:
    """(mean, stderr) of ``sup_t |X_t|`` over the non-frozen paths."""
    return _mean_stderr(np.sqrt(_finite_squares(ens, _sup_sq_norm)))


def sliced_wasserstein1(A: np.ndarray, B: np.ndarray) -> float:
    """Coordinate-wise max of the 1-D empirical W1 distances (sorted-sample mean gap)."""
    if A.shape != B.shape:
        raise SdeParameterError("sliced W1 needs equal sample counts")
    if len(A) == 0:
        raise SdeParameterError("sliced W1 needs at least one sample")
    out = 0.0
    for k in range(A.shape[1]):
        out = max(out, float(np.abs(np.sort(A[:, k]) - np.sort(B[:, k])).mean()))
    return out


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``; the tie run at sorted positions lo..hi-1 shares (lo+1+hi)/2."""
    order = np.argsort(v, kind="mergesort")
    s = v[order]
    lo = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    hi = np.r_[lo[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (lo + 1 + hi), hi - lo)
    return ranks


def _spearman(x, y) -> float:
    """Spearman rank correlation, bit for bit ``scipy.stats.spearmanr(x, y).statistic``.

    Pearson's correlation of the average ranks, taken from element ``[1, 0]``
    of ``np.corrcoef`` as scipy does (``[0, 1]`` can differ in the last bit).
    NaN for fewer than two points, a constant input or a NaN, as scipy.
    """
    x, y = (np.asarray(v, dtype=float) for v in (x, y))
    if not (x.size > 1 and np.ptp(x) > 0 and np.ptp(y) > 0):
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


@dataclass
class CauchyReport:
    n_list: list
    distances: list
    spearman: float
    sup_moments: list
    sup_stderrs: list
    growth_slope: float
    growth_slope_stderr: float


def approximation_cauchy_report(
    family_tag: str,
    n_list,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
    **family_params,
) -> CauchyReport:
    """Empirical-law Cauchy table across the mollification index.

    Builds every index's coefficients, then steps them all from one draw of
    the seed's streams (coupled noise), measures the sliced W1 distance between
    consecutive terminal marginals, and regresses the sup moment on the index
    to detect growth.  A nonincreasing distance trend shows as rank correlation <= 0.
    """
    n_list = _real_list(n_list, "n_list")
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SdeParameterError("n_list must be increasing with at least 3 entries")
    members = [(build_coefficients(family_tag, n=n, **family_params), x0) for n in n_list]
    terminals, stats = [], []
    for ens in _coupled_ensembles(members, 0.0, T, dt, n_paths, seed):
        terminals.append(ens.paths[ens.alive(), -1, :])
        stats.append(sup_moment(ens))
        del ens  # free this index's paths before the next is stepped
    sups, errs = map(list, zip(*stats))
    distances = [sliced_wasserstein1(a, b) for a, b in zip(terminals, terminals[1:])]
    if len(set(distances)) == 1:
        rho = 0.0  # no trend at the noise floor (identical laws)
    else:
        rho = _spearman(np.arange(len(distances)), distances)
    # weighted straight-line growth test for the sup moment vs index rank
    x = np.arange(len(n_list), dtype=float)
    xbar = x.mean()
    sxx = ((x - xbar) ** 2).sum()
    coef = (x - xbar) / sxx
    slope = float((coef * np.asarray(sups)).sum())
    slope_err = float(math.sqrt((coef**2 * np.asarray(errs) ** 2).sum()))
    return CauchyReport(n_list, distances, rho, sups, errs, slope, slope_err)


def uniqueness_perturbation_report(
    eps_list,
    x0,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
    family_tag: str = "prop-6.1",
    **family_params,
) -> dict:
    """Shared-noise perturbation decay table: ``E sup_t |X^(x0) - X^(x0+eps e1)|``.

    A numerical proxy for pathwise uniqueness only (it cannot certify it).
    eps = 0 reproduces the base ensemble bitwise, so the divergence vanishes
    exactly there; the table must decrease as eps does (rank test).
    """
    eps_list = [float(e) for e in _real_list(eps_list, "eps_list", finite=True)]
    coeffs = build_coefficients(family_tag, **family_params)
    x0 = _start_point(x0, coeffs.d)
    members = [(coeffs, x0)]
    for eps in eps_list:
        shifted = x0.copy()
        shifted[0] += eps
        members.append((coeffs, shifted))
    ensembles = _coupled_ensembles(members, 0.0, T, dt, n_paths, seed)
    base = next(ensembles)
    sups = []
    for pert in ensembles:
        # the difference paths overwrite pert's, frozen if either run froze; a live
        # difference that overflows is rejected by sup_moment
        with np.errstate(over="ignore"):
            np.subtract(base.paths, pert.paths, out=pert.paths)
        pert.frozen |= base.frozen
        sups.append(sup_moment(pert))
        del pert  # free this start's paths before the next is stepped
    rows = [{"eps": e, "divergence": m, "stderr": se} for e, (m, se) in zip(eps_list, sups)]
    pos = [i for i, e in enumerate(eps_list) if e > 0]
    rho = (_spearman([eps_list[i] for i in pos], [sups[i][0] for i in pos])
           if len(pos) >= 2 else 1.0)
    return {"rows": rows, "spearman_eps_vs_divergence": rho,
            "floor_hits": coeffs.floor_hits}


# ---------------------------------------------------------------------------
# ensemble export
# ---------------------------------------------------------------------------


def export_ensemble(ens: PathEnsemble, path_prefix) -> tuple[Path, Path]:
    """Binary path array + JSON header {family_tag, params, seed, dt, T, n_paths, frozen}.

    ``frozen`` lists the indices of the frozen paths.
    """
    header = {
        "family_tag": ens.family_tag,
        "params": {k: (None if isinstance(v, float) and math.isinf(v) else v)
                   for k, v in ens.params.items()},
        "seed": ens.seed,
        "dt": ens.dt,
        "t0": ens.t0,
        "T": ens.t0 + ens.dt * ens.n_steps,
        "n_paths": ens.n_paths,
        "n_steps": ens.n_steps,
        "d": ens.d,
        "scheme_tag": SCHEME_TAG,
        "n_frozen": ens.n_frozen,
        "frozen": np.flatnonzero(~ens.alive()).tolist(),
    }
    return mn._write_export(path_prefix, header, ens.paths)


def load_ensemble(path_prefix) -> PathEnsemble:
    """The ensemble that :func:`export_ensemble` wrote.

    A damaged export, a header value of the wrong type or frozen indices
    outside the ensemble included, raises ``mn.GridError``; an unknown scheme tag or a frozen list at odds with
    ``n_frozen`` raises :class:`SdeParameterError`.
    """
    fields = {"family_tag": str, "params": dict, "seed": int, "dt": mn._REAL, "t0": mn._REAL,
              "n_paths": int, "n_steps": int, "d": int, "n_frozen": int}
    header, paths = mn._read_export(path_prefix, fields,
                                    lambda h: (h["n_paths"], h["n_steps"] + 1, h["d"]))
    if header.get("scheme_tag") != SCHEME_TAG:
        raise SdeParameterError(f"scheme_tag {header.get('scheme_tag')!r} is not {SCHEME_TAG!r}")
    params = {k: (math.inf if v is None else v) for k, v in header["params"].items()}
    n_paths = header["n_paths"]
    listed = header.get("frozen", [])  # older headers carry no list
    if not (isinstance(listed, list)
            and all(type(i) is int and 0 <= i < n_paths for i in listed)):
        raise mn.GridError(f"export header {Path(path_prefix).with_suffix('.json')} lists "
                           f"frozen paths that are not indices 0..{n_paths - 1}")
    frozen = np.zeros(n_paths, dtype=bool)
    frozen[listed] = True
    if frozen.sum() != header["n_frozen"]:
        raise SdeParameterError(f"header lists {int(frozen.sum())} frozen paths but "
                                f"n_frozen is {header['n_frozen']}")
    return PathEnsemble(paths, header["t0"], header["dt"], header["seed"],
                        header["family_tag"], params, frozen)

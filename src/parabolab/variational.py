"""Monotone-cutoff variational problems: explicit near-minimizers and a brute-force oracle.

The main object is the one-dimensional functional

    Phi(l) = sum_i ( int_tau^delta |l'(s)|^alpha_i |f_i(s)|^p_i ds )^(1/p_i)

over nonincreasing profiles with l(tau) = 1, l(delta) = 0.  The infimum over
C^1 profiles is approached by monotone piecewise-linear profiles (the
functional only sees per-interval slopes).  Written by its interval drops, a
profile is a point of the standard simplex, and the oracle minimizes there by
exponentiated gradient from many feasible starts at once, stopped on the
Frank-Wolfe duality gap, which it reports with the value.  The explicit
construction integrates ``g^(-theta)`` with ``g = f + eps`` built
exactly as in the underlying proof (no mollification step: sampled profiles
are already piecewise smooth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mixed_norms as mn
from .errors import InputError
from .mixed_norms import GridFunction, MixedNormSpec

__all__ = [
    "FeasibilityError",
    "IterationHypothesisError",
    "CutoffProfile",
    "VariationalProblem",
    "functional_value",
    "explicit_cutoff",
    "OracleResult",
    "oracle_infimum",
    "brute_force_infimum",
    "sa3_exponent",
    "sa3_bound_rhs",
    "sa3_bound_report",
    "sa3_gap_sweep",
    "calibrate_sa3_constant",
    "radial_embedding_infimum",
    "iteration_lemma_constant",
    "iteration_lemma_check",
    "random_feasible_profiles",
    "profile_to_csv",
]


class FeasibilityError(InputError):
    """Profile violates the cutoff constraints (endpoints, monotonicity, range)."""


class IterationHypothesisError(InputError):
    """The pairwise hypothesis of the iteration lemma fails on the sample grid."""


@dataclass(frozen=True)
class CutoffProfile:
    """Piecewise-linear nonincreasing profile on [tau, delta] with l(tau)=1, l(delta)=0."""

    tau: float
    delta: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.delta <= self.tau:
            raise FeasibilityError("need tau < delta")
        if v.ndim != 1 or v.size < 2:
            raise FeasibilityError("profile needs at least two knots")
        if abs(v[0] - 1.0) > 1e-12 or abs(v[-1]) > 1e-12:
            raise FeasibilityError("profile must run from 1 at tau to 0 at delta")
        if np.any(np.diff(v) > 1e-12):
            raise FeasibilityError("profile must be nonincreasing")
        if v.min() < -1e-12 or v.max() > 1 + 1e-12:
            raise FeasibilityError("profile values must lie in [0, 1]")

    @property
    def knots(self) -> np.ndarray:
        return np.linspace(self.tau, self.delta, self.values.size)

    @property
    def h(self) -> float:
        return (self.delta - self.tau) / (self.values.size - 1)

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.h

    def __call__(self, s) -> np.ndarray:
        return np.interp(s, self.knots, self.values)

    def resampled(self, n_knots: int) -> "CutoffProfile":
        n_knots = mn._count(n_knots, 2, math.inf, FeasibilityError)
        knots = np.linspace(self.tau, self.delta, n_knots)
        vals = np.interp(knots, self.knots, self.values)
        vals[0], vals[-1] = 1.0, 0.0
        return CutoffProfile(self.tau, self.delta, vals)


def linear_profile(tau: float, delta: float, n_knots: int = 65) -> CutoffProfile:
    return CutoffProfile(tau, delta, np.linspace(1.0, 0.0, n_knots))


@dataclass(frozen=True)
class VariationalProblem:
    """Sampled data of the cutoff functional: N <= 4 components on [tau, delta].

    ``f_samples`` holds the component densities at ``m`` equispaced points
    spanning [tau, delta] inclusive; evaluation in between is linear.
    """

    tau: float
    delta: float
    alphas: np.ndarray
    ps: np.ndarray
    betas: np.ndarray
    f_samples: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alphas, dtype=float))
        p = np.atleast_1d(np.asarray(self.ps, dtype=float))
        b = np.atleast_1d(np.asarray(self.betas, dtype=float))
        fs = np.atleast_2d(np.asarray(self.f_samples, dtype=float))
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "ps", p)
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "f_samples", fs)
        n = a.size
        if not (1 <= n <= 4):
            raise FeasibilityError(f"need 1 <= N <= 4 components, got {n}")
        if p.size != n or b.size != n or fs.shape[0] != n:
            raise FeasibilityError("alphas, ps, betas, f_samples must agree in component count")
        if np.any(a < 1) or np.any(p < 1):
            raise FeasibilityError("need alpha_i >= 1 and p_i >= 1")
        if np.any(b <= 0):
            raise FeasibilityError("need beta_i > 0")
        if np.any(fs < 0):
            raise FeasibilityError("component densities must be nonnegative")
        gap = self.delta - self.tau
        if not (0 < gap <= 1):
            raise FeasibilityError(f"need 0 < delta - tau <= 1, got {gap}")
        if fs.shape[1] < 2:
            raise FeasibilityError("need at least 2 density samples")

    @property
    def n(self) -> int:
        return self.alphas.size

    @property
    def gap(self) -> float:
        return self.delta - self.tau

    @property
    def theta(self) -> float:
        return 1.0 / float(self.alphas.min())

    def sample_grid(self) -> np.ndarray:
        return np.linspace(self.tau, self.delta, self.f_samples.shape[1])

    def f_at(self, i: int, s: np.ndarray) -> np.ndarray:
        return np.interp(s, self.sample_grid(), self.f_samples[i])


def problem_from_callables(tau, delta, alphas, ps, betas, f_fns) -> VariationalProblem:
    """Problem whose densities are the callables sampled at 257 points."""
    grid = np.linspace(tau, delta, 257)
    samples = np.stack([np.asarray(fn(grid), dtype=float) for fn in np.atleast_1d(f_fns)])
    return VariationalProblem(tau, delta, alphas, ps, betas, samples)


def _interval_weights(prob: VariationalProblem, knots: np.ndarray) -> np.ndarray:
    """w[i, k] = h * f_i(midpoint_k)^p_i for the knot intervals."""
    mids = 0.5 * (knots[:-1] + knots[1:])
    h = knots[1] - knots[0]
    return np.stack([prob.f_at(i, mids) ** prob.ps[i] * h for i in range(prob.n)])


def functional_value(prob: VariationalProblem, ell: CutoffProfile) -> float:
    """Quadrature value of the cutoff functional at a feasible profile."""
    if abs(ell.tau - prob.tau) > 1e-12 or abs(ell.delta - prob.delta) > 1e-12:
        raise FeasibilityError("profile interval does not match the problem interval")
    w = _interval_weights(prob, ell.knots)
    sl = np.abs(ell.slopes())
    total = 0.0
    for i in range(prob.n):
        total += float((sl ** prob.alphas[i] @ w[i]) ** (1.0 / prob.ps[i]))
    return total


def explicit_cutoff(prob: VariationalProblem, n_knots: int = 129) -> CutoffProfile:
    """Closed-form near-minimizer: the normalized tail integral of g^(-theta).

    ``g = F + eps`` with ``F = sum_i f_i^p`` (p the largest p_i),
    ``eps = ((delta-tau)^(-1) int F^beta)^(1/beta)`` (beta the smallest
    beta_i) and ``theta = 1/min alpha_i``.  Constant data gives exactly the
    linear profile; an all-zero density also falls back to it.
    """
    n_knots = mn._count(n_knots, 2, math.inf, FeasibilityError)
    knots = np.linspace(prob.tau, prob.delta, n_knots)
    mids = 0.5 * (knots[:-1] + knots[1:])
    h = knots[1] - knots[0]
    p = float(prob.ps.max())
    beta = float(prob.betas.min())
    F = np.zeros_like(mids)
    for i in range(prob.n):
        F += prob.f_at(i, mids) ** p
    eps = (np.mean(F**beta)) ** (1.0 / beta)
    if eps == 0.0:
        return linear_profile(prob.tau, prob.delta, n_knots)
    g = F + eps
    dens = g ** (-prob.theta)
    tail = np.concatenate([np.cumsum(dens[::-1])[::-1] * h, [0.0]])
    vals = tail / tail[0]
    vals[0], vals[-1] = 1.0, 0.0
    return CutoffProfile(prob.tau, prob.delta, np.minimum.accumulate(vals))


def _random_problem(rng: np.random.Generator, n: int) -> VariationalProblem:
    """An ``n``-component instance on [0, gap] from ``rng``: densities, gap, alphas, ps, betas."""
    samples = np.stack([
        np.interp(np.linspace(0, 1, 65), np.linspace(0, 1, 5), rng.uniform(0.0, 2.0, 5))
        for _ in range(n)
    ])
    gap = float(rng.uniform(0.25, 1.0))
    return VariationalProblem(0.0, gap, rng.uniform(1.0, 3.0, n), rng.uniform(1.0, 3.0, n),
                              rng.uniform(0.5, 2.0, n), samples)


def random_feasible_profiles(tau, delta, n_knots, count, seed) -> list[CutoffProfile]:
    n_knots = mn._count(n_knots, 2, math.inf, FeasibilityError)
    count = mn._count(count, 0, math.inf, FeasibilityError)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        interior = np.sort(rng.uniform(0.0, 1.0, size=n_knots - 2))[::-1]
        vals = np.concatenate([[1.0], interior, [0.0]])
        out.append(CutoffProfile(tau, delta, vals))
    return out


GAP_TOL = 1e-7  # a start stops once its Frank-Wolfe gap is at most GAP_TOL * F
MAX_ITERATIONS = 300
ETA_MIN = 1e-12  # a start whose step size falls below this has stalled


@dataclass(frozen=True)
class OracleResult:
    """Oracle value and profile; ``fw_gap`` is the Frank-Wolfe gap at the winning point.

    ``converged`` is ``fw_gap <= GAP_TOL * value``; ``iterations`` counts the
    loop steps in which any of the problem's starts was still active.
    ``lower`` is ``value - fw_gap`` when every alpha_i >= p_i (F is convex, so
    the gap bounds the discrete infimum from below), else None.
    """

    value: float
    profile: CutoffProfile
    fw_gap: float
    iterations: int
    converged: bool
    lower: float | None


def _value_and_gradient(h, w, alphas, ps, m):
    """The map from rows ``x`` of simplex points to F and its gradient there.

    The rows come in ``len(h)`` contiguous blocks of ``m``, block j belonging
    to a problem with interval length ``h[j]`` and weights ``w[j]`` (N, K).
    The matvec runs once per block, so every row gets the bits of a solve of
    its own problem; every other operation is elementwise or along the last
    axis.
    """
    h_rows = np.repeat(h, m)[:, None]
    blocks = [slice(j * m, (j + 1) * m) for j in range(len(h))]
    terms = [(a, p, a / h_rows, w[:, i], np.repeat(w[:, i], m, axis=0))
             for i, (a, p) in enumerate(zip(alphas, ps))]

    def value_and_gradient(x):
        F, grad, s = np.zeros(x.shape[0]), np.zeros_like(x), x / h_rows
        for a, p, a_h, wi, wi_rows in terms:
            sa, T = s**a, np.empty(x.shape[0])
            for b, wij in zip(blocks, wi):
                np.matmul(sa[b], wij, out=T[b])
            F += T ** (1.0 / p)
            pos = T > 0  # a component with T_i = 0 adds nothing to the gradient
            coef = np.where(pos, np.where(pos, T, 1.0) ** (1.0 / p - 1.0) / p, 0.0)
            grad += coef[:, None] * a_h * s ** (a - 1.0) * wi_rows
        return F, grad

    return value_and_gradient


def _fw_gap(grad, x):
    return np.einsum("sk,sk->s", grad, x) - grad.min(axis=1)


def _oracle(probs: list[VariationalProblem], knot_count: int = 41) -> list[OracleResult]:
    """:func:`oracle_infimum` of every problem, all stepped in one loop.

    The problems must share ``alphas`` and ``ps``.  Each result is bit for bit
    the one the problem gets alone; its ``iterations`` counts the loop steps
    in which any of its starts was active.
    """
    knot_count = mn._count(knot_count, 2, 400, FeasibilityError)
    if not probs:
        raise FeasibilityError("a batched oracle run needs at least one problem")
    alphas, ps = probs[0].alphas, probs[0].ps
    if any(q.alphas.tobytes() != alphas.tobytes() or q.ps.tobytes() != ps.tobytes()
           for q in probs):
        raise FeasibilityError("a batched oracle run needs one alphas and ps for every problem")
    knots = [np.linspace(q.tau, q.delta, knot_count) for q in probs]
    h = np.array([k[1] - k[0] for k in knots])
    w = np.stack([_interval_weights(q, k) for q, k in zip(probs, knots)])  # (P, N, K)
    explicit = [explicit_cutoff(q).resampled(knot_count) for q in probs]
    # the random starts do not depend on [tau, delta]: one draw serves every problem
    randoms = [s.values for s in random_feasible_profiles(0.0, 1.0, knot_count, 20, 20250809)]
    linear = np.linspace(1.0, 0.0, knot_count)
    x = -np.diff(np.stack([v for e in explicit for v in (*randoms, e.values, linear)]), axis=1)
    # stepping log(x) is the same update without underflow to 0/0
    logx = np.log(np.maximum(x, np.finfo(float).tiny))
    m = x.shape[0] // len(probs)  # starts per problem
    value_and_gradient = _value_and_gradient(h, w, alphas, ps, m)
    F, grad = value_and_gradient(x)
    eta = np.ones(x.shape[0])
    active = _fw_gap(grad, x) > GAP_TOL * F
    # a start, once stopped, stays stopped: its count of active steps is its last step
    steps_active = np.zeros(x.shape[0], dtype=int)
    step = 0
    while active.any() and step < MAX_ITERATIONS:
        step += 1
        steps_active += active
        g_min = grad.min(axis=1, keepdims=True)
        g_span = grad.max(axis=1, keepdims=True) - g_min
        trial = logx - eta[:, None] * (grad - g_min) / np.where(g_span > 0, g_span, 1.0)
        trial -= trial.max(axis=1, keepdims=True)
        x_trial = np.exp(trial)
        x_trial /= x_trial.sum(axis=1, keepdims=True)
        F_trial, grad_trial = value_and_gradient(x_trial)
        accept = active & (F_trial <= F)
        logx[accept], x[accept] = trial[accept], x_trial[accept]
        F[accept], grad[accept] = F_trial[accept], grad_trial[accept]
        eta = np.where(accept, 1.5 * eta, np.where(active, 0.5 * eta, eta))
        active &= (_fw_gap(grad, x) > GAP_TOL * F) & (eta >= ETA_MIN)

    convex = bool(np.all(alphas >= ps))
    iterations = steps_active.reshape(len(probs), m).max(axis=1)
    results = []
    for j, (prob, exp_prof) in enumerate(zip(probs, explicit)):
        rows = slice(j * m, (j + 1) * m)
        at_vertices = _value_and_gradient(h[j:j + 1], w[j:j + 1], alphas, ps, knot_count - 1)
        candidates = np.vstack([x[rows], np.eye(knot_count - 1)])
        F_vertex, grad_vertex = at_vertices(candidates[m:])
        F_all, grad_all = np.concatenate([F[rows], F_vertex]), np.vstack([grad[rows], grad_vertex])
        best = int(np.argmin(np.where(np.isfinite(F_all), F_all, np.inf)))
        drops = candidates[best]
        # the gap at the winning simplex point, where the drops are not yet rounded into a profile
        gap = float(_fw_gap(grad_all[best, None], drops[None])[0])
        # tail sums keep the small drops near the zero end exactly
        vals = np.clip(np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]]), 0.0, 1.0)
        vals[0] = 1.0
        profile = CutoffProfile(prob.tau, prob.delta, np.minimum.accumulate(vals))
        value = functional_value(prob, profile)
        exp_val = functional_value(prob, exp_prof)
        if not math.isfinite(value) or exp_val < value:
            value, profile = exp_val, exp_prof
            x_out = -np.diff(profile.values)[None]
            at_point = _value_and_gradient(h[j:j + 1], w[j:j + 1], alphas, ps, 1)
            gap = float(_fw_gap(at_point(x_out)[1], x_out)[0])
        results.append(OracleResult(value, profile, gap, int(iterations[j]),
                                    bool(gap <= GAP_TOL * value),
                                    value - gap if convex else None))
    return results


def oracle_infimum(prob: VariationalProblem, knot_count: int = 41) -> OracleResult:
    """Oracle infimum by exponentiated gradient on the simplex of interval drops.

    A profile on ``knot_count`` equispaced knots is its drops ``x_k = v_(k-1)
    - v_k``, a point of the standard simplex, where the functional is ``F(x) =
    sum_i T_i^(1/p_i)``, ``T_i = sum_k w_ik (x_k/h)^alpha_i``.  Twenty seeded
    random profiles, the explicit profile and the linear one step together,
    each with its own ``eta``: ``x <- x exp(-eta (g - min g)/(max g - min
    g))``, renormalized; a step that raises F is rejected and halves ``eta``,
    an accepted one grows it by 1.5.  A start stops once its Frank-Wolfe gap
    ``<g, x> - min_k g_k`` is at most ``GAP_TOL * F``, when ``eta`` falls
    below ``ETA_MIN``, or at ``MAX_ITERATIONS``.  The K simplex vertices are
    evaluated too, and the explicit profile wins whenever it is lower.  The
    reported gap is measured at the winning simplex point (a stepped row or a
    vertex), or at the explicit profile's drops when that profile wins.  When
    every alpha_i >= p_i, F is convex and ``lower = value - fw_gap`` bounds
    the discrete infimum from below; otherwise the gap measures stationarity
    and ``lower`` is None.  This is the one-problem batch of the loop that
    also serves :func:`calibrate_sa3_constant` and :func:`sa3_gap_sweep`.
    """
    return _oracle([prob], knot_count)[0]


def brute_force_infimum(prob: VariationalProblem,
                        knot_count: int = 41) -> tuple[float, CutoffProfile]:
    """``(value, profile)`` of :func:`oracle_infimum`; kept only for the benchmark workloads."""
    r = oracle_infimum(prob, knot_count)
    return r.value, r.profile


def sa3_exponent(alphas, ps, betas) -> float:
    """Predicted gap power: ``max_i (alpha_i - 1)/p_i + 1/min_i beta_i``."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if not len(alphas) == len(ps) == len(betas) > 0:
        raise FeasibilityError("sa3_exponent needs one alpha, p and beta per component")
    return float(((alphas - 1) / ps).max() + 1.0 / betas.min())


def _data_term(prob: VariationalProblem) -> float:
    grid = prob.sample_grid()
    total = 0.0
    for i in range(prob.n):
        total += float(np.trapezoid(prob.f_samples[i] ** prob.betas[i], grid) ** (1.0 / prob.betas[i]))
    return total


SA3_MARGIN = 1.5
SA3_KNOTS = 25  # knot count of the calibration solves
SA3_SEED = 20250809  # seed of the calibration densities


def calibrate_sa3_constant(alphas, ps, betas) -> dict:
    """Empirical constant for the variational upper bound, per exponent signature.

    Max of lhs / ((gap)^(-exponent) * data term) over a frozen family of
    densities and gaps, times the recorded margin.  The family's eight
    problems share the signature, so one batched oracle run solves them all.
    """
    rng = np.random.default_rng(SA3_SEED)
    n = np.atleast_1d(alphas).size
    expo = sa3_exponent(alphas, ps, betas)
    probs = []
    for gap in (1.0, 0.25):
        for _ in range(4):
            m = 33
            base = rng.uniform(0.0, 2.0, size=(n, 5))
            samples = np.stack([
                np.interp(np.linspace(0, 1, m), np.linspace(0, 1, 5), base[i]) for i in range(n)
            ])
            probs.append(VariationalProblem(0.0, gap, alphas, ps, betas, samples))
    raw = 0.0
    for prob, r in zip(probs, _oracle(probs, SA3_KNOTS)):
        denom = prob.gap ** (-expo) * _data_term(prob)
        if denom > 0:
            raw = max(raw, r.value / denom)
    return {"raw_max": raw, "margin": SA3_MARGIN, "c_fit": SA3_MARGIN * max(raw, 1e-9)}


def sa3_bound_rhs(prob: VariationalProblem) -> tuple[float, float, float]:
    """(rhs_exponent, rhs_value, C_fit): the right side of the variational upper bound.

    ``rhs_value = gap^(-exponent) * sum_i (int |f_i|^beta_i)^(1/beta_i)``;
    the oracle infimum is bounded through ``lhs <= C_fit * rhs_value``.
    """
    expo = sa3_exponent(prob.alphas, prob.ps, prob.betas)
    rhs_value = prob.gap ** (-expo) * _data_term(prob)
    c_fit = calibrate_sa3_constant(prob.alphas, prob.ps, prob.betas)["c_fit"]
    return expo, rhs_value, c_fit


def sa3_bound_report(prob: VariationalProblem,
                     knot_count: int = 41) -> tuple[float, float, float, float]:
    """(lhs, rhs_exponent, rhs_value, C_fit): the oracle infimum and :func:`sa3_bound_rhs`.

    Kept only for the benchmark workloads; the package calls the two parts.
    """
    return (oracle_infimum(prob, knot_count).value, *sa3_bound_rhs(prob))


def sa3_gap_sweep(alphas, ps, betas, f_fns, gaps) -> dict:
    """Gap sweep of the oracle infimum; slope fitted on lhs normalized by the data term.

    The raw bound's right side carries the data term's own gap power, so the
    predicted power ``-sa3_exponent`` is read off ``log(lhs / data)`` vs
    ``log(gap)``; it is tight when all beta_i coincide.  The gaps share one
    signature and are solved in one batched oracle run at its default knot count.
    """
    probs = [problem_from_callables(0.0, gap, alphas, ps, betas, f_fns) for gap in gaps]
    lhs_list = [r.value for r in _oracle(probs)]
    data_list = [_data_term(prob) for prob in probs]
    logg = np.log(np.asarray(gaps))
    ratio = np.log(np.asarray(lhs_list) / np.asarray(data_list))
    slope = float(np.polyfit(logg, ratio, 1)[0])
    return {
        "gaps": list(gaps),
        "lhs": lhs_list,
        "data": data_list,
        "slope": slope,
        "predicted": -sa3_exponent(alphas, ps, betas),
    }


# ---------------------------------------------------------------------------
# radial embedding at desk scale (d = 2)
# ---------------------------------------------------------------------------


def radial_embedding_infimum(
    w: GridFunction,
    alpha: float,
    p: float,
    q: float,
    kappa: float,
    theta: float,
    tau: float,
    delta: float,
) -> tuple[float, float]:
    """Radial-cutoff embedding functional and its gap-weighted right side (d = 2).

    Reduces ``inf_eta ||w |grad eta|^alpha||`` over radial cutoffs
    ``eta(x) = l(|x|)`` to a 1-D monotone-profile problem via circular shell
    quadrature of ``F(x) = ||w(., x)||_(L^q)`` (65 radii, 256 angles), then
    brute-forces the profile on those 65 knots.
    Returns ``(J, (delta - tau)^(-1) * (||grad w||^theta ||w||^(1-theta) +
    ||w||))`` with norms over ``I x B_delta`` in the space-outer (kappa, q)
    ordering.  Requires ``1/kappa = 1/p + theta/(d-1)`` and ``alpha * p >= 1``.
    """
    from scipy import ndimage

    if w.d != 2:
        raise FeasibilityError("the radial reduction is implemented at desk scale d = 2")
    if not (1.0 <= tau < delta <= 2.0):
        raise FeasibilityError("need 1 <= tau < delta <= 2")
    if abs(1.0 / kappa - (1.0 / p + theta / (w.d - 1))) > 1e-12:
        raise FeasibilityError("exponent relation 1/kappa = 1/p + theta/(d-1) violated")
    if alpha * p < 1:
        raise FeasibilityError("need alpha * p >= 1")
    if not np.any(w.values):
        return 0.0, 0.0

    # F(x) = time q-norm per cell
    F = mn._reduce(w.values, q, w.dt, 0)
    # shell quadrature G(s) = s * int_angles F(s w)^p dtheta, sampled at the knots
    knots = np.linspace(tau, delta, 65)
    angles = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)])
    coords = []
    for k in range(2):
        pts = knots[:, None] * circle[k][None, :]
        coords.append((pts - (w.x0[k] + 0.5 * w.dx[k])) / w.dx[k])
    Fvals = ndimage.map_coordinates(F, np.stack(coords).reshape(2, -1), order=1, mode="constant")
    Fvals = Fvals.reshape(len(knots), len(angles))
    G = knots * (Fvals**p).mean(axis=1) * 2 * math.pi

    prob = VariationalProblem(tau, delta, [alpha * p], [p], [kappa], (G ** (1.0 / p))[None])
    J = oracle_infimum(prob, len(knots)).value

    X = w.meshgrid()
    ball = ((X**2).sum(axis=-1) <= delta**2 * (1 + 1e-12)).astype(float)
    spec = MixedNormSpec(kappa, q, "space-outer")
    wn = mn.mixed_norm(w._with_owned(w.values * ball), spec)
    gn = mn.mixed_norm(w._with_owned(mn.gradient_magnitude(w).values * ball), spec)
    rhs = (delta - tau) ** (-1.0) * (gn**theta * wn ** (1.0 - theta) + wn)
    return float(J), float(rhs)


# ---------------------------------------------------------------------------
# iteration lemma
# ---------------------------------------------------------------------------


def iteration_lemma_constant(alpha: float, theta: float) -> float:
    """Explicit constant of the geometric-refinement absorption argument.

    For alpha > 0: ``C = 2 (1 - lam)^(-alpha) / (1 - theta)`` with
    ``lam = (2 theta / (1 + theta))^(1/alpha)`` (so that theta * lam^(-alpha)
    = (1 + theta)/2 < 1).  For alpha = 0 the telescoping gives
    ``C = 1/(1 - theta)``.
    """
    if not 0.0 < theta < 1.0:
        raise IterationHypothesisError("theta must lie in (0, 1)")
    if alpha < 0:
        raise IterationHypothesisError("alpha must be >= 0")
    if alpha == 0.0:
        return 1.0 / (1.0 - theta)
    lam = (2.0 * theta / (1.0 + theta)) ** (1.0 / alpha)
    return 2.0 * (1.0 - lam) ** (-alpha) / (1.0 - theta)


def iteration_lemma_check(
    tau_grid, h_values, alpha: float, theta: float, A: float, B: float
) -> bool:
    """Verify the absorbed conclusion ``h(tau1) <= C(alpha, theta) (gap^(-alpha) A + B)``.

    First checks the pairwise hypothesis ``h(t) <= theta h(t') +
    (t'-t)^(-alpha) A + B`` on every grid pair (raising
    IterationHypothesisError on failure, which is not a conclusion failure),
    then evaluates the conclusion with the explicit constant.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size != h.size or tau_grid.size < 2:
        raise IterationHypothesisError("tau grid and samples must match, with >= 2 points")
    if np.any(h < 0) or not np.all(np.isfinite(h)):
        raise IterationHypothesisError("h must be nonnegative and bounded")
    if A < 0 or B < 0:
        raise IterationHypothesisError("A, B must be nonnegative")
    n = tau_grid.size
    for i in range(n):
        for j in range(i + 1, n):
            gap = tau_grid[j] - tau_grid[i]
            bound = theta * h[j] + gap ** (-alpha) * A + B
            if h[i] > bound * (1 + 1e-12) + 1e-300:
                raise IterationHypothesisError(
                    f"hypothesis fails at pair ({tau_grid[i]}, {tau_grid[j]})")
    C = iteration_lemma_constant(alpha, theta)
    total_gap = tau_grid[-1] - tau_grid[0]
    return bool(h[0] <= C * (total_gap ** (-alpha) * A + B) * (1 + 1e-12))


def profile_to_csv(profile: CutoffProfile, path) -> None:
    """Two-column CSV export: knot, value."""
    arr = np.column_stack([profile.knots, profile.values])
    np.savetxt(path, arr, delimiter=",", header="knot,value", comments="")

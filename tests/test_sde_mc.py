import hashlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr

from parabolab import cutoffs as co
from parabolab import mixed_norms as mn
from parabolab import pde_solver as pde
from parabolab import sde_mc as sde
from parabolab.mixed_norms import INF

from conftest import a_matrix


class TestCutoffFamily:
    @pytest.mark.parametrize("R", [1.0, 2.0, 3.0, 5.0])
    def test_identity_and_plateau(self, R):
        assert co.phi_R(R / 2, R) == R / 2
        assert co.phi_R(3 * R, R) == R + 1.0

    @pytest.mark.parametrize("R", [1.0, 1.7, 2.5, 3.0, 4.0, 8.0])
    def test_monotone_on_samples(self, R):
        r = np.linspace(0.0, 3 * R, 1000)
        assert np.all(np.diff(co.phi_R(r, R)) >= -1e-12)
        assert np.all(co.phi_R_prime(r, R) >= -1e-12)

    @pytest.mark.parametrize("R", [1.0, 2.0, 3.0, 6.0])
    def test_c1_blend(self, R):
        for corner in (R, 2 * R):
            jump = abs(co.phi_R_prime(corner - 1e-9, R) - co.phi_R_prime(corner + 1e-9, R))
            assert jump < 1e-8
        # derivative matches a finite difference mid-blend
        mid = 1.5 * R
        fd = (co.phi_R(mid + 1e-6, R) - co.phi_R(mid - 1e-6, R)) / 2e-6
        assert fd == pytest.approx(co.phi_R_prime(mid, R), abs=1e-6)

    def test_shifted_negative_power_bounded(self):
        # for alpha < 0 the shift caps the power by n^(-alpha) below R
        fam = co.CutoffFamily(2.0, -0.5, 4)
        r = np.linspace(0.0, 2.0 - 1.0 / 4 - 1e-9, 200)
        assert np.all(fam.f_n(r) <= 4**0.5 * (1 + 1e-12))

    def test_invalid_parameters(self):
        with pytest.raises(co.CutoffFamilyError):
            co.phi_R(1.0, 0.5)
        with pytest.raises(co.CutoffFamilyError):
            co.CutoffFamily(2.0, 1.0, 0.5)


class TestBuildCoefficients:
    def test_singular_family_coefficient_identity(self):
        c = sde.build_coefficients("example-6.1", d=3, R=2.0, alpha=0.3, n=5)
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, (50, 3))
        fam = co.CutoffFamily(2.0, -0.3, 5)
        sig = c.sigma_diag(0.0, X)
        a = sig**2
        assert np.allclose(a, fam.f_n((X**2).sum(axis=-1))[:, None], rtol=1e-14)

    def test_planar_family_min_max(self):
        c = sde.build_coefficients("example-6.2", R=1.0, alpha=0.2, n=3)
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, (50, 2))
        fam = co.CutoffFamily(1.0, 0.2, 3)
        a = c.sigma_diag(0.0, X) ** 2
        lam = np.minimum(fam.f_n(X[:, 1] ** 2), fam.f_n(X[:, 0] ** 2))
        assert np.allclose(a.min(axis=1), lam, rtol=1e-14)

    def test_raw_prop61_with_zero_exponents_is_brownian(self):
        c = sde.build_coefficients("prop-6.1", d=3, alpha=0.0, lam=0.0, n=INF)
        ens = sde.euler_maruyama(c, np.zeros(3), 0.0, 0.5, 0.01, 4000, 3)
        m2 = (ens.paths[:, -1, :] ** 2).sum(axis=1)
        se = m2.std(ddof=1) / math.sqrt(len(m2))
        # sqrt(2) * (1/sqrt(2)) dW: plain Brownian motion, E|X_T|^2 = d T
        assert abs(m2.mean() - 3 * 0.5) <= 3 * se

    def test_parameter_ranges_named(self):
        with pytest.raises(sde.SdeParameterError, match="alpha < min"):
            sde.build_coefficients("example-6.1", d=3, alpha=0.7)
        with pytest.raises(sde.SdeParameterError, match="1/4"):
            sde.build_coefficients("example-6.2", alpha=0.3)
        with pytest.raises(sde.SdeParameterError, match="beta"):
            sde.build_coefficients("prop-6.1", d=3, alpha=0.3, beta=0.7, lam=1.0)

    @pytest.mark.parametrize("tag,kw", [("example-6.1", {"d": 3}), ("example-6.2", {})])
    def test_alpha_whose_half_underflows_rejected(self, tag, kw):
        # 5e-324 / 2 is 0.0, which the solver's builder would reject with its own error
        with pytest.raises(sde.SdeParameterError, match=f"{tag} requires"):
            sde.build_coefficients(tag, alpha=5e-324, **kw)
        assert sde.build_coefficients(tag, alpha=1e-323, **kw).family_tag == tag

    def test_mollified_sigma_cap(self):
        n = 9
        c = sde.build_coefficients("prop-6.1", d=3, alpha=0.3, beta=0.2, lam=1.0,
                                   R=2.0, n=n)
        X = np.zeros((1, 3))
        cap = (1.0 / n) ** (-0.3 / 2) / math.sqrt(2)
        assert c.sigma_diag(0.0, X).max() == pytest.approx(cap)


class TestSigmaIsTheSolverField:
    """sigma is the solver's diagonal field at half the exponent, so sigma^2 = a."""

    @staticmethod
    def _check(sigma, half, full, X):
        s = sigma(0.0, X)
        assert np.array_equal(s, half.a_diag(0.0, X))
        assert np.allclose(s[..., :, None] ** 2 * np.eye(X.shape[-1]), a_matrix(full, 0.0, X),
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brownian(self, d):
        X = np.random.default_rng(d).uniform(-3.0, 3.0, (6, 5, d))
        c = sde.build_coefficients("brownian", d=d)
        self._check(c.sigma_diag, pde.identity_field(d), pde.identity_field(d), X)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.49])
    @pytest.mark.parametrize("n", [1, 3, INF])
    @pytest.mark.parametrize("R", [1.0, 2.0, 3.5])
    def test_example_61(self, R, n, alpha):
        X = np.random.default_rng(5).uniform(-8.0, 8.0, (40, 3))
        X[0] = 0.0
        c = sde.build_coefficients("example-6.1", d=3, R=R, alpha=alpha, n=n)
        with np.errstate(divide="ignore"):  # the raw field is infinite at the origin
            self._check(c.sigma_diag, pde.example_61_field(3, alpha / 2, R, n),
                        pde.example_61_field(3, alpha, R, n), X[1:] if math.isinf(n) else X)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.24])
    @pytest.mark.parametrize("n", [1, 3, INF])
    @pytest.mark.parametrize("R", [1.0, 2.0, 3.5])
    def test_example_62(self, R, n, alpha):
        X = np.random.default_rng(6).uniform(-8.0, 8.0, (40, 2))
        X[0] = 0.0
        c = sde.build_coefficients("example-6.2", R=R, alpha=alpha, n=n)
        self._check(c.sigma_diag, pde.example_62_field(alpha / 2, R, n),
                    pde.example_62_field(alpha, R, n), X)


# admissible parameters per family, and whether they give a drift
FAMILY_CASES = [
    ("brownian", dict(d=2), False),
    ("example-6.1", dict(d=3, R=2.0, alpha=0.3), False),
    ("example-6.2", dict(R=1.0, alpha=0.2), False),
    ("prop-6.1", dict(d=3, R=2.0, alpha=0.3, beta=0.2, lam=1.0), True),
    ("prop-6.1", dict(d=4, R=2.0, alpha=0.3), False),
]


class TestFamilyContract:
    """Every family: a diagonal sigma of X's shape, b only with a drift, integer floor hits."""

    def test_every_family_covered(self):
        assert {tag for tag, _, _ in FAMILY_CASES} == set(sde.SDE_FAMILIES)

    @pytest.mark.parametrize("tag,params,has_drift", FAMILY_CASES,
                             ids=["brownian", "example-6.1", "example-6.2", "prop-6.1",
                                  "prop-6.1-no-drift"])
    def test_contract(self, tag, params, has_drift):
        X = np.random.default_rng(4).uniform(-2.0, 2.0, (7, 5, params.get("d", 2)))
        for n in (4, INF):
            c = sde.build_coefficients(tag, n=n, **params)
            assert c.sigma_diag(0.0, X).shape == X.shape
            assert (c.b is None) == (not has_drift)
            if has_drift:
                assert c.b(0.0, X).shape == X.shape
        # c is the raw (n = inf) field: from the origin only Prop. 6.1 meets the floor,
        # in sigma_diag and again in b
        with np.errstate(divide="ignore", invalid="ignore"):
            ens = sde.euler_maruyama(c, np.zeros(c.d), 0.0, 0.05, 0.01, 8, 1)
        assert type(c.floor_hits) is int
        assert (c.floor_hits > 0) == (tag == "prop-6.1")
        if tag == "prop-6.1":
            assert c.floor_hits >= (2 if has_drift else 1) * ens.n_paths


class TestEulerMaruyama:
    def test_pure_drift_exact(self):
        c = sde.SdeCoefficients(2, "custom", {}, sigma_diag=lambda t, X: np.zeros_like(X),
                                b=lambda t, X: np.broadcast_to(np.array([1.0, -0.5]),
                                                               X.shape).copy())
        ens = sde.euler_maruyama(c, [0.0, 0.0], 0.0, 1.0, 0.01, 20, 9)
        assert np.abs(ens.paths[:, -1, :] - np.array([1.0, -0.5])).max() < 1e-12

    def test_brownian_second_moment(self):
        c = sde.build_coefficients("brownian", d=3)
        ens = sde.euler_maruyama(c, np.zeros(3), 0.0, 1.0, 0.01, 20000, 42)
        m2 = (ens.paths[:, -1, :] ** 2).sum(axis=1)
        se = m2.std(ddof=1) / math.sqrt(len(m2))
        assert abs(m2.mean() - 2 * 3 * 1.0) <= 3 * se

    def test_seed_determinism_bitwise(self):
        c = sde.build_coefficients("brownian", d=2)
        a = sde.euler_maruyama(c, [0.1, 0.2], 0.0, 0.3, 0.01, 400, 7)
        b = sde.euler_maruyama(c, [0.1, 0.2], 0.0, 0.3, 0.01, 400, 7)
        assert np.array_equal(a.paths, b.paths)

    def test_per_path_streams_prefix_invariant(self):
        # streams are keyed (seed, path index): a smaller ensemble is a prefix
        c = sde.build_coefficients("brownian", d=2)
        big = sde.euler_maruyama(c, [0.0, 0.0], 0.0, 0.3, 0.01, 50, 7)
        small = sde.euler_maruyama(c, [0.0, 0.0], 0.0, 0.3, 0.01, 11, 7)
        assert np.array_equal(small.paths, big.paths[:11])

    def test_chunking_invariant(self):
        # the one-pass ensemble equals one stepped in chunks of 7 paths
        c = sde.build_coefficients("brownian", d=1)
        a = sde.euler_maruyama(c, [0.0], 0.0, 0.2, 0.01, 100, 3)
        paths, frozen = _separate_noise_em(c, [0.0], 0.0, 0.2, 0.01, 100, 3, chunk=7)
        assert np.array_equal(a.paths, paths)
        assert np.array_equal(a.frozen, frozen)

    def test_initial_condition_exact(self):
        c = sde.build_coefficients("brownian", d=3)
        ens = sde.euler_maruyama(c, [1.0, 2.0, -1.0], 0.5, 0.7, 0.01, 10, 1)
        assert np.array_equal(ens.paths[:, 0, :],
                              np.tile([1.0, 2.0, -1.0], (10, 1)))

    def test_nonfinite_paths_frozen_and_reported(self):
        def bad_sigma(t, X):
            out = np.ones(X.shape[:-1] + (1,))
            out[np.abs(X[..., 0]) > 0.5] = np.inf
            return out

        c = sde.SdeCoefficients(1, "custom", {}, sigma_diag=bad_sigma,
                                b=lambda t, X: np.zeros_like(X))
        ens = sde.euler_maruyama(c, [0.0], 0.0, 1.0, 0.01, 200, 11)
        assert np.all(np.isfinite(ens.paths))
        assert 0 < ens.n_frozen <= 200
        m, se = sde.sup_moment(ens)
        assert math.isfinite(m)

    def test_dt_cap(self):
        c = sde.build_coefficients("brownian", d=1)
        with pytest.raises(sde.SdeParameterError):
            sde.euler_maruyama(c, [0.0], 0.0, 1.0, 0.1, 10, 1)

    # dt 1e-300 and 1e-12 ask for 1e300 and 1e12 steps, past MAX_STEPS: a path array past
    # numpy's dimension limit or of 7 TiB
    @pytest.mark.parametrize("dt, n_paths", [(0.0, 10), (math.nan, 10), (0.01, -1), (0.01, 2.5),
                                             (1e-300, 1), (1e-12, 1)],
                             ids=["dt-zero", "dt-nan", "n-paths-negative", "n-paths-fraction",
                                  "dt-1e-300", "dt-1e-12"])
    def test_rejected(self, dt, n_paths):
        c = sde.build_coefficients("brownian", d=1)
        with pytest.raises(sde.SdeParameterError):
            sde.euler_maruyama(c, [0.0], 0.0, 1.0, dt, n_paths, 1)

    def test_step_cap(self):
        c = sde.build_coefficients("brownian", d=1)
        ens = sde.euler_maruyama(c, [0.0], 0.0, mn.MAX_STEPS * 0.01, 0.01, 0, 1)
        assert ens.n_steps == mn.MAX_STEPS
        with pytest.raises(sde.SdeParameterError):
            sde.euler_maruyama(c, [0.0], 0.0, (mn.MAX_STEPS + 1) * 0.01, 0.01, 0, 1)

    def test_empty_ensemble_takes_no_steps(self):
        calls = {"sigma_diag": 0, "b": 0}

        def counting(name, value):
            def coefficient(t, X):
                calls[name] += 1
                return np.full(X.shape, value)
            return coefficient

        c = sde.SdeCoefficients(2, "custom", {}, counting("sigma_diag", 1.0), counting("b", 0.5))
        ens = sde.euler_maruyama(c, [0.0, 1.0], 0.0, 1.0, 0.01, 0, 1)
        assert ens.paths.shape == (0, 101, 2) and ens.n_steps == 100
        assert calls == {"sigma_diag": 0, "b": 0}
        sde.euler_maruyama(c, [0.0, 1.0], 0.0, 1.0, 0.01, 1, 1)
        assert calls == {"sigma_diag": 100, "b": 100}

    # a length-1 x0 at d > 1 is rejected too, where it used to broadcast
    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], np.zeros((2, 2)), [0.0], "a",
                                    [[0.0, 1.0], [0.0]], 1j],
                             ids=["length-3", "2-d", "length-1", "string", "ragged", "complex"])
    def test_start_point_checked(self, x0):
        c = sde.build_coefficients("brownian", d=2)
        with pytest.raises(sde.SdeParameterError, match="x0 must be a"):
            sde.euler_maruyama(c, x0, 0.0, 0.1, 0.01, 4, 1)
        with pytest.raises(sde.SdeParameterError, match="x0 must be a"):
            sde.uniqueness_perturbation_report([0.1, 0.01, 0.0], x0, 0.1, 0.01, 4, 1,
                                               family_tag="brownian", d=2)

    def test_scalar_start_point_is_repeated(self):
        c = sde.build_coefficients("brownian", d=2)
        ens = sde.euler_maruyama(c, 0.5, 0.0, 0.1, 0.01, 4, 1)
        assert np.array_equal(ens.paths, sde.euler_maruyama(c, [0.5, 0.5], 0.0, 0.1, 0.01, 4,
                                                            1).paths)


class TestKrylov:
    @pytest.fixture(scope="class")
    def brownian_ens(self):
        c = sde.build_coefficients("brownian", d=3)
        return sde.euler_maruyama(c, np.zeros(3), 0.0, 1.0, 0.01, 20000, 42)

    def test_constant_integrand_exact(self, brownian_ens):
        f = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 50,
                             [(-40, 40)] * 3, (10,) * 3)
        est, _ = sde.krylov_functional(brownian_ens, f, 0.0, 1.0)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_linearity_and_positivity(self, brownian_ens):
        f = mn.from_callable(lambda t, X: ((X**2).sum(axis=-1) <= 1.0).astype(float),
                             (0, 1), 50, [(-1.25, 1.25)] * 3, (20,) * 3)
        e1, _ = sde.krylov_functional(brownian_ens, f, 0.0, 1.0)
        e2, _ = sde.krylov_functional(brownian_ens, f.scaled(2.0), 0.0, 1.0)
        assert e2 == pytest.approx(2 * e1, rel=1e-12)
        assert e1 >= 0

    def test_matches_gaussian_cdf_oracle(self, brownian_ens):
        nx, lo = 40, -1.25
        f = mn.from_callable(lambda t, X: ((X**2).sum(axis=-1) <= 1.0).astype(float),
                             (0, 1), 100, [(lo, -lo)] * 3, (nx,) * 3)
        est, se = sde.krylov_functional(brownian_ens, f, 0.0, 1.0)
        edges = lo + f.dx[0] * np.arange(nx + 1)
        mask = f.values[0]
        oracle, dt = 0.0, 0.01
        for k in range(100):
            t = k * dt
            if t == 0:
                oracle += dt
                continue
            pax = np.diff(ndtr(edges / math.sqrt(2 * t)))
            oracle += dt * float(np.einsum("i,j,k,ijk->", pax, pax, pax, mask))
        assert abs(est - oracle) <= 3 * se

    def test_window_outside_grid(self, brownian_ens):
        f = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 10,
                             [(-1, 1)] * 3, (4,) * 3)
        with pytest.raises(sde.SdeParameterError):
            sde.krylov_functional(brownian_ens, f, 5.0, 6.0)


class TestModulus:
    def test_deterministic_drift_exact_half(self):
        c = sde.SdeCoefficients(1, "custom", {}, sigma_diag=lambda t, X: np.zeros_like(X),
                                b=lambda t, X: 2.0 * np.ones_like(X))
        ens = sde.euler_maruyama(c, [0.0], 0.0, 1.0, 0.01, 8, 5)
        rep = sde.modulus_report(ens, np.array([1, 2, 4, 8, 16, 32]) * 0.01)
        assert rep.slope == pytest.approx(0.5, abs=1e-12)

    def test_brownian_quarter_band(self):
        c = sde.build_coefficients("brownian", d=1)
        dt = 1.0 / 1024
        ens = sde.euler_maruyama(c, [0.0], 0.0, 1.0, dt, 2000, 8)
        rep = sde.modulus_report(ens, np.array([1, 2, 4, 8, 16, 32]) * dt)
        assert 0.15 < rep.slope < 0.35

    def test_singular_family_recorded(self):
        c = sde.build_coefficients("example-6.1", d=3, R=2.0, alpha=0.3, n=4)
        dt = 1.0 / 512
        ens = sde.euler_maruyama(c, [0.5, 0.0, 0.0], 0.0, 0.5, dt, 1000, 12)
        rep = sde.modulus_report(ens, np.array([1, 2, 4, 8, 16, 32]) * dt)
        assert 0.0 < rep.slope <= 0.5
        assert math.isfinite(rep.intercept)

    def test_span_and_count_guards(self):
        c = sde.build_coefficients("brownian", d=1)
        ens = sde.euler_maruyama(c, [0.0], 0.0, 0.2, 0.01, 10, 1)
        with pytest.raises(sde.SdeParameterError):
            sde.modulus_report(ens, [0.01, 0.02])
        with pytest.raises(sde.SdeParameterError):
            sde.modulus_report(ens, [0.01, 0.02, 0.04])  # only 0.6 decades


class TestSupMoment:
    def test_frozen_start(self):
        c = sde.SdeCoefficients(2, "custom", {}, sigma_diag=lambda t, X: np.zeros_like(X))
        ens = sde.euler_maruyama(c, [3.0, 4.0], 0.0, 0.2, 0.01, 5, 1)
        m, se = sde.sup_moment(ens)
        assert m == pytest.approx(5.0) and se == 0.0

    def test_brownian_reflection_oracle(self):
        c = sde.build_coefficients("brownian", d=1)
        dt = 1e-3
        ens = sde.euler_maruyama(c, [0.0], 0.0, 1.0, dt, 20000, 77)
        m, se = sde.sup_moment(ens)

        def p_exit(a):
            k = np.arange(-30, 31)
            return 1.0 - float((((-1.0) ** k) * (ndtr((2 * k + 1) * a)
                                                 - ndtr((2 * k - 1) * a))).sum())

        agrid = np.linspace(1e-6, 12, 3001)
        pe = np.array([p_exit(x / math.sqrt(2)) for x in agrid])
        oracle = float(np.trapezoid(pe, agrid))
        # discrete monitoring can only undershoot the continuum supremum;
        # allowance 1.5 x 0.5826 sigma sqrt(dt) for the expected deficit
        allowance = 1.5 * 0.5826 * math.sqrt(2.0) * math.sqrt(dt)
        assert m <= oracle + 3 * se
        assert m >= oracle - allowance - 3 * se


def _one_shot_modulus(ens, deltas):
    """The whole-array modulus formula the blocked sweep must reproduce bitwise."""
    P = ens.paths[ens.alive()]
    lags = [int(round(delta / ens.dt)) for delta in deltas]
    best = np.zeros(P.shape[0])
    snapshots = {}
    j = 1
    for m in sorted(set(lags)):
        while j <= m:
            diff = P[:, j:, :] - P[:, :-j, :]
            np.maximum(best, np.sqrt((diff**2).sum(axis=2)).max(axis=1), out=best)
            j += 1
        snapshots[m] = np.sqrt(best)
    moments = np.array([snapshots[m].mean() for m in lags])
    errs = np.array([snapshots[m].std(ddof=1) / math.sqrt(snapshots[m].size) for m in lags])
    slope, intercept = np.polyfit(np.log(deltas), np.log(moments), 1)
    return moments, errs, slope, intercept


def _one_shot_sups(P):
    return np.sqrt((P**2).sum(axis=2)).max(axis=1)


def _one_shot_uniqueness_rows(coeffs, eps_list, x0, T, dt, n_paths, seed):
    """The perturbation table's rows from whole-array differences of the jointly live paths."""
    base = sde.euler_maruyama(coeffs, x0, 0.0, T, dt, n_paths, seed)
    rows = []
    for eps in eps_list:
        shifted = x0.copy()
        shifted[0] += eps
        pert = sde.euler_maruyama(coeffs, shifted, 0.0, T, dt, n_paths, seed)
        alive = base.alive() & pert.alive()
        diff = _one_shot_sups(base.paths[alive] - pert.paths[alive])
        rows.append({"eps": eps, "divergence": float(diff.mean()),
                     "stderr": float(diff.std(ddof=1) / math.sqrt(diff.size))})
    return rows


def _freezing_coeffs(d):
    def overflowing_drift(t, X):
        with np.errstate(over="ignore"):
            return np.where(X > 0.8, np.exp(800.0 * X), 0.0)

    return sde.SdeCoefficients(d, "custom", {}, b=overflowing_drift,
                               sigma_diag=lambda t, X: np.ones(X.shape[:-1] + (d,)))


def _freezing_ensemble(d, n_paths, seed):
    return sde.euler_maruyama(_freezing_coeffs(d), np.zeros(d), 0.0, 0.5, 1.0 / 256, n_paths,
                              seed)


@pytest.fixture(scope="module")
def blocked_ensembles():
    brownian = sde.euler_maruyama(sde.build_coefficients("brownian", d=1), [0.0], 0.0, 0.5,
                                  1.0 / 256, 211, 8)
    frozen = {d: _freezing_ensemble(d, n, 3) for d, n in [(1, 300), (3, 150)]}
    assert all(0 < ens.n_frozen < ens.n_paths for ens in frozen.values())
    return {"d1": brownian, "d1-frozen": frozen[1], "d3-frozen": frozen[3]}


class TestBlockedStatistics:
    """Blocked statistics equal the one-shot formulas bitwise, whatever the block size."""

    # 64 B holds less than one row: one path per block; 8 KiB splits 211 paths unevenly
    @pytest.fixture(params=[mn.BLOCK_BYTES, 8192, 64], ids=["default", "8KiB", "row"])
    def block_bytes(self, request, monkeypatch):
        monkeypatch.setattr(mn, "BLOCK_BYTES", request.param)
        return request.param

    @pytest.mark.parametrize("lags", [
        [1, 2, 4, 8, 16, 32],
        [32, 1, 8, 4, 2, 16],
        [4, 1, 32, 1, 4, 2],
        [3, 1, 7, 128, 7, 100],
    ], ids=["sorted", "unsorted", "repeated", "full-horizon"])
    @pytest.mark.parametrize("name", ["d1", "d1-frozen", "d3-frozen"])
    def test_modulus_matches_one_shot(self, blocked_ensembles, block_bytes, name, lags):
        ens = blocked_ensembles[name]
        deltas = np.array(lags) * ens.dt
        rep = sde.modulus_report(ens, deltas)
        moments, errs, slope, intercept = _one_shot_modulus(ens, deltas)
        assert np.array_equal(rep.moments, moments)
        assert np.array_equal(rep.stderrs, errs)
        assert (rep.slope, rep.intercept) == (slope, intercept)

    @pytest.mark.parametrize("name", ["d1", "d1-frozen", "d3-frozen"])
    def test_sup_moment_matches_one_shot(self, blocked_ensembles, block_bytes, name):
        ens = blocked_ensembles[name]
        sups = _one_shot_sups(ens.paths[ens.alive()])
        se = float(sups.std(ddof=1) / math.sqrt(sups.size))
        assert sde.sup_moment(ens) == (float(sups.mean()), se)

    def test_uniqueness_rows_match_one_shot(self, block_bytes):
        eps_list, x0 = [1e-1, 1e-3, 0.0], np.full(3, 0.5)
        kw = dict(family_tag="prop-6.1", d=3, alpha=0.3, beta=0.2, lam=1.0, n=INF)
        out = sde.uniqueness_perturbation_report(eps_list, x0, 0.1, 0.005, 97, 13, **kw)
        coeffs = sde.build_coefficients("prop-6.1", d=3, alpha=0.3, beta=0.2, lam=1.0, n=INF)
        assert out["rows"] == _one_shot_uniqueness_rows(coeffs, eps_list, x0, 0.1, 0.005, 97, 13)

    def test_uniqueness_rows_with_frozen_paths(self, block_bytes, monkeypatch):
        # no built-in family freezes, so both ensembles come from the overflowing drift
        assert 0 < _freezing_ensemble(3, 150, 3).n_frozen < 150
        monkeypatch.setattr(sde, "build_coefficients", lambda *a, **kw: _freezing_coeffs(3))
        eps_list, x0 = [1e-1, 1e-3, 0.0], np.zeros(3)
        out = sde.uniqueness_perturbation_report(eps_list, x0, 0.5, 1.0 / 256, 150, 3)
        assert out["rows"] == _one_shot_uniqueness_rows(_freezing_coeffs(3), eps_list, x0, 0.5,
                                                        1.0 / 256, 150, 3)

    def test_path_noise_is_one_fresh_stream_per_path(self):
        noise = np.empty((4, 30, 3))
        sde._path_noise(5, 17, noise)
        for i in range(4):
            gen = np.random.Generator(np.random.Philox(key=np.array([5, 17 + i],
                                                                     dtype=np.uint64)))
            assert np.array_equal(noise[i], gen.standard_normal((30, 3)))


# frozen rows: the first path, a run in the middle and the last; "mixed" gives each row
# its own bad value, from t = 0.3 on
FROZEN_ROWS = [0, 5, 6, 7, 39]
BAD_FILLS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "past-square-range": 1e200,
             "mixed": np.array([math.nan, math.inf, -math.inf, 1e200, -1e300])}


class TestNonFiniteFrozenRows:
    """Whatever a frozen path holds, the statistics equal those of the live paths alone."""

    @pytest.fixture(params=[mn.BLOCK_BYTES, 64], ids=["default", "row"])
    def block_bytes(self, request, monkeypatch):
        monkeypatch.setattr(mn, "BLOCK_BYTES", request.param)

    @staticmethod
    def _ensembles(d, fill, tmp_path, exported):
        ens = sde.euler_maruyama(sde.build_coefficients("brownian", d=d), np.zeros(d), 0.0, 0.64,
                                 0.01, 40, 9)
        live = sde.PathEnsemble(np.delete(ens.paths, FROZEN_ROWS, axis=0), ens.t0, ens.dt,
                                ens.seed, ens.family_tag, ens.params, np.zeros(35, dtype=bool))
        if isinstance(fill, np.ndarray):
            ens.paths[FROZEN_ROWS, 30:] = fill[:, None, None]
        else:
            ens.paths[FROZEN_ROWS] = fill
        ens.frozen[FROZEN_ROWS] = True
        if exported:
            sde.export_ensemble(ens, tmp_path / "ens")
            ens = sde.load_ensemble(tmp_path / "ens")
        return ens, live

    @pytest.mark.parametrize("exported", [False, True], ids=["direct", "exported"])
    @pytest.mark.parametrize("fill", BAD_FILLS.values(), ids=BAD_FILLS.keys())
    @pytest.mark.parametrize("d", [1, 3])
    def test_statistics_equal_the_live_paths_alone(self, block_bytes, d, fill, exported,
                                                   tmp_path):
        ens, live = self._ensembles(d, fill, tmp_path, exported)
        assert ens.n_frozen == len(FROZEN_ROWS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sup, rep = sde.sup_moment(ens), sde.modulus_report(ens, LAGS)
        assert sup == sde.sup_moment(live)
        want = sde.modulus_report(live, LAGS)
        assert np.array_equal(rep.moments, want.moments)
        assert np.array_equal(rep.stderrs, want.stderrs)
        assert (rep.slope, rep.intercept) == (want.slope, want.intercept)

    # the cell lookup clamps each quotient while it is a float: no cast of NaN, inf or a
    # value past the int range
    @pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf, 1e300, -1e300,
                                      np.array([math.nan, math.inf, -math.inf, 1e300, -1e300])],
                             ids=["nan", "inf", "-inf", "1e300", "-1e300", "mixed"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_krylov_equals_the_live_paths_alone(self, d, fill, tmp_path):
        ens, live = self._ensembles(d, fill, tmp_path, False)
        f = mn.from_callable(lambda t, X: 1.0 + t + (X**2).sum(axis=-1), (0.0, 0.64), 16,
                             [(-0.5, 0.5)] * d, (8,) * d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sde.krylov_functional(ens, f, 0.0, 0.64)
        assert got == sde.krylov_functional(live, f, 0.0, 0.64)


def _separate_noise_em(coeffs, x0, s, T, dt, n_paths, seed, chunk=20000):
    """Euler-Maruyama with each chunk's noise drawn into its own array first."""
    n_steps, d = int(round((T - s) / dt)), coeffs.d
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (d,))
    paths = np.empty((n_paths, n_steps + 1, d))
    frozen = np.zeros(n_paths, dtype=bool)
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        noise = np.stack([np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64))).standard_normal((n_steps, d))
            for i in range(lo, hi)])
        X = np.tile(x0, (hi - lo, 1))
        paths[lo:hi, 0] = X
        fz = np.zeros(hi - lo, dtype=bool)
        for k in range(n_steps):
            t = s + k * dt
            diff = coeffs.sigma_diag(t, X) * noise[:, k, :]
            step = math.sqrt(2.0 * dt) * diff
            if coeffs.b is not None:
                step = step + dt * coeffs.b(t, X)
            Xn = X + step
            newly = ~np.isfinite(Xn).all(axis=1) & ~fz
            if newly.any():
                Xn[newly] = X[newly]
                fz |= newly
            if fz.any():
                Xn[fz] = X[fz]
            X = Xn
            paths[lo:hi, k + 1] = X
        frozen[lo:hi] = fz
    return paths, frozen


class TestInPlaceStepping:
    """Noise drawn into the path array gives the paths of a separate noise array."""

    def test_freezing_ensemble(self):
        ens = _freezing_ensemble(3, 150, 3)
        assert 0 < ens.n_frozen < ens.n_paths
        paths, frozen = _separate_noise_em(_freezing_coeffs(3), np.zeros(3), 0.0, 0.5,
                                           1.0 / 256, 150, 3)
        assert np.array_equal(ens.paths, paths)
        assert np.array_equal(ens.frozen, frozen)

    def test_uneven_chunks(self):
        c = sde.build_coefficients("prop-6.1", d=3, alpha=0.3, beta=0.2, lam=1.0, n=4)
        ens = sde.euler_maruyama(c, [0.2, -0.1, 0.4], 0.0, 0.2, 0.01, 61, 17)
        paths, frozen = _separate_noise_em(c, [0.2, -0.1, 0.4], 0.0, 0.2, 0.01, 61, 17,
                                           chunk=16)
        assert np.array_equal(ens.paths, paths)
        assert np.array_equal(ens.frozen, frozen)


def _all_frozen():
    c = sde.build_coefficients("brownian", d=1)
    ens = sde.euler_maruyama(c, [0.0], 0.0, 0.64, 0.01, 6, 1)
    ens.frozen = np.ones(ens.n_paths, dtype=bool)
    return ens


def _no_paths(d):
    return sde.euler_maruyama(sde.build_coefficients("brownian", d=d), np.zeros(d), 0.0, 0.64,
                              0.01, 0, 1)


def _ball():
    return mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 10, [(-1, 1)], (4,))


def _past_square_range(d):
    """A live path whose last state is finite but squares past the float range.

    The overflowing drift of ``_freezing_coeffs`` leaves such a path when it
    jumps on the last step (to about 1e276) without turning non-finite.
    """
    ens = sde.euler_maruyama(sde.build_coefficients("brownian", d=d), np.zeros(d), 0.0, 0.64,
                             0.01, 6, 1)
    ens.paths[3, -1, 0] = 1e200
    return ens


def _uniqueness_past_square_range():
    # one step of the overflowing drift from 0.85 ends near 1e293, still finite and live
    with mock.patch.object(sde, "build_coefficients", lambda *a, **kw: _freezing_coeffs(1)):
        return sde.uniqueness_perturbation_report([1e-3, 0.0], [0.85], 0.01, 0.01, 6, 1)


LAGS = np.array([1, 2, 4, 8, 16, 32]) * 0.01


class TestDegenerateStatistics:
    """Degenerate inputs raise SdeParameterError, never a numpy error or NaN."""

    @pytest.mark.parametrize("stat", [
        lambda ens: sde.modulus_report(_all_frozen(), LAGS),
        lambda ens: sde.krylov_functional(_all_frozen(), _ball(), 0.0, 0.5),
        lambda ens: sde.sup_moment(_all_frozen()),
        lambda ens: sde.sup_moment(_no_paths(2)),
        lambda ens: sde.modulus_report(_no_paths(1), LAGS),
        lambda ens: sde.modulus_report(_no_paths(2), LAGS),
        lambda ens: sde.modulus_report(ens, LAGS[:-1].tolist() + [0.65]),
        lambda ens: sde.modulus_report(ens, [0.01, math.nan, 0.32]),
        lambda ens: sde.sup_moment(_past_square_range(2)),
        lambda ens: sde.modulus_report(_past_square_range(1), LAGS),
        lambda ens: sde.modulus_report(_past_square_range(2), LAGS),
        lambda ens: _uniqueness_past_square_range(),
    ], ids=["modulus-all-frozen", "krylov-all-frozen", "sup-all-frozen", "sup-no-paths",
            "modulus-d1-no-paths", "modulus-d2-no-paths",
            "lag-past-horizon", "modulus-delta-nan", "sup-past-square-range",
            "modulus-d1-past-square-range", "modulus-d2-past-square-range",
            "uniqueness-past-square-range"])
    def test_rejected(self, stat):
        ens = sde.euler_maruyama(sde.build_coefficients("brownian", d=1), [0.0], 0.0, 0.64,
                                 0.01, 6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(sde.SdeParameterError):
                stat(ens)


class TestCauchyAndUniqueness:
    def test_identical_laws_zero_distance(self):
        rep = sde.approximation_cauchy_report("brownian", [1, 2, 4], np.zeros(2), 0.2,
                                              0.01, 300, 5, d=2)
        assert rep.distances == [0.0, 0.0]

    def test_noise_floor_shrinks_with_path_count(self):
        rng = np.random.default_rng(6)
        a1 = rng.standard_normal((400, 1))
        b1 = rng.standard_normal((400, 1))
        a2 = rng.standard_normal((1600, 1))
        b2 = rng.standard_normal((1600, 1))
        w_small = sde.sliced_wasserstein1(a1, b1)
        w_big = sde.sliced_wasserstein1(a2, b2)
        assert w_big < w_small  # ~ sqrt(2) shrink at 4x the sample count

    def test_singular_family_decreasing_trend(self):
        rep = sde.approximation_cauchy_report("example-6.1", [1, 2, 4, 8], [1.0, 0, 0],
                                              0.25, 0.005, 4000, 21, d=3, R=1.5,
                                              alpha=0.25)
        assert rep.spearman <= 0.0

    def test_uniqueness_zero_perturbation_exact(self):
        out = sde.uniqueness_perturbation_report([0.1, 0.0], np.zeros(3), 0.2, 0.01,
                                                 100, 4, family_tag="brownian", d=3)
        d0 = [r for r in out["rows"] if r["eps"] == 0.0][0]
        assert d0["divergence"] == 0.0

    def test_brownian_divergence_equals_eps(self):
        out = sde.uniqueness_perturbation_report([0.5, 0.01], np.zeros(2), 0.2, 0.01,
                                                 200, 4, family_tag="brownian", d=2)
        for row in out["rows"]:
            assert row["divergence"] == pytest.approx(row["eps"], rel=1e-12)

    def test_prop61_decreasing_table(self):
        out = sde.uniqueness_perturbation_report(
            [1e-1, 1e-2, 1e-3, 1e-4], np.full(3, 0.5), 0.2, 0.005, 2000, 13,
            family_tag="prop-6.1", d=3, alpha=0.3, beta=0.2, lam=1.0, n=INF)
        divs = [r["divergence"] for r in out["rows"]]
        assert all(a > b for a, b in zip(divs, divs[1:]))
        assert out["spearman_eps_vs_divergence"] >= 0.99


class TestSpearman:
    """``_spearman`` equals ``scipy.stats.spearmanr`` bit for bit."""

    @staticmethod
    def _cases(n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            yield x, y
            yield rng.integers(0, 3, n).astype(float), y  # ties in x
            yield x, np.round(y, 0)  # ties in y
            yield rng.integers(0, 3, n), rng.integers(0, 3, n) * 0.1  # ties in both

    @pytest.mark.parametrize("n", range(2, 12))
    def test_equals_scipy(self, n):
        from scipy import stats

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on the constant draws
            for x, y in self._cases(n, n):
                want = float(stats.spearmanr(x, y).statistic)
                got = sde._spearman(x, y)
                assert got == want or (math.isnan(got) and math.isnan(want)), (x, y)

    @pytest.mark.parametrize("x,y", [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                     ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]),
                                     ([1.0], [2.0]), ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])])
    def test_undefined_is_nan(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(sde._spearman(x, y))


class TestEnsembleExport:
    def test_roundtrip(self, tmp_path):
        c = sde.build_coefficients("example-6.2", R=1.0, alpha=0.2, n=4)
        ens = sde.euler_maruyama(c, [0.3, -0.2], 0.0, 0.1, 0.01, 50, 19)
        sde.export_ensemble(ens, tmp_path / "ens")
        back = sde.load_ensemble(tmp_path / "ens")
        assert np.array_equal(back.paths, ens.paths)
        assert back.family_tag == "example-6.2"
        assert back.seed == 19

        def overflowing_drift(t, X):
            with np.errstate(over="ignore"):
                return np.where(X > 0.8, np.exp(800.0 * X), 0.0)

        c = sde.SdeCoefficients(1, "custom", {}, b=overflowing_drift,
                                sigma_diag=lambda t, X: np.ones(X.shape[:-1] + (1,)))
        ens = sde.euler_maruyama(c, [0.0], 0.0, 1.0, 0.01, 200, 3)
        assert ens.n_frozen > 0
        sde.export_ensemble(ens, tmp_path / "frozen")
        back = sde.load_ensemble(tmp_path / "frozen")
        assert np.array_equal(back.frozen, ens.frozen)
        assert back.n_frozen == ens.n_frozen
        assert sde.sup_moment(back) == sde.sup_moment(ens)

    def test_export_format_golden(self, tmp_path):
        # the header text and the .bin bytes of one tiny ensemble, pinned; grids are
        # written by the same writer (tests/test_mixed_norms.py pins one too)
        ens = sde.euler_maruyama(sde.build_coefficients("brownian", d=2), [0.0, 0.0],
                                 0.0, 0.02, 0.01, 3, 7)
        jpath, bpath = sde.export_ensemble(ens, tmp_path / "ens")
        assert (jpath, bpath) == (tmp_path / "ens.json", tmp_path / "ens.bin")
        assert jpath.read_text() == (
            '{\n "T": 0.02,\n "d": 2,\n "dt": 0.01,\n "family_tag": "brownian",\n'
            ' "frozen": [],\n "n_frozen": 0,\n "n_paths": 3,\n "n_steps": 2,\n'
            ' "params": {\n  "R": 1.0,\n  "alpha": 0.0,\n  "beta": 0.0,\n  "lambda": 0.0,\n'
            '  "n": null\n },\n "scheme_tag": "euler-maruyama",\n "seed": 7,\n "t0": 0.0\n}\n')
        assert hashlib.sha256(bpath.read_bytes()).hexdigest() == (
            "c5e02bb7b044e2c3d3f8ef018e245d3eba98f2c2861ed336bb79d24549722da4")

    def test_unknown_scheme_tag_rejected(self, tmp_path):
        c = sde.build_coefficients("brownian", d=1)
        ens = sde.euler_maruyama(c, [0.0], 0.0, 0.1, 0.01, 5, 2)
        jpath, _ = sde.export_ensemble(ens, tmp_path / "ens")
        header = json.loads(jpath.read_text())
        assert header["scheme_tag"] == "euler-maruyama"
        header["scheme_tag"] = "milstein"
        jpath.write_text(json.dumps(header))
        with pytest.raises(sde.SdeParameterError, match="scheme_tag"):
            sde.load_ensemble(tmp_path / "ens")

    def test_header_without_frozen_list(self, tmp_path):
        # headers written before the frozen list load only if nothing froze
        c = sde.build_coefficients("example-6.2", R=1.0, alpha=0.2, n=4)
        ens = sde.euler_maruyama(c, [0.3, -0.2], 0.0, 0.1, 0.01, 20, 5)
        jpath, _ = sde.export_ensemble(ens, tmp_path / "ens")
        header = json.loads(jpath.read_text())
        del header["frozen"]
        jpath.write_text(json.dumps(header))
        assert sde.load_ensemble(tmp_path / "ens").n_frozen == 0
        header["n_frozen"] = 3
        jpath.write_text(json.dumps(header))
        with pytest.raises(sde.SdeParameterError):
            sde.load_ensemble(tmp_path / "ens")

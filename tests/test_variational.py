import math
import warnings

import numpy as np
import pytest

from parabolab import mixed_norms as mn
from parabolab import variational as vr
from parabolab.variational import CutoffProfile, VariationalProblem


def const_problem(alpha=2.0, p=1.0, beta=1.0, tau=0.0, delta=1.0, c=1.0):
    return vr.problem_from_callables(tau, delta, [alpha], [p], [beta],
                                     [lambda s: c * np.ones_like(s)])


class TestCutoffProfile:
    def test_invariants_enforced(self):
        with pytest.raises(vr.FeasibilityError):
            CutoffProfile(0.0, 1.0, np.array([1.0, 0.5, 0.7, 0.0]))  # not monotone
        with pytest.raises(vr.FeasibilityError):
            CutoffProfile(0.0, 1.0, np.array([0.9, 0.5, 0.0]))  # wrong left end
        CutoffProfile(0.0, 1.0, np.array([1.0, 0.4, 0.0]))

    def test_resample_stays_feasible(self):
        prof = CutoffProfile(0.0, 1.0, np.array([1.0, 0.9, 0.2, 0.0]))
        fine = prof.resampled(33)
        assert fine.values[0] == 1.0 and fine.values[-1] == 0.0
        assert np.all(np.diff(fine.values) <= 1e-12)


class TestFunctionalValue:
    def test_total_variation_identity(self):
        prob = const_problem(alpha=1.0)
        for prof in vr.random_feasible_profiles(0.0, 1.0, 21, 5, 3):
            assert vr.functional_value(prob, prof) == pytest.approx(1.0)

    def test_linear_profile_quadratic_cost(self):
        h = 0.25
        prob = const_problem(alpha=2.0, tau=0.0, delta=h)
        assert vr.functional_value(prob, vr.linear_profile(0.0, h)) == pytest.approx(1 / h)

    def test_zero_density(self):
        prob = vr.problem_from_callables(0.0, 1.0, [2.0], [1.0], [1.0], [np.zeros_like])
        assert vr.functional_value(prob, vr.linear_profile(0.0, 1.0)) == 0.0

    def test_interval_mismatch_rejected(self):
        prob = const_problem()
        with pytest.raises(vr.FeasibilityError):
            vr.functional_value(prob, vr.linear_profile(0.0, 0.5))


class TestExplicitCutoff:
    def test_constant_density_gives_linear(self):
        prof = vr.explicit_cutoff(const_problem(c=3.7))
        assert np.allclose(prof.values, np.linspace(1, 0, prof.values.size), atol=1e-12)

    def test_all_zero_density_gives_linear(self):
        prob = vr.problem_from_callables(0.0, 1.0, [2.0], [1.0], [1.0], [np.zeros_like])
        prof = vr.explicit_cutoff(prob)
        assert np.allclose(prof.values, np.linspace(1, 0, prof.values.size))

    def test_step_density_slope_ratio(self):
        # theta = 1: slopes proportional to 1/g; eps = 1/2 here, so the flat
        # half is 3x steeper than the loaded half
        prob = vr.problem_from_callables(0.0, 1.0, [1.0], [1.0], [1.0],
                                         [lambda s: np.where(s < 0.5, 0.0, 1.0)])
        prof = vr.explicit_cutoff(prob, n_knots=129)
        sl = prof.slopes()
        left, right = sl[:20].mean(), sl[-20:].mean()
        assert left / right == pytest.approx(3.0, rel=1e-6)
        assert left < right < 0  # steeper where the density is small

    def test_feasibility_closure(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            samples = rng.uniform(0, 3, (n, 33))
            prob = VariationalProblem(0.0, float(rng.uniform(0.3, 1.0)),
                                      rng.uniform(1, 4, n), rng.uniform(1, 4, n),
                                      rng.uniform(0.3, 2, n), samples)
            prof = vr.explicit_cutoff(prob)
            assert prof.values[0] == 1.0 and prof.values[-1] == 0.0
            assert np.all(np.diff(prof.values) <= 1e-12)


class TestBruteForce:
    def test_total_variation_floor(self):
        value, _ = vr.brute_force_infimum(const_problem(alpha=1.0), 33)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_cauchy_schwarz_case(self):
        # int |l'|^2 >= (int |l'|)^2 = 1 with equality at the linear profile
        value, prof = vr.brute_force_infimum(const_problem(alpha=2.0))
        assert value == pytest.approx(1.0, rel=5e-3)

    def test_never_worse_than_explicit(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            samples = rng.uniform(0, 2, (n, 33))
            prob = VariationalProblem(0.0, float(rng.uniform(0.25, 1.0)),
                                      rng.uniform(1, 3, n), rng.uniform(1, 3, n),
                                      rng.uniform(0.5, 2, n), samples)
            value, _ = vr.brute_force_infimum(prob, 33)
            explicit = vr.functional_value(prob, vr.explicit_cutoff(prob).resampled(33))
            assert value <= explicit + 1e-9 * (1 + abs(explicit))

    def test_oracle_dominance_over_feasible_suite(self, rng):
        prob = VariationalProblem(0.0, 0.8, [2.0, 1.3], [1.0, 2.0], [1.0, 1.0],
                                  rng.uniform(0.1, 2, (2, 33)))
        value, _ = vr.brute_force_infimum(prob, 33)
        for prof in vr.random_feasible_profiles(0.0, 0.8, 33, 100, 5):
            assert value <= vr.functional_value(prob, prof) + 1e-9

    def test_knot_cap(self):
        for knot_count in (500, 1, 0):
            with pytest.raises(vr.FeasibilityError):
                vr.brute_force_infimum(const_problem(), knot_count=knot_count)


def _random_problem(rng, convex=False):
    n = int(rng.integers(1, 4))
    ps = rng.uniform(1, 2, n)
    alphas = ps + rng.uniform(0, 1.5, n) if convex else rng.uniform(1, 3, n)
    return VariationalProblem(0.0, float(rng.uniform(0.25, 1.0)), alphas, ps,
                              rng.uniform(0.5, 2, n), rng.uniform(0, 2, (n, 33)))


class TestOracle:
    def test_convex_instances_bounded_from_both_sides(self):
        # alpha_i >= p_i makes F convex, so lower = value - fw_gap bounds the
        # discrete infimum from below: below the explicit value and every feasible one
        rng = np.random.default_rng(606)
        suite = vr.random_feasible_profiles(0.0, 1.0, 33, 100, 7)
        for _ in range(8):
            prob = _random_problem(rng, convex=True)
            r = vr.oracle_infimum(prob, 33)
            assert r.converged and r.fw_gap <= vr.GAP_TOL * r.value
            assert r.lower == r.value - r.fw_gap and r.lower <= r.value
            assert r.lower <= vr.functional_value(prob, vr.explicit_cutoff(prob).resampled(33))
            for prof in suite:
                moved = CutoffProfile(prob.tau, prob.delta, prof.values)
                assert r.lower <= vr.functional_value(prob, moved)

    def test_no_lower_bound_without_convexity(self):
        rng = np.random.default_rng(608)
        probs = [_random_problem(rng) for _ in range(8)]
        nonconvex = [prob for prob in probs if np.any(prob.alphas < prob.ps)]
        assert nonconvex
        for prob in nonconvex:
            assert vr.oracle_infimum(prob, 25).lower is None

    def test_linear_case_takes_a_vertex(self):
        # alpha = p = 1: F is linear in the interval drops, so the infimum puts
        # the whole drop on the interval of least density
        prob = vr.problem_from_callables(0.0, 1.0, [1.0], [1.0], [1.0],
                                         [lambda s: 1.5 + np.sin(7 * s) * np.cos(3 * s)])
        r = vr.oracle_infimum(prob, 33)
        knots = np.linspace(0.0, 1.0, 33)
        least = prob.f_at(0, 0.5 * (knots[:-1] + knots[1:])).min()
        assert r.value == pytest.approx(least, rel=1e-12)
        assert np.count_nonzero(np.diff(r.profile.values)) == 1

    def test_one_component_closed_form(self):
        # one component: F is minimized at x_k proportional to w_k^(-1/(alpha-1)),
        # which at alpha near 1 leaves every drop but the last far below round-off of 1
        alpha, p, knot_count = 1.016, 1.071, 33
        prob = vr.problem_from_callables(0.0, 1.0, [alpha], [p], [1.0], [lambda s: 2.0 - s])
        knots = np.linspace(0.0, 1.0, knot_count)
        h = knots[1] - knots[0]
        log_w = np.log(prob.f_at(0, 0.5 * (knots[:-1] + knots[1:])) ** p * h)

        def log_sum_exp(v):
            return v.max() + np.log(np.exp(v - v.max()).sum())

        log_x = -log_w / (alpha - 1.0)
        log_x -= log_sum_exp(log_x)
        want = np.exp(log_sum_exp(log_w + alpha * (log_x - np.log(h))) / p)
        r = vr.oracle_infimum(prob, knot_count)
        assert r.value == pytest.approx(want, rel=1e-12)
        assert r.converged and r.fw_gap <= vr.GAP_TOL * r.value

    def test_zero_density_component_is_finite(self):
        samples = np.stack([np.zeros(33), np.linspace(0.5, 2.0, 33)])
        prob = VariationalProblem(0.0, 0.5, [2.0, 1.5], [1.5, 1.2], [1.0, 1.0], samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = vr.oracle_infimum(prob, 33)
        assert math.isfinite(r.value) and r.value > 0 and math.isfinite(r.fw_gap)

    def test_iteration_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(vr, "MAX_ITERATIONS", 1)
        prob = VariationalProblem(0.0, 0.8, [2.0, 1.3], [1.0, 2.0], [1.0, 1.0],
                                  np.random.default_rng(5).uniform(0.1, 2, (2, 33)))
        r = vr.oracle_infimum(prob, 33)
        assert r.iterations == 1
        assert not r.converged and r.fw_gap > vr.GAP_TOL * r.value

    def test_wrapper_returns_value_and_profile(self):
        prob = _random_problem(np.random.default_rng(607))
        r = vr.oracle_infimum(prob, 25)
        value, profile = vr.brute_force_infimum(prob, 25)
        assert value == r.value and np.array_equal(profile.values, r.profile.values)


def _calibration_style(n):
    """Eight problems of one n-component signature, drawn as calibrate_sa3_constant draws them."""
    sig = np.random.default_rng(n)
    alphas, ps, betas = sig.uniform(1, 3, n), sig.uniform(1, 3, n), sig.uniform(0.5, 2, n)
    rng = np.random.default_rng(vr.SA3_SEED)
    probs = []
    for gap in (1.0, 0.25):
        for _ in range(4):
            base = rng.uniform(0.0, 2.0, size=(n, 5))
            samples = np.stack([np.interp(np.linspace(0, 1, 33), np.linspace(0, 1, 5), b)
                                for b in base])
            probs.append(VariationalProblem(0.0, gap, alphas, ps, betas, samples))
    return probs


def _bits(r):
    lower = None if r.lower is None else r.lower.hex()
    return (r.value.hex(), r.fw_gap.hex(), r.profile.values.tobytes(), r.iterations,
            r.converged, lower)


class TestBatchedOracle:
    # None of criterion 03's seed-303 instances takes the explicit-profile
    # fallback at the default cap; under a cap of one step some problems do
    @pytest.mark.parametrize("cap", [None, 70, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_problem_bitwise_as_alone(self, monkeypatch, n, cap):
        if cap is not None:
            monkeypatch.setattr(vr, "MAX_ITERATIONS", cap)
        probs = _calibration_style(n)
        batch = vr._oracle(probs, vr.SA3_KNOTS)
        assert len(batch) == len(probs)
        for prob, r in zip(probs, batch):
            assert _bits(r) == _bits(vr.oracle_infimum(prob, vr.SA3_KNOTS))
        if cap == 70:  # some problems stop on their gap, the others at the cap
            assert len({r.iterations for r in batch}) > 1
            assert max(r.iterations for r in batch) == cap

    def test_explicit_fallback_inside_a_batch(self, monkeypatch):
        monkeypatch.setattr(vr, "MAX_ITERATIONS", 1)
        probs = _calibration_style(3)
        batch = vr._oracle(probs, vr.SA3_KNOTS)
        explicit = vr.explicit_cutoff(probs[4]).resampled(vr.SA3_KNOTS)
        assert np.array_equal(batch[4].profile.values, explicit.values)
        assert _bits(batch[4]) == _bits(vr.oracle_infimum(probs[4], vr.SA3_KNOTS))

    def test_mixed_signatures_rejected(self):
        one, other = _calibration_style(2)[0], _calibration_style(2)[1]
        shifted = VariationalProblem(other.tau, other.delta, other.alphas + 0.5, other.ps,
                                     other.betas, other.f_samples)
        with pytest.raises(vr.FeasibilityError):
            vr._oracle([one, shifted], 25)
        with pytest.raises(vr.FeasibilityError):
            vr._oracle([one, _calibration_style(1)[0]], 25)
        with pytest.raises(vr.FeasibilityError):
            vr._oracle([], 25)

    def test_one_batch_per_calibration(self, monkeypatch):
        calls = {"_oracle": 0, "oracle_infimum": 0, "brute_force_infimum": 0}

        def counting(name):
            fn = getattr(vr, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(vr, name, counting(name))
        first = vr.calibrate_sa3_constant([2.0, 1.2], [1.5, 1.0], [1.0, 0.7])
        assert calls == {"_oracle": 1, "oracle_infimum": 0, "brute_force_infimum": 0}
        # nothing is cached: a repeat solves the batch again, to the same constant
        assert vr.calibrate_sa3_constant([2.0, 1.2], [1.5, 1.0], [1.0, 0.7]) == first
        assert calls["_oracle"] == 2


class TestPinnedValues:
    # Taken before the calibration and the gap sweep ran batched, with numpy
    # 2.4.6 on OpenBLAS 0.3.31 (Haswell kernels).  raw_max goes through BLAS
    # matvecs whose summation order another BLAS build may change, so it is
    # compared to a few ulps; the slope is exactly -2.
    def test_calibration_raw_max(self):
        for sig, pinned in [((1, 1, 1), "0x1.63e30187185d0p-1"),
                            ((2, 1.5, 1), "0x1.e6ca3a93d703bp-1")]:
            raw_max = vr.calibrate_sa3_constant(*sig)["raw_max"]
            assert math.isclose(raw_max, float.fromhex(pinned), rel_tol=1e-15), sig

    def test_criterion_03_sweep_slope(self):
        sweep = vr.sa3_gap_sweep([2.0], [1.0], [1.0], [np.ones_like], [1.0, 0.5, 0.25, 0.125])
        assert sweep["slope"].hex() == "-0x1.0000000000000p+1"


class TestSa3Bound:
    def test_exponent_formula_and_symmetry(self, rng):
        assert vr.sa3_exponent([1, 2], [1, 2], [1, 1]) == pytest.approx(1.5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a, p, b = rng.uniform(1, 4, n), rng.uniform(1, 4, n), rng.uniform(0.2, 3, n)
            perm = rng.permutation(n)
            assert vr.sa3_exponent(a, p, b) == pytest.approx(
                vr.sa3_exponent(a[perm], p[perm], b[perm]))

    def test_unit_case_constant_at_least_one(self):
        # alpha=p=beta=1, f=1: exponent 1, lhs = rhs_value = 1
        prob = const_problem(alpha=1.0)
        lhs, expo, rhs, c_fit = vr.sa3_bound_report(prob)
        assert expo == pytest.approx(1.0)
        assert lhs == pytest.approx(1.0, rel=1e-6)
        assert rhs == pytest.approx(1.0, rel=1e-6)
        assert c_fit >= 1.0
        assert lhs <= c_fit * rhs

    def test_gap_sweep_slopes(self):
        gaps = [1.0, 0.5, 0.25, 0.125]
        sweep = vr.sa3_gap_sweep([2.0], [1.0], [1.0], [np.ones_like], gaps)
        # lhs = 1/h and rhs_value ~ 1/h: both raw log-log slopes are -1,
        # the normalized slope equals the predicted exponent power
        lhs_slope = np.polyfit(np.log(gaps), np.log(sweep["lhs"]), 1)[0]
        rhs_vals = [g ** (-2.0) * d for g, d in zip(gaps, sweep["data"])]
        rhs_slope = np.polyfit(np.log(gaps), np.log(rhs_vals), 1)[0]
        assert lhs_slope == pytest.approx(-1.0, abs=0.02)
        assert rhs_slope == pytest.approx(-1.0, abs=0.02)
        assert sweep["slope"] == pytest.approx(sweep["predicted"], abs=0.1)

    def test_cubic_case_slope(self):
        sweep = vr.sa3_gap_sweep([3.0], [1.0], [1.0], [np.ones_like],
                                 [1.0, 0.5, 0.25, 0.125])
        assert sweep["predicted"] == pytest.approx(-3.0)
        assert sweep["slope"] == pytest.approx(-3.0, abs=0.1)

    def test_random_instances_bounded(self, rng):
        for _ in range(5):
            samples = rng.uniform(0.0, 2.0, (1, 33))
            prob = VariationalProblem(0.0, 0.5, [2.0], [1.5], [1.0], samples)
            lhs, _, rhs, c_fit = vr.sa3_bound_report(prob)
            assert lhs <= c_fit * rhs


def step1_bound(prob: VariationalProblem, beta: float) -> float:
    """Closed-form upper bound for the common-density form of the functional.

    Valid for problems with p_i = 1 and all components sharing one density f:
    ``sum_i 2^(theta alpha_i / beta) gap^(1 - alpha_i - 1/beta) (int f^beta)^(1/beta)``.
    """
    assert np.all(prob.ps == 1.0), "the closed-form bound applies to the p_i = 1 form"
    f = prob.f_samples[0]
    assert np.allclose(prob.f_samples, f[None]), "the closed-form bound needs a common density"
    integral = np.trapezoid(f**beta, prob.sample_grid()) ** (1.0 / beta)
    return float(sum(2 ** (prob.theta * a / beta) * prob.gap ** (1.0 - a - 1.0 / beta)
                     for a in prob.alphas) * integral)


class TestStep1Bound:
    def test_explicit_below_closed_form(self, rng):
        # common density, p_i = 1: the explicit profile obeys the closed-form bound
        for _ in range(10):
            ctrl = rng.uniform(0.0, 2.0, 6)
            fn = lambda s: np.interp(s, np.linspace(0, 1, 6), ctrl)
            alphas = sorted(rng.uniform(1.0, 3.0, 2))
            prob = vr.problem_from_callables(0.0, 1.0, alphas, [1.0, 1.0], [0.5, 0.5],
                                             [fn, fn])
            beta = 0.5
            val = vr.functional_value(prob, vr.explicit_cutoff(prob))
            assert val <= step1_bound(prob, beta) * (1 + 1e-9)


class TestRadialEmbedding:
    def test_zero_field(self):
        w = mn.from_callable(lambda t, X: np.zeros(X.shape[:-1]), (0, 1), 4,
                             [(-2.2, 2.2)] * 2, (32, 32))
        assert vr.radial_embedding_infimum(w, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2.0) == (0.0, 0.0)

    def test_unit_field_annulus_gradient_mass(self):
        w = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 8,
                             [(-2.2, 2.2)] * 2, (88, 88))
        J, rhs = vr.radial_embedding_infimum(w, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2.0)
        # inf of int |grad eta| over the annulus concentrates at the inner radius
        assert J == pytest.approx(2 * math.pi, rel=0.02)
        assert rhs > 0

    def test_radial_field_matches_1d_reduction(self):
        w = mn.from_callable(lambda t, X: np.exp(-(X**2).sum(axis=-1)), (0, 1), 8,
                             [(-2.2, 2.2)] * 2, (160, 160))
        J, _ = vr.radial_embedding_infimum(w, 1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 2.0)
        s = np.linspace(1.0, 2.0, 4001)
        G = 2 * math.pi * s * np.exp(-2 * s**2)
        oracle = (1.0 / np.trapezoid(1.0 / G, s)) ** 0.5
        assert J == pytest.approx(oracle, rel=0.02)

    def test_homogeneity_exact(self):
        w = mn.from_callable(lambda t, X: np.exp(-(X**2).sum(axis=-1)), (0, 1), 6,
                             [(-2.2, 2.2)] * 2, (64, 64))
        J1, r1 = vr.radial_embedding_infimum(w, 1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 2.0)
        J3, r3 = vr.radial_embedding_infimum(w.scaled(3.0), 1.0, 2.0, 1.0, 1.0, 0.5,
                                             1.0, 2.0)
        assert J3 == pytest.approx(3 * J1, rel=1e-9)
        assert r3 == pytest.approx(3 * r1, rel=1e-12)

    def test_exponent_relation_enforced(self):
        w = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 4,
                             [(-2.2, 2.2)] * 2, (32, 32))
        with pytest.raises(vr.FeasibilityError):
            vr.radial_embedding_infimum(w, 1.0, 2.0, 1.0, 1.5, 0.5, 1.0, 2.0)


class TestIterationLemma:
    def test_zero_function(self):
        taus = np.linspace(1, 2, 11)
        assert vr.iteration_lemma_check(taus, np.zeros(11), 1.0, 0.5, 2.0, 3.0)

    def test_constant_case_needs_c_at_least_two(self):
        taus = np.linspace(1, 2, 11)
        c = 5.0
        # hypothesis holds with equality at theta=1/2, B=c/2; C >= 2 suffices
        assert vr.iteration_lemma_constant(0.0, 0.5) >= 2.0
        assert vr.iteration_lemma_check(taus, c * np.ones(11), 0.0, 0.5, 0.0, c / 2)

    def test_synthetic_power_profile(self):
        taus = np.linspace(1.0, 1.9, 19)
        A, alpha = 2.0, 1.0
        h = (2.0 - taus) ** (-alpha) * A
        assert vr.iteration_lemma_check(taus, h, alpha, 0.5, A, 0.0)

    def test_hypothesis_failure_signalled(self):
        taus = np.linspace(1, 2, 5)
        h = np.array([100.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(vr.IterationHypothesisError):
            vr.iteration_lemma_check(taus, h, 1.0, 0.5, 0.001, 0.0)

    def test_constant_formula_recorded(self):
        lam = (2 * 0.5 / 1.5) ** (1.0 / 2.0)
        want = 2.0 * (1 - lam) ** (-2.0) / 0.5
        assert vr.iteration_lemma_constant(2.0, 0.5) == pytest.approx(want)


def test_profile_csv_export(tmp_path):
    prof = vr.linear_profile(0.0, 1.0, 5)
    path = tmp_path / "profile.csv"
    vr.profile_to_csv(prof, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "knot,value"
    assert len(rows) == 6

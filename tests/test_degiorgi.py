import math

import numpy as np
import pytest

from parabolab import degiorgi as dg
from parabolab import mixed_norms as mn
from parabolab import pde_solver as pde
from parabolab.embeddings import ExponentConfig, PreconditionError
from parabolab.mixed_norms import INF, Cylinder, GridFunction, MixedNormSpec


class TestSchedule:
    def test_first_terms(self):
        sched = dg.LevelSchedule(kappa=2.0, tau=1.0, sigma=2.0)
        assert dg.schedule(sched, 1) == pytest.approx((0.0, 2.0, 1.75))
        assert dg.schedule(sched, 2)[0] == pytest.approx(1.0)  # kappa/2

    def test_limits(self):
        sched = dg.LevelSchedule(kappa=3.0, tau=1.2, sigma=1.9)
        k, t, _ = dg.schedule(sched, 30)
        assert abs(k - 3.0) < 1e-8 * 3.0
        assert abs(t - 1.2) < 1e-8

    def test_strict_interleaving(self):
        sched = dg.LevelSchedule(kappa=1.0, tau=1.0, sigma=1.5)
        prev_k = -1.0
        for n in range(1, 45):
            k_n, tau_n, tau_tilde = dg.schedule(sched, n)
            _, tau_next, _ = dg.schedule(sched, n + 1)
            assert k_n > prev_k
            assert tau_next < tau_tilde < tau_n
            prev_k = k_n

    def test_index_validated(self):
        sched = dg.LevelSchedule(kappa=1.0, tau=1.0, sigma=2.0)
        with pytest.raises(ValueError):
            dg.schedule(sched, 0)


class TestLevelTruncate:
    def test_zero_level_is_positive_part(self, rng):
        u = GridFunction(0.0, 0.1, (0.0,), (0.1,), rng.standard_normal((8, 8)))
        w = dg.level_truncate(u, 0.0)
        assert np.array_equal(w.values, np.maximum(u.values, 0.0))

    def test_level_above_max_gives_zero(self, rng):
        u = GridFunction(0.0, 0.1, (0.0,), (0.1,), rng.standard_normal((8, 8)))
        assert dg.level_truncate(u, float(u.values.max()) + 1.0).values.max() == 0.0

    def test_ramp_mass(self):
        u = mn.from_callable(lambda t, X: X[..., 0] * np.ones_like(t), (0, 1), 4,
                             [(0, 1)], (64,))
        w = dg.level_truncate(u, 0.5)
        assert w.values[0].sum() * u.dx[0] == pytest.approx(0.125)

    def test_pointwise_monotone_in_level(self, rng):
        u = GridFunction(0.0, 0.1, (0.0,), (0.1,), 2 * rng.standard_normal((8, 8)))
        w_lo = dg.level_truncate(u, 0.2)
        w_hi = dg.level_truncate(u, 0.7)
        assert np.all(w_hi.values <= w_lo.values)

    def test_gradient_domination_interior(self, rng):
        u = GridFunction(0.0, 0.1, (0.0,), (0.05,), 2 * rng.standard_normal((6, 40)))
        g_lo = mn.spatial_gradient(dg.level_truncate(u, 0.1))[0][:, 1:-1]
        g_hi = mn.spatial_gradient(dg.level_truncate(u, 0.5))[0][:, 1:-1]
        assert np.all(np.abs(g_hi) <= np.abs(g_lo) + 1e-13)


class TestLevelEnergy:
    def test_below_level_vanishes(self):
        u = mn.from_callable(lambda t, X: 0.5 * np.ones(X.shape[:-1]), (-1, 1), 8,
                             [(-1, 1)], (16,))
        cyl = Cylinder(0.8, (0.0, (0.0,)))
        assert dg.level_energy(u, 1.0, cyl, 2.0, 2.0) == 0.0

    def test_indicator_window_measure(self):
        # u = kappa + 1 on the whole grid: energy is the window measure to
        # the (1/s, 1/r) powers
        u = mn.from_callable(lambda t, X: 2.0 * np.ones(X.shape[:-1]), (-1, 1), 16,
                             [(-1, 1)], (16,))
        cyl = Cylinder(math.sqrt(0.5), (0.0, (0.0,)))
        val = dg.level_energy(u, 1.0, cyl, 1.0, 1.0)
        # time centers +-0.0625 .. +-0.4375 lie within r^2 = 0.5 of s = 0 (8 cells),
        # space centers +-0.0625 .. +-0.6875 within r = 0.707 of z = 0 (12 cells)
        measure = 8 * u.dt * 12 * u.cell_volume
        assert val == pytest.approx(measure)

    def test_shrinking_cylinders_monotone(self, rng):
        u = GridFunction(-1.0, 0.125, (-1.0,), (0.125,),
                         rng.standard_normal((16, 16)) + 0.5)
        vals = [dg.level_energy(u, 0.2, Cylinder(r, (0.0, (0.0,))), 2.0, 2.0)
                for r in (0.9, 0.7, 0.5)]
        assert vals[0] >= vals[1] >= vals[2]


class TestLk1:
    def test_all_below_upper_level(self):
        u = mn.from_callable(lambda t, X: 0.8 * np.ones(X.shape[:-1]), (-1, 1), 8,
                             [(-1, 1)], (8,))
        lhs, _ = dg.lk1_check(u, 0.5, 1.0, Cylinder(0.8, (0.0, (0.0,))), 2.0, 2.0)
        assert lhs == 0.0

    def test_constant_excess_closed_form(self):
        eps = 0.25
        u = mn.from_callable(lambda t, X: (1.0 + eps) * np.ones(X.shape[:-1]), (-1, 1),
                             8, [(-1, 1)], (8,))
        cyl = Cylinder(0.8, (0.0, (0.0,)))
        lhs, rhs = dg.lk1_check(u, 0.5, 1.0, cyl, 2.0, 2.0)
        # w0 = 1/2 + eps everywhere on the support: rhs = (0.5+eps)/0.5 * lhs
        assert rhs == pytest.approx((0.5 + eps) / 0.5 * lhs)
        assert lhs <= rhs

    def test_random_fields_exact(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 3))
            nt, nxs = 8, (10,) * d
            u = GridFunction(-1.0, 0.25, (-1.0,) * d, (0.2,) * d,
                             2.0 * rng.standard_normal((nt,) + nxs))
            cyl = Cylinder(float(rng.uniform(0.3, 0.9)), (0.0, (0.0,) * d))
            k0 = float(rng.uniform(0.05, 0.5))
            k1 = k0 + float(rng.uniform(0.05, 1.0))
            r = float(rng.choice([1.0, 2.0, INF]))
            s = float(rng.choice([1.0, 2.0, INF]))
            lhs, rhs = dg.lk1_check(u, k0, k1, cyl, r, s)
            assert lhs <= rhs

    def test_level_order_enforced(self, rng):
        u = GridFunction(0.0, 0.1, (0.0,), (0.1,), rng.standard_normal((8, 8)))
        with pytest.raises(ValueError):
            dg.lk1_check(u, 0.5, 0.5, Cylinder(0.5, (0.4, (0.4,))), 2.0, 2.0)


class TestRecursion:
    def test_threshold_value(self):
        params = dg.RecursionParams(2.0, 2.0, (1.0,), 0.0)
        assert dg.recursion_threshold(params) == pytest.approx(1.0 / 8.0)

    def test_worked_first_step(self):
        res = dg.recursion_simulate(dg.RecursionParams(2.0, 2.0, (1.0,), 0.1))
        assert res.a[1] == pytest.approx(0.04)
        assert res.a[1] <= 0.1 * 2.0 ** (-1)
        assert res.bound_ok

    def test_zero_seed(self):
        res = dg.recursion_simulate(dg.RecursionParams(3.0, 1.5, (0.5, 1.0), 0.0))
        assert np.all(res.a == 0.0) and res.bound_ok

    def test_seed_exactly_at_threshold(self):
        params = dg.RecursionParams(2.0, 2.0, (1.0,), 0.125)
        res = dg.recursion_simulate(params)
        assert res.below_threshold and res.bound_ok

    def test_far_above_threshold_diverges(self):
        res = dg.recursion_simulate(dg.RecursionParams(2.0, 2.0, (1.0,), 1.25))
        assert res.diverged

    def test_randomized_sweep(self, rng):
        for _ in range(250):
            m = int(rng.integers(1, 4))
            C0, lam = float(rng.uniform(1.1, 10)), float(rng.uniform(1.1, 4))
            deltas = tuple(rng.uniform(0.1, 2, m))
            thr = dg.recursion_threshold(dg.RecursionParams(C0, lam, deltas, 0.0))
            a1 = float(rng.random()) * thr
            res = dg.recursion_simulate(dg.RecursionParams(C0, lam, deltas, a1))
            assert res.bound_ok


@pytest.fixture(scope="module")
def padded_heat_run():
    field = pde.identity_field(1, forcing=lambda t, X: np.exp(-(X[..., 0] ** 2) / 0.18))
    u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                       [(-2.5, 2.5)], (100,), "periodic")
    u = pde.solve(field, u0, pde.SolverConfig(dt=0.02, T=4.0))
    return dg.pad_run_backward(u, -4.1), field


# t_lo far back (1e10 rows, 298 GiB, at -1e9), infinitely far back, or NaN
@pytest.mark.parametrize("t_lo", [-1e9, -1e300, -math.inf, math.nan])
def test_pad_past_the_step_cap_rejected(t_lo):
    u = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 10, [(0, 1)], (4,))
    with pytest.raises(PreconditionError, match="MAX_STEPS"):
        dg.pad_run_backward(u, t_lo)


def test_pad_lengths():
    u = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 10, [(0, 1)], (4,))
    for t_lo in (0.0, 0.5, math.inf):
        assert dg.pad_run_backward(u, t_lo) is u
    assert dg.pad_run_backward(u, -0.25).nt == 13
    with pytest.raises(PreconditionError):
        dg.pad_run_backward(u, -(mn.MAX_STEPS + 1) * 0.1)


@pytest.fixture(scope="module")
def exp_cfg():
    return ExponentConfig(d=1, p0=INF, p4=4.0, q4=INF)


class TestEnergyDiagnostic:
    def test_exponent_pairs(self, exp_cfg):
        pairs = dg.iteration_exponents(exp_cfg)
        assert pairs["r2"] == 2.0 and pairs["s2"] == 2.0
        assert pairs["r3"] == 4.0 and pairs["s3"] == 1.0

    def test_p4_guard(self):
        cfg = ExponentConfig(d=1, p0=INF, p4=1.5, q4=INF)
        with pytest.raises(PreconditionError):
            dg.iteration_exponents(cfg)

    def test_high_level_gives_zero_lhs(self, padded_heat_run, exp_cfg):
        u, field = padded_heat_run
        diag = dg.energy_estimate_diagnostic(u, field, 50.0, 1.0, 2.0, exp_cfg)
        assert diag.lhs == 0.0

    def test_heat_run_ratio_recorded(self, padded_heat_run, exp_cfg):
        u, field = padded_heat_run
        diag = dg.energy_estimate_diagnostic(u, field, 0.0, 1.0, 2.0, exp_cfg)
        assert diag.lhs > 0 and diag.rhs_total > 0
        assert math.isfinite(diag.ratio)

    def test_rhs_gap_term_doubles(self, padded_heat_run, exp_cfg):
        u, field = padded_heat_run
        terms = []
        for gap in (1.0, 0.5, 0.25):
            diag = dg.energy_estimate_diagnostic(u, field, 0.0, 2.0 - gap, 2.0, exp_cfg)
            level_sum = diag.rhs_terms["level_term_1"] + diag.rhs_terms["level_term_2"]
            terms.append(level_sum / gap)
        # the (tau2 - tau1)^(-1) prefactor doubles while the window norms
        # stay within a modest band
        assert terms[1] / terms[0] == pytest.approx(2.0, rel=0.35)

    def test_run_must_cover_cylinder(self, exp_cfg):
        field = pde.identity_field(1)
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(-2.5, 2.5)], (32,), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.02, T=1.0))
        with pytest.raises(PreconditionError):
            dg.energy_estimate_diagnostic(u, field, 0.0, 1.0, 2.0, exp_cfg)

    def test_gap_sweep_returns_fit(self, padded_heat_run, exp_cfg):
        u, field = padded_heat_run
        sweep = dg.energy_gap_sweep(u, field, 0.0, exp_cfg, [1.0, 0.5, 0.25])
        assert len(sweep["rows"]) == 3
        assert math.isfinite(sweep["gamma_fit"])


class TestLocalMaxDiagnostic:
    def test_nonpositive_solution(self, exp_cfg):
        u = mn.from_callable(lambda t, X: -np.ones(X.shape[:-1]), (-4.2, 4.2), 42,
                             [(-2.2, 2.2)], (32,))
        field = pde.identity_field(1, forcing=lambda t, X: np.ones(X.shape[:-1]))
        lhs, rhs, ratio = dg.local_max_diagnostic(u, field, exp_cfg, 2.0)
        assert lhs == 0.0 and ratio == pytest.approx(0.0)

    def test_scalar_forcing_rejected(self, exp_cfg):
        u = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (-4.2, 4.2), 42,
                             [(-2.2, 2.2)], (32,))
        field = pde.identity_field(1, forcing=lambda t, X: 1.0)
        with pytest.raises(mn.GridError, match="one value per cell"):
            dg.local_max_diagnostic(u, field, exp_cfg, 2.0)

    def test_scaling_invariance(self, padded_heat_run, exp_cfg):
        u, field = padded_heat_run
        lhs, rhs, ratio = dg.local_max_diagnostic(u, field, exp_cfg, 2.0)
        u3 = u.with_values(3 * u.values)
        field3 = pde.identity_field(1, forcing=lambda t, X: 3 * np.exp(-(X[..., 0] ** 2) / 0.18))
        _, _, ratio3 = dg.local_max_diagnostic(u3, field3, exp_cfg, 2.0)
        assert ratio3 == pytest.approx(ratio, rel=1e-10)

    def test_refinement_stability(self, exp_cfg):
        ratios = []
        for (nx, dt) in ((80, 0.04), (160, 0.02)):
            field = pde.identity_field(1, forcing=lambda t, X: np.exp(-(X[..., 0] ** 2)
                                                                      / 0.18))
            u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                               [(-2.5, 2.5)], (nx,), "periodic")
            u = pde.solve(field, u0, pde.SolverConfig(dt=dt, T=4.0))
            up = dg.pad_run_backward(u, -4.1)
            ratios.append(dg.local_max_diagnostic(up, field, exp_cfg, 2.0)[2])
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.2

    def test_anomaly_flagged(self, exp_cfg):
        u = mn.from_callable(
            lambda t, X: np.exp(-np.maximum(np.abs(X[..., 0]) - 1.8, 0) * 50)
            * (np.abs(X[..., 0]) > 1.5) * (np.abs(t) > 3.9), (-4.2, 4.2), 42,
            [(-2.6, 2.6)], (40,))
        # positive part lives only outside Q_2 in space; force lhs > 0, rhs = 0
        vals = np.zeros((42, 40))
        vals[20, 20] = 1.0  # center of Q_1
        u = u.with_values(vals)
        field = pde.identity_field(1)
        masked = u.with_values(np.where(np.abs(u.values) > 0, 1.0, 0.0))
        # build a field whose Q2 norms vanish: zero forcing, u zero on Q2 except Q1 point
        # the (p,p) norm then sees the point; choose p so it contributes
        lhs, rhs, ratio = dg.local_max_diagnostic(u, field, exp_cfg, 2.0)
        assert lhs > 0 and rhs > 0  # genuinely impossible to get rhs = 0 with lhs > 0

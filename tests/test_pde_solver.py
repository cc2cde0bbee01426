import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as splinalg

from parabolab import acceptance
from parabolab import mixed_norms as mn
from parabolab import pde_solver as pde
from parabolab.embeddings import B1_MUST_VANISH, ExponentConfig
from parabolab.mixed_norms import INF

from conftest import a_matrix


def heat_solution_run(nx, T_target=0.2, dt_scale=0.4, boundary="zero-extension"):
    """Separation-of-variables fixture: u = exp(-pi^2 t) sin(pi x) on [0, 1]."""
    field = pde.identity_field(1)
    dx = 1.0 / nx
    dt = dt_scale * dx * dx
    steps = int(round(T_target / dt))
    u0 = pde.spatial_initial_condition(lambda X: np.sin(np.pi * X[..., 0]),
                                       [(0.0, 1.0)], (nx,), boundary)
    u = pde.solve(field, u0, pde.SolverConfig(dt=dt, T=steps * dt))
    t = np.arange(u.nt) * dt
    exact = np.exp(-np.pi**2 * t)[:, None] * np.sin(np.pi * u.x_centers(0))[None, :]
    return u, field, exact


def analytic_bank(u):
    tc, x = u.t_centers(), u.x_centers(0)
    bank = []
    for (ct, cx, wt, wx) in [(0.10, 0.5, 0.06, 0.3), (0.08, 0.6, 0.05, 0.25)]:
        tt, xx = (tc - ct) / wt, (x - cx) / wx
        phi = np.maximum(1 - tt**2, 0)[:, None] ** 3 * np.maximum(1 - xx**2, 0)[None, :] ** 3
        bank.append(u.with_values(phi))
    return bank


def _unit_sphere_grid(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere
    i = np.arange(n) + 0.5
    phi = math.pi * (1 + 5**0.5) * i
    z = 1 - 2 * i / n
    r = np.sqrt(np.maximum(1 - z**2, 0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def mu_distortion_bruteforce(A: np.ndarray, n_xi: int = 10000) -> float:
    """Max of |A xi|^2 / (xi . A xi) over the unit sphere, grid plus local refine."""
    d = A.shape[0]
    evals, evecs = np.linalg.eigh(A)
    xis = np.concatenate([_unit_sphere_grid(d, n_xi), evecs.T])

    def ratio(v):
        Av = v @ A.T
        quad = (v * Av).sum(axis=1)
        num = (Av**2).sum(axis=1)
        out = np.where(quad > 1e-300, num / np.maximum(quad, 1e-300), 0.0)
        return out

    # local perturbations around the best eigendirection
    v0 = evecs[:, np.argmax(evals)]
    rng = np.random.default_rng(0)
    pert = v0[None, :] + 0.05 * rng.standard_normal((200, d))
    pert /= np.linalg.norm(pert, axis=1, keepdims=True)
    return float(max(ratio(xis).max(), ratio(pert).max()))


class TestEllipticity:
    def test_identity(self):
        field = pde.identity_field(2)
        prof = pde.ellipticity_profiles(field, (0, 0), (0.25, 0.25), (8, 8))
        assert np.all(prof.lam == 1.0) and np.all(prof.mu == 1.0)

    def test_diag_4_1_bruteforce(self):
        A = np.diag([4.0, 1.0])
        assert mu_distortion_bruteforce(A, 10000) == pytest.approx(4.0, rel=1e-6)
        field = pde.CoefficientField(
            "diag", 2, lambda t, X: np.broadcast_to(np.diag(A), X.shape[:-1] + (2,)).copy())
        prof = pde.ellipticity_profiles(field, (0, 0), (0.5, 0.5), (4, 4))
        assert np.all(prof.lam == pytest.approx(1.0))
        assert np.all(prof.mu == pytest.approx(4.0))

    def test_singular_family_profile_identity(self):
        from parabolab.cutoffs import CutoffFamily

        field = pde.example_61_field(d=3, alpha=0.3, R=2.0, n=4)
        prof = pde.ellipticity_profiles(field, (-1.5,) * 3, (0.5,) * 3, (6,) * 3)
        fam = CutoffFamily(2.0, -0.3, 4)
        X = mn.cell_centers((-1.5,) * 3, (0.5,) * 3, (6,) * 3)
        want = fam.f_n((X**2).sum(axis=-1))
        assert np.allclose(prof.lam, want, rtol=1e-13)
        assert np.allclose(prof.mu, want, rtol=1e-13)

    def test_non_psd_rejected(self):
        field = pde.CoefficientField("bad", 1, lambda t, X: -np.ones(X.shape[:-1] + (1,)))
        with pytest.raises(pde.CoefficientError):
            pde.ellipticity_profiles(field, (0,), (0.5,), (4,))


class TestHypotheses:
    def test_identity_all_pass(self):
        field = pde.identity_field(3)
        cfg = ExponentConfig(d=3, p0=INF, p1=INF)
        rep = pde.check_hypotheses(field, cfg, (-2,) * 3, (0.5,) * 3, (8,) * 3)
        assert rep.hyp_a_ok and rep.pp0_ok and rep.re01_ok
        assert rep.re1 is True
        assert rep.div_b2_neg_mass == 0.0

    def test_singular_family_mu_integrable(self):
        # window norm of mu is finite for p1 below the integrability threshold
        field = pde.example_61_field(d=3, alpha=0.3, R=2.0, n=8)
        cfg = ExponentConfig(d=3, p0=INF, p1=2.0)  # p1 < d/(2 alpha + 1) = 1.875? no: mu ~ |x|^(-2a)
        rep = pde.check_hypotheses(field, cfg, (-2,) * 3, (0.25,) * 3, (16,) * 3)
        assert math.isfinite(rep.mu_norm)
        assert rep.hyp_a_ok

    def test_rotation_divergence_exactly_zero(self):
        field = pde.rotation_drift_field(pure=True)
        X = mn.cell_centers((-2, -2), (0.25, 0.25), (16, 16))
        div = pde.discrete_divergence(field.b2(0.0, X), (0.25, 0.25))
        assert np.abs(div).max() == 0.0

    def test_divergence_matches_np_gradient(self):
        # np.gradient stays the reference: bitwise in the interior, round-off at the edges
        X = mn.cell_centers((-2.0, -1.0, 0.5), (0.25, 0.2, 0.3), (12, 10, 9))
        b = np.stack([np.sin(X[..., 0]) * np.cos(X[..., 1]), X[..., 0] * X[..., 1] ** 2,
                      np.exp(X[..., 2]) * X[..., 1]], axis=-1)
        dx = (0.25, 0.2, 0.3)
        ref = np.zeros(b.shape[:-1])
        for k in range(3):
            ref += np.gradient(b[..., k], dx[k], axis=k, edge_order=2)
        div = pde.discrete_divergence(b, dx)
        core = (slice(1, -1),) * 3
        assert np.array_equal(div[core], ref[core])
        assert np.abs(div - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_grid_below_the_stencil_rejected(self):
        # 2 x 2 cells cannot hold the 3-point divergence stencil
        cfg = ExponentConfig(d=2, p0=2.4, p1=INF)
        with pytest.raises(mn.GradientError):
            pde.check_hypotheses(pde.rotation_drift_field(), cfg, (-0.5, -0.5), (0.5, 0.5), (2, 2))

    def test_degenerate_lambda_reported_not_raised(self):
        # diagonal-power with raw n = inf vanishes on the axes
        field = pde.diagonal_power_field(2, 0.5, R=1.0, n=INF)
        cfg = ExponentConfig(d=2, p0=2.4, p1=INF)
        rep = pde.check_hypotheses(field, cfg, (-2, -2), (0.25, 0.25), (16, 16))
        assert rep.lam_zero_fraction == 0.0 or not rep.hyp_a_ok or rep.lam_inv_norm > 0


class TestSolve:
    def test_heat_fixture_order(self):
        errs = []
        for nx in (16, 32, 64):
            u, _, exact = heat_solution_run(nx)
            errs.append(np.abs(u.values - exact).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.7

    def test_constant_forcing_exact(self):
        field = pde.identity_field(1, forcing=lambda t, X: np.ones(X.shape[:-1]))
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(0, 1)], (16,), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=0.5))
        t = np.arange(u.nt) * 0.01
        assert np.abs(u.values - t[:, None]).max() < 1e-10

    def test_initial_condition_cells_are_from_callables(self):
        box, nx = [(-1.0, 2.0), (0.5, 1.25)], (6, 5)
        u0 = pde.spatial_initial_condition(lambda X: X[..., 0], box, nx)
        g = mn.from_callable(lambda t, X: X[..., 0], (0.0, 1.0), 2, box, nx)
        assert (u0.x0, u0.dx, u0.nx) == (g.x0, g.dx, g.nx)
        assert np.array_equal(u0.values, g.values)
        with pytest.raises(mn.GridError, match="same number of axes"):
            pde.spatial_initial_condition(lambda X: X[..., 0], box, (6,))

    def test_degenerate_run_finite(self):
        field = pde.example_62_field(alpha=0.2, R=1.0, n=4,
                                     forcing=lambda t, X: np.exp(-(X**2).sum(axis=-1)))
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(-4, 4)] * 2, (32, 32), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.02, T=0.5))
        assert np.all(np.isfinite(u.values))
        assert np.abs(u.values[-1]).max() < 10.0
        # refinement sanity: halving steps barely moves the endpoint
        u2 = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=0.5))
        assert np.abs(u2.values[-1] - u.values[-1]).max() < 0.05

    def test_conservation_periodic(self):
        field = pde.diagonal_power_field(1, 0.5, R=1.0, n=4)
        u0 = pde.spatial_initial_condition(
            lambda X: np.exp(-10 * (X[..., 0] - 0.5) ** 2), [(0, 1)], (32,), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.005, T=0.2))
        masses = u.values.sum(axis=1) * u.dx[0]
        assert np.abs(masses - masses[0]).max() < 1e-10

    def test_linearity_exact(self):
        forcing = lambda t, X: np.exp(-(X[..., 0] - 0.4) ** 2 / 0.05)
        field = pde.identity_field(1, forcing=forcing)
        field3 = pde.identity_field(1, forcing=lambda t, X: 3.0 * forcing(t, X))
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(0, 1)], (32,), "periodic")
        cfg = pde.SolverConfig(dt=0.01, T=0.3)
        u = pde.solve(field, u0, cfg)
        u3 = pde.solve(field3, u0, cfg)
        assert np.abs(u3.values - 3 * u.values).max() <= 1e-10 * np.abs(u3.values).max() + 1e-13

    def test_nonnegativity_and_comparison(self):
        fl = lambda t, X: np.maximum(0.2 - np.abs(X[..., 0] - 0.3), 0.0)
        field = pde.CoefficientField(
            "drift", 1, a_diag=lambda t, X: np.ones(X.shape[:-1] + (1,)),
            b2=lambda t, X: 0.5 * np.ones_like(X), forcing=fl)
        u0 = pde.spatial_initial_condition(
            lambda X: np.maximum(0.1 - np.abs(X[..., 0] - 0.5), 0.0), [(0, 1)], (32,),
            "periodic")
        cfg = pde.SolverConfig(dt=0.01, T=0.3)
        u = pde.solve(field, u0, cfg)
        assert u.values.min() >= -1e-13
        bigger = field.with_forcing(lambda t, X: fl(t, X) + 0.05)
        ug = pde.solve(bigger, u0, cfg)
        assert np.all(ug.values >= u.values - 1e-12)

    def test_cfl_guard(self):
        field = pde.CoefficientField(
            "fast", 1, a_diag=lambda t, X: np.ones(X.shape[:-1] + (1,)),
            b2=lambda t, X: 100.0 * np.ones_like(X))
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(0, 1)], (16,), "periodic")
        with pytest.raises(pde.SolverConfigError):
            pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=0.1))

    # step counts past MAX_STEPS: T / dt overflows to inf, or 1e300 output rows
    @pytest.mark.parametrize("dt, T", [(1e-10, 1e308), (1e-300, 1.0)],
                             ids=["T-1e308", "dt-1e-300"])
    def test_step_count_past_the_cap_rejected(self, dt, T):
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(0, 1)], (16,), "periodic")
        with pytest.raises(pde.SolverConfigError):
            pde.solve(pde.identity_field(1), u0, pde.SolverConfig(dt=dt, T=T))

    def test_step_cap(self):
        assert pde.SolverConfig(dt=1.0, T=float(mn.MAX_STEPS)).n_steps == mn.MAX_STEPS
        with pytest.raises(pde.SolverConfigError):
            pde.SolverConfig(dt=1.0, T=mn.MAX_STEPS + 1.0)


class TestWeakResidual:
    def test_zero_solution_zero_residual(self):
        field = pde.identity_field(1)
        u = mn.from_callable(lambda t, X: np.zeros(X.shape[:-1]), (0, 0.2), 16,
                             [(0, 1)], (32,))
        assert pde.weak_residual(u, field, analytic_bank(u)) == 0.0

    def test_refinement_order(self):
        rs = []
        for nx in (32, 64):
            u, field, _ = heat_solution_run(nx)
            rs.append(pde.weak_residual(u, field, analytic_bank(u)))
        assert math.log2(rs[0] / rs[1]) >= 1.0

    def test_corruption_sensitivity(self):
        u, field, _ = heat_solution_run(64)
        bank = analytic_bank(u)
        clean = pde.weak_residual(u, field, bank)
        local = np.random.default_rng(20250809)  # fixed draw for the 10x jump
        noisy = u.with_values(u.values + 1e-2 * local.standard_normal(u.values.shape))
        assert pde.weak_residual(noisy, field, bank) >= 10 * clean

    def test_boundary_touching_test_function_rejected(self):
        u, field, _ = heat_solution_run(16)
        phi = u.with_values(np.ones_like(u.values))
        with pytest.raises(pde.TestBankError):
            pde.weak_residual(u, field, [phi])


class TestSteklov:
    def test_linear_average(self):
        u = mn.from_callable(lambda t, X: t * np.ones(X.shape[:-1]), (0, 1), 100,
                             [(0, 1)], (4,))
        s = pde.steklov_mean(u, 0.1)
        tc = u.t_centers()
        keep = tc < 0.85
        assert np.abs(s.values[keep, 0] - (tc[keep] + 0.05)).max() < 1e-12

    def test_constant_unchanged(self):
        u = mn.from_callable(lambda t, X: 2.5 * np.ones(X.shape[:-1]), (0, 1), 50,
                             [(0, 1)], (4,))
        s = pde.steklov_mean(u, 0.2)
        tc = u.t_centers()
        keep = tc < 0.75
        assert np.abs(s.values[keep] - 2.5).max() < 1e-12

    def test_sine_closed_form(self):
        u = mn.from_callable(lambda t, X: np.sin(t) * np.ones(X.shape[:-1]), (0, 8), 400,
                             [(0, 1)], (4,))
        m = int(round(np.pi / u.dt))
        h = m * u.dt
        s = pde.steklov_mean(u, h)
        tc = u.t_centers()
        keep = tc < 8 - h
        exact = (np.cos(tc) - np.cos(tc + h)) / h
        assert np.abs(s.values[keep, 0] - exact[keep]).max() < 5e-5

    # h below dt, then 1e10 and 1e301 steps, past MAX_STEPS
    @pytest.mark.parametrize("h", [0.01, 1e9, 1e300], ids=["below-dt", "1e9", "1e300"])
    def test_h_rejected(self, h):
        u = mn.from_callable(lambda t, X: np.ones(X.shape[:-1]), (0, 1), 10, [(0, 1)], (4,))
        with pytest.raises(pde.SolverConfigError):
            pde.steklov_mean(u, h)


class TestMaxPrinciple:
    def _run(self, amp=1.0, nx=48, dt=0.02):
        forcing = lambda t, X: amp * np.exp(-(X**2).sum(axis=-1) / 0.32)
        field = pde.example_62_field(alpha=0.2, R=1.0, n=4, forcing=forcing)
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(-4, 4)] * 2, (nx, nx), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=dt, T=0.5))
        cfg = ExponentConfig(d=2, p0=2.4, p4=4.0, q4=INF)
        return pde.max_principle_report(u, field, cfg, 0.5, lattice_step=0.5)

    def test_scaling_invariance(self):
        a = self._run(1.0)
        b = self._run(3.0)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-10)

    def test_constant_forcing_identity(self):
        field = pde.identity_field(2, forcing=lambda t, X: np.ones(X.shape[:-1]))
        u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                           [(-2, 2)] * 2, (16, 16), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=1.0))
        assert np.abs(u.values[-1] - 1.0).max() < 1e-10

    def test_zero_forcing_flagged(self):
        field = pde.identity_field(1)
        u0 = pde.spatial_initial_condition(lambda X: np.sin(np.pi * X[..., 0]),
                                           [(0, 1)], (16,), "periodic")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=0.1))
        cfg = ExponentConfig(d=1, p0=INF, p4=4.0, q4=INF)
        rep = pde.max_principle_report(u, field, cfg, 0.1)
        assert rep.ratio is None


def test_tabulated_field_lookup():
    g = mn.from_callable(lambda t, X: 1.0 + X[..., 0] ** 2, (0, 1), 4, [(-1, 1)], (16,))
    field = pde.tabulated_diagonal_field([g])
    X = mn.cell_centers((-1.0,), (0.125,), (16,))
    vals = field.a_diag(0.5, X)[..., 0]
    assert vals == pytest.approx(1.0 + X[..., 0] ** 2, abs=1e-12)
    # outside the grid the lookup clamps to the edge cells, in time and space
    outside = field.a_diag(5.0, np.array([[-1.5], [1.5]]))[..., 0]
    assert outside.tolist() == g.values[-1, [0, -1]].tolist()


def test_tabulated_field_lookup_far_outside():
    # the quotient is clamped while still a float: +inf and 1e300 read the last cell,
    # -inf and -1e300 the first, with no cast warning
    g = mn.from_callable(lambda t, X: 1.0 + X[..., 0] ** 2, (0, 1), 4, [(-1, 1)], (16,))
    field = pde.tabulated_diagonal_field([g])
    X = np.array([[math.inf], [1e300], [-math.inf], [-1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = field.a_diag(0.5, X)[..., 0]
    assert vals.tolist() == g.values[2, [-1, -1, 0, 0]].tolist()


def test_build_field_catalog():
    assert "example-6.1" in pde.PDE_FIXTURES
    with pytest.raises(pde.CoefficientError):
        pde.build_field("nonsense")
    with pytest.raises(pde.CoefficientError):
        pde.example_61_field(d=3, alpha=0.7)  # above min(d/2-1, 1/2+1/(d-1)) = 1/2


class TestNeighborRule:
    def test_wrap_and_odd_mirror(self):
        nb, sign = pde._neighbor((4,), 0, 1, periodic=True)
        assert nb.tolist() == [1, 2, 3, 0] and sign.tolist() == [1, 1, 1, 1]
        nb, sign = pde._neighbor((4,), 0, 1, periodic=False)
        assert nb.tolist() == [1, 2, 3, 3] and sign.tolist() == [1, 1, 1, -1]
        nb, sign = pde._neighbor((4,), 0, -1, periodic=False)
        assert nb.tolist() == [0, 0, 1, 2] and sign.tolist() == [-1, 1, 1, 1]
        nb, sign = pde._neighbor((2, 3), 1, -1, periodic=False)  # flat C order
        assert nb.tolist() == [0, 0, 1, 3, 3, 4] and sign.tolist() == [-1, 1, 1, -1, 1, 1]

    def test_zero_wall_stencil(self):
        # unit diffusion: the odd-mirror ghost puts -3/dx^2 on a wall cell's diagonal
        nx, periodic = (5,), False
        nbrs = [{s: pde._neighbor(nx, 0, s, periodic) for s in (1, -1)}]
        L = pde._assemble_diffusion(pde.identity_field(1), 0.0, (0.0,), (0.5,), nx, nbrs)
        want = (np.diag([-3.0, -2.0, -2.0, -2.0, -3.0]) + np.eye(5, k=1) + np.eye(5, k=-1)) / 0.25
        assert np.array_equal(L.toarray(), want)
        u = np.arange(1.0, 6.0)
        drift = pde._upwind_drift(u, np.full((5, 1), -1.0), (0.5,), nbrs)
        assert np.array_equal(drift, -np.array([1.0, 1.0, 1.0, 1.0, -10.0]) / 0.5)

    @pytest.mark.parametrize("field", [pde.diagonal_power_field(3, 0.5, R=1.0, n=4),
                                       pde.example_61_field(3, 0.3, 2.0, 4)],
                             ids=["diagonal-power", "example-6.1"])
    def test_zero_wall_faces_with_varying_coefficient(self, field):
        # each wall face's conductance is the mean of a_kk at the wall cell and at the
        # ghost centre of the box grown by one cell past that wall, over dx_k^2
        x0, dx, nx = (-1.0, -0.7, -0.4), (0.45, 0.32, 0.5), (4, 5, 3)
        nbrs = [{s: pde._neighbor(nx, k, s, False) for s in (1, -1)} for k in range(3)]
        L = pde._assemble_diffusion(field, 0.0, x0, dx, nx, nbrs)
        assert (L != L.T).nnz == 0
        a = field.a_diag(0.0, mn.cell_centers(x0, dx, nx))
        want = np.zeros(nx)  # a row sum of L: -2g per wall face of the cell
        for k in range(3):
            for s in (1, -1):
                grown_x0, grown_nx = list(x0), list(nx)
                grown_x0[k] -= dx[k] * (s < 0)
                grown_nx[k] += 1
                edge = [slice(None)] * 3
                edge[k] = slice(-1, None) if s > 0 else slice(0, 1)
                ghost = mn.cell_centers(grown_x0, dx, grown_nx)[tuple(edge)]
                cell = a[tuple(edge)][..., k]
                a_ghost = field.a_diag(0.0, ghost)[..., k]
                assert (a_ghost != cell).all()  # the ghost's own coefficient is read
                want[tuple(edge)] -= 2.0 * 0.5 * (cell + a_ghost) / dx[k] ** 2
        # interior rows sum to zero up to the round-off of their diagonal
        np.testing.assert_allclose(np.asarray(L.sum(axis=1)).ravel(), want.ravel(),
                                   rtol=1e-12, atol=1e-12 * abs(L.diagonal()).max())

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "zero-extension"])
    def test_coefficient_read_on_the_mesh_and_each_wall_layer(self, periodic):
        shapes = []

        def a_diag(t, X):
            shapes.append(X.shape)
            return np.ones(X.shape)

        nx = (4, 5, 3)
        nbrs = [{s: pde._neighbor(nx, k, s, periodic) for s in (1, -1)} for k in range(3)]
        pde._assemble_diffusion(pde.CoefficientField("count", 3, a_diag), 0.0,
                                (0.0,) * 3, (0.5,) * 3, nx, nbrs)
        walls = [] if periodic else [(1, 5, 3, 3), (1, 5, 3, 3), (4, 1, 3, 3), (4, 1, 3, 3),
                                     (4, 5, 1, 3), (4, 5, 1, 3)]
        assert shapes == [(4, 5, 3, 3)] + walls


def _plain_lu_march(field, u0, cfg):
    """The scheme of ``solve`` with the default ``splu(M.tocsc())`` factorization."""
    nx, dx = u0.nx, u0.dx
    periodic = u0.boundary == "periodic"
    nbrs = [{s: pde._neighbor(nx, k, s, periodic) for s in (1, -1)} for k in range(u0.d)]
    L = pde._assemble_diffusion(field, 0.0, u0.x0, dx, nx, nbrs)
    lu = splinalg.splu((sparse.identity(L.shape[0], format="csr") - cfg.dt * L).tocsc())
    X = mn.cell_centers(u0.x0, dx, nx)
    out = [np.asarray(u0.values[0], dtype=float)]
    for step in range(int(round(cfg.T / cfg.dt))):
        t = step * cfg.dt
        rhs = out[-1].copy()
        if field.b1 is not None or field.b2 is not None:
            rhs += cfg.dt * pde._upwind_drift(out[-1], field.b_total(t, X), dx, nbrs)
        if field.forcing is not None:
            rhs += cfg.dt * field.forcing(t, X)
        out.append(lu.solve(rhs.ravel()).reshape(nx))
    return np.stack(out)


def _bump(X):
    return np.exp(-4.0 * (X**2).sum(axis=-1))


class TestLuOrdering:
    """Fields factorize with a symmetric ordering; the march does not change."""

    @pytest.mark.parametrize("case", ["example-6.2-periodic", "identity-zero-ext",
                                      "diagonal-power-3d"])
    def test_diagonal_fields_match_plain_lu(self, case):
        if case == "example-6.2-periodic":
            field = pde.example_62_field(alpha=0.2, R=1.0, n=4, forcing=lambda t, X: _bump(X))
            u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                               [(-4, 4)] * 2, (24, 24), "periodic")
        elif case == "identity-zero-ext":
            field = pde.identity_field(2)
            u0 = pde.spatial_initial_condition(_bump, [(-1, 1)] * 2, (20, 16), "zero-extension")
        else:
            field = pde.diagonal_power_field(3, 0.5, R=1.0, n=4)
            u0 = pde.spatial_initial_condition(_bump, [(-1, 1)] * 3, (8, 9, 10),
                                               "zero-extension")
        cfg = pde.SolverConfig(dt=0.01, T=0.2)
        ref = _plain_lu_march(field, u0, cfg)
        u = pde.solve(field, u0, cfg)
        assert np.abs(ref).max() > 0
        assert np.abs(u.values - ref).max() <= 1e-12 * np.abs(ref).max()


def _weak_residual_einsum(u, field, test_bank):
    """``weak_residual`` with the flux ``einsum`` over the full ``a_matrix`` sample."""
    du = mn.spatial_gradient(u)
    flux = np.einsum("t...ij,jt...->it...", u.sample(lambda t, X: a_matrix(field, t, X)), du)
    bgrad = None
    if field.b1 is not None or field.b2 is not None:
        b_vals = u.sample(field.b_total)
        bgrad = sum(b_vals[..., i] * du[i] for i in range(u.d))
    f_vals = None if field.forcing is None else u.sample(field.forcing)
    meas = u.dt * u.cell_volume
    results = []
    for phi in test_bank:
        dphi_t = np.empty_like(phi.values)
        mn._axis_gradient(phi.values, 0, u.dt, False, dphi_t)
        u_t = np.multiply(u.values, dphi_t, out=dphi_t).sum() * meas
        drift = force = 0.0
        if bgrad is not None:
            drift = np.multiply(bgrad, phi.values, out=dphi_t).sum() * meas
        if f_vals is not None:
            force = np.multiply(f_vals, phi.values, out=dphi_t).sum() * meas
        dphi = mn.spatial_gradient(phi)
        diffusion = np.multiply(flux, dphi, out=dphi).sum() * meas
        results.append(abs(float(-u_t + diffusion - drift - force)))
    return max(results)


def _diagonal_case(case):
    """A builtin field with a box and grid size that avoid its singular points."""
    forcing = lambda t, X: np.cos(3 * t) * _bump(X)
    return {
        "identity-1": (pde.identity_field(1), (-1.0,), (0.2,), (10,)),
        "identity-2": (pde.identity_field(2), (-1.0, -1.0), (0.2, 0.25), (10, 8)),
        "identity-3": (pde.identity_field(3), (-1.0,) * 3, (0.3, 0.25, 0.35), (7, 8, 6)),
        "diagonal-power": (pde.diagonal_power_field(2, 0.5, R=1.0, n=4),
                           (-1.5, -1.5), (0.3, 0.25), (10, 12)),
        "example-6.1": (pde.example_61_field(d=3, alpha=0.3, R=2.0),
                        (-1.5,) * 3, (0.5,) * 3, (6,) * 3),
        "example-6.2": (pde.example_62_field(alpha=0.2, R=1.0, n=4, forcing=forcing),
                        (-2.0, -2.0), (0.4, 0.4), (10, 10)),
        "rotation-drift": (pde.rotation_drift_field(pure=False, forcing=forcing),
                           (-2.0, -2.0), (0.4, 0.4), (10, 10)),
    }[case]


class TestDiagonalOnly:
    """The diagonal formulas equal the former full-matrix ones bit for bit."""

    CASES = ["identity-1", "identity-2", "identity-3", "diagonal-power", "example-6.1",
             "example-6.2", "rotation-drift"]

    def test_matrix_keyword_rejected(self):
        with pytest.raises(TypeError):
            pde.CoefficientField("full", 1, a=lambda t, X: np.ones(X.shape[:-1] + (1, 1)))

    @pytest.mark.parametrize("case", CASES)
    def test_ellipticity_matches_eigvalsh(self, case):
        field, x0, dx, nx = _diagonal_case(case)
        prof = pde.ellipticity_profiles(field, x0, dx, nx)
        evals = np.linalg.eigvalsh(a_matrix(field, 0.0, mn.cell_centers(x0, dx, nx)))
        assert np.array_equal(prof.lam, evals[..., 0])
        assert np.array_equal(prof.mu, np.maximum(0.0, evals[..., -1]))

    @pytest.mark.parametrize("case", CASES)
    def test_weak_residual_matches_einsum(self, case):
        field, x0, dx, nx = _diagonal_case(case)
        rng = np.random.default_rng(len(case))
        shape = (9,) + nx
        u = mn.GridFunction(0.0, 0.05, x0, dx, rng.standard_normal(shape))
        core = (slice(2, -2),) * len(shape)
        bank = []
        for _ in range(2):
            phi = np.zeros(shape)
            phi[core] = rng.standard_normal(phi[core].shape)
            bank.append(u.with_values(phi))
        got = pde.weak_residual(u, field, bank)
        assert got > 0 and got == _weak_residual_einsum(u, field, bank)


def _report_grid(d):
    """Random samples laid out as a solver run (time centers on k * dt) with 37 rows."""
    rng = np.random.default_rng(60 + d)
    nx, dx = {1: ((41,), (0.1,)), 2: ((13, 11), (0.2, 0.25)),
              3: ((9, 8, 7), (0.3, 0.25, 0.35))}[d]
    return -0.025, 0.05, (-1.0,) * d, dx, rng.standard_normal((37,) + nx)


def _report_forcing(t, X):
    return np.cos(3 * t) * np.exp(-(X**2).sum(axis=-1)) + 0.1 * X[..., 0]


def _whole_array_report(u, field, cfg, T, lattice_step):
    """The report by its whole-array formulas: a restricted copy, |u| and the sampled forcing."""
    uT = mn.restrict_time(u, 0.0, T)
    f_gf = uT.with_values(uT.sample(field.forcing))
    f_norm = mn.localized_norm(f_gf, mn.MixedNormSpec(cfg.p4, cfg.q4, "time-outer"),
                               lattice_step)
    return float(np.abs(uT.values).max()), mn.v_norm(uT, cfg.kappa, lattice_step), f_norm


class TestStreamedReport:
    """``max_principle_report`` reads u in place and streams the forcing, bitwise as before."""

    @pytest.fixture(params=[(d, b, k) for d in (1, 2, 3) for b in ("zero-extension", "periodic")
                            for k in (None, 1, 3)],
                    ids=[f"d{d}-{b}-{k}" for d in (1, 2, 3) for b in ("zero", "periodic")
                         for k in ("default", "one-row", "uneven")])
    def u(self, request, monkeypatch):
        d, boundary, rows = request.param
        t0, dt, x0, dx, vals = _report_grid(d)
        if rows:  # blocks of one row, or of three, which split 37 rows unevenly
            monkeypatch.setattr(mn, "BLOCK_BYTES", rows * vals[0].nbytes)
        return mn.GridFunction(t0, dt, x0, dx, vals, boundary)

    @pytest.mark.parametrize("q4", [INF, 3.0])
    @pytest.mark.parametrize("T", [1.8, 1.2], ids=["all-rows", "restricted"])
    def test_equals_whole_array(self, u, q4, T):
        field = pde.identity_field(u.d, forcing=_report_forcing)
        cfg = ExponentConfig(d=u.d, p0=INF, p4=4.0, q4=q4)
        rep = pde.max_principle_report(u, field, cfg, T, lattice_step=0.5)
        want = _whole_array_report(u, field, cfg, T, 0.5)
        assert (rep.u_inf, rep.v_norm, rep.f_norm) == want
        assert rep.ratio == (want[0] + want[1]) / want[2]

    def test_non_finite_forcing_raises(self, u):
        def forcing(t, X):  # infinite on the row centered at t = 0.5 only
            return np.full(X.shape[:-1], np.inf if abs(t - 0.5) < 1e-9 else 1.0)

        field = pde.identity_field(u.d, forcing=forcing)
        cfg = ExponentConfig(d=u.d, p0=INF, p4=4.0, q4=INF)
        with pytest.raises(mn.GridError):
            pde.max_principle_report(u, field, cfg, 1.8, lattice_step=0.5)


def _c7_half_resolution():
    """Criterion 07's field and box at half resolution: 129 rows of 64 x 64 cells."""
    field = pde.example_62_field(alpha=0.2, R=1.0, n=4,
                                 forcing=lambda t, X: np.exp(-(X**2).sum(axis=-1) / 0.32))
    u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                       [(-4, 4)] * 2, (64, 64), "periodic")
    return field, u0, pde.SolverConfig(dt=1 / 128, T=1.0)


def _traced_peak(fn):
    """Peak bytes that ``fn()`` allocates, after a first call has filled every cache."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestWorkingMemory:
    def test_solve_holds_one_output(self):
        field, u0, cfg = _c7_half_resolution()
        u, peak = _traced_peak(lambda: pde.solve(field, u0, cfg))
        assert peak < 1.6 * u.values.nbytes

    def test_report_copies_nothing_of_size_u(self):
        field, u0, cfg = _c7_half_resolution()
        u = pde.solve(field, u0, cfg)
        exp_cfg = ExponentConfig(d=2, p0=2.4, p4=4.0, q4=INF)
        _, peak = _traced_peak(lambda: pde.max_principle_report(u, field, exp_cfg, 1.0, 0.5))
        assert peak < 1.5 * u.values.nbytes

    def test_weak_residual_drops_its_temporaries(self):
        u, field, _ = heat_solution_run(64)  # 2049 rows of 64 cells
        bank = acceptance._heat_bank(u)
        _, peak = _traced_peak(lambda: pde.weak_residual(u, field, bank))
        assert peak < 4 * u.values.nbytes


def test_fine_report_transforms_the_kernel_once_per_window_sweep(monkeypatch):
    # criterion 07's fine run: the forcing and both v_norm parts are window sweeps
    # over many time blocks, each sweep transforming the ball kernel only once
    import scipy.fft

    field = pde.example_62_field(alpha=0.2, R=1.0, n=4,
                                 forcing=lambda t, X: np.exp(-(X**2).sum(axis=-1) / 0.32))
    u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                       [(-4, 4)] * 2, (128, 128), "periodic")
    u = pde.solve(field, u0, pde.SolverConfig(dt=0.005, T=1.0))
    calls, rfftn, window_norms = [], scipy.fft.rfftn, mn._window_norms

    def counted_rfftn(x, *args, **kwargs):
        calls.append("kernel" if x.shape[1:] != u.nx else "block")
        return rfftn(x, *args, **kwargs)

    def counted_window_norms(*args):
        calls.append("sweep")
        return window_norms(*args)

    monkeypatch.setattr(scipy.fft, "rfftn", counted_rfftn)
    monkeypatch.setattr(mn, "_window_norms", counted_window_norms)
    cfg = ExponentConfig(d=2, p0=2.4, p1=INF, p4=4.0, q4=INF)
    rep = pde.max_principle_report(u, field, cfg, 1.0, lattice_step=0.5)
    assert calls.count("kernel") == calls.count("sweep") == 3
    assert calls.count("block") > 50
    assert (rep.v_norm.hex(), rep.f_norm.hex(), rep.ratio.hex()) == (
        "0x1.24eefd889cff6p-1", "0x1.6a849bb29d8b2p-1", "0x1.2480383b73ddfp+0")


class TestOwnership:
    """Public constructors copy; every grid the package returns has read-only values."""

    def test_public_constructor_and_with_values_copy(self):
        src = np.ones((3, 4))
        f = mn.GridFunction(0.0, 0.1, (0.0,), (0.25,), src)
        src[:] = 7.0
        other = np.zeros((3, 4))
        g = f.with_values(other)
        other[:] = 5.0
        assert np.all(f.values == 1.0) and np.all(g.values == 0.0)

    def test_results_are_read_only(self):
        field = pde.identity_field(1)
        u0 = pde.spatial_initial_condition(lambda X: np.sin(np.pi * X[..., 0]),
                                           [(0, 1)], (16,), "zero-extension")
        u = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=0.1))
        results = [u, mn.from_callable(lambda t, X: t + X[..., 0], (0, 1), 4, [(0, 1)], (8,)),
                   mn.restrict_time(u, 0.0, 0.05), pde.steklov_mean(u, 0.02),
                   mn.gradient_magnitude(u)]
        for g in results:
            assert not g.values.flags.writeable
            with pytest.raises(ValueError):
                g.values[0] = 1.0

    def test_owning_constructor_keeps_the_array_and_checks_it(self):
        vals = np.ones((3, 4))
        g = mn.GridFunction._owning(0.0, 0.1, (0.0,), (0.25,), vals)
        assert g.values is vals and not vals.flags.writeable
        assert mn.GridFunction._owning(0.0, 0.1, (0.0,), (0.25,), np.ones((3, 4), int)
                                       ).values.dtype == np.float64
        bad = np.ones((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(mn.GridError):
            mn.GridFunction._owning(0.0, 0.1, (0.0,), (0.25,), bad)
        with pytest.raises(mn.GridError):
            mn.GridFunction._owning(0.0, 0.1, (0.0,), (0.25,), np.ones((3, 4)), "mirror")
        with pytest.raises(mn.GridError):
            mn.GridFunction._owning(0.0, 0.1, (0.0,), (0.25,), np.ones(3))


# weak residuals on criterion 06's heat grids, pinned before the residual dropped its
# temporaries: the products and whole-array sums are unchanged, so the bits are too
@pytest.mark.parametrize("nx,forced,want", [
    (32, False, "0x1.b9520dfd06800p-16"), (64, False, "0x1.b4002a9754000p-18"),
    (128, False, "0x1.b2aab4cac0000p-20"), (32, True, "0x1.da72ddcf67f91p-7")])
def test_weak_residual_bits_on_criterion_06_grids(nx, forced, want):
    u, field, _ = heat_solution_run(nx)
    if forced:
        field = pde.identity_field(1, forcing=lambda t, X: np.cos(X[..., 0]) * (1 + t))
    assert pde.weak_residual(u, field, acceptance._heat_bank(u)).hex() == want


def test_weak_residual_bits_with_drift_and_forcing():
    field = pde.rotation_drift_field(pure=False, forcing=lambda t, X: np.exp(-(X**2).sum(axis=-1)))
    u0 = pde.spatial_initial_condition(lambda X: np.exp(-(X**2).sum(axis=-1)), [(-2, 2)] * 2,
                                       (24, 24))
    u = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=0.3))
    bank = [mn.from_callable(lambda t, X: np.maximum(0.6 - (X**2).sum(axis=-1), 0) ** 3
                             * max(0.0, (t - 0.05) * (0.25 - t)) ** 3,
                             (u.t0, u.t0 + u.nt * u.dt), u.nt, [(-2, 2)] * 2, (24, 24))]
    assert pde.weak_residual(u, field, bank).hex() == "0x1.a55ea18e7be00p-34"

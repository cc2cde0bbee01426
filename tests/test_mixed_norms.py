import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, signal

from parabolab import mixed_norms as mn
from parabolab.mixed_norms import INF, Cylinder, GridFunction, MixedNormSpec

from conftest import constant_field, random_field


def brute_mixed_norm(values, dt, cellvol, p, q, order):
    """Independent quadrature oracle: plain loops over the sample array."""
    a = np.abs(np.asarray(values, dtype=float))
    if order == "time-outer":
        inner = []
        for sl in a:
            inner.append(sl.max() if math.isinf(p) else (np.sum(sl**p) * cellvol) ** (1 / p))
        inner = np.array(inner)
        return inner.max() if math.isinf(q) else (np.sum(inner**q) * dt) ** (1 / q)
    flat = a.reshape(a.shape[0], -1)
    inner = []
    for col in flat.T:
        inner.append(col.max() if math.isinf(q) else (np.sum(col**q) * dt) ** (1 / q))
    inner = np.array(inner)
    return inner.max() if math.isinf(p) else (np.sum(inner**p) * cellvol) ** (1 / p)


class TestGridFunction:
    def test_rejects_nan(self):
        vals = np.ones((4, 4))
        vals[1, 2] = np.nan
        with pytest.raises(mn.GridError):
            GridFunction(0.0, 0.1, (0.0,), (0.1,), vals)

    def test_rejects_tiny_grids(self):
        with pytest.raises(mn.GridError):
            GridFunction(0.0, 0.1, (0.0,), (0.1,), np.ones((1, 4)))
        with pytest.raises(mn.GridError):
            GridFunction(0.0, -0.1, (0.0,), (0.1,), np.ones((4, 4)))

    def test_values_read_only(self, unit_box_constant):
        with pytest.raises(ValueError):
            unit_box_constant.values[0, 0] = 2.0

    def test_serialization_roundtrip(self, tmp_path, rng):
        f = random_field(rng, d=2, nt=6, nx=5)
        mn.save_grid_function(f, tmp_path / "field")
        g = mn.load_grid_function(tmp_path / "field")
        assert np.array_equal(f.values, g.values)
        assert g.dt == f.dt and g.x0 == f.x0 and g.boundary == f.boundary

    def test_export_format_golden(self, tmp_path):
        # the header text and the .bin bytes of one tiny grid, pinned; ensembles
        # are written by the same writer (tests/test_sde_mc.py pins one too)
        f = GridFunction(0.0, 0.5, (-1.0,), (0.25,), np.arange(8.0).reshape(2, 4) / 3, "periodic")
        jpath, bpath = mn.save_grid_function(f, tmp_path / "grid")
        assert (jpath, bpath) == (tmp_path / "grid.json", tmp_path / "grid.bin")
        assert jpath.read_text() == (
            '{\n "boundary_tag": "periodic",\n "d": 1,\n "dt": 0.5,\n "dx": [\n  0.25\n ],\n'
            ' "nt": 2,\n "nx": [\n  4\n ],\n "t0": 0.0,\n "x0": [\n  -1.0\n ]\n}\n')
        assert hashlib.sha256(bpath.read_bytes()).hexdigest() == (
            "0b2a9d473f9a5678cff17a606b7cef428f4b7e4be3a1bec96329679622c0a813")

    def test_save_does_not_copy_the_grid(self, tmp_path, rng):
        f = random_field(rng, d=2, nt=64, nx=64)
        mn.save_grid_function(f, tmp_path / "warm")
        tracemalloc.start()
        try:
            mn.save_grid_function(f, tmp_path / "field")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * f.values.nbytes

    @pytest.mark.parametrize("t_lo,t_hi", [(0.2, 0.6), (0.0, 1.0), (-1.0, 2.0)],
                             ids=["partial", "full", "wider"])
    def test_restrict_time_equals_fancy_index(self, rng, t_lo, t_hi):
        f = random_field(rng, d=2, nt=10, nx=4)
        tc = f.t_centers()
        keep = np.nonzero((tc >= t_lo - 1e-12) & (tc <= t_hi + 1e-12))[0]
        g = mn.restrict_time(f, t_lo, t_hi)
        assert np.array_equal(g.values, f.values[keep])
        assert g.t0 == f.t0 + keep[0] * f.dt
        assert (g.dt, g.x0, g.dx, g.boundary) == (f.dt, f.x0, f.dx, f.boundary)
        assert not np.shares_memory(g.values, f.values)


class TestSampling:
    """``cell_centers`` and ``GridFunction.sample`` equal the inline constructions they replace."""

    @pytest.mark.parametrize("x0,dx,nx", [((-1.5,), (0.125,), (16,)),
                                          ((-2.0, 0.3), (0.25, 0.1), (7, 5)),
                                          ((0.0, -1.0, 2.5), (0.5, 1 / 3, 0.2), (3, 4, 5))])
    def test_cell_centers(self, x0, dx, nx):
        axes = [lo + (np.arange(n) + 0.5) * h for lo, n, h in zip(x0, nx, dx)]
        want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        assert np.array_equal(mn.cell_centers(x0, dx, nx), want)
        f = GridFunction(0.0, 0.1, x0, dx, np.zeros((2,) + nx))
        assert np.array_equal(f.meshgrid(), want)

    @pytest.mark.parametrize("fn", [
        lambda t, X: np.sin(t + X[..., 0]) * X[..., -1],
        lambda t, X: (1 + t) * X,
        lambda t, X: np.einsum("...i,...j->...ij", X, X) + t,
        lambda t, X: X[..., 0] > t,
    ], ids=["scalar", "vector", "matrix", "bool"])
    def test_sample(self, rng, fn):
        f = random_field(rng, d=2, nt=6, nx=5).with_values(np.zeros((6, 5, 5)))
        axes = [f.x0[k] + (np.arange(f.nx[k]) + 0.5) * f.dx[k] for k in range(f.d)]
        X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        want = np.stack([fn(t, X) for t in f.t_centers()])
        got = f.sample(fn)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_from_callable_casts_rows_to_float(self):
        def fn(t, X):
            return X[..., 0] > t

        f = mn.from_callable(fn, (0.0, 1.0), 4, [(0.0, 1.0), (0.0, 2.0)], (8, 3))
        want = np.stack([fn(t, f.meshgrid()) for t in f.t_centers()]).astype(float)
        assert f.values.dtype == float and np.array_equal(f.values, want)


class TestMixedNorm:
    def test_constant_unit_mass(self):
        for d in (1, 2):
            f = constant_field(box=((0.0, 1.0),) * d, nx=(8,) * d)
            assert mn.mixed_norm(f, MixedNormSpec(2, 4, "time-outer")) == pytest.approx(1.0)

    def test_linear_in_time_sup_norm(self):
        f = mn.from_callable(lambda t, X: t * np.ones(X.shape[:-1]), (0, 1), 64,
                             [(0, 1)], (8,))
        # int_0^1 t dt = 1/2, exact for the midpoint rule
        assert mn.mixed_norm(f, MixedNormSpec(INF, 1, "time-outer")) == pytest.approx(0.5)

    def test_half_indicator_vs_fine_oracle(self):
        def build(nt, nx):
            return mn.from_callable(
                lambda t, X: (t < 0.5) * np.ones(X.shape[:-1]), (0, 1), nt, [(0, 1)], (nx,))

        f = build(16, 8)
        fine = build(32, 16)
        oracle = brute_mixed_norm(fine.values, fine.dt, fine.cell_volume, 2, 2, "time-outer")
        spec = MixedNormSpec(2, 2, "time-outer")
        assert mn.mixed_norm(f, spec) == pytest.approx(oracle)
        assert mn.mixed_norm(f, spec) == pytest.approx(1 / math.sqrt(2))

    @pytest.mark.parametrize("p,q,order", [(2, 4, "time-outer"), (3, 1.5, "space-outer"),
                                           (INF, 2, "time-outer"), (2, INF, "space-outer")])
    def test_matches_bruteforce(self, rng, p, q, order):
        f = random_field(rng, d=2, nt=5, nx=6)
        want = brute_mixed_norm(f.values, f.dt, f.cell_volume, p, q, order)
        assert mn.mixed_norm(f, MixedNormSpec(p, q, order)) == pytest.approx(want, rel=1e-12)

    # magnitudes bounded away from the underflow range of |c|^p
    @given(c=st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_homogeneity_exact(self, c):
        f = constant_field(nt=4, nx=(4,))
        g = f.with_values(c * np.ones_like(f.values) * np.linspace(1, 2, 4)[:, None])
        base = f.with_values(np.ones_like(f.values) * np.linspace(1, 2, 4)[:, None])
        spec = MixedNormSpec(3, 2, "time-outer")
        assert mn.mixed_norm(g, spec) == pytest.approx(abs(c) * mn.mixed_norm(base, spec),
                                                       rel=1e-12, abs=1e-300)

    def test_indicator_monotonicity(self):
        small = mn.from_callable(lambda t, X: ((t < 0.5) & (X[..., 0] < 0.5)).astype(float),
                                 (0, 1), 8, [(0, 1)], (8,))
        big = mn.from_callable(lambda t, X: (t < 0.75).astype(float) * (X[..., 0] < 0.75),
                               (0, 1), 8, [(0, 1)], (8,))
        for spec in (MixedNormSpec(2, 3, "time-outer"), MixedNormSpec(1, INF, "space-outer")):
            assert mn.mixed_norm(small, spec) <= mn.mixed_norm(big, spec)

    def test_nesting_hoelder_on_window(self, rng):
        # p <= p', q <= q' implies windowed L^(q,p) <= C * windowed L^(q',p')
        f = random_field(rng, d=1, nt=10, nx=12)
        cyl = Cylinder(0.45, (0.5, (0.5,)))
        p, p2, q, q2 = 1.5, 3.0, 2.0, 4.0
        # the window's time and space measures, read off the indicator of the grid
        ones = f.with_values(np.ones(f.values.shape))
        t_meas = mn.cylinder_norm(ones, MixedNormSpec(INF, 1, "time-outer"), cyl)
        x_meas = mn.cylinder_norm(ones, MixedNormSpec(1, INF, "time-outer"), cyl)
        C = t_meas ** (1 / q - 1 / q2) * x_meas ** (1 / p - 1 / p2)
        lo = mn.cylinder_norm(f, MixedNormSpec(p, q, "time-outer"), cyl)
        hi = mn.cylinder_norm(f, MixedNormSpec(p2, q2, "time-outer"), cyl)
        assert lo <= C * hi * (1 + 1e-12)

    def test_refinement_order_on_smooth_field(self):
        def build(n):
            return mn.from_callable(
                lambda t, X: np.sin(2 * t + X[..., 0]) * np.exp(-X[..., 0] ** 2),
                (0, 1), n, [(-1, 1)], (2 * n,))

        spec = MixedNormSpec(3, 2, "time-outer")
        vals = [mn.mixed_norm(build(n), spec) for n in (8, 16, 32, 64)]
        order = math.log2(abs(vals[1] - vals[2]) / abs(vals[2] - vals[3]))
        assert order >= 1.7


class TestMinkowski:
    def test_product_function_gap_zero(self):
        f = mn.from_callable(lambda t, X: (1 + t) * np.cos(X[..., 0]), (0, 1), 12,
                             [(0, 1)], (10,))
        assert mn.minkowski_gap(f, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_staircase_strict_gap(self):
        # two disjoint time-space blocks
        f = mn.from_callable(
            lambda t, X: (((t < 0.5) & (X[..., 0] < 0.5))
                          | ((t >= 0.5) & (X[..., 0] >= 0.5))).astype(float),
            (0, 1), 8, [(0, 1)], (8,))
        assert mn.minkowski_gap(f, 1.0, 2.0) > 1e-3

    def test_zero_function(self, rng):
        f = random_field(rng).with_values(np.zeros((10, 10)))
        assert mn.minkowski_gap(f, 1.0, 3.0) == 0.0

    def test_swapped_roles_reverse(self, rng):
        # q <= p: the reverse ordering holds, i.e. the gap computed with the
        # roles swapped is nonpositive
        for _ in range(20):
            f = random_field(rng, d=1, nt=7, nx=9)
            p = float(rng.uniform(1, 8))
            q = float(rng.uniform(1, p))
            a = mn.mixed_norm(f, MixedNormSpec(p, q, "space-outer"))
            b = mn.mixed_norm(f, MixedNormSpec(p, q, "time-outer"))
            assert a <= b * (1 + 1e-9)

    def test_precondition(self, rng):
        f = random_field(rng)
        with pytest.raises(mn.ExponentError):
            mn.minkowski_gap(f, 3.0, 2.0)


def _lattice_field(d):
    rng = np.random.default_rng(40 + d)
    nx, dx = {1: ((41,), (0.1,)), 2: ((13, 11), (0.2, 0.25)),
              3: ((9, 8, 7), (0.3, 0.25, 0.35))}[d]
    vals = rng.standard_normal((37,) + nx)
    vals[10] += 5.0  # a row that no window covers at lattice step 1 and radius 1/2
    return GridFunction(0.0, 0.05, (0.0,) * d, dx, vals)


def _window_slices(f, kernel, o_mins, it, ix, to_min, to_max):
    """Grid slices of the window at lattice entry (it, ix) and the matching kernel slices."""
    rows = slice(max(it + to_min, 0), min(it + to_max + 1, f.nt))
    if rows.stop <= rows.start:
        return None
    cells, ker = [], []
    for k in range(f.d):
        lo, hi = ix[k] + o_mins[k], ix[k] + o_mins[k] + kernel.shape[k]
        clo, chi = max(lo, 0), min(hi, f.nx[k])
        if chi <= clo:
            return None
        cells.append(slice(clo, chi))
        ker.append(slice(clo - lo, kernel.shape[k] - (hi - chi)))
    return (rows, *cells), tuple(ker)


def _per_window_norm(f, spec, lattice_step, radius):
    """Reference: the mixed norm of each lattice window in turn, by plain loops."""
    kernel, o_mins = mn._ball_kernel(f.dx, radius)
    to_min, to_max = mn._offset_range(f.dt, radius**2)
    st_t, st_x = mn._strides(f, lattice_step)
    best = 0.0
    for it in range(0, f.nt, st_t):
        for ix in itertools.product(*(range(0, n, s) for n, s in zip(f.nx, st_x))):
            window = _window_slices(f, kernel, o_mins, it, ix, to_min, to_max)
            if window is not None:
                cells, ker = window
                sub = f.values[cells] * kernel[ker][None]
                best = max(best, brute_mixed_norm(sub, f.dt, f.cell_volume, spec.p, spec.q,
                                                  spec.order))
    return best


def _middle_window_mask(f, lattice_step, radius):
    """0/1 mask of the cells in the lattice window nearest the middle of the grid."""
    kernel, o_mins = mn._ball_kernel(f.dx, radius)
    to_min, to_max = mn._offset_range(f.dt, radius**2)
    st_t, st_x = mn._strides(f, lattice_step)
    it = f.nt // 2 // st_t * st_t
    ix = [n // 2 // s * s for n, s in zip(f.nx, st_x)]
    cells, ker = _window_slices(f, kernel, o_mins, it, ix, to_min, to_max)
    mask = np.zeros(f.values.shape)
    mask[cells] = kernel[ker][None]
    return mask


class TestLocalizedNorm:
    def test_support_in_one_window_attains_mixed_norm(self):
        # support inside [0, 2) x B_1(0.5): window centered at (1, 0.5)
        f = mn.from_callable(
            lambda t, X: ((t < 2) & (np.abs(X[..., 0] - 0.5) < 0.45)).astype(float)
            * np.exp(-t),
            (0, 4), 32, [(-2, 3)], (40,))
        spec = MixedNormSpec(2, 2, "time-outer")
        loc = mn.localized_norm(f, spec, lattice_step=0.125)
        assert loc == pytest.approx(mn.mixed_norm(f, spec), rel=1e-12)

    def test_constant_window_mass(self):
        f = constant_field(t_span=(0, 4), nt=32, box=((-2, 2),), nx=(32,))
        val = mn.localized_norm(f, MixedNormSpec(2, 2, "time-outer"))
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_zero(self):
        f = constant_field(c=0.0)
        assert mn.localized_norm(f, MixedNormSpec(2, 2, "time-outer")) == 0.0

    def test_below_mixed_norm(self, rng):
        for _ in range(10):
            f = random_field(rng, d=int(rng.integers(1, 3)), nt=8, nx=8)
            p = float(rng.uniform(1, 5))
            q = float(rng.uniform(1, 5))
            order = "time-outer" if rng.random() < 0.5 else "space-outer"
            spec = MixedNormSpec(p, q, order)
            assert mn.localized_norm(f, spec) <= mn.mixed_norm(f, spec) * (1 + 1e-10)

    def test_window_radius_monotone(self, rng):
        f = random_field(rng, d=1, nt=16, nx=16)
        spec = MixedNormSpec(2, 2, "time-outer")
        a = mn.localized_norm(f, spec, radius=0.5)
        b = mn.localized_norm(f, spec, radius=1.0)
        assert a <= b * (1 + 1e-10)

    @pytest.mark.parametrize("field", ["random", "one-window"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("order", ["time-outer", "space-outer"])
    @pytest.mark.parametrize("p,q", [(1.5, 2.0), (1.5, INF), (INF, 3.0), (INF, INF)])
    @pytest.mark.parametrize("lattice_step,radius", [(0.25, 1.0), (1.0, 0.5)],
                             ids=["covered", "time-gaps"])
    def test_equals_per_window_reference(self, field, d, order, p, q, lattice_step, radius):
        f = _lattice_field(d)
        if field == "one-window":
            f = f.with_values(f.values * _middle_window_mask(f, lattice_step, radius))
        spec = MixedNormSpec(p, q, order)
        got = mn.localized_norm(f, spec, lattice_step, radius)
        assert got == pytest.approx(_per_window_norm(f, spec, lattice_step, radius), rel=1e-10)
        if field == "one-window":  # the window that holds the support attains the full norm
            assert got == pytest.approx(mn.mixed_norm(f, spec), rel=1e-10)

    def test_lattice_step_validated(self, unit_box_constant):
        with pytest.raises(mn.GridError):
            mn.localized_norm(unit_box_constant, MixedNormSpec(2, 2), lattice_step=1.5)

    def test_empty_ball_rejected(self):
        # spacing 3 > ball diameter 2: no cell center lies in any window ball,
        # so an infinite sample must not aggregate to 0
        for p in (INF, 2.4):
            with pytest.raises(mn.GridError):
                mn.localized_spatial_norm([np.inf, 1.0, 1.0], (3.0,), p)
        f = constant_field(t_span=(0, 1), nt=8, box=((-4, 4),), nx=(3,))
        with pytest.raises(mn.GridError):
            mn.localized_norm(f, MixedNormSpec(2, 2))


def _full_ball_reduce(arr, p, kernel, o_mins, cellvol):
    """Ball reduction of the whole array in one transform."""
    a = np.abs(arr)
    if math.isinf(p):
        origins = [lo + n // 2 for lo, n in zip(o_mins, kernel.shape)]
        return ndimage.maximum_filter(a, footprint=(kernel > 0)[None], mode="constant",
                                      cval=0.0, origin=[0] + origins)
    rev = kernel[tuple(slice(None, None, -1) for _ in kernel.shape)]
    conv = signal.fftconvolve(a**p, rev[None], mode="full", axes=tuple(range(1, a.ndim)))
    sl = (slice(None),) + tuple(slice(lo + n - 1, lo + n - 1 + m)
                                for lo, n, m in zip(o_mins, kernel.shape, arr.shape[1:]))
    return np.maximum(conv[sl], 0.0) * cellvol


def _full_array_fft_norm(f, spec, lattice_step, radius):
    """The convolution path on every space-time entry, subsampled to the lattice at the end."""
    kernel, o_mins = mn._ball_kernel(f.dx, radius)
    to_min, to_max = mn._offset_range(f.dt, radius**2)
    st_t, st_x = mn._strides(f, lattice_step)
    sub = (slice(None, None, st_t),) + tuple(slice(None, None, s) for s in st_x)
    p, q, n = spec.p, spec.q, f.nt

    def ball(arr):
        return _full_ball_reduce(arr, p, kernel, o_mins, f.cell_volume)

    def window_sum(arr):
        csum = np.concatenate([np.zeros((1,) + arr.shape[1:]), np.cumsum(arr, axis=0)])
        idx = np.arange(n)
        return (csum[np.clip(idx + to_max + 1, 0, n)] - csum[np.clip(idx + to_min, 0, n)]) * f.dt

    def window_max(arr):
        size = to_max - to_min + 1
        return ndimage.maximum_filter1d(arr, size=size, axis=0, mode="constant", cval=0.0,
                                        origin=to_min + size // 2)

    if spec.order == "time-outer":
        S = ball(f.values)
        if math.isinf(q):
            N = window_max(S if math.isinf(p) else S ** (1.0 / p))
        else:
            N = window_sum(S**q if math.isinf(p) else S ** (q / p)) ** (1.0 / q)
    else:
        a = np.abs(f.values)
        N = ball(window_max(a) if math.isinf(q) else window_sum(a**q) ** (1.0 / q))
        if not math.isinf(p):
            N = N ** (1.0 / p)
    return float(N[sub].max())


class TestLatticeLocalizedNorm:
    """The convolution path computes only lattice entries, bitwise as the full array."""

    @pytest.fixture(params=[(d, k) for d in (1, 2, 3) for k in (None, 1, 3)],
                    ids=[f"d{d}-{k}" for d in (1, 2, 3)
                         for k in ("default", "one-slice", "uneven")])
    def field(self, request, monkeypatch):
        d, slices = request.param
        f = _lattice_field(d)
        if slices:  # FFT blocks of one slice, or of three, which split 37 rows unevenly
            monkeypatch.setattr(mn, "BLOCK_BYTES", slices * f.values[0].nbytes)
        return f

    @pytest.mark.parametrize("order", ["time-outer", "space-outer"])
    @pytest.mark.parametrize("p,q", [(1.5, 2.0), (1.5, INF), (INF, 3.0), (INF, INF)])
    @pytest.mark.parametrize("lattice_step,radius", [(0.25, 1.0), (1.0, 0.5)],
                             ids=["covered", "time-gaps"])
    def test_equals_full_array(self, field, order, p, q, lattice_step, radius):
        spec = MixedNormSpec(p, q, order)
        got = mn.localized_norm(field, spec, lattice_step, radius)
        assert got == _full_array_fft_norm(field, spec, lattice_step, radius)

    def test_ball_reduce_blocks(self, field):
        kernel, o_mins = mn._ball_kernel(field.dx, 0.5)
        args = (field.values, 1.5, kernel, o_mins, field.cell_volume)
        _, st_x = mn._strides(field, 0.25)
        sub = (slice(None),) + tuple(slice(None, None, s) for s in st_x)
        assert np.array_equal(mn._space_ball_reduce(*args, st_x), _full_ball_reduce(*args)[sub])


def _per_center_covering(f, spec, T, r):
    """Reference: the masked mixed norms around each edge-lattice center in turn."""
    tc = f.t_centers()
    window = ((tc >= -1e-12) & (tc < T - 1e-12)).reshape((-1,) + (1,) * f.d)
    X = f.meshgrid()
    _, st_x = mn._strides(f, 0.25)
    ratios = []
    edge_axes = [f.x0[k] + np.arange(0, f.nx[k], st_x[k]) * f.dx[k] for k in range(f.d)]
    for z in np.stack(np.meshgrid(*edge_axes, indexing="ij"), axis=-1).reshape(-1, f.d):
        dist2 = ((X - z) ** 2).sum(axis=-1)
        n1, nr = (mn.mixed_norm(f.with_values(f.values * window * (dist2 <= rho2)), spec)
                  for rho2 in (1.0 + 1e-12, r**2 * (1 + 1e-12)))
        if nr > 0:
            ratios.append(n1 / nr)
    if not ratios:
        return (0.0, 0.0)
    return (min(ratios), max(ratios))


def _with_zero_regions(f):
    """``f`` zeroed outside a small corner block, so many windows hold no nonzero sample."""
    keep = np.zeros(f.values.shape)
    keep[3:12, 2:6, ...] = 1.0
    return f.with_values(f.values * keep)


def _bump_field(d, width):
    """The drifting Gaussian bump of demo 01 (width 0.3) on ``[0, 4] x [-2, 2]^d``.

    Its windows near the box edges hold only the far tail, 1e-8 of the peak at
    width 0.3 and 1e-25 at width 0.1.
    """
    def bump(t, X):
        return np.exp(-((X[..., 0] - 0.4 * np.sin(t)) ** 2 + (X[..., 1:] ** 2).sum(-1)) / width)

    nt, nx = (64, (64,)) if d == 1 else (16, (24, 24))
    return mn.from_callable(bump, (0.0, 4.0), nt, [(-2.0, 2.0)] * d, nx)


class TestCoveringEquivalence:
    @pytest.mark.parametrize("field", ["random", "zero-regions", "bump", "narrow-bump"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("order", ["time-outer", "space-outer"])
    @pytest.mark.parametrize("p,q", [(1.5, 2.0), (1.5, INF), (INF, 3.0), (INF, INF)])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
    def test_equals_per_center_reference(self, field, d, order, p, q, r):
        if field.endswith("bump"):
            f = _bump_field(d, 0.1 if field == "narrow-bump" else 0.3)
        else:
            f = _lattice_field(d)
        if field == "zero-regions":
            f = _with_zero_regions(f)
        spec = MixedNormSpec(p, q, order)
        got = mn.covering_equivalence_report(f, spec, 1.2, r)
        want = _per_center_covering(f, spec, 1.2, r)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1.5, INF])
    def test_direct_ball_reduce(self, d, p):
        f = _lattice_field(d)
        kernel, o_mins = mn._ball_kernel(f.dx, 2.0)
        args = (f.values, p, kernel, o_mins, f.cell_volume)
        _, st_x = mn._strides(f, 0.25)
        sub = (slice(None),) + tuple(slice(None, None, s) for s in st_x)
        np.testing.assert_allclose(mn._ball_reduce_direct(*args, st_x),
                                   _full_ball_reduce(*args)[sub], rtol=1e-12)

    def test_empty_time_window(self, rng):
        f = random_field(rng, d=1, nt=8, nx=8)
        assert mn.covering_equivalence_report(f, MixedNormSpec(2, 2), 0.0, 2.0) == (0.0, 0.0)

    def test_identical_windows(self, unit_box_constant):
        f = constant_field(t_span=(0, 2), nt=16, box=((-2, 2),), nx=(32,))
        lo, hi = mn.covering_equivalence_report(f, MixedNormSpec(2, 2), 1.0, 1.0)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_constant_ratio_interior(self):
        f = constant_field(t_span=(0, 1), nt=8, box=((-4, 4),), nx=(64,))
        lo, hi = mn.covering_equivalence_report(f, MixedNormSpec(2, 2), 1.0, 2.0)
        # fully interior windows give exactly the measure ratio; clipped
        # boundary windows can only push the band upward
        assert lo == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert lo <= hi <= 1.0

    def test_random_field_band_finite(self, rng):
        f = random_field(rng, d=1, nt=16, nx=24)
        lo, hi = mn.covering_equivalence_report(f, MixedNormSpec(2, 2), 0.8, 2.0)
        assert 0 < lo <= hi < math.inf


def _take_axis_gradient(values, axis, h, periodic):
    """Reference: central differences, then one-sided edge stencils by index lists."""
    n = values.shape[axis]
    out = (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * h)
    if periodic:
        return out

    def take(i):
        return np.take(values, i, axis=axis)

    idx = [slice(None)] * values.ndim
    idx[axis] = 0
    out[tuple(idx)] = (-3 * take(0) + 4 * take(1) - take(2)) / (2 * h)
    idx[axis] = n - 1
    out[tuple(idx)] = (3 * take(n - 1) - 4 * take(n - 2) + take(n - 3)) / (2 * h)
    return out


class TestGradientAndVNorm:
    @pytest.mark.parametrize("boundary", ["zero-extension", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gradient_equals_reference_stencil(self, rng, d, boundary):
        f = GridFunction(0.0, 0.1, (0.0,) * d, (0.1, 0.2, 0.3)[:d],
                         rng.standard_normal((4,) + (5, 3, 4)[:d]), boundary)
        want = np.stack([_take_axis_gradient(f.values, 1 + k, f.dx[k], boundary == "periodic")
                         for k in range(d)])
        assert np.array_equal(mn.spatial_gradient(f), want)

    def test_gradient_error_on_thin_axis(self):
        f = GridFunction(0.0, 0.1, (0.0,), (0.1,), np.ones((4, 2)))
        with pytest.raises(mn.GradientError):
            mn.spatial_gradient(f)

    def test_gradient_exact_on_linear(self):
        f = mn.from_callable(lambda t, X: 3.0 * X[..., 0], (0, 1), 4, [(0, 1)], (16,))
        g = mn.spatial_gradient(f)
        assert np.allclose(g[0], 3.0, atol=1e-12)

    def test_periodic_gradient_wraps(self):
        f = mn.from_callable(lambda t, X: np.sin(2 * np.pi * X[..., 0]), (0, 1), 4,
                             [(0, 1)], (64,), boundary="periodic")
        g = mn.spatial_gradient(f)
        x = f.x_centers(0)
        assert np.allclose(g[0], 2 * np.pi * np.cos(2 * np.pi * x)[None, :], atol=2e-2)

    def test_v_norm_zero_and_constant(self):
        z = constant_field(c=0.0, t_span=(0, 4), nt=16, box=((-3, 3),), nx=(48,))
        assert mn.v_norm(z, 2.0) == 0.0
        c = 1.7
        u = constant_field(c=c, t_span=(0, 4), nt=16, box=((-3, 3),), nx=(48,))
        # gradient vanishes; unit-window L2 mass in d=1 is 2
        assert mn.v_norm(u, 2.0) == pytest.approx(c * math.sqrt(2.0), rel=1e-12)

    def test_v_norm_sine_vs_fine_grid(self):
        def build(nt, nx):
            return mn.from_callable(lambda t, X: np.sin(np.pi * X[..., 0]) * np.ones_like(t),
                                    (0, 1), nt, [(0, 1)], (nx,))

        coarse = mn.v_norm(build(16, 32), 2.0, lattice_step=0.125)
        fine = mn.v_norm(build(64, 128), 2.0, lattice_step=0.125)
        assert coarse == pytest.approx(fine, rel=0.02)

    def test_kappa_range_enforced(self, unit_box_constant):
        with pytest.raises(mn.ExponentError):
            mn.v_norm(unit_box_constant, 2.5)


def _whole_array_v_norm(u, kappa, lattice_step):
    """Reference: the whole gradient magnitude, then the whole-array localized norms."""
    part1 = mn.localized_norm(u, MixedNormSpec(2.0, INF, "time-outer"), lattice_step)
    grad = mn.gradient_magnitude(u)
    return part1 + mn.localized_norm(grad, MixedNormSpec(kappa, 2.0, "space-outer"), lattice_step)


class TestStreamedVNorm:
    """``v_norm`` streams the gradient in time blocks, bitwise as the whole-array formulas."""

    @pytest.fixture(params=[(d, b, k) for d in (1, 2, 3) for b in ("zero-extension", "periodic")
                            for k in (None, 1, 3)],
                    ids=[f"d{d}-{b}-{k}" for d in (1, 2, 3) for b in ("zero", "periodic")
                         for k in ("default", "one-row", "uneven")])
    def field(self, request, monkeypatch):
        d, boundary, rows = request.param
        f = _lattice_field(d)
        f = GridFunction(f.t0, f.dt, f.x0, f.dx, f.values, boundary)
        if rows:  # blocks of one row, or of three, which split 37 rows unevenly
            monkeypatch.setattr(mn, "BLOCK_BYTES", rows * f.values[0].nbytes)
        return f

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("lattice_step", [0.25, 0.5])
    def test_equals_whole_array(self, field, kappa, lattice_step):
        assert mn.v_norm(field, kappa, lattice_step) == _whole_array_v_norm(field, kappa,
                                                                             lattice_step)

    def test_gradient_part_equals_cumsum_reference(self, field):
        spec = MixedNormSpec(1.5, 2.0, "space-outer")
        part1 = mn.localized_norm(field, MixedNormSpec(2.0, INF, "time-outer"), 0.25)
        want = _full_array_fft_norm(mn.gradient_magnitude(field), spec, 0.25, 1.0)
        assert mn.v_norm(field, 1.5, 0.25) == part1 + want


@pytest.mark.parametrize("q", [1.0, INF])
@pytest.mark.parametrize("splits", [(37,), (1, 3, 7, 26), (5, 5, 5, 5, 5, 5, 5, 2)],
                         ids=["whole", "growing", "fives"])
def test_running_time_reduce_equals_cumsum(q, splits):
    """Windows ``[0, it]`` read every prefix: the running sum is ``np.cumsum``, the running max
    ``np.maximum.accumulate``, over blocks that split the rows unevenly."""
    f = _lattice_field(2)
    edges = np.cumsum((0,) + splits)
    blocks = [f.values[a:b] for a, b in zip(edges[:-1], edges[1:])]

    def identity_ball(a, *args):
        return a

    got = mn._window_norms(f, blocks, MixedNormSpec(INF, q, "space-outer"), 1.0, [1, 1],
                           np.arange(f.nt), -f.nt, 0, identity_ball)
    a = np.abs(f.values)
    want = np.maximum.accumulate(a, axis=0) if math.isinf(q) else np.cumsum(a, axis=0) * f.dt
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", [None, 1])
def test_v_norm_overflowing_gradient_raises(monkeypatch, rows):
    f = _lattice_field(2)
    vals = f.values.copy()
    vals[30] = np.where(np.indices(f.nx).sum(axis=0) % 2, 1e308, -1e308)  # one row of +-1e308
    u = f.with_values(vals)
    if rows:
        monkeypatch.setattr(mn, "BLOCK_BYTES", rows * vals[0].nbytes)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mn.GridError):
            mn.gradient_magnitude(u)
        with pytest.raises(mn.GridError):
            mn.v_norm(u, 1.5, 0.5)


@pytest.mark.parametrize("boundary", ["zero-extension", "periodic"])
@pytest.mark.parametrize("shape", [(2049, 64), (129, 64, 64)], ids=["d1", "d2"])
def test_spatial_gradient_holds_only_its_output(shape, boundary):
    # each axis is written into its slice of the one output: no per-axis copies to stack
    rng = np.random.default_rng(11)
    d = len(shape) - 1
    f = GridFunction(0.0, 1 / 128, (0.0,) * d, (1 / 64,) * d, rng.standard_normal(shape),
                     boundary)
    mn.spatial_gradient(f)
    tracemalloc.start()
    try:
        g = mn.spatial_gradient(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * g.nbytes


def test_v_norm_memory_is_a_few_blocks():
    # 129 rows of 64 x 64 cells, 4.2 MB: the criterion-07 geometry at half resolution
    rng = np.random.default_rng(7)
    u = GridFunction(0.0, 1 / 128, (-4.0, -4.0), (0.125, 0.125),
                     rng.standard_normal((129, 64, 64)), "periodic")
    mn.v_norm(u, 1.2, 0.5)  # first call: FFT plans and caches
    tracemalloc.start()
    try:
        mn.v_norm(u, 1.2, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * u.values.nbytes


# NaN, both infinities, zeros, negatives and subnormals are all drawn
ANY_FLOAT = st.floats(allow_subnormal=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ANY_FLOAT, ANY_FLOAT, st.integers(-2, mn.MAX_STEPS + 2), st.booleans())
def test_whole_steps_returns_a_whole_count_or_raises(span, dt, n, on_grid):
    if on_grid:  # a span of n steps, so the accepting branch is drawn too
        span = n * dt
    try:
        steps = mn._whole_steps(span, dt, mn.GridError)
    except mn.GridError:
        return
    assert type(steps) is int and 1 <= steps <= mn.MAX_STEPS
    assert abs(span / dt - steps) <= 1e-8


def test_whole_steps_at_and_past_the_cap():
    assert mn._whole_steps(float(mn.MAX_STEPS), 1.0, mn.GridError) == mn.MAX_STEPS
    assert mn._whole_steps(mn.MAX_STEPS * 0.01, 0.01, mn.GridError) == mn.MAX_STEPS
    for span, dt in [(mn.MAX_STEPS + 1.0, 1.0), ((mn.MAX_STEPS + 1) * 0.01, 0.01)]:
        with pytest.raises(mn.GridError, match="whole number of steps"):
            mn._whole_steps(span, dt, mn.GridError)


def test_cell_index_lookup():
    g = mn.from_callable(lambda t, X: 1.0 + X[..., 0] ** 2, (0, 1), 4, [(-1, 1)], (16,))
    X = mn.cell_centers((-1.0,), (0.125,), (16,))
    (ti, xi), inside = mn._cell_index(g, 0.6, X)
    assert ti == 2 and xi.tolist() == list(range(16)) and inside.all()
    # outside the grid the lookup clamps to the edge cells, in time and space
    (ti, xi), inside = mn._cell_index(g, 5.0, np.array([[-1.5], [1.5]]))
    assert ti == 3 and xi.tolist() == [0, 15] and not inside.any()


# the quotient is clamped while still a float: +inf and 1e300 read the last cell,
# -inf and -1e300 the first, with no cast warning, in time and in space
@pytest.mark.parametrize("far, edge", [(math.inf, -1), (1e300, -1), (-math.inf, 0), (-1e300, 0)])
def test_cell_index_far_outside(far, edge):
    g = mn.from_callable(lambda t, X: 1.0 + X[..., 0] ** 2, (0, 1), 4, [(-1, 1)], (16,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (ti, xi), t_inside = mn._cell_index(g, far, np.array([[0.1]]))
        (tj, xj), x_inside = mn._cell_index(g, 0.6, np.array([[far]]))
    assert (ti, xi.tolist(), t_inside.tolist()) == (range(4)[edge], [8], [False])
    assert (tj, xj.tolist(), x_inside.tolist()) == (2, [range(16)[edge]], [False])

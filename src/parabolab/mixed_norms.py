"""Space-time grid functions and the mixed / localized Lebesgue norms built on them.

A :class:`GridFunction` holds samples of ``f(t, x)`` at the centers of a uniform
space-time lattice.  Every integral in this module is a midpoint-rule sum (each
sample owns one cell of measure ``dt * prod(dx)``), so indicators aligned with
cell edges integrate exactly and smooth functions integrate at second order.
Infinite exponents are evaluated as maxima over the samples.

Two norm orderings are supported, time-outer

    ``||f|| = ( int ||f(t,.)||_p^q dt )^(1/q)``

and space-outer

    ``||f|| = ( int ||f(.,x)||_q^p dx )^(1/p)``,

where ``p`` always denotes the spatial exponent and ``q`` the temporal one.
Localized ("tilde") norms take a supremum of windowed norms over shifted unit
space-time cylinders ``[s - r^2, s + r^2] x B_r(z)``; the shift lattice is
snapped to the sample lattice, which loses nothing at grid resolution because a
sub-cell shift cannot change which samples a window captures.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError

INF = math.inf

__all__ = [
    "INF",
    "GridError",
    "ExponentError",
    "GradientError",
    "GridFunction",
    "MixedNormSpec",
    "Cylinder",
    "cell_centers",
    "from_callable",
    "mixed_norm",
    "cylinder_norm",
    "localized_norm",
    "localized_spatial_norm",
    "covering_equivalence_report",
    "spatial_gradient",
    "gradient_magnitude",
    "gradient_sup",
    "v_norm",
    "minkowski_gap",
    "restrict_time",
    "save_grid_function",
    "load_grid_function",
    "norm_record",
]


class GridError(InputError):
    """Invalid grid geometry or non-finite sample values."""


class ExponentError(InputError):
    """Exponent outside [1, inf] or an invalid norm ordering."""


class GradientError(InputError):
    """Grid too small to support the second-order gradient stencils."""


_BOUNDARY_TAGS = ("zero-extension", "periodic")

# one working block: about 0.5 MB of FFT input slices, streamed gradient or forcing
# rows, or ensemble paths (``sde_mc``); the FFT kernel is transformed once per window sweep
BLOCK_BYTES = 1 << 19
MAX_STEPS = 10**7  # time steps per run; each step holds one grid or ensemble slice


def _whole_steps(span: float, dt: float, error: type[Exception]) -> int:
    """``round(span / dt)``, a whole number of steps in 1..``MAX_STEPS``; else raise ``error``.

    The quotient must lie within 1e-8 of that whole number; ``dt <= 0``, NaN
    and inf fail the range check.
    """
    q = span / dt if dt > 0 else math.nan
    if not (1 - 1e-8 <= q <= MAX_STEPS + 1e-8 and abs(q - round(q)) <= 1e-8):
        raise error(f"{span:g} / {dt:g} is not a whole number of steps in 1..{MAX_STEPS}")
    return int(round(q))


def _count(n, lo: int, hi: float, error: type[Exception]) -> int:
    """``n`` as an ``int`` when it is an integer (not a bool) in ``lo..hi``; else raise ``error``.

    Callers check a count here before anything is sized by it.
    """
    whole = isinstance(n, (int, np.integer)) and not isinstance(n, (bool, np.bool_))
    if not (whole and lo <= n <= hi):
        raise error(f"expected an integer count in {lo}..{hi}, got {n!r}")
    return int(n)


def _check_exponent(e: float, name: str = "exponent") -> float:
    e = float(e)
    if math.isnan(e) or e < 1.0:
        raise ExponentError(f"{name} must lie in [1, inf], got {e}")
    return e


@dataclass(frozen=True)
class MixedNormSpec:
    """Mixed-norm exponents: ``p`` spatial, ``q`` temporal, plus the ordering."""

    p: float
    q: float
    order: str = "time-outer"

    def __post_init__(self):
        _check_exponent(self.p, "p")
        _check_exponent(self.q, "q")
        if self.order not in ("time-outer", "space-outer"):
            raise ExponentError(f"unknown ordering {self.order!r}")

    def label(self) -> str:
        def fmt(e):
            return "inf" if math.isinf(e) else f"{e:g}"

        if self.order == "time-outer":
            return f"L^({fmt(self.q)},{fmt(self.p)})_(t,x)"
        return f"L^({fmt(self.p)},{fmt(self.q)})_(x,t)"


@dataclass(frozen=True)
class Cylinder:
    """Shifted parabolic cylinder ``[s - r^2, s + r^2] x B_r(z)``."""

    r: float
    center: tuple  # (s, (z_1, ..., z_d))

    def __post_init__(self):
        if not self.r > 0:
            raise GridError(f"cylinder radius must be positive, got {self.r}")

    @property
    def s(self) -> float:
        return float(self.center[0])

    @property
    def z(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.center[1], dtype=float))


class GridFunction:
    """Samples of a space-time function on a uniform lattice (cell centers).

    Parameters
    ----------
    t0, dt:
        Left edge of the first time cell and the time step.
    x0, dx:
        Left box edges and spatial steps, one entry per axis (d <= 3).
    values:
        Array of shape ``(nt, nx_1, ..., nx_d)``; must be finite.
    boundary:
        ``"zero-extension"`` (the function is 0 outside the box) or
        ``"periodic"``.

    The instance owns ``values``: a read-only float64 array that nothing
    outside the instance can write.  The constructor and :meth:`with_values`
    copy the caller's array for that.  Where this package has just computed
    an array that nothing else references, it hands it over without a copy
    through :meth:`_owning` or :meth:`_with_owned`, after the same checks.
    """

    __slots__ = ("t0", "dt", "x0", "dx", "values", "boundary")

    def __init__(self, t0, dt, x0, dx, values, boundary="zero-extension"):
        self._adopt(t0, dt, x0, dx, np.array(values, dtype=float, copy=True), boundary)

    @classmethod
    def _owning(cls, t0, dt, x0, dx, values, boundary="zero-extension") -> "GridFunction":
        """The constructor without its copy: the instance takes ``values`` itself.

        Only for a new array that nothing else references, never a view of a
        caller's array; it is cast to float64 only if it is not already, then
        checked and made read-only as the constructor does.
        """
        self = object.__new__(cls)
        self._adopt(t0, dt, x0, dx, np.asarray(values, dtype=float), boundary)
        return self

    def _adopt(self, t0, dt, x0, dx, values: np.ndarray, boundary) -> None:
        if values.ndim < 2 or values.ndim > 4:
            raise GridError(f"values must have 1 time + 1..3 space axes, got shape {values.shape}")
        d = values.ndim - 1
        x0 = tuple(float(v) for v in np.atleast_1d(x0))
        dx = tuple(float(v) for v in np.atleast_1d(dx))
        if len(x0) != d or len(dx) != d:
            raise GridError(f"x0/dx must have {d} entries to match values of shape {values.shape}")
        if not dt > 0 or any(not h > 0 for h in dx):
            raise GridError("dt and every dx must be positive")
        if values.shape[0] < 2 or any(n < 2 for n in values.shape[1:]):
            raise GridError("need at least 2 samples along every axis")
        _require_finite(values)
        if boundary not in _BOUNDARY_TAGS:
            raise GridError(f"boundary must be one of {_BOUNDARY_TAGS}, got {boundary!r}")
        values.setflags(write=False)
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "boundary", boundary)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    # -- geometry ----------------------------------------------------------
    @property
    def d(self) -> int:
        return self.values.ndim - 1

    @property
    def nt(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> tuple:
        return self.values.shape[1:]

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def t_centers(self) -> np.ndarray:
        return self.t0 + (np.arange(self.nt) + 0.5) * self.dt

    def x_centers(self, axis: int) -> np.ndarray:
        return self.x0[axis] + (np.arange(self.nx[axis]) + 0.5) * self.dx[axis]

    def meshgrid(self) -> np.ndarray:
        """Cell-center coordinates, shape ``(*nx, d)``."""
        return cell_centers(self.x0, self.dx, self.nx)

    def sample(self, fn: Callable) -> np.ndarray:
        """``fn(t, X)`` at every time center on this grid's cell centers, shape ``(nt, *nx, ...)``."""
        return _sample_rows(fn, self.t_centers(), self.meshgrid())

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """This grid with a copy of ``values``."""
        return GridFunction(self.t0, self.dt, self.x0, self.dx, values, self.boundary)

    def _with_owned(self, values: np.ndarray) -> "GridFunction":
        """:meth:`with_values` without the copy, on the terms of :meth:`_owning`."""
        return GridFunction._owning(self.t0, self.dt, self.x0, self.dx, values, self.boundary)

    def scaled(self, c: float) -> "GridFunction":
        return self._with_owned(c * self.values)


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise GridError("grid values must be finite (no NaN/Inf)")


def _sample_rows(fn: Callable, ts: np.ndarray, X: np.ndarray, out: np.ndarray | None = None):
    """``fn(t, X)`` for each ``t`` in ``ts``, written row by row into one array.

    Without ``out`` the array takes the shape and dtype of the first row, as
    ``np.stack`` of the rows would.
    """
    for i, t in enumerate(ts):
        row = fn(t, X)
        if out is None:
            row = np.asarray(row)
            out = np.empty((len(ts),) + row.shape, row.dtype)
        out[i] = row
    return out


def cell_centers(x0, dx, nx) -> np.ndarray:
    """Centers of the ``nx`` cells of size ``dx`` from the left edges ``x0``, shape ``(*nx, d)``."""
    axes = [x0[k] + (np.arange(n) + 0.5) * dx[k] for k, n in enumerate(nx)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _cell_index(f: GridFunction, t: float, X: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Index into ``f.values`` of the cell holding ``(t, x)`` per ``x`` in ``X``; the inside mask.

    ``X`` has shape ``(..., d)``; per axis, time first, the index is
    ``floor((x - x0) / dx)`` clamped into the grid while still a float, then
    cast, and the mask is true where no axis needed the clamp.  Every input
    has a cell: +inf and a quotient past the float range go to the last cell,
    -inf to the first, NaN to an edge, and all of these lie outside the mask.
    """
    idx, inside = [], np.ones(X.shape[:-1], dtype=bool)
    axes = zip([t, *np.moveaxis(X, -1, 0)], (f.t0, *f.x0), (f.dt, *f.dx), (f.nt, *f.nx))
    with np.errstate(over="ignore"):
        for c, lo, h, n in axes:
            q = np.floor((c - lo) / h)
            inside &= (q >= 0) & (q < n)  # false for NaN
            idx.append(np.fmax(np.fmin(q, n - 1), 0).astype(int))
    return tuple(idx), inside


def _box_cells(box, nx) -> tuple[tuple, tuple, tuple]:
    """``(x0, dx, nx)`` of ``nx`` equal cells per axis of ``box``, a list of (lo, hi) pairs."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    nx = tuple(_count(n, 1, math.inf, GridError) for n in np.atleast_1d(nx))
    if len(nx) != len(box):
        raise GridError("box and nx must have the same number of axes")
    x0 = tuple(lo for lo, _ in box)
    dx = tuple((hi - lo) / n for (lo, hi), n in zip(box, nx))
    return x0, dx, nx


def from_callable(fn: Callable, t_span, nt: int, box, nx, boundary="zero-extension") -> GridFunction:
    """Sample ``fn(t, X)`` at cell centers; ``X`` has shape ``(*nx, d)``.

    ``box`` is a sequence of (lo, hi) pairs, one per spatial axis.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    nt = _count(nt, 1, math.inf, GridError)
    dt = (t1 - t0) / nt
    x0, dx, nx = _box_cells(box, nx)
    ts = t0 + (np.arange(nt) + 0.5) * dt
    vals = _sample_rows(fn, ts, cell_centers(x0, dx, nx), np.empty((nt,) + nx))
    return GridFunction._owning(t0, dt, x0, dx, vals, boundary)


# ---------------------------------------------------------------------------
# plain mixed norms
# ---------------------------------------------------------------------------


def _reduce(a: np.ndarray, e: float, weight: float, axis) -> np.ndarray:
    """Weighted l^e reduction over ``axis``; ``e = inf`` is a max."""
    a = np.abs(a)
    if math.isinf(e):
        return a.max(axis=axis)
    if e == 1.0:
        return a.sum(axis=axis) * weight
    return (np.power(a, e).sum(axis=axis) * weight) ** (1.0 / e)


def _reduce_values(values: np.ndarray, spec: MixedNormSpec, dt: float, cellvol: float) -> float:
    d = values.ndim - 1
    space_axes = tuple(range(1, d + 1))
    if spec.order == "time-outer":
        inner = _reduce(values, spec.p, cellvol, space_axes)
        return float(_reduce(inner, spec.q, dt, 0))
    inner = _reduce(values, spec.q, dt, 0)
    return float(_reduce(inner, spec.p, cellvol, tuple(range(d))))


def mixed_norm(f: GridFunction, spec: MixedNormSpec) -> float:
    """Mixed norm of ``f`` by midpoint quadrature (max over samples for inf)."""
    return _reduce_values(f.values, spec, f.dt, f.cell_volume)


def _cylinder_values(f: GridFunction, cyl: Cylinder) -> np.ndarray:
    """``f``'s values with the cells whose centers lie outside ``cyl`` set to zero."""
    z = cyl.z
    if z.size != f.d:
        raise GridError(f"cylinder center has {z.size} spatial coordinates, grid has {f.d}")
    eps = 1e-12
    tmask = np.abs(f.t_centers() - cyl.s) <= cyl.r**2 * (1 + eps) + eps * f.dt
    smask = ((f.meshgrid() - z) ** 2).sum(axis=-1) <= cyl.r**2 * (1 + eps) + eps * min(f.dx)
    return f.values * tmask.reshape((-1,) + (1,) * f.d) * smask


def cylinder_norm(f: GridFunction, spec: MixedNormSpec, cyl: Cylinder) -> float:
    """Mixed norm of ``f`` on the cells whose centers lie in ``cyl``."""
    return _reduce_values(_cylinder_values(f, cyl), spec, f.dt, f.cell_volume)


def minkowski_gap(f: GridFunction, p: float, q: float) -> float:
    """``||f||_(x,t-order) - ||f||_(t,x-order)`` for ``q >= p`` (must be >= -eps)."""
    _check_exponent(p, "p")
    _check_exponent(q, "q")
    if q < p:
        raise ExponentError("minkowski_gap requires q >= p; swap the roles for the reverse bound")
    a = mixed_norm(f, MixedNormSpec(p, q, "space-outer"))
    b = mixed_norm(f, MixedNormSpec(p, q, "time-outer"))
    return a - b


def _time_rows(f: GridFunction, t_lo: float, t_hi: float) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of the cells whose time centers lie in ``[t_lo, t_hi]``."""
    tc = f.t_centers()
    keep = np.nonzero((tc >= t_lo - 1e-12) & (tc <= t_hi + 1e-12))[0]
    if keep.size < 2:
        raise GridError("time restriction keeps fewer than 2 samples")
    # time centers increase, so the kept cells are one contiguous range
    return keep[0], keep[-1] + 1


def restrict_time(f: GridFunction, t_lo: float, t_hi: float) -> GridFunction:
    """Sub-grid of the cells whose time centers lie in ``[t_lo, t_hi]`` (a copy)."""
    lo, hi = _time_rows(f, t_lo, t_hi)
    return GridFunction(f.t0 + lo * f.dt, f.dt, f.x0, f.dx, f.values[lo:hi], f.boundary)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _axis_gradient(values: np.ndarray, axis: int, h: float, periodic: bool,
                   out: np.ndarray) -> None:
    """Derivative along ``axis`` into ``out``: central, edges wrapped or one-sided second order."""
    if values.shape[axis] < 3:
        raise GradientError("need at least 3 samples per axis for the difference stencil")
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    if periodic:
        o[0], o[-1] = v[1] - v[-1], v[0] - v[-2]
        o /= 2 * h
    else:
        o[1:-1] /= 2 * h
        o[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        o[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)


def _gradient(values: np.ndarray, dx: Sequence[float], periodic: bool) -> np.ndarray:
    """Gradient stack ``(d, *values.shape)`` of samples with one leading time axis.

    Every stencil runs along a spatial axis, so a time slice of ``values``
    gives the same entries as the whole array.
    """
    out = np.empty((len(dx),) + values.shape)
    for k, h in enumerate(dx):
        _axis_gradient(values, 1 + k, h, periodic, out[k])
    return out


def _gradient_norm(values: np.ndarray, dx: Sequence[float], periodic: bool) -> np.ndarray:
    g = _gradient(values, dx, periodic)
    return np.sqrt((g**2).sum(axis=0))


def spatial_gradient(f: GridFunction) -> np.ndarray:
    """Second-order spatial gradient, shape ``(d, nt, *nx)``.

    Central differences in the interior; periodic wrap or one-sided
    second-order stencils at the edges, per the boundary tag.
    """
    return _gradient(f.values, f.dx, f.boundary == "periodic")


def gradient_magnitude(f: GridFunction) -> GridFunction:
    return f._with_owned(_gradient_norm(f.values, f.dx, f.boundary == "periodic"))


def gradient_sup(f: GridFunction) -> float:
    """Largest discrete gradient magnitude; recorded per run, never asserted."""
    return float(gradient_magnitude(f).values.max())


# ---------------------------------------------------------------------------
# localized (tilde) norms
# ---------------------------------------------------------------------------


def _offset_range(step: float, radius: float) -> tuple[int, int]:
    """Cell-offset range covered by an edge-centered window of half-width ``radius``.

    Window centers sit on the edge lattice, cells at offsets ``o`` have centers
    at ``(o + 1/2) * step``; membership is ``|(o + 1/2) step| <= radius``, which
    is tie-free and gives exact measure for aligned radii.
    """
    o_max = int(math.floor(radius / step - 0.5 + 1e-9))
    o_min = -int(math.floor(radius / step + 0.5 + 1e-9))
    return o_min, max(o_max, o_min)


def _ball_kernel(dx: Sequence[float], radius: float):
    """Edge-centered ball kernel over cell offsets; returns (kernel, o_min list)."""
    ranges = [_offset_range(h, radius) for h in dx]
    axes = [(np.arange(lo, hi + 1) + 0.5) * h for (lo, hi), h in zip(ranges, dx)]
    grids = np.meshgrid(*axes, indexing="ij")
    dist2 = sum(g**2 for g in grids)
    kernel = (dist2 <= radius**2 * (1 + 1e-12)).astype(float)
    if not kernel.any():
        raise GridError("grid spacing exceeds the window ball; no cell center lies in it")
    return kernel, [lo for lo, _ in ranges]


def _strides(f: GridFunction, lattice_step: float) -> tuple[int, list[int]]:
    st_t = max(1, int(round(lattice_step / f.dt)))
    st_x = [max(1, int(round(lattice_step / h))) for h in f.dx]
    return st_t, st_x


def _block_rows(row_size: int) -> int:
    """Leading-axis slices of ``row_size`` float64 entries per ``BLOCK_BYTES`` block (>= 1)."""
    return max(1, BLOCK_BYTES // (row_size * 8))


def _blocks(n: int, row_size: int):
    """Consecutive slices of ``range(n)``, ``_block_rows(row_size)`` rows each (the last fewer)."""
    step = _block_rows(row_size)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _space_ball_reduce(arr: np.ndarray, p: float, kernel: np.ndarray, o_mins,
                       cellvol: float, st_x: Sequence[int], kernel_hats: dict | None = None
                       ) -> np.ndarray:
    """Edge-centered spatial ball reduction of |arr| along the trailing axes.

    ``arr`` has one leading (time/window) axis; entry (t, i) becomes the l^p
    aggregate of the cells in the ball around edge i (p-th power times measure
    for finite p, plain max for p = inf), for the edges ``i`` on the lattice of
    strides ``st_x``.  Finite p is a full linear convolution on ``scipy.fft``,
    the steps of ``scipy.signal.fftconvolve(mode="full")``: real transforms
    padded to fast lengths over the axes where neither operand has length 1
    (broadcast elsewhere), their product transformed back and cropped.  The
    kernel is transformed once per call, or once per padded shape into
    ``kernel_hats`` when a caller that reduces many inputs with one kernel
    passes the same dict to every call; the input goes in blocks of about
    ``BLOCK_BYTES`` of leading-axis slices, each slice transformed on its
    own, so the blocking does not change the result; ``|arr|^p`` is taken per
    block, never for the whole input.  The convolution's round-off is absolute
    (about 1e-16 of the largest ball sum), see :func:`_ball_reduce_direct`.
    """
    sub = [slice(None)] + [slice(None, None, s) for s in st_x]
    if math.isinf(p):
        from scipy import ndimage

        origins = [lo + s // 2 for lo, s in zip(o_mins, kernel.shape)]
        return ndimage.maximum_filter(np.abs(arr), footprint=(kernel > 0)[None], mode="constant",
                                      cval=0.0, origin=[0] + origins)[tuple(sub)]
    from scipy import fft

    rev = kernel[tuple(slice(None, None, -1) for _ in kernel.shape)][None]
    full = (slice(None),) + tuple(slice(n + m - 1) for n, m in zip(arr.shape[1:], kernel.shape))
    for k, lo in enumerate(o_mins):
        o_max = lo + kernel.shape[k] - 1
        sub[1 + k] = slice(o_max, o_max + arr.shape[1 + k], st_x[k])
    axes = [k for k in range(1, arr.ndim) if arr.shape[k] != 1 and rev.shape[k] != 1]
    fshape = [fft.next_fast_len(arr.shape[k] + rev.shape[k] - 1, True) for k in axes]
    hats = {} if kernel_hats is None else kernel_hats
    key = (tuple(axes), tuple(fshape))
    if axes and key not in hats:
        hats[key] = fft.rfftn(rev, fshape, axes=axes)
    out = np.empty((len(arr),) + tuple(len(range(0, n, s)) for n, s in zip(arr.shape[1:], st_x)))
    for rows in _blocks(len(arr), arr[0].size):
        block = np.abs(arr[rows]) ** p
        if axes:
            conv = fft.irfftn(fft.rfftn(block, fshape, axes=axes) * hats[key], fshape, axes=axes)
        else:
            conv = block * rev
        out[rows] = np.maximum(conv[full][tuple(sub)], 0.0) * cellvol
    return out


def _ball_reduce_direct(arr: np.ndarray, p: float, kernel: np.ndarray, o_mins,
                        cellvol: float, st_x: Sequence[int]) -> np.ndarray:
    """:func:`_space_ball_reduce` by summing the cells of each lattice ball in turn.

    Sums of nonnegative terms, so every entry carries relative round-off however
    small it is next to the others; one pass over the lattice centers.
    """
    a = np.abs(arr) if math.isinf(p) else np.abs(arr) ** p
    n_centers = [len(range(0, n, s)) for n, s in zip(a.shape[1:], st_x)]
    out = np.empty((a.shape[0],) + tuple(n_centers))
    axes = tuple(range(1, a.ndim))
    for j in np.ndindex(*n_centers):
        cells, ker = [slice(None)], []
        for jk, s, lo, m, n in zip(j, st_x, o_mins, kernel.shape, a.shape[1:]):
            start = jk * s + lo  # first cell offset of the ball around edge jk * s
            cells.append(slice(max(start, 0), min(start + m, n)))
            ker.append(slice(cells[-1].start - start, cells[-1].stop - start))
        w = a[tuple(cells)] * kernel[tuple(ker)]
        out[(slice(None),) + j] = (w.max(axis=axes, initial=0.0) if math.isinf(p)
                                   else w.sum(axis=axes) * cellvol)
    return out


def _window_norms(f: GridFunction, blocks: Iterable[np.ndarray], spec: MixedNormSpec,
                  radius: float, st_x: Sequence[int], rows: np.ndarray, to_min: int, to_max: int,
                  ball: Callable) -> np.ndarray:
    """Norm of every lattice window ``[it + to_min, it + to_max] x B_radius(z)``.

    ``blocks`` yields the sampled values on ``f``'s grid as consecutive time
    blocks (``[f.values]`` for the whole array at once).  Time windows run over
    ``rows`` (cell offsets, clipped to the grid); ball centers ``z`` run over
    the edge lattice with strides ``st_x``, reduced by ``ball``
    (:func:`_space_ball_reduce` or :func:`_ball_reduce_direct`), block by
    block in the time-outer order.  Returns an array of shape
    ``(len(rows), *centers)``.
    """
    kernel, o_mins = _ball_kernel(f.dx, radius)
    p, q = spec.p, spec.q
    lo = np.clip(rows + to_min, 0, f.nt)
    hi = np.clip(rows + to_max + 1, 0, f.nt)

    def time_reduce(parts):
        """l^q norm over each time window of the rows ``|g|^q`` (``|g|`` for q = inf).

        The rows come in consecutive ``parts``.  Finite q keeps a running row
        sum, the same sequential adds as ``np.cumsum`` over the whole array,
        written in place over each part; of its prefix sums only those at the
        window edges ``lo`` and ``hi`` are kept.  q = inf folds each part into
        a running max per window.
        """
        start, out = 0, None
        if math.isinf(q):
            for a in parts:
                if out is None:
                    out = np.full((len(rows),) + a.shape[1:], -np.inf)
                stop = start + len(a)
                for j in np.nonzero((lo < stop) & (hi > start))[0]:
                    part = a[max(lo[j] - start, 0):hi[j] - start].max(axis=0)
                    np.maximum(out[j], part, out=out[j])
                start = stop
            return out
        edges, prefix, run = set(lo.tolist()) | set(hi.tolist()), {}, None
        for a in parts:
            if run is not None:
                a[0] += run
            np.cumsum(a, axis=0, out=a)
            for k in edges.intersection(range(start + 1, start + len(a) + 1)):
                prefix[k] = a[k - start - 1].copy()  # the sum of the first k rows
            start, run = start + len(a), a[-1]
        prefix[0] = np.zeros(run.shape)
        out = np.empty((len(rows),) + run.shape)
        for j, (h, l) in enumerate(zip(hi, lo)):
            np.subtract(prefix[h], prefix[l], out=out[j])
        return (out * f.dt) ** (1.0 / q)

    if spec.order == "time-outer":
        def powered(block):
            S = ball(block, p, kernel, o_mins, f.cell_volume, st_x)
            if math.isinf(p):
                return S if math.isinf(q) else S**q
            return S ** (1.0 / p) if math.isinf(q) else S ** (q / p)

        return time_reduce(map(powered, blocks))
    R = ball(time_reduce(np.abs(b) if math.isinf(q) else np.abs(b) ** q for b in blocks),
             p, kernel, o_mins, f.cell_volume, st_x)
    return R if math.isinf(p) else R ** (1.0 / p)


def _lattice_norm(f: GridFunction, blocks: Iterable[np.ndarray], spec: MixedNormSpec,
                  lattice_step: float, radius: float) -> float:
    """:func:`localized_norm` of the values that ``blocks`` yields on ``f``'s grid."""
    if not 0 < lattice_step <= 1:
        raise GridError(f"lattice_step must lie in (0, 1], got {lattice_step}")
    if not radius > 0:
        raise GridError("window radius must be positive")
    st_t, st_x = _strides(f, lattice_step)
    to_min, to_max = _offset_range(f.dt, radius**2)
    rows = np.arange(0, f.nt, st_t)  # lattice time rows
    # one kernel transform serves every block of this call
    ball = functools.partial(_space_ball_reduce, kernel_hats={})
    return float(_window_norms(f, blocks, spec, radius, st_x, rows, to_min, to_max, ball).max())


def localized_norm(
    f: GridFunction,
    spec: MixedNormSpec,
    lattice_step: float = 0.25,
    radius: float = 1.0,
) -> float:
    """Sup over shifted cylinders ``[s - r^2, s + r^2] x B_r(z)`` of the windowed norm.

    Window centers run over the sample lattice subsampled to spacing
    ``lattice_step`` (a deliberate, controlled under-approximation of the
    continuum shift supremum).  Always <= ``mixed_norm(f, spec)`` up to
    round-off.  Window sums are convolutions, and only the entries that the
    shift lattice reads are computed.
    """
    return _lattice_norm(f, [f.values], spec, lattice_step, radius)


def localized_spatial_norm(values: np.ndarray, dx: Sequence[float], p: float) -> float:
    """Purely spatial localized norm ``sup_z ||1_(B_1(z)) g||_p`` on cell samples.

    Ball centers run over the cell lattice subsampled to spacing 0.25.
    """
    _check_exponent(p, "p")
    values = np.asarray(values, dtype=float)
    dx = tuple(float(h) for h in np.atleast_1d(dx))
    if np.any(np.isnan(values)):
        raise GridError("spatial samples must not contain NaN")
    kernel, o_mins = _ball_kernel(dx, 1.0)
    st_x = [max(1, int(round(0.25 / h))) for h in dx]
    a = np.abs(values)[None]
    if math.isinf(p):
        R = _space_ball_reduce(a, INF, kernel, o_mins, 1.0, st_x)
    else:
        finite = np.where(np.isfinite(a), a, 0.0)
        R = _space_ball_reduce(finite, p, kernel, o_mins, float(np.prod(dx)), st_x) ** (1.0 / p)
        if np.any(~np.isfinite(a)):
            # infinite samples dominate any ball that contains them
            hit = _space_ball_reduce((~np.isfinite(a)).astype(float), INF, kernel, o_mins, 1.0,
                                     st_x)
            R = np.where(hit > 0, np.inf, R)
    return float(R.max())


def _sampled_localized_norm(f: GridFunction, fn: Callable, spec: MixedNormSpec,
                            lattice_step: float) -> float:
    """:func:`localized_norm` of ``fn(t, X)`` sampled on ``f``'s grid, never held whole.

    The samples are drawn in time blocks of about ``BLOCK_BYTES`` into one
    buffer, each block checked finite (a non-finite sample raises
    :class:`GridError`, as wrapping the whole sample would) and folded into
    the running window sums before the next is drawn.  Equals
    ``localized_norm(f.with_values(f.sample(fn)), spec, lattice_step)`` bit for bit.
    """
    ts, X = f.t_centers(), f.meshgrid()
    buf = np.empty((_block_rows(f.values[0].size),) + f.nx)

    def blocks():
        for rows in _blocks(f.nt, f.values[0].size):
            block = _sample_rows(fn, ts[rows], X, buf[:rows.stop - rows.start])
            _require_finite(block)
            yield block

    return _lattice_norm(f, blocks(), spec, lattice_step, 1.0)


def covering_equivalence_report(
    f: GridFunction,
    spec: MixedNormSpec,
    T: float,
    r: float,
) -> tuple[float, float]:
    """Band of per-center ratios between radius-1 and radius-``r`` window norms.

    Windows are ``[0, T] x B_rho(z)`` with ``rho in {1, r}`` and ``z`` running
    over the spatial shift lattice of spacing 0.25; returns (min, max) of the
    ratio over the centers where the radius-``r`` norm is nonzero.  For
    ``r = 1`` both windows coincide and the band collapses to (1, 1).  Ball
    sums are direct (:func:`_ball_reduce_direct`), so a window that holds only
    the far tail of ``f`` keeps its relative accuracy.
    """
    if not 0.5 <= r <= 4.0:
        raise GridError(f"comparison radius must lie in [1/2, 4], got {r}")
    tc = f.t_centers()
    inside = (tc >= -1e-12) & (tc < T - 1e-12)
    if not inside.any():
        return (0.0, 0.0)
    # f zeroed outside [0, T) and one time window over all its rows, whose sums
    # start at row 0 and so cancel nothing
    g = f._with_owned(f.values * inside.reshape((-1,) + (1,) * f.d))
    _, st_x = _strides(f, 0.25)
    n1, nr = (_window_norms(g, [g.values], spec, rho, st_x, np.zeros(1, int), 0, f.nt - 1,
                            _ball_reduce_direct) for rho in (1.0, r))
    ratios = n1[nr > 0] / nr[nr > 0]
    if ratios.size == 0:
        return (0.0, 0.0)
    return (float(ratios.min()), float(ratios.max()))


def v_norm(u: GridFunction, kappa: float, lattice_step: float = 0.25) -> float:
    """Localized energy norm: sup-in-time L2 part plus the gradient part.

    ``|||u|||_(L~^(inf,2)_(t,x)) + |||grad u|||_(L~^(kappa,2)_(x,t))`` with the
    gradient by second-order differences honoring the boundary tag.

    Working memory is O(block) beside ``u``: the gradient magnitude is made in
    time blocks of about ``BLOCK_BYTES``, each folded into running window
    sums and dropped, so the whole gradient is never held.  The result equals
    :func:`localized_norm` of :func:`gradient_magnitude` bit for bit, and a
    non-finite gradient raises :class:`GridError` as that does.
    """
    if not 1.0 <= kappa <= 2.0:
        raise ExponentError(f"kappa must lie in [1, 2], got {kappa}")
    part1 = localized_norm(u, MixedNormSpec(2.0, INF, "time-outer"), lattice_step)

    def gradient_blocks():
        for rows in _blocks(u.nt, u.values[0].size):
            g = _gradient_norm(u.values[rows], u.dx, u.boundary == "periodic")
            _require_finite(g)
            yield g

    part2 = _lattice_norm(u, gradient_blocks(), MixedNormSpec(kappa, 2.0, "space-outer"),
                          lattice_step, 1.0)
    return part1 + part2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _write_export(path_prefix, header: dict, values: np.ndarray) -> tuple[Path, Path]:
    """Sorted JSON header ``<prefix>.json``; ``<prefix>.bin`` flat little-endian float64."""
    jpath, bpath = (Path(path_prefix).with_suffix(s) for s in (".json", ".bin"))
    jpath.write_text(json.dumps(header, sort_keys=True, indent=1) + "\n")
    values.astype("<f8", copy=False).tofile(bpath)
    return jpath, bpath


_REAL = (int, float)  # a JSON number: bool, an int subclass, is not one


def _fits(value, kind) -> bool:
    """``value``'s type is ``kind`` (or in the tuple ``kind``); ``[kind]`` is a list of such."""
    if isinstance(kind, list):
        return type(value) is list and all(_fits(v, kind[0]) for v in value)
    return type(value) in (kind if isinstance(kind, tuple) else (kind,))


def _read_export(path_prefix, fields: dict, shape: Callable[[dict], Sequence[int]]
                 ) -> tuple[dict, np.ndarray]:
    """The header and the values written by :func:`_write_export`, shaped ``shape(header)``.

    ``fields`` maps each header key the loader reads to its kind, as
    :func:`_fits` takes it.  An unreadable file, a header that is not a JSON
    object holding every key of ``fields`` with a value of its kind, a
    negative count, or a ``.bin`` that does not hold exactly as many values as
    the shape raises :class:`GridError` naming the file, before any reshape.
    """
    jpath, bpath = (Path(path_prefix).with_suffix(s) for s in (".json", ".bin"))
    try:
        header = json.loads(jpath.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise GridError(f"cannot read export header {jpath}: {exc}") from exc
    missing = [k for k in fields if k not in header] if isinstance(header, dict) else list(fields)
    if missing:
        raise GridError(f"export header {jpath} lacks {', '.join(missing)}")
    bad = [f"{k}={header[k]!r}" for k, kind in fields.items() if not _fits(header[k], kind)]
    if bad:
        raise GridError(f"export header {jpath} has bad values: {', '.join(bad)}")
    dims = shape(header)
    try:
        values = np.fromfile(bpath, dtype="<f8")
    except OSError as exc:
        raise GridError(f"cannot read export values {bpath}: {exc}") from exc
    if min(dims, default=0) < 0 or values.size != math.prod(dims):
        raise GridError(f"{bpath} holds {values.size} values, but its header {jpath} "
                        f"gives the shape {dims}")
    return header, values.reshape(dims)


def save_grid_function(f: GridFunction, path_prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` (header) and ``<prefix>.bin`` (flat float64, C order)."""
    header = {
        "d": f.d,
        "t0": f.t0,
        "dt": f.dt,
        "nt": f.nt,
        "x0": list(f.x0),
        "dx": list(f.dx),
        "nx": list(f.nx),
        "boundary_tag": f.boundary,
    }
    return _write_export(path_prefix, header, f.values)


def load_grid_function(path_prefix) -> GridFunction:
    """The grid :func:`save_grid_function` wrote; a damaged export raises :class:`GridError`."""
    fields = {"t0": _REAL, "dt": _REAL, "nt": int, "x0": [_REAL], "dx": [_REAL], "nx": [int],
              "boundary_tag": str}
    header, vals = _read_export(path_prefix, fields, lambda h: (h["nt"], *h["nx"]))
    return GridFunction._owning(header["t0"], header["dt"], header["x0"], header["dx"], vals,
                                header["boundary_tag"])


def norm_record(op: str, spec: MixedNormSpec | None, value: float, **extra) -> dict:
    """JSON-ready record ``{op, spec, value}`` used by the experiment runner."""
    rec = {"op": op, "spec": spec.label() if spec is not None else None, "value": value}
    rec.update(extra)
    return rec

"""Discrete Fourier analysis on centered grids.

Convention: F(xi) = integral of f(x) exp(-2 pi i x.xi) dx.  Samples of f on a
GridSpec transform to samples of F on the dual grid (spacing 1/(2L), extent
N/(4L) per axis); dual_grid is an involution, so the inverse transform needs
no extra bookkeeping.  With the cell-volume scaling the pair is exact in the
DFT sense: Parseval holds to rounding, and for smooth functions with
negligible box tails the samples approximate the continuous transform with
spectral accuracy.

One layout.  Samples are real, so F(-xi) = conj F(xi), and a
SpectralFunction holds the rfftn half spectrum: every axis in FFT order
(index k holds the node k h for k < N/2 and (k - N) h from N/2 on), the last
axis only k = 0..N/2.  The other half is the point reflection of the stored
one.  No consumer builds it: each reads the reflection by symmetry, and the
planes k_last = 0 and N/2 are their own reflections.  transform runs
numpy's pocketfft on the samples as they are, one axis at a time and in
place on the half spectrum (_rfftn), and the sign (-1)^(k_0 + ... + k_(n-1))
turns that into the spectrum of the centered samples in the pass that scales
by the cell volume (_alternate); every inverse runs the axis-wise inverse
behind the same sign (_irfftn).  numpy is the one dependency.

On top of the transform: Riesz multipliers and the H^1 norm, the cone
comparison of the Poisson extension's t-derivative with its conjugate
pieces, per-axis slab suprema of |F|, and dyadic-shell / cube-face /
weighted functionals of the spectrum.  The inverse (_inverse), the cone's
ball maximum (_ball_maximum) and the sphere integral at given radii
(_shell_values of _sphere_rows) are private kernels of those functionals.

Against the same rules on the full spectrum, the mean-zero warning is equal
bit for bit, and so are the slab sups: a max is exact.  Everything else
moves in the last bits, because its products and sums run in another order:
the transform and its inverses against the complex FFT (a few eps of
max|.|), the Riesz transform (its symbol is 0 on the Nyquist plane of its
axis), the slab-sup integral (top-k sums against the merged runs of a
rearrangement), weighted_fourier_integral, cube_shell_sum and
cone_derivative_check, and the sphere and dyadic-shell functionals, which
read one multilinear operator per dual grid and merge the corners that land
on one half-spectrum cell (below 1e-13 relative).  The sampling rules are
fixed module constants: 16 radii per dyadic shell, 64 trapezoid points on
the circle, 24 Gauss-Legendre x 48 azimuth points on the sphere, and 64
thresholds for the slab-sup integral.  Tables shared between calls are
read-only and bounded by the size of their cache: the half-spectrum nodes,
the radial weights (287 KB on a 64^3 grid), the shell operators, and the
signed 1/|xi| of the Riesz transforms (one grid's, 1.1 MB on a 64^3 grid).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gridfn import GridFunction, GridSpec, _check_axis, _owned
from .norms import lp_norm
from .quadrature import segment_integral

__all__ = [
    "SpectralFunction",
    "dual_grid",
    "transform",
    "frequency_radii",
    "riesz",
    "h1_norm",
    "cone_derivative_check",
    "sup_integral_functional",
    "dyadic_shell_terms",
    "dyadic_shell_sum",
    "cube_shell_sum",
    "WeightedIntegral",
    "weighted_fourier_integral",
]

MEAN_TOL = 1e-8

# The spectral sampling rules of the slab-sup integral and the shell sums.
_SLAB_LEVELS = 64  # geometric thresholds t of sup_integral_functional
_SHELL_RADII = 16  # geometric radii per dyadic shell
_CIRCLE_POINTS = 64  # trapezoid angles on the circle
_POLAR_POINTS = 24  # Gauss-Legendre nodes in the cosine of the polar angle
_AZIMUTH_POINTS = 48  # trapezoid azimuths per polar node


def dual_grid(spec: GridSpec) -> GridSpec:
    """Frequency grid dual to spec: spacing 1/(2L), half extent N/(4L)."""
    extents = tuple(n / (4.0 * L) for n, L in zip(spec.points, spec.half_extents))
    return GridSpec(spec.dim, extents, spec.points)


def _half_shape(shape) -> tuple:
    """The half spectrum's shape on a grid of the given shape: N/2 + 1 on the last axis."""
    return tuple(shape[:-1]) + (shape[-1] // 2 + 1,)


@functools.lru_cache(maxsize=8)
def _half_nodes(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The nodes of each axis of the (dual) grid spec in FFT order; the last axis keeps k = 0..N/2.

    Index N/2 holds the Nyquist node -N/2 h, which is its own reflection.
    Shared between calls, so the arrays are read-only.
    """
    nodes = [np.fft.ifftshift(spec.axis_nodes(a)) for a in range(spec.dim)]
    nodes[-1] = nodes[-1][:spec.points[-1] // 2 + 1]
    for x in nodes:
        x.setflags(write=False)
    return tuple(nodes)


def _half_mesh(spec: GridSpec) -> list[np.ndarray]:
    """Sparse (broadcastable) node arrays of the half spectrum of spec."""
    return np.meshgrid(*_half_nodes(spec), indexing="ij", sparse=True)


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a at the FFT indices (-k) mod N along each of axes: the point reflection of the nodes."""
    return np.roll(np.flip(a, axes), 1, axes)


@dataclass(frozen=True)
class SpectralFunction:
    """Complex samples of a Fourier transform on the half spectrum of its dual grid.

    See the module docstring for the layout; values of any other shape raise
    ValueError.
    """

    spec: GridSpec
    values: np.ndarray

    @staticmethod
    def _layout(spec: GridSpec):
        """The shape and dtype of the values on spec (gridfn._owned reads it)."""
        return _half_shape(spec.shape), np.complex128

    def __post_init__(self):
        shape, dtype = self._layout(self.spec)
        vals = np.asarray(self.values)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} is not the half spectrum {shape} "
                             f"of grid {self.spec.shape}")
        vals = vals.astype(dtype, copy=True)
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # cached in the instance __dict__, like GridSpec.spacing; values never change
    @functools.cached_property
    def _max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _alternate(a: np.ndarray, c) -> np.ndarray:
    """a *= c (-1)^(k_0 + ... + k_(n-1)) in place, over the FFT-order indices k of a.

    For even sizes, rolling every axis by N/2 multiplies a DFT by
    (-1)^(k_0 + ... + k_(n-1)): this is the spectrum of the ifftshifted
    input, and its inverse comes out fftshifted, with no rolled copy.  The
    signs are exact; c is applied along the first axis, in the same single
    rounding as a plain a *= c.
    """
    signs = [np.where(np.arange(n) % 2, -1.0, 1.0) for n in a.shape]
    a *= (c * signs[0]).reshape((-1,) + (1,) * (a.ndim - 1))
    if a.ndim > 1:
        a *= functools.reduce(np.multiply.outer, signs[1:])
    return a


def transform(f: GridFunction) -> SpectralFunction:
    """Samples of the Fourier transform of f on the half spectrum of the dual grid.

    _rfftn runs on the samples as they are, and _alternate turns that into
    the spectrum of the centered samples while it scales by the cell
    volume.  The result agrees with the rolled numpy.fft.fftn route up
    to rounding (a few epsilon of max|F|).  f is immutable, so the result is
    cached on f itself: every later call with the same object (the Riesz
    transforms of h1_norm, the other functionals of one corpus member)
    returns the same read-only SpectralFunction.  The cache lives exactly as
    long as f; distinct GridFunctions never share it, even when their values
    are equal.
    """
    F = vars(f).get("_spectrum")
    if F is None:
        half = _alternate(_rfftn(f.values), f.spec.cell_volume)
        F = _owned(SpectralFunction, dual_grid(f.spec), half)
        vars(f)["_spectrum"] = F  # f is frozen: bypass its __setattr__
    return F


def _rfftn(values: np.ndarray) -> np.ndarray:
    """The rfftn half spectrum of real values: rfft along the last axis, then fft in place along the others, last to first."""
    half = np.fft.rfft(values, axis=-1)
    for axis in range(values.ndim - 2, -1, -1):
        np.fft.fft(half, axis=axis, out=half)
    return half


def _irfftn(half: np.ndarray, spec: GridSpec) -> np.ndarray:
    """irfftn of a half spectrum that carries the sign of _alternate, over the cell volume; overwrites half.

    ifft runs in place along the leading axes, then irfft along the last
    one allocates the real samples.
    """
    for axis in range(half.ndim - 1):
        np.fft.ifft(half, axis=axis, out=half)
    vals = np.fft.irfft(half, n=spec.shape[-1], axis=-1)
    return np.divide(vals, spec.cell_volume, out=vals)


def _inverse(half: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The real samples on spec whose half spectrum is half; overwrites half.

    The sign of _alternate undoes the centering, irfftn inverts, and one
    pass divides by the cell volume.
    """
    return _irfftn(_alternate(half, 1.0), spec)


def frequency_radii(spec: GridSpec) -> np.ndarray:
    """|xi| on the half spectrum of the (dual) grid spec."""
    r = sum(x ** 2 for x in _half_mesh(spec))
    return np.sqrt(r, out=r)


def _warn_if_not_mean_zero(F: SpectralFunction, what: str):
    scale = F._max_abs
    if scale == 0:
        return
    dc = abs(F.values[(0,) * F.spec.dim])
    if dc > MEAN_TOL * scale:
        warnings.warn(f"{what} applied to a function with nonzero mean "
                      f"(relative weight {dc / scale:.2e}); the result has "
                      "grid-dependent tails", RuntimeWarning, stacklevel=3)


@functools.lru_cache(maxsize=1)
def _signed_inverse_radii(spec: GridSpec) -> np.ndarray:
    """(-1)^(k_0 + ... + k_(n-1)) / |xi| on the half spectrum of the (dual) grid spec, 1 at the origin.

    The sign of _alternate, folded into 1 / |xi|.  The n Riesz transforms
    of one h1_norm share it; the cache holds one grid's read-only table
    (1.1 MB on a 64^3 grid).
    """
    r = frequency_radii(spec)
    r[(0,) * spec.dim] = 1.0
    table = _alternate(np.divide(1.0, r, out=r), 1.0)
    table.setflags(write=False)
    return table


def _riesz_multiplier(spec: GridSpec, j) -> np.ndarray:
    """q (-1)^(k_0 + ... + k_(n-1)) on the half spectrum of the (dual) grid spec, q = -xi_j / |xi|.

    The Riesz symbol is i q.  q is (-xi_j) * (1 / |xi|): the bits of the
    imaginary part of the complex quotient -1j * xi_j / |xi|, since numpy
    divides by complex(r, 0) by multiplying by 1/r, and the exact sign of
    _alternate does not change them.  The symbol has no limit at the
    origin; 0 there keeps mean-zero inputs exact.  q is also 0 on the
    Nyquist plane k_j = N/2 of axis j: its node -N/2 h is its own
    reflection, so a Hermitian spectrum times i q is not Hermitian there,
    and the real part that a full-spectrum route keeps is 0.
    """
    xj = _half_nodes(spec)[j].reshape((-1,) + (1,) * (spec.dim - 1 - j))
    m = _signed_inverse_radii(spec) * -xj
    m[(0,) * spec.dim] = 0.0
    m[(slice(None),) * j + (spec.points[j] // 2,)] = 0.0
    return m


def riesz(f: GridFunction, j) -> GridFunction:
    """Riesz transform along axis j (the Hilbert transform when dim is 1).

    F = a + i b times the symbol i q is -q b + i q a.  Both parts are
    written in one pass, already times the sign of _alternate
    (_riesz_multiplier), and irfftn inverts them.  The values equal the
    complex product with i q, centered by _alternate, bit for bit up to the
    sign of zeros.
    """
    _check_axis(j, f.spec.dim)
    F = transform(f)
    _warn_if_not_mean_zero(F, "riesz")
    m = _riesz_multiplier(F.spec, j)
    half = np.empty_like(F.values)
    np.negative(np.multiply(F.values.imag, m, out=half.real), out=half.real)
    np.multiply(F.values.real, m, out=half.imag)
    del m  # irfftn allocates its output: free the multiplier first
    return _owned(GridFunction, f.spec, _irfftn(half, f.spec))


def h1_norm(f: GridFunction) -> float:
    """||f||_1 plus the L^1 norms of all Riesz transforms (truncated domain)."""
    total = lp_norm(f, 1)
    for j in range(f.spec.dim):
        total += lp_norm(riesz(f, j), 1)
    return float(total)


def _default_time_grid(spec: GridSpec) -> np.ndarray:
    """64 geometric heights in [min spacing / 4, 8 max extent] for the cone sups."""
    lo = min(spec.spacing) / 4.0
    hi = 8.0 * max(spec.half_extents)
    return np.geomspace(lo, hi, 64)


def _ball_maximum(values: np.ndarray, spec: GridSpec, radius: float) -> np.ndarray:
    """Pointwise max of values over the Euclidean ball of the given radius.

    The ball is sampled at grid nodes; nodes outside the box do not
    contribute.  radius below the spacing returns values unchanged.

    The ball is a union of 1-d windows along the last axis, one per offset
    of the other axes, by at most N - 1 cells (a larger offset leaves the
    box).  The window's half width depends only on the offset's length, so
    each width's window maximum along the last axis is taken once
    (_window_maxima), and every offset of that width reads the in-box part
    of it, shifted by the offset.
    """
    if radius >= math.hypot(*(2.0 * L for L in spec.half_extents)):
        return np.full_like(values, values.max())
    head = spec.spacing[:-1]
    reach = [min(int(radius / s + 1e-9), n - 1) for s, n in zip(head, values.shape)]
    widths = {}
    for offset in itertools.product(*(range(-r, r + 1) for r in reach)):
        d2 = sum((o * s) ** 2 for o, s in zip(offset, head))
        if d2 > radius * radius * (1 + 1e-12):
            continue
        w = int(math.sqrt(max(radius * radius - d2, 0.0)) / spec.spacing[-1] + 1e-9)
        widths.setdefault(w, []).append(offset)
    out = np.full_like(values, -np.inf)
    for w, window in _window_maxima(values, widths):
        for offset in widths[w]:
            src = tuple(slice(max(o, 0), n + min(o, 0)) for o, n in zip(offset, values.shape))
            dst = tuple(slice(max(-o, 0), n + min(-o, 0)) for o, n in zip(offset, values.shape))
            np.maximum(out[dst], window[src], out=out[dst])
    return out


def _window_maxima(a: np.ndarray, widths):
    """(w, the max of a over the indices [i - w, i + w] along the last axis, clipped to the array), w ascending.

    A window of 2w + 1 cells is the union of two runs of p cells, one at
    each end, for the largest power of 2 p <= 2w + 1.  The run maxima are
    one table, a copy of a padded with -inf by the largest width, whose
    run length doubles in one pass of np.maximum as the widths grow; each
    width then takes one more pass.  A max is exact, so each window
    maximum equals maximum_filter1d(a, 2w + 1, mode="nearest") bit for
    bit: a repeated edge, like -inf, never raises a window's max.
    """
    widths = sorted(widths)
    n, top = a.shape[-1], widths[-1]
    runs = np.full(a.shape[:-1] + (n + 2 * top,), -np.inf)
    runs[..., top:top + n] = a
    p = 1  # runs[..., i] is the max of the p padded cells from i on
    for w in widths:
        while 2 * p <= 2 * w + 1:
            runs = np.maximum(runs[..., :-p], runs[..., p:])
            p *= 2
        end = top + w + 1 - p
        yield w, np.maximum(runs[..., top - w:top - w + n], runs[..., end:end + n])


def cone_derivative_check(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Cone sup of |du/dt| vs. the summed cone sups of its conjugate pieces.

    u is the harmonic extension of f; the t-derivative equals minus the sum
    over j of P_t applied to the Riesz transform of the j-th derivative, so
    the left array is dominated by the right one up to rounding.  Both sides
    use the same sampled cone: 64 geometric heights t in [min spacing / 4,
    8 max extent] (_default_time_grid); derivatives are spectral.  The
    symbols that do not depend on t are built once; each t multiplies the
    half spectrum and runs irfftn.
    """
    F = transform(f)
    spec = f.spec
    r = frequency_radii(F.spec)
    # P_t = exp(-2 pi |xi| t), whose t-derivative is -2 pi |xi| P_t; the
    # Riesz transform of the j-th derivative has the symbol 2 pi xi_j^2 / |xi|
    slope = -2.0 * np.pi * r
    with np.errstate(divide="ignore", invalid="ignore"):
        syms = [np.where(r > 0, 2.0 * np.pi * x ** 2 / np.where(r > 0, r, 1.0), 0.0)
                for x in _half_mesh(F.spec)]
    lhs = np.zeros(spec.shape)
    rhs_parts = [np.zeros(spec.shape) for _ in range(spec.dim)]
    for t in _default_time_grid(spec):
        pt = np.exp(slope * t)
        u_t = np.abs(_inverse(F.values * (slope * pt), spec))
        np.maximum(lhs, _ball_maximum(u_t, spec, t), out=lhs)
        for sym, part in zip(syms, rhs_parts):
            v = np.abs(_inverse(F.values * (sym * pt), spec))
            np.maximum(part, _ball_maximum(v, spec, t), out=part)
    return lhs, sum(rhs_parts)


# ---------------------------------------------------------------------------
# spectral slab and shell functionals
# ---------------------------------------------------------------------------


def _check_spectrum(F) -> None:
    """Raise TypeError unless F is a SpectralFunction: real samples go through transform first."""
    if not isinstance(F, SpectralFunction):
        raise TypeError(f"expected a SpectralFunction (see transform), got {type(F).__name__}")


def _check_slab_axis(spec: GridSpec, axis) -> None:
    if spec.dim < 2:
        raise ValueError("needs at least 2 frequency axes")
    _check_axis(axis, spec.dim)


def _running_means(values: np.ndarray, cell: float, rows: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """(1/s) * integral over (0, s] of the nonincreasing rearrangement of values[row], per (row, s).

    Each row of values holds values >= 0, one per cell of measure cell.  The
    rearrangement takes the v_1 >= v_2 >= ... on consecutive cells, so with
    k = floor(s / cell) the integral is cell * (v_1 + ... + v_k) plus
    v_(k+1) * (s - k cell), and v_(k+1) = 0 once k covers the row.  One
    partition (in place, so values is reordered) picks the largest k + 1
    values of every row for the largest k, and one sort and one cumsum of
    those give every s.
    """
    size = values.shape[1]
    k = np.minimum(measures // cell, size).astype(np.int64)
    top = min(int(k.max()) + 1, size)
    values.partition(size - top, axis=1)
    desc = np.sort(values[:, size - top:], axis=1)[:, ::-1]
    sums = np.zeros((len(values), top + 1))
    np.cumsum(desc, axis=1, out=sums[:, 1:])
    nexts = np.zeros((len(values), top + 1))
    nexts[:, :top] = desc
    return (cell * sums[rows, k] + nexts[rows, k] * (measures - k * cell)) / measures


def _slab_double_stars(F: SpectralFunction, axis, ts, measures) -> np.ndarray:
    """double_star of the rearranged slab sup of |F| over {|xi_axis| >= t} at each measure, per t.

    The slab sup takes, at each node of the other axes, the max of |F| over
    the slab's planes of the full spectrum; the half holds every such plane
    up to reflection.  Along the last axis, the plane at -k is the
    reflection of the half's plane at k, so an interior plane 0 < k < N/2
    enters with its reflection, and the planes 0 and N/2 alone.  Along a
    head axis, the slab holds k and -k alike, so the full grid's sup at
    (eta, -l) is the half's at (-eta, l): the full grid's sups are the
    half's plus its interior last-axis columns once more, and the
    rearrangement, which reads only the multiset, takes those columns as
    they are.

    The slabs are nested: sorted by |xi_axis|, descending, each is a prefix
    of the planes.  One running max, extended a plane at a time, gives
    every slab sup, and the running averages of all distinct plane counts
    are top-k sums (_running_means) at the measures of the thresholds that
    select them.  The max is exact; the sums run in another order than the
    merged runs of decreasing_rearrangement and double_star, so the values
    move against that route in the last bits.  An empty slab warns and
    gives 0.
    """
    spec = F.spec
    ts = np.asarray(ts, dtype=float)
    measures = np.asarray(measures, dtype=float)
    abs_nodes = np.abs(_half_nodes(spec)[axis])
    order = np.argsort(-abs_nodes, kind="stable")
    counts = np.count_nonzero(abs_nodes >= ts[:, None], axis=1)
    out = np.zeros(len(ts))
    for t in ts[counts == 0]:
        warnings.warn(f"threshold {t} exceeds the frequency extent; sup is empty",
                      RuntimeWarning, stacklevel=3)
    selected = counts > 0
    used, rows = np.unique(counts[selected], return_inverse=True)
    m = spec.points[-1] // 2
    last = axis == spec.dim - 1
    planes = np.moveaxis(np.abs(F.values), axis, 0)
    shape = planes.shape[1:]
    running = np.zeros(shape)
    if last:
        # the max over the interior planes, whose reflections enter too; it
        # is reflected once per count, since a reflection commutes with max
        inner = np.zeros(shape)
        flat = np.empty((len(used), running.size))
    else:
        flat = np.empty((len(used), running.size + running[..., 1:m].size))
    done = 0
    for i, c in enumerate(used):
        for k in order[done:c]:
            np.maximum(running, planes[k], out=running)
            if last and 0 < k < m:
                np.maximum(inner, planes[k], out=inner)
        done = c
        if last:
            np.maximum(running, _reflect(inner, tuple(range(inner.ndim))), out=flat[i].reshape(shape))
        else:
            flat[i, :running.size] = running.ravel()
            flat[i, running.size:] = running[..., 1:m].ravel()
    out[selected] = _running_means(flat, spec.drop_axis(axis).cell_volume, rows,
                                   measures[selected])
    return out


def sup_integral_functional(F: SpectralFunction, axis) -> float:
    """Integral over t > 0 of the running average, at t^(n-1), of the slab sup.

    The slab sup at threshold t is rearranged over its (n-1)-dimensional
    frequency domain and averaged up to measure t^(n-1); the t-integral uses
    a geometric grid with a constant continuation below the first node (the
    integrand tends to a finite limit) and drops t beyond the frequency
    extent, where the sup vanishes.

    The slabs of the _SLAB_LEVELS thresholds are nested, so the sups come
    from one running max over the planes in order of decreasing |xi_axis|,
    and each distinct set of planes is averaged once, as a top-k sum
    (thresholds below one frequency cell all select the same planes).  The
    values equal the per-threshold route on the full spectrum (slab sup,
    decreasing_rearrangement, double_star) up to rounding: the sums run in
    another order.
    """
    _check_spectrum(F)
    _check_slab_axis(F.spec, axis)
    n = F.spec.dim
    t_hi = F.spec.half_extents[axis]
    t_lo = F.spec.spacing[axis] / 256.0
    ts = np.geomspace(t_lo, t_hi, _SLAB_LEVELS)
    vals = _slab_double_stars(F, axis, ts, [t ** (n - 1) for t in ts])
    total = vals[0] * t_lo
    for i in range(_SLAB_LEVELS - 1):
        total += segment_integral(ts[i], ts[i + 1], vals[i], vals[i + 1])
    return float(total)


@functools.lru_cache(maxsize=2)
def _sphere_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights summing to the unit-sphere measure.

    dim 2 uses the trapezoid rule on the circle.  dim 3 uses a
    latitude-longitude product rule, Gauss-Legendre in the cosine of the
    polar angle times trapezoid in azimuth.  The counts are even and numpy's
    Gauss-Legendre nodes and weights are exactly symmetric, so every
    direction has its antipode, at equal weight; the corners of antipodal
    points share their half-spectrum cells (_row_block).  Computed once per
    dimension and shared between calls, so the arrays are read-only.
    """
    if dim == 2:
        a = _CIRCLE_POINTS
        phi = 2.0 * np.pi * np.arange(a) / a
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(a, 2.0 * np.pi / a)
    elif dim == 3:
        x, wx = np.polynomial.legendre.leggauss(_POLAR_POINTS)
        a = _AZIMUTH_POINTS
        phi = 2.0 * np.pi * np.arange(a) / a
        sin_th = np.sqrt(1.0 - x ** 2)
        dirs = np.stack([
            np.outer(sin_th, np.cos(phi)).ravel(),
            np.outer(sin_th, np.sin(phi)).ravel(),
            np.repeat(x, a),
        ], axis=1)
        w = np.repeat(wx, a) * (2.0 * np.pi / a)
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    for arr in (dirs, w):
        arr.setflags(write=False)
    return dirs, w


class _ShellRows(NamedTuple):
    """Sphere integrals as rows: radius^(n-1) times the sum of weights * |F|[cells] over a row.

    cells index the flattened half spectrum.  Row i holds the entries
    starts[i]:starts[i + 1]; no row is empty, since the directions with no
    positive component put a point of every valid radius inside the grid.
    """

    radii: np.ndarray
    starts: np.ndarray
    cells: np.ndarray
    weights: np.ndarray


def _sphere_rows(spec: GridSpec, radii: np.ndarray) -> _ShellRows:
    """The multilinear sphere rule (_sphere_rule) at each radius, one read-only row per radius.

    A point counts 0 unless it lies in [0, N - 1] on every axis, as
    map_coordinates(order=1, mode="constant") counts it.  Equal cells of a
    row are merged, so a row equals the pointwise rule in exact arithmetic
    and moves in the last bits.  The rows are built 8 radii at a time, which
    bounds the scratch memory.
    """
    _sphere_rule(spec.dim)  # rejects a grid without a sphere rule
    for r in radii:
        if not 0 < r <= min(spec.half_extents):
            raise ValueError(f"radius {r} outside the frequency extent")
    span = math.prod(_half_shape(spec.shape))
    keys, weights = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for i in range(0, len(radii), 8):
        block = _row_block(spec, radii[i:i + 8], i * span)
        keys.append(block[0])
        weights.append(block[1])
    keys = np.concatenate(keys)
    out = _ShellRows(np.array(radii, dtype=float),
                     np.searchsorted(keys // span, np.arange(len(radii))),
                     (keys % span).astype(np.int32 if span < 2 ** 31 else np.int64),
                     np.concatenate(weights))
    for a in out:
        a.setflags(write=False)
    return out


def _row_block(spec: GridSpec, radii: np.ndarray, key0: int):
    """Sorted keys key0 + row * span + cell and their merged weights.

    A corner at the centered index j has the FFT index k = (j + N/2) mod N
    per axis.  cell is the flat index of k in the half spectrum, or of its
    reflection (-k) mod N when k_last > N/2, where |F| takes the same value.
    The point -r d has the coordinates N - c when r d has c, so its corners
    are the reflections of those of r d: an antipodal pair reads the same
    cells, and their terms merge.
    """
    dirs, w = _sphere_rule(spec.dim)
    col = (slice(None), None, None)
    # coords[ax, i, p] of the point radii[i] * dirs[p], in grid units
    coords = radii[None, :, None] * dirs.T[:, None, :]
    coords += np.array(spec.half_extents)[col]
    coords /= np.array(spec.spacing)[col]
    inside = functools.reduce(np.logical_and,
                              (coords >= 0) & (coords <= np.array(spec.shape)[col] - 1))
    r, d = np.nonzero(inside)
    c = coords[:, r, d]
    lo = np.floor(c)
    t = c - lo
    half = _half_shape(spec.shape)
    strides = np.cumprod((1,) + half[:0:-1])[::-1]
    # per axis and corner bit: the FFT index k and the key offsets of k and
    # of its reflection; the last axis's k decides which one a corner takes
    ks, offsets = [], []
    for n, s, j in zip(spec.shape, strides, lo.astype(np.int64)):
        k = [(j + b + n // 2) % n for b in (0, 1)]
        ks.append(k)
        offsets.append([(s * a, s * ((n - a) % n)) for a in k])
    base = key0 + r * math.prod(half)
    keys, weights = [], []
    for b in itertools.product((0, 1), repeat=spec.dim):
        flip = ks[-1][b[-1]] > spec.shape[-1] // 2
        key = base.copy()
        wt = w[d]
        for ax, bit in enumerate(b):
            key += np.where(flip, offsets[ax][bit][1], offsets[ax][bit][0])
            wt = wt * (t[ax] if bit else 1.0 - t[ax])
        keys.append(key)
        weights.append(wt)
    # merge equal keys, summing in the order above; a corner of weight 0 (at
    # N) may carry any key and drops out with its zero sum
    keys, where = np.unique(np.concatenate(keys), return_inverse=True)
    merged = np.bincount(where, np.concatenate(weights), minlength=len(keys))
    keep = merged > 0
    return keys[keep], merged[keep]


def _shell_values(F: SpectralFunction, rows: _ShellRows) -> np.ndarray:
    """The sphere integrals of |F| over the rows' radii."""
    terms = np.abs(F.values).ravel()[rows.cells]
    terms *= rows.weights
    return np.add.reduceat(terms, rows.starts) * rows.radii ** (F.spec.dim - 1)


def _shell_range(spec: GridSpec) -> range:
    """The k with one cell <= 2^k and 2^(k+1) <= the least half extent of the (dual) grid spec."""
    lo = math.ceil(math.log2(max(spec.spacing)))
    hi = math.floor(math.log2(min(spec.half_extents))) - 1
    return range(lo, hi + 1)


@functools.lru_cache(maxsize=8)
def _shell_operator(spec: GridSpec) -> _ShellRows:
    """_sphere_rows at the _SHELL_RADII radii of every shell of _shell_range(spec).

    Depends only on the dual grid, so it is built once and shared between
    calls; its arrays are read-only.  It takes about 1.3 MB on a 64^3 grid
    and 0.5 MB on a 32^3 grid.
    """
    radii = [np.geomspace(2.0 ** k, 2.0 ** (k + 1), _SHELL_RADII) for k in _shell_range(spec)]
    return _sphere_rows(spec, np.concatenate(radii) if radii else np.empty(0))


def dyadic_shell_terms(F: SpectralFunction):
    """(k, sup over sampled r in [2^k, 2^(k+1)] of the sphere integral) pairs.

    Covers the dyadic shells the grid resolves: one cell <= 2^k and
    2^(k+1) <= extent.  The shells outside are skipped: finitely many above
    the extent, and infinitely many below one cell, whose sum is not
    completed here.  The top shell's largest radii reach past the last
    positive node (N/2 - 1) h, where the points of a sphere count 0.  All
    radii are read from one cached operator per dual grid, so each
    sphere integral equals the one-row operator of _sphere_rows at that
    radius up to the last bits, and the map_coordinates rule to 1e-13
    relative.
    """
    _check_spectrum(F)
    ks = np.array(_shell_range(F.spec))
    sums = _shell_values(F, _shell_operator(F.spec))
    return ks, sums.reshape(len(ks), _SHELL_RADII).max(axis=1, initial=0.0)


def dyadic_shell_sum(F: SpectralFunction, weight_exponent: float) -> float:
    """Sum over resolvable shells of 2^(k w) times the shell sup."""
    ks, sups = dyadic_shell_terms(F)
    return float(np.sum(2.0 ** (ks * weight_exponent) * sups))


def _face_integrals(av: np.ndarray, spec: GridSpec, j: int, face_half: float) -> np.ndarray:
    """Rectangle-rule integral of |F| over the face {|xi_m| <= face_half, m != j}, per half node of axis j.

    av is |F| on the half spectrum.  The face is symmetric under the
    reflection xi -> -xi of the other axes.  So for the last axis j, the full
    grid's face at -l equals the face at l.  For a head axis j, the full
    face at k is the half's face at k plus the half's interior last-axis
    columns 0 < l < N/2 at -k, reflected.
    """
    nodes = _half_nodes(spec)
    area = 1.0
    for m in range(spec.dim):
        if m != j:
            av = np.compress(np.abs(nodes[m]) <= face_half + 1e-12, av, axis=m)
            area *= spec.spacing[m]
    axes = tuple(m for m in range(spec.dim) if m != j)
    faces = av.sum(axis=axes)
    if j < spec.dim - 1:
        # the face keeps a prefix l = 0..L of the last axis, so this slice
        # holds its interior columns
        inner = av[..., 1:spec.points[-1] // 2].sum(axis=axes)
        faces += _reflect(inner, 0)
    return faces * area


def cube_shell_sum(F: SpectralFunction) -> float:
    """Cube-face analogue of the dyadic shell sum, on grid-aligned planes.

    Sum over axes j and resolvable k of 2^(k (2 - n)) times the sup, over
    frequency nodes with 2^k <= |xi_j| <= 2^(k+1), of the integral of |F|
    over the face {|xi_m| <= 2^k, m != j}.  The top shell reaches
    |xi_j| = N/2 h, the Nyquist node -N/2 h: it is one node of the half on
    every axis, and its own reflection in the faces of a head axis.
    """
    _check_spectrum(F)
    spec = F.spec
    if spec.dim < 2:
        raise ValueError("needs at least 2 frequency axes")
    w = 2 - spec.dim
    av = np.abs(F.values)
    nodes = _half_nodes(spec)
    total = 0.0
    for j in range(spec.dim):
        a = np.abs(nodes[j])
        for k in _shell_range(spec):
            mask = (a >= 2.0 ** k) & (a <= 2.0 ** (k + 1))
            if not mask.any():
                continue
            faces = _face_integrals(av, spec, j, 2.0 ** k)
            total += 2.0 ** (k * w) * float(faces[mask].max())
    return float(total)


class WeightedIntegral(NamedTuple):
    value: float
    near_origin: float


@functools.lru_cache(maxsize=16)
def _radial_weights(spec: GridSpec, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """|xi|^gamma on the folded grid, 0 at the origin, and its near-origin cells.

    The folded grid has the (N_i/2 + 1) offsets d = min(k, N_i - k) of the
    FFT indices k per axis; |xi| there is built from d h_i as
    frequency_radii builds it from the nodes, so every weight equals the
    full-grid weight of the nodes it stands for bit for bit.  The second
    array holds the flat indices of the cells within one diagonal cell of
    the origin.  Shared between calls, so both are read-only; a table takes
    287 KB on a 64^3 grid and 2.2 MB on a 128^3 grid.  A verify_all pass
    reads 8 of them.
    """
    mesh = np.meshgrid(*(h * np.arange(n // 2 + 1) for h, n in zip(spec.spacing, spec.points)),
                       indexing="ij", sparse=True)
    r = np.sqrt(sum(x ** 2 for x in mesh))
    near = np.flatnonzero(r <= math.hypot(*spec.spacing) + 1e-12)
    r.flat[0] = 1.0
    w = r ** gamma
    w.flat[0] = 0.0
    w.setflags(write=False)
    near.setflags(write=False)
    return w, near


def _fold(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum of the samples at the FFT indices N - d and d along axis, for d = 0..N/2.

    d = 0 and d = N/2 have one node each.
    """
    a = np.moveaxis(a, axis, 0)
    m = a.shape[0] // 2
    out = np.empty((m + 1,) + a.shape[1:])
    out[0] = a[0]
    np.add(a[:m:-1], a[1:m], out=out[1:m])
    out[m] = a[m]
    return np.moveaxis(out, 0, axis)


def weighted_fourier_integral(F: SpectralFunction, gamma: float) -> WeightedIntegral:
    """Rectangle rule of |F(xi)| |xi|^gamma over the punctured frequency grid.

    near_origin isolates the contribution of the nodes within one cell of the
    origin, where a negative gamma makes the rule most sensitive to the
    discretization; a large share there means the value is unreliable.

    |xi| depends only on the offsets d = min(k, N - k) per axis, and the
    nodes at k and N - k are exact negatives, so |F| is folded onto those
    offsets on the head axes, and the interior columns 0 < d < N/2 of the
    half's last axis count twice, once for their reflection.  The folded
    |F| is then weighted by a cached table (_radial_weights).  That is exact
    in exact arithmetic; in floating point the sums run in another order, so
    the values move in the last bits against the full-grid rule.
    """
    _check_spectrum(F)
    spec = F.spec
    av = np.abs(F.values)
    for axis in range(spec.dim - 1):
        av = _fold(av, axis)
    av[..., 1:spec.points[-1] // 2] *= 2.0
    w, near = _radial_weights(spec, gamma)
    integrand = np.multiply(av, w, out=av)
    cell = spec.cell_volume
    return WeightedIntegral(float(integrand.sum() * cell),
                            float(integrand.flat[near].sum() * cell))

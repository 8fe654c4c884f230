"""Discrete Fourier analysis on centered grids.

Convention: F(xi) = integral of f(x) exp(-2 pi i x.xi) dx.  Samples of f on a
GridSpec transform to samples of F on the dual grid (spacing 1/(2L), extent
N/(4L) per axis); dual_grid is an involution, so the inverse transform needs
no extra bookkeeping.  With the cell-volume scaling the pair is exact in the
DFT sense: Parseval holds to rounding, and for smooth functions with
negligible box tails the samples approximate the continuous transform with
spectral accuracy.

On top of the transform: Riesz multipliers and the H^1 norm, the cone
comparison of the Poisson extension's t-derivative with its conjugate
pieces, per-axis slab suprema of |F|, and sphere / dyadic-shell / cube-face
functionals of the spectrum.

The spectral kernels avoid repeated full-grid work, and say where that
costs bits.  Bit-exact against the plain route: transform and the inverse
move the FFT's halves while they scale by the cell volume, in one pass;
each fresh spectrum or inverse is frozen without a copy; riesz multiplies
by the real symbol q = -xi_j / |xi| in three real passes (equal to the
complex product up to the sign of zeros).  Moves the last bits:
weighted_fourier_integral folds |F| onto the offsets |k - N/2| before it
weights and sums, which changes only the order of the sums.  Tables shared
between calls are read-only and bounded by the size of their cache; no
full-grid array is kept from one call to the next.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
import scipy.fft
from scipy.ndimage import map_coordinates, maximum_filter1d

from .gridfn import GridFunction, GridSpec, _check_axis
from .norms import lp_norm
from .quadrature import segment_integral
from .rearrange import decreasing_rearrangement, double_star

__all__ = [
    "SpectralFunction",
    "dual_grid",
    "transform",
    "inverse_transform",
    "frequency_radii",
    "riesz",
    "h1_norm",
    "ball_maximum",
    "cone_derivative_check",
    "slab_sup",
    "sup_integral_functional",
    "ShellQuadrature",
    "sphere_integral",
    "dyadic_shell_terms",
    "dyadic_shell_sum",
    "cube_shell_sum",
    "WeightedIntegral",
    "weighted_fourier_integral",
]

MEAN_TOL = 1e-8


def dual_grid(spec: GridSpec) -> GridSpec:
    """Frequency grid dual to spec: spacing 1/(2L), half extent N/(4L)."""
    extents = tuple(n / (4.0 * L) for n, L in zip(spec.points, spec.half_extents))
    return GridSpec(spec.dim, extents, spec.points)


@dataclass(frozen=True)
class SpectralFunction:
    """Complex samples of a Fourier transform on its dual grid."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.spec.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.spec.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # cached in the instance __dict__, like GridSpec.spacing; values never change
    @functools.cached_property
    def _max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _owned(cls, spec: GridSpec, values: np.ndarray, kind=None):
    """cls(spec, values[, kind]) for a fresh array that only this module holds.

    Checks the shape, dtype and finiteness as the constructors do and marks
    values read-only, but does not copy it: nothing else can write to it.
    """
    fields = {"spec": spec, "values": values}
    if cls is GridFunction:
        if kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {kind!r}")
        fields["kind"] = kind
    dtype = np.float64 if kind == "real" else np.complex128
    if values.shape != spec.shape or values.dtype != dtype:
        raise ValueError(f"{values.dtype} values of shape {values.shape} do not match "
                         f"{dtype.__name__} on grid {spec.shape}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    values.setflags(write=False)
    obj = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(obj, name, v)  # frozen dataclasses: bypass __setattr__
    return obj


def _shift_into(op, src: np.ndarray, c, out: np.ndarray) -> np.ndarray:
    """out = fftshift(op(src, c)) in one pass over src, for even sizes.

    fftshift swaps the two halves of every axis, so each of the 2^n orthant
    blocks of src goes through op once, straight to its shifted place.  Each
    element meets the same operation as op on the unshifted array.
    """
    halves = [(slice(None, n // 2), slice(n // 2, None)) for n in src.shape]
    for picks in itertools.product((0, 1), repeat=src.ndim):
        op(src[tuple(h[p] for h, p in zip(halves, picks))], c,
           out=out[tuple(h[1 - p] for h, p in zip(halves, picks))])
    return out


def transform(f: GridFunction) -> SpectralFunction:
    """Samples of the Fourier transform of f on the dual grid.

    The DFT is scipy.fft.fftn, which agrees with numpy.fft.fftn up to
    rounding.  The fftshift of its output and the cell-volume scaling run
    as one pass; every value equals fftshift followed by the scaling bit for
    bit.  f is immutable, so the result is cached on f itself: every
    later call with the same object (the Riesz transforms of h1_norm, the
    other functionals of one corpus member) returns the same read-only
    SpectralFunction.  The cache lives exactly as long as f; distinct
    GridFunctions never share it, even when their values are equal.
    """
    F = vars(f).get("_spectrum")
    if F is None:
        vals = scipy.fft.fftn(np.fft.ifftshift(f.values))
        vals = _shift_into(np.multiply, vals, f.spec.cell_volume, np.empty_like(vals))
        F = _owned(SpectralFunction, dual_grid(f.spec), vals)
        vars(f)["_spectrum"] = F  # f is frozen: bypass its __setattr__
    return F


def _inverse(values: np.ndarray, spec: GridSpec, kind) -> GridFunction:
    """GridFunction on spec from spectral samples on its dual grid; values is not modified.

    The fftshift of the inverse DFT and the division by the cell volume run
    as one pass, on the real part alone for kind "real".
    """
    vals = scipy.fft.ifftn(np.fft.ifftshift(values), overwrite_x=True)
    if kind == "real":
        out = _shift_into(np.divide, vals.real, spec.cell_volume, np.empty(vals.shape))
    else:
        out = _shift_into(np.divide, vals, spec.cell_volume, np.empty_like(vals))
    return _owned(GridFunction, spec, out, kind)


def inverse_transform(F: SpectralFunction, kind="real") -> GridFunction:
    return _inverse(F.values, dual_grid(F.spec), kind)


def _apply_multiplier(F: SpectralFunction, multiplier: np.ndarray) -> SpectralFunction:
    return _owned(SpectralFunction, F.spec,
                  np.asarray(F.values * multiplier, dtype=np.complex128))


def frequency_radii(spec: GridSpec) -> np.ndarray:
    """|xi| on the (dual) grid spec."""
    r = sum(x ** 2 for x in spec.meshgrid())
    return np.sqrt(r, out=r)


def _origin_index(spec: GridSpec):
    return tuple(n // 2 for n in spec.points)


def _warn_if_not_mean_zero(F: SpectralFunction, what: str):
    scale = F._max_abs
    if scale == 0:
        return
    dc = abs(F.values[_origin_index(F.spec)])
    if dc > MEAN_TOL * scale:
        warnings.warn(f"{what} applied to a function with nonzero mean "
                      f"(relative weight {dc / scale:.2e}); the result has "
                      "grid-dependent tails", RuntimeWarning, stacklevel=3)


def _riesz_multiplier(spec: GridSpec, j) -> np.ndarray:
    """q = -xi_j / |xi| as (-xi_j) * (1 / |xi|), 0 at the origin; the Riesz symbol is i q.

    These are the bits of the imaginary part of the complex quotient
    -1j * xi_j / |xi|: numpy divides by complex(r, 0) by multiplying by 1/r.
    """
    r = frequency_radii(spec)
    # the symbol has no limit at the origin, the exact node N/2 of every
    # axis; 0 there keeps mean-zero inputs exact
    origin = _origin_index(spec)
    r[origin] = 1.0
    q = np.divide(1.0, r, out=r)
    np.multiply(-spec.meshgrid()[j], q, out=q)
    q[origin] = 0.0
    return q


def riesz(f: GridFunction, j) -> GridFunction:
    """Riesz transform along axis j (the Hilbert transform when dim is 1).

    The product of the symbol i q with F = a + i b is -q b + i q a, written
    with three real passes; it equals the complex product bit for bit, up
    to the sign of zeros.
    """
    _check_axis(j, f.spec.dim)
    F = transform(f)
    _warn_if_not_mean_zero(F, "riesz")
    q = _riesz_multiplier(F.spec, j)
    m = np.empty(F.values.shape, dtype=np.complex128)
    np.negative(np.multiply(q, F.values.imag, out=m.real), out=m.real)
    np.multiply(q, F.values.real, out=m.imag)
    return _inverse(m, dual_grid(F.spec), f.kind)


def h1_norm(f: GridFunction) -> float:
    """||f||_1 plus the L^1 norms of all Riesz transforms (truncated domain)."""
    total = lp_norm(f, 1)
    for j in range(f.spec.dim):
        total += lp_norm(riesz(f, j), 1)
    return float(total)


def _poisson_multiplier(spec: GridSpec, t) -> np.ndarray:
    r = frequency_radii(spec)
    return np.exp(-2.0 * np.pi * r * t)


def _default_time_grid(spec: GridSpec) -> np.ndarray:
    """64 geometric heights in [min spacing / 4, 8 max extent] for the cone sups."""
    lo = min(spec.spacing) / 4.0
    hi = 8.0 * max(spec.half_extents)
    return np.geomspace(lo, hi, 64)


def ball_maximum(values: np.ndarray, spec: GridSpec, radius: float) -> np.ndarray:
    """Pointwise max of values over the Euclidean ball of the given radius.

    The ball is sampled at grid nodes; nodes outside the box do not
    contribute.  radius below the spacing returns values unchanged.
    """
    if radius >= math.hypot(*(2.0 * L for L in spec.half_extents)):
        return np.full_like(values, values.max())
    last = spec.dim - 1
    w_last = int(radius / spec.spacing[last] + 1e-9)
    if spec.dim == 1:
        return maximum_filter1d(values, 2 * w_last + 1, mode="nearest")
    # decompose the ball into 1-d windows along the last axis, one per
    # transverse offset; "nearest" padding never wins because the filtered
    # rows are shifted copies whose edges repeat in-box values
    out = np.full_like(values, -np.inf)
    head_spacing = spec.spacing[:-1]
    head_shape = values.shape[:-1]
    ranges = [np.arange(-int(radius / s + 1e-9), int(radius / s + 1e-9) + 1)
              for s in head_spacing]
    for offset in np.stack(np.meshgrid(*ranges, indexing="ij"), -1).reshape(-1, last):
        d2 = sum((o * s) ** 2 for o, s in zip(offset, head_spacing))
        if d2 > radius * radius * (1 + 1e-12):
            continue
        if any(abs(int(o)) >= head_shape[ax] for ax, o in enumerate(offset)):
            continue  # the shifted copy lies entirely outside the box
        w = int(math.sqrt(max(radius * radius - d2, 0.0)) / spec.spacing[last] + 1e-9)
        shifted = values
        for ax, o in enumerate(offset):
            o = int(o)
            if o == 0:
                continue
            pad = np.full_like(shifted, -np.inf)
            n = head_shape[ax]
            src = [slice(None)] * values.ndim
            dst = [slice(None)] * values.ndim
            if o > 0:
                dst[ax] = slice(0, n - o)
                src[ax] = slice(o, n)
            else:
                dst[ax] = slice(-o, n)
                src[ax] = slice(0, n + o)
            pad[tuple(dst)] = shifted[tuple(src)]
            shifted = pad
        filt = maximum_filter1d(shifted, 2 * w + 1, axis=last, mode="nearest")
        np.maximum(out, filt, out=out)
    return out


def cone_derivative_check(f: GridFunction, t_grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Cone sup of |du/dt| vs. the summed cone sups of its conjugate pieces.

    u is the harmonic extension of f; the t-derivative equals minus the sum
    over j of P_t applied to the Riesz transform of the j-th derivative, so
    the left array is dominated by the right one up to rounding.  Both sides
    use the same sampled cone; derivatives are spectral.
    """
    if t_grid is None:
        t_grid = _default_time_grid(f.spec)
    F = transform(f)
    spec = f.spec
    mesh = F.spec.meshgrid()
    r = frequency_radii(F.spec)
    lhs = np.zeros(spec.shape)
    rhs_parts = [np.zeros(spec.shape) for _ in range(spec.dim)]
    for t in t_grid:
        pt = _poisson_multiplier(F.spec, t)
        u_t = np.abs(inverse_transform(
            _apply_multiplier(F, -2.0 * np.pi * r * pt), "complex").values)
        np.maximum(lhs, ball_maximum(u_t, spec, t), out=lhs)
        for j in range(spec.dim):
            # Riesz of the j-th derivative: symbol 2 pi xi_j^2 / |xi|
            with np.errstate(divide="ignore", invalid="ignore"):
                sym = np.where(r > 0, 2.0 * np.pi * mesh[j] ** 2 / np.where(r > 0, r, 1.0), 0.0)
            v = np.abs(inverse_transform(_apply_multiplier(F, sym * pt), "complex").values)
            np.maximum(rhs_parts[j], ball_maximum(v, spec, t), out=rhs_parts[j])
    return lhs, sum(rhs_parts)


# ---------------------------------------------------------------------------
# spectral slab and shell functionals
# ---------------------------------------------------------------------------


def _check_slab_axis(spec: GridSpec, axis) -> None:
    if spec.dim < 2:
        raise ValueError("needs at least 2 frequency axes")
    _check_axis(axis, spec.dim)


def slab_sup(F: SpectralFunction, axis, t) -> GridFunction:
    """Per-slab sup of |F| over the frequencies with |xi_axis| >= t."""
    spec = F.spec
    _check_slab_axis(spec, axis)
    if t < 0:
        raise ValueError("t must be nonnegative")
    nodes = spec.axis_nodes(axis)
    mask = np.abs(nodes) >= t
    reduced = spec.drop_axis(axis)
    if not mask.any():
        warnings.warn(f"threshold {t} exceeds the frequency extent; sup is empty",
                      RuntimeWarning, stacklevel=2)
        return GridFunction(reduced, np.zeros(reduced.shape))
    sub = np.compress(mask, np.abs(F.values), axis=axis)
    return GridFunction(reduced, sub.max(axis=axis))


def _slab_double_stars(F: SpectralFunction, axis, ts, measures) -> np.ndarray:
    """double_star of the rearranged slab_sup(F, axis, t) at each measure, per t.

    The slabs {|xi_axis| >= t} are nested: sorted by |xi_axis|, descending,
    each is a prefix of the planes.  One running max, extended a plane at a
    time, gives every slab sup; each distinct plane count is rearranged once
    and evaluated at the measures of all thresholds that select it.  The max
    is exact, so every value equals the per-threshold slab_sup route.  An
    empty slab warns like slab_sup and gives 0.
    """
    spec = F.spec
    ts = np.asarray(ts, dtype=float)
    measures = np.asarray(measures, dtype=float)
    abs_nodes = np.abs(spec.axis_nodes(axis))
    order = np.argsort(-abs_nodes, kind="stable")
    counts = np.count_nonzero(abs_nodes >= ts[:, None], axis=1)
    out = np.zeros(len(ts))
    for t in ts[counts == 0]:
        warnings.warn(f"threshold {t} exceeds the frequency extent; sup is empty",
                      RuntimeWarning, stacklevel=3)
    planes = np.moveaxis(np.abs(F.values), axis, 0)
    reduced = spec.drop_axis(axis)
    running = np.zeros(reduced.shape)
    done = 0
    for c in np.unique(counts[counts > 0]):
        for j in order[done:c]:
            np.maximum(running, planes[j], out=running)
        done = c
        prof = decreasing_rearrangement(GridFunction(reduced, running))
        if prof.values.size:
            sel = counts == c
            out[sel] = double_star(prof, measures[sel])
    return out


def sup_integral_functional(f: Union[GridFunction, SpectralFunction], axis,
                            levels=64) -> float:
    """Integral over t > 0 of the running average, at t^(n-1), of the slab sup.

    The slab sup at threshold t is rearranged over its (n-1)-dimensional
    frequency domain and averaged up to measure t^(n-1); the t-integral uses
    a geometric grid with a constant continuation below the first node (the
    integrand tends to a finite limit) and drops t beyond the frequency
    extent, where the sup vanishes.

    The slabs of the levels thresholds are nested, so the sups come from one
    running max over the planes in order of decreasing |xi_axis|, and each
    distinct set of planes is rearranged once (thresholds below one
    frequency cell all select the same planes).  The values equal the
    per-threshold slab_sup / decreasing_rearrangement / double_star route
    bit for bit.
    """
    F = transform(f) if isinstance(f, GridFunction) else f
    _check_slab_axis(F.spec, axis)
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    n = F.spec.dim
    t_hi = F.spec.half_extents[axis]
    t_lo = F.spec.spacing[axis] / 256.0
    ts = np.geomspace(t_lo, t_hi, levels)
    vals = _slab_double_stars(F, axis, ts, [t ** (n - 1) for t in ts])
    total = vals[0] * t_lo
    for i in range(levels - 1):
        total += segment_integral(ts[i], ts[i + 1], vals[i], vals[i + 1])
    return float(total)


@dataclass(frozen=True)
class ShellQuadrature:
    """Angular x radial sampling rule for sphere integrals of a spectrum.

    dim 2 uses a trapezoid rule with angular_count points on the circle; dim
    3 a latitude-longitude product rule, Gauss-Legendre in the cosine of the
    polar angle (polar_count) times trapezoid in azimuth (azimuth_count).
    Weights sum to the exact unit-sphere measure.  radial_count is the number
    of sample radii per dyadic shell.
    """

    dim: int
    radial_count: int = 16
    angular_count: int = 64
    polar_count: int = 24
    azimuth_count: int = 48

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        counts = [self.radial_count, self.angular_count] if self.dim == 2 else \
            [self.radial_count, self.polar_count, self.azimuth_count]
        if any(c < 8 for c in counts):
            raise ValueError("all sample counts must be at least 8")

    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit vectors and weights summing to the unit-sphere measure.

        Computed once per distinct rule and shared between calls, so the
        arrays are read-only.
        """
        return _sphere_rule(self)


@functools.lru_cache(maxsize=16)
def _sphere_rule(quad: ShellQuadrature) -> tuple[np.ndarray, np.ndarray]:
    if quad.dim == 2:
        a = quad.angular_count
        phi = 2.0 * np.pi * np.arange(a) / a
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(a, 2.0 * np.pi / a)
    else:
        x, wx = np.polynomial.legendre.leggauss(quad.polar_count)
        a = quad.azimuth_count
        phi = 2.0 * np.pi * np.arange(a) / a
        sin_th = np.sqrt(1.0 - x ** 2)
        dirs = np.stack([
            np.outer(sin_th, np.cos(phi)).ravel(),
            np.outer(sin_th, np.sin(phi)).ravel(),
            np.repeat(x, a),
        ], axis=1)
        w = np.repeat(wx, a) * (2.0 * np.pi / a)
    dirs.setflags(write=False)
    w.setflags(write=False)
    return dirs, w


def _sphere_integrals(av: np.ndarray, spec: GridSpec, radii: np.ndarray,
                      quad: ShellQuadrature) -> list[float]:
    """Surface integrals of av = |F| (samples on spec) over spheres of the given radii.

    The points of all radii are interpolated (multilinear, zero outside the
    grid) in one map_coordinates call; each point is interpolated on its
    own, and each sphere is reduced by its own dot product, so every value
    equals a single-radius evaluation bit for bit.
    """
    if quad.dim != spec.dim:
        raise ValueError("quadrature dimension does not match the grid")
    for r in radii:
        if not 0 < r <= min(spec.half_extents):
            raise ValueError(f"radius {r} outside the frequency extent")
    dirs, w = quad.directions()
    points = radii[:, None, None] * dirs
    coords = np.empty((spec.dim, points.shape[0] * points.shape[1]))
    for ax in range(spec.dim):
        coords[ax] = ((points[..., ax] + spec.half_extents[ax]) / spec.spacing[ax]).ravel()
    vals = map_coordinates(av, coords, order=1, mode="constant", cval=0.0)
    vals = vals.reshape(len(radii), -1)
    return [float(np.dot(w, v) * r ** (spec.dim - 1)) for r, v in zip(radii, vals)]


def sphere_integral(F: SpectralFunction, r, quad: ShellQuadrature) -> float:
    """Surface integral of |F| over the sphere of radius r."""
    return _sphere_integrals(np.abs(F.values), F.spec, np.array([r], dtype=float), quad)[0]


def _shell_range(F: SpectralFunction) -> range:
    lo = math.ceil(math.log2(max(F.spec.spacing)))
    hi = math.floor(math.log2(min(F.spec.half_extents))) - 1
    return range(lo, hi + 1)


def dyadic_shell_terms(F: SpectralFunction, quad: ShellQuadrature):
    """(k, sup over sampled r in [2^k, 2^(k+1)] of the sphere integral) pairs.

    Covers the dyadic shells the grid resolves: one cell <= 2^k and
    2^(k+1) <= extent.  The shells outside are skipped: finitely many above
    the extent, and infinitely many below one cell, whose sum is not
    completed here.  |F| is taken once per call, and the radial_count radii of a
    shell are interpolated together; each sphere integral equals
    sphere_integral at that radius bit for bit.
    """
    av = np.abs(F.values)
    ks = list(_shell_range(F))
    sups = np.zeros(len(ks))
    for i, k in enumerate(ks):
        radii = np.geomspace(2.0 ** k, 2.0 ** (k + 1), quad.radial_count)
        sups[i] = max(_sphere_integrals(av, F.spec, radii, quad))
    return np.array(ks), sups


def dyadic_shell_sum(F: SpectralFunction, weight_exponent: float,
                     quad: ShellQuadrature) -> float:
    """Sum over resolvable shells of 2^(k w) times the shell sup."""
    ks, sups = dyadic_shell_terms(F, quad)
    return float(np.sum(2.0 ** (ks * weight_exponent) * sups))


def _face_integrals(av: np.ndarray, spec: GridSpec, j: int, face_half: float) -> np.ndarray:
    """Rectangle-rule integral of av = |F| over {|xi_m| <= face_half, m != j}, per xi_j."""
    area = 1.0
    for m in range(spec.dim):
        if m == j:
            continue
        keep = np.abs(spec.axis_nodes(m)) <= face_half + 1e-12
        av = np.compress(keep, av, axis=m)
        area *= spec.spacing[m]
    axes = tuple(m for m in range(spec.dim) if m != j)
    return av.sum(axis=axes) * area


def cube_shell_sum(F: SpectralFunction) -> float:
    """Cube-face analogue of the dyadic shell sum, on grid-aligned planes.

    Sum over axes j and resolvable k of 2^(k (2 - n)) times the sup, over
    frequency nodes with 2^k <= |xi_j| <= 2^(k+1), of the integral of |F|
    over the face {|xi_m| <= 2^k, m != j}.
    """
    spec = F.spec
    if spec.dim < 2:
        raise ValueError("needs at least 2 frequency axes")
    w = 2 - spec.dim
    av = np.abs(F.values)
    total = 0.0
    for j in range(spec.dim):
        nodes = np.abs(spec.axis_nodes(j))
        for k in _shell_range(F):
            mask = (nodes >= 2.0 ** k) & (nodes <= 2.0 ** (k + 1))
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

    The folded grid has the (N_i/2 + 1) offsets d = |k - N_i/2| per axis;
    |xi| there is built from d h_i as frequency_radii builds it from the
    nodes, so every weight equals the full-grid weight of the nodes it
    stands for bit for bit.  The second array holds the flat indices of
    the cells within one diagonal cell of the origin.  Shared between
    calls, so both are read-only; a table takes 287 KB on a 64^3 grid and
    2.2 MB on a 128^3 grid.  A verify_all pass reads 8 of them.
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
    """Sum of the samples at k = N/2 - d and k = N/2 + d along axis, for d = 0..N/2.

    d = 0 and d = N/2 have one node each, k = N/2 and k = 0.
    """
    a = np.moveaxis(a, axis, 0)
    m = a.shape[0] // 2
    out = np.empty((m + 1,) + a.shape[1:])
    out[0] = a[m]
    np.add(a[m - 1:0:-1], a[m + 1:], out=out[1:m])
    out[m] = a[0]
    return np.moveaxis(out, 0, axis)


def weighted_fourier_integral(F: SpectralFunction, gamma: float) -> WeightedIntegral:
    """Rectangle rule of |F(xi)| |xi|^gamma over the punctured frequency grid.

    near_origin isolates the contribution of the nodes within one cell of the
    origin, where a negative gamma makes the rule most sensitive to the
    discretization; a large share there means the value is unreliable.

    |xi| depends only on |k - N/2| per axis, and the nodes k = N/2 +- d are
    exact negatives, so |F| is folded onto those offsets first and then
    weighted by a cached table (_radial_weights).  That is exact in exact
    arithmetic; in floating point the sums run in another order, so the
    values move in the last bits against the full-grid rule.
    """
    spec = F.spec
    av = np.abs(F.values)
    for axis in range(spec.dim):
        av = _fold(av, axis)
    w, near = _radial_weights(spec, gamma)
    integrand = np.multiply(av, w, out=av)
    cell = spec.cell_volume
    return WeightedIntegral(float(integrand.sum() * cell),
                            float(integrand.flat[near].sum() * cell))

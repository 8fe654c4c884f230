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
costs bits.  Bit-exact against the plain route: the transform of a complex
sample and every inverse transform move the FFT's halves while they scale
by the cell volume, in one pass; each fresh spectrum or inverse is frozen
without a copy; the Riesz transform of a complex sample multiplies F by
the real q = -xi_j / |xi| and then by 1j (equal to the complex product up
to the sign of zeros).  Moves the last bits (a few eps of max|.|): a real
sample's transform runs rfftn and fills the other half of its spectrum by
conjugate reflection, and its Riesz transform multiplies the half spectrum
and runs irfftn; neither makes a rolled copy, since rolling an axis by N/2
multiplies the spectrum by (-1)^k.  Also moves the last bits: weighted_fourier_integral folds
|F| onto the offsets |k - N/2| before it weights and sums, and the sphere
and dyadic-shell functionals read one multilinear operator per dual grid,
which merges equal cells and folds antipodal points (below 1e-13
relative).  Their sampling rules are fixed module constants: 16 radii per
dyadic shell, 64 trapezoid points on the circle, 24 Gauss-Legendre x 48
azimuth points on the sphere, and 64 thresholds for the slab-sup
integral.  Tables shared between calls are read-only and bounded by the
size of their cache: the radial weights (287 KB on a 64^3 grid) and the
shell operators (1.2 MB on a 64^3 grid, 0.5 MB on a 32^3 grid).  No
full-grid array is kept from one call to the next.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
import scipy.fft
from scipy.ndimage import maximum_filter1d

from .gridfn import GridFunction, GridSpec, _check_axis, _owned
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
    "sphere_integral",
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


def _blocks(shape):
    """(source, destination) index pairs of the 2^n blocks that fftshift swaps, for even sizes."""
    halves = [((slice(None, n // 2), slice(n // 2, None)),
               (slice(n // 2, None), slice(None, n // 2))) for n in shape]
    for picks in itertools.product(*halves):
        yield tuple(p[0] for p in picks), tuple(p[1] for p in picks)


def _shift_into(op, src: np.ndarray, c, out: np.ndarray) -> np.ndarray:
    """out = fftshift(op(src, c)) in one pass over src, for even sizes.

    fftshift swaps the two halves of every axis, so each of the 2^n orthant
    blocks of src goes through op once, straight to its shifted place.  Each
    element meets the same operation as op on the unshifted array.
    """
    for s, d in _blocks(src.shape):
        op(src[s], c, out=out[d])
    return out


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


def _fill_hermitian(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = fftshift of the full spectrum whose last-axis half (FFT order) is half.

    half holds the offsets k = 0..N/2 of the last axis, as rfftn returns
    them.  Those land on the shifted indices N/2..N-1 and 0 by plain
    copies; the other half is the point reflection X[-k] = conj(X[k]) of a
    real sample's spectrum, so out[N - m] == conj(out[m]) bit for bit
    (indices mod N) wherever the last index m is neither 0 nor N/2.
    """
    m = out.shape[-1] // 2
    head = out.shape[:-1]
    for s, d in _blocks(head):
        np.copyto(out[d + (slice(m, None),)], half[s + (slice(None, m),)])
        np.copyto(out[d + (slice(0, 1),)], half[s + (slice(m, m + 1),)])
    # out index j of a head axis holds k = j - n/2, whose reflection -k sits
    # at half index (n/2 - j) mod n: n/2 down to 0, then n - 1 down to n/2 + 1
    flips = [((slice(n // 2, None, -1), slice(None, n // 2 + 1)),
              (slice(None, n // 2, -1), slice(n // 2 + 1, None))) for n in head]
    for picks in itertools.product(*flips):
        np.conjugate(half[tuple(p[0] for p in picks) + (slice(m - 1, 0, -1),)],
                     out=out[tuple(p[1] for p in picks) + (slice(1, m),)])
    return out


def _gather_half(F: np.ndarray) -> np.ndarray:
    """The last-axis half k = 0..N/2 (FFT order) of the shifted spectrum F, as rfftn lays it out."""
    m = F.shape[-1] // 2
    head = F.shape[:-1]
    half = np.empty(head + (m + 1,), dtype=F.dtype)
    for s, d in _blocks(head):
        np.copyto(half[s + (slice(None, m),)], F[d + (slice(m, None),)])
        np.copyto(half[s + (slice(m, m + 1),)], F[d + (slice(0, 1),)])
    return half


def transform(f: GridFunction) -> SpectralFunction:
    """Samples of the Fourier transform of f on the dual grid.

    A real f runs scipy.fft.rfftn on its samples as they are: the sign
    (-1)^(k_0 + ... + k_(n-1)) turns that into the spectrum of the rolled
    samples, in the pass that scales it by the cell volume (_alternate).
    The half spectrum is then copied to its fftshifted place, and the other
    half is filled by the conjugate point reflection (_fill_hermitian), so
    the result is Hermitian bit for bit off the last axis's planes 0 and
    N/2.  A complex f runs scipy.fft.fftn on its ifftshifted samples, whose
    fftshift and scaling run as one pass (_shift_into).  Both agree with
    the rolled numpy.fft.fftn route up to rounding; the real route moves
    the last bits (a few epsilon of max|F|).  f is immutable, so the result
    is cached on f itself: every later call with the same object (the Riesz
    transforms of h1_norm, the other functionals of one corpus member)
    returns the same read-only SpectralFunction.  The cache lives exactly
    as long as f; distinct GridFunctions never share it, even when their
    values are equal.
    """
    F = vars(f).get("_spectrum")
    if F is None:
        c = f.spec.cell_volume
        if f.kind == "real":
            vals = np.empty(f.spec.shape, dtype=np.complex128)
            half = scipy.fft.rfftn(f.values)
            _fill_hermitian(_alternate(half, c), vals)
        else:
            vals = scipy.fft.fftn(np.fft.ifftshift(f.values))
            vals = _shift_into(np.multiply, vals, c, np.empty_like(vals))
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


def _riesz_symbol(nodes, j, origin) -> np.ndarray:
    """q = -xi_j / |xi| as (-xi_j) * (1 / |xi|) on the grid of the axis nodes, 0 at the origin.

    These are the bits of the imaginary part of the complex quotient
    -1j * xi_j / |xi|: numpy divides by complex(r, 0) by multiplying by 1/r.
    The symbol has no limit at the origin; 0 there keeps mean-zero inputs
    exact.
    """
    mesh = np.meshgrid(*nodes, indexing="ij", sparse=True)
    r = sum(x ** 2 for x in mesh)
    np.sqrt(r, out=r)
    r[origin] = 1.0
    q = np.divide(1.0, r, out=r)
    np.multiply(-mesh[j], q, out=q)
    q[origin] = 0.0
    return q


def _riesz_multiplier(spec: GridSpec, j) -> np.ndarray:
    """The Riesz q of axis j on the (dual) grid spec, in its centered layout; the symbol is i q."""
    return _riesz_symbol([spec.axis_nodes(a) for a in range(spec.dim)], j, _origin_index(spec))


def _half_riesz_multiplier(spec: GridSpec, j) -> np.ndarray:
    """The Riesz q of axis j on the half spectrum k_last = 0..N/2, in FFT order.

    q is also 0 on the Nyquist plane k_j = N/2 of axis j: its node -N/2 h is
    its own reflection, so a Hermitian spectrum times i q is not Hermitian
    there, and the real part that the full route keeps is 0.
    """
    nodes = [np.fft.ifftshift(spec.axis_nodes(a)) for a in range(spec.dim)]
    nodes[-1] = nodes[-1][:spec.points[-1] // 2 + 1]
    q = _riesz_symbol(nodes, j, (0,) * spec.dim)
    q[(slice(None),) * j + (spec.points[j] // 2,)] = 0.0
    return q


def riesz(f: GridFunction, j) -> GridFunction:
    """Riesz transform along axis j (the Hilbert transform when dim is 1).

    F = a + i b is multiplied by the real q and then by 1j in place, which
    gives -q b + i q a: the complex product with the symbol i q, bit for bit
    up to the sign of zeros.  A complex f multiplies the full spectrum and
    inverts it with ifftn.  A real f multiplies only the half spectrum
    k_last = 0..N/2, gathered in FFT order from the shifted F, and the
    factor 1j carries the sign (-1)^(k_0 + ... + k_(n-1)) (_alternate), so
    irfftn returns the transform already fftshifted.  q is 0 there on the
    Nyquist plane of axis j (_half_riesz_multiplier), which in exact
    arithmetic is the real part that the full route keeps; the values move
    in the last bits.
    """
    _check_axis(j, f.spec.dim)
    F = transform(f)
    _warn_if_not_mean_zero(F, "riesz")
    if f.kind == "complex":
        m = F.values * _riesz_multiplier(F.spec, j)
        m *= 1j
        return _inverse(m, f.spec, "complex")
    m = _gather_half(F.values)
    m *= _half_riesz_multiplier(F.spec, j)
    vals = scipy.fft.irfftn(_alternate(m, 1j), s=f.spec.shape, overwrite_x=True)
    np.divide(vals, f.spec.cell_volume, out=vals)
    return _owned(GridFunction, f.spec, vals, "real")


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


def sup_integral_functional(f: Union[GridFunction, SpectralFunction], axis) -> float:
    """Integral over t > 0 of the running average, at t^(n-1), of the slab sup.

    The slab sup at threshold t is rearranged over its (n-1)-dimensional
    frequency domain and averaged up to measure t^(n-1); the t-integral uses
    a geometric grid with a constant continuation below the first node (the
    integrand tends to a finite limit) and drops t beyond the frequency
    extent, where the sup vanishes.

    The slabs of the _SLAB_LEVELS thresholds are nested, so the sups come
    from one running max over the planes in order of decreasing |xi_axis|,
    and each distinct set of planes is rearranged once (thresholds below one
    frequency cell all select the same planes).  The values equal the
    per-threshold slab_sup / decreasing_rearrangement / double_star route
    bit for bit.
    """
    F = transform(f) if isinstance(f, GridFunction) else f
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
def _sphere_rule(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit directions, weights summing to the unit-sphere measure, and the index of each antipode.

    dim 2 uses the trapezoid rule on the circle, where the angle 2 pi k / a
    pairs with k + a/2.  dim 3 uses a latitude-longitude product rule,
    Gauss-Legendre in the cosine of the polar angle times trapezoid in
    azimuth; a node pairs with the mirrored Gauss-Legendre node (numpy's
    nodes and weights are exactly symmetric) at the opposite azimuth.  The
    counts are even, so every direction has its antipode, at equal weight.
    Computed once per dimension and shared between calls, so the arrays
    are read-only.
    """
    if dim == 2:
        a = _CIRCLE_POINTS
        phi = 2.0 * np.pi * np.arange(a) / a
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(a, 2.0 * np.pi / a)
        anti = (np.arange(a) + a // 2) % a
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
        polar, k = np.divmod(np.arange(_POLAR_POINTS * a), a)
        anti = (_POLAR_POINTS - 1 - polar) * a + (k + a // 2) % a
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    for arr in (dirs, w, anti):
        arr.setflags(write=False)
    return dirs, w, anti


class _ShellRows(NamedTuple):
    """Sphere integrals as rows: radius^(n-1) times the sum of weights * v[cells] over a row.

    v is |F| flattened, followed by the flattened fold s of _shell_values
    when folded is set.  Row i holds the entries starts[i]:starts[i + 1];
    no row is empty, since the directions with no positive component put a
    point of every valid radius inside the grid.
    """

    radii: np.ndarray
    starts: np.ndarray
    cells: np.ndarray
    weights: np.ndarray
    folded: bool


def _folded_shape(shape) -> tuple:
    """The cells 1 <= j_i <= N_i - 1 of the leading axes and 1 <= j <= N/2 of the last."""
    return tuple(n - 1 for n in shape[:-1]) + (shape[-1] // 2,)


def _corner_terms(base, flipped, t, strides, w):
    """Cells and weights (2^n, K) of the corners b of K points, b running last axis fastest.

    A point's cells are base - offset(b) for the first flipped points and
    base + offset(b) for the rest, with offset(b) = b . strides; its weights
    are w * prod_i (t_i if b_i else 1 - t_i), with t of shape (n, K).  For
    points sorted by base within those two groups, each corner's row of
    cells has two ascending runs.
    """
    n, k = t.shape
    offsets = (np.array(list(itertools.product((0, 1), repeat=n))) @ strides)[:, None]
    cells = np.empty((2 ** n, k), dtype=np.int64)
    np.subtract(base[:flipped], offsets, out=cells[:, :flipped])
    np.add(base[flipped:], offsets, out=cells[:, flipped:])
    weights = w[None, :]
    for ax in range(n):
        pair = np.stack([1.0 - t[ax], t[ax]])
        weights = (weights[:, None, :] * pair[None, :, :]).reshape(2 << ax, k)
    return cells, weights


def _sphere_rows(spec: GridSpec, radii: np.ndarray) -> _ShellRows:
    """The multilinear sphere rule (_sphere_rule) at each radius, one read-only row per radius.

    A point counts 0 unless it lies in [0, N - 1] on every axis, as
    map_coordinates(order=1, mode="constant") counts it.  The point -r d has
    the coordinates N - c when r d has c, so its corners are the reflections
    N - j of those of r d, with the same weights.  An antipodal pair whose
    points both lie in [1, N - 1] on every axis is therefore one point on
    s[j] = |F|[j] + |F|[N - j], stored for the half of the reflection pairs
    with 1 <= j_last <= N_last/2: a point with c_last > N/2 takes the
    reflected corners.  Edge pairs stay on |F|.
    Equal cells of a row are merged, so a row equals the pointwise rule in
    exact arithmetic and moves in the last bits.  The rows are built 8 radii
    at a time, which bounds the scratch memory.
    """
    _sphere_rule(spec.dim)  # rejects a grid without a sphere rule
    for r in radii:
        if not 0 < r <= min(spec.half_extents):
            raise ValueError(f"radius {r} outside the frequency extent")
    span = math.prod(spec.shape) + math.prod(_folded_shape(spec.shape))
    keys, weights, folded = [np.empty(0, dtype=np.int64)], [np.empty(0)], False
    for i in range(0, len(radii), 8):
        block = _row_block(spec, radii[i:i + 8], i * span)
        keys.append(block[0])
        weights.append(block[1])
        folded |= block[2]
    keys = np.concatenate(keys)
    out = _ShellRows(np.array(radii, dtype=float),
                     np.searchsorted(keys // span, np.arange(len(radii))),
                     (keys % span).astype(np.int32 if span < 2 ** 31 else np.int64),
                     np.concatenate(weights), folded)
    for a in out[:4]:
        a.setflags(write=False)
    return out


def _row_block(spec: GridSpec, radii: np.ndarray, key0: int):
    """Sorted keys key0 + row * span + cell, their merged weights, and whether any pair folded."""
    dirs, w, anti = _sphere_rule(spec.dim)
    col = (slice(None), None, None)
    # coords[ax, i, p] of the point radii[i] * dirs[p], in grid units
    coords = radii[None, :, None] * dirs.T[:, None, :]
    coords += np.array(spec.half_extents)[col]
    coords /= np.array(spec.spacing)[col]
    top = functools.reduce(np.logical_and, coords <= np.array(spec.shape)[col] - 1)
    inside = top & functools.reduce(np.logical_and, coords >= 0)
    interior = top & functools.reduce(np.logical_and, coords >= 1)
    pair = interior & interior[:, anti]
    first = pair & (np.arange(len(w)) < anti)  # each pair once, at its first direction
    size = math.prod(spec.shape)
    span = size + math.prod(_folded_shape(spec.shape))
    keys, weights = [], []
    for sel, folded in ((inside & ~pair, False), (first, True)):
        r, d = np.nonzero(sel)
        c = coords[:, r, d]
        lo = np.floor(c)
        t = c - lo
        lo = lo.astype(np.int64)
        flip = np.zeros(len(r), dtype=bool)
        dims = spec.shape
        if folded:
            dims = _folded_shape(spec.shape)
            flip = c[-1] > spec.shape[-1] // 2
            # the cells N - 1 - j of a reflected point, j - 1 of the others
            lo = np.where(flip, np.array(spec.shape)[:, None] - 1 - lo, lo - 1)
        strides = np.cumprod((1,) + tuple(dims[:0:-1]))[::-1]
        base = key0 + r * span + (size if folded else 0) + strides @ lo
        order = np.lexsort((base, ~flip))
        part = _corner_terms(base[order], int(flip.sum()), t[:, order], strides, w[d[order]])
        keys.append(part[0].ravel())
        weights.append(part[1].ravel())
    keys, weights = np.concatenate(keys), np.concatenate(weights)
    # merge equal keys; a corner of weight 0 (at N, or past N/2 when folded)
    # may carry any key and drops out with its zero sum
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    heads = np.flatnonzero(heads)
    merged = np.add.reduceat(weights[order], heads) if len(heads) else np.empty(0)
    keep = merged > 0
    return keys[heads][keep], merged[keep], bool(first.any())


def _shell_values(F: SpectralFunction, rows: _ShellRows) -> np.ndarray:
    """The sphere integrals of |F| over the rows' radii."""
    shape = F.spec.shape
    size = F.values.size
    v = np.empty(size + (math.prod(_folded_shape(shape)) if rows.folded else 0))
    av = np.abs(F.values, out=v[:size].reshape(shape))
    if rows.folded:
        m = shape[-1] // 2
        head = len(shape) - 1
        np.add(av[(slice(1, None),) * head + (slice(1, m + 1),)],
               av[(slice(None, 0, -1),) * head + (slice(None, m - 1, -1),)],
               out=v[size:].reshape(_folded_shape(shape)))
    terms = v[rows.cells]
    terms *= rows.weights
    return np.add.reduceat(terms, rows.starts) * rows.radii ** (F.spec.dim - 1)


def sphere_integral(F: SpectralFunction, r) -> float:
    """Surface integral of |F| over the sphere of radius r.

    Builds the one-row operator of _sphere_rows for r: multilinear in the
    cells, 0 outside the grid, like map_coordinates(order=1,
    mode="constant"), to which it is equal up to the last bits.
    """
    return float(_shell_values(F, _sphere_rows(F.spec, np.array([r], dtype=float)))[0])


def _shell_range(spec: GridSpec) -> range:
    """The k with one cell <= 2^k and 2^(k+1) <= the least half extent of the (dual) grid spec."""
    lo = math.ceil(math.log2(max(spec.spacing)))
    hi = math.floor(math.log2(min(spec.half_extents))) - 1
    return range(lo, hi + 1)


@functools.lru_cache(maxsize=8)
def _shell_operator(spec: GridSpec) -> _ShellRows:
    """_sphere_rows at the _SHELL_RADII radii of every shell of _shell_range(spec).

    Depends only on the dual grid, so it is built once and shared between
    calls; its arrays are read-only.  Folded, it takes about 1.2 MB on a
    64^3 grid and 0.5 MB on a 32^3 grid.
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
    sphere integral equals sphere_integral at that radius up to the last
    bits, and the map_coordinates rule to 1e-13 relative.
    """
    ks = np.array(_shell_range(F.spec))
    sums = _shell_values(F, _shell_operator(F.spec))
    return ks, sums.reshape(len(ks), _SHELL_RADII).max(axis=1, initial=0.0)


def dyadic_shell_sum(F: SpectralFunction, weight_exponent: float) -> float:
    """Sum over resolvable shells of 2^(k w) times the shell sup."""
    ks, sups = dyadic_shell_terms(F)
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
        for k in _shell_range(spec):
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

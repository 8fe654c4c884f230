"""Uniform grids, analytic test families, and seeded corpora.

Everything downstream works on functions truncated to a box [-L, L]^n sampled
on a uniform grid with an even number of points per axis (even sizes keep the
discrete Fourier transform aligned with the half-open node layout).  The test
families are smooth, rapidly decaying or compactly supported, and carry closed
form partial derivatives, so discretization error is the only error source.
Each family defines one field function, which builds the family's factors
once and forms from them the value and the requested partials.

A corpus is a seeded, reproducible list of families checked against a grid;
sample_member samples one of them on a grid together with its exact partial
derivatives.  Generation draws parameters independently of the grid
resolution, so the same seed yields the same analytic functions on a refined
grid.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "GridFunction",
    "FamilySpec",
    "FAMILY_IDS",
    "tail_fraction",
    "CorpusMember",
    "sample_member",
    "corpus_generate",
    "dilate_family",
    "dilate_member",
    "save_corpus_spec",
    "load_corpus_spec",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1

_DIMS = (1, 2, 3)


def _as_int(x, name: str) -> int:
    """x as an int for GridSpec.box and the loaders.

    A fractional, infinite or non-numeric x (a JSON null or boolean) is a
    ValueError.
    """
    if not (_is_number(x) and math.isfinite(x) and int(x) == x):
        raise ValueError(f"{name} must be integers, got {x!r}")
    return int(x)


def _is_number(x) -> bool:
    """A real number that is not a bool: JSON true and false are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_axis(axis, dim: float = math.inf) -> None:
    """Reject an axis that is not an integer in [0, dim); numpy integers pass, bools do not.

    Without dim, as in a spec built before its grid is known, every integer
    >= 0 passes.
    """
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or not 0 <= axis < dim:
        raise ValueError(f"axis {axis!r} out of range [0, {dim})")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the box prod_i [-L_i, L_i] with N_i (even) points per axis.

    Nodes along axis i are x_j = (j - N_i/2) h_i for j = 0..N_i-1 with
    h_i = 2 L_i / N_i, so x_0 = -L_i up to rounding, x_(N_i/2) is exactly
    0, the nodes x_(N_i/2 +- k) are exact negatives of each other, and the
    layout matches the standard FFT ordering after an ifftshift.
    """

    dim: int
    half_extents: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in _DIMS:
            raise ValueError(f"dim must be one of {_DIMS}, got {self.dim}")
        if len(self.half_extents) != self.dim or len(self.points) != self.dim:
            raise ValueError("half_extents and points must have length dim")
        for L in self.half_extents:
            if not (L > 0 and math.isfinite(L)):
                raise ValueError(f"half extents must be positive, got {L}")
        for N in self.points:
            if not isinstance(N, (int, np.integer)):
                raise ValueError(f"points per axis must be integers, got {N!r}")
            if N <= 0 or N % 2:
                raise ValueError(f"points per axis must be positive and even, got {N}")

    @classmethod
    def box(cls, dim, half_extent, points):
        """The cube [-L, L]^dim with the same number of points on every axis."""
        return cls(dim, (float(half_extent),) * dim, (_as_int(points, "points per axis"),) * dim)

    # cached in the instance __dict__; equality, hashing and to_dict read only the fields
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * L / N for L, N in zip(self.half_extents, self.points))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    def axis_nodes(self, axis) -> np.ndarray:
        n = self.points[axis]
        return self.spacing[axis] * (np.arange(n) - n // 2)

    def meshgrid(self) -> list[np.ndarray]:
        """Sparse (broadcastable) coordinate arrays for all axes."""
        return list(np.meshgrid(*(self.axis_nodes(i) for i in range(self.dim)),
                                indexing="ij", sparse=True))

    def refine(self) -> "GridSpec":
        """Same box, twice as many points per axis."""
        return GridSpec(self.dim, self.half_extents, tuple(2 * N for N in self.points))

    def drop_axis(self, axis) -> "GridSpec":
        """Spec for the complementary axes; dim must be >= 2."""
        if self.dim < 2:
            raise ValueError("cannot drop an axis from a 1-d grid")
        keep = [i for i in range(self.dim) if i != axis]
        return GridSpec(self.dim - 1,
                        tuple(self.half_extents[i] for i in keep),
                        tuple(self.points[i] for i in keep))

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "half_extents": list(self.half_extents),
                "points": list(self.points)}

    @classmethod
    def from_dict(cls, d) -> "GridSpec":
        """The spec to_dict wrote; a bad field is a ValueError, a missing one a KeyError."""
        if not isinstance(d, dict):
            raise ValueError(f"a grid must be an object, got {d!r}")
        Ls, Ns = d["half_extents"], d["points"]
        if not (isinstance(Ls, list) and isinstance(Ns, list)):
            raise ValueError("half_extents and points must be lists")
        if not all(_is_number(L) for L in Ls):
            raise ValueError(f"half extents must be numbers, got {Ls!r}")
        return cls(_as_int(d["dim"], "dim"), tuple(float(L) for L in Ls),
                   tuple(_as_int(N, "points per axis") for N in Ns))


@dataclass(frozen=True)
class GridFunction:
    """Immutable real samples on a GridSpec.

    values are normalized to C-contiguous float64 and frozen (the array is
    copied in C order and marked read-only); complex values raise
    ValueError.  Every kernel may rely on the C layout.  Because nothing can
    change, fourier.transform caches its result on the instance.
    """

    spec: GridSpec
    values: np.ndarray

    @staticmethod
    def _layout(spec: GridSpec):
        """The shape and dtype of the values on spec (_owned reads it)."""
        return spec.shape, np.float64

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.shape != self.spec.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid {self.spec.shape}")
        if np.iscomplexobj(arr):
            raise ValueError("values must be real")
        arr = arr.astype(np.float64, order="C", copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def cell_volume(self) -> float:
        return self.spec.cell_volume


def _owned(cls, spec: GridSpec, values: np.ndarray):
    """cls(spec, values) over values itself, for an array nothing writes to.

    Checks the shape and dtype of cls._layout(spec), the C layout and the
    finiteness, as the constructors ensure them, and marks values read-only,
    but does not copy it.  cls is GridFunction or fourier.SpectralFunction.
    """
    shape, dtype = cls._layout(spec)
    if values.shape != shape or values.dtype != dtype:
        raise ValueError(f"{values.dtype} values of shape {values.shape} do not match "
                         f"{dtype.__name__} of shape {shape} on grid {spec.shape}")
    if not values.flags.c_contiguous:
        raise ValueError("values must be C-contiguous")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    values.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "spec", spec)  # frozen dataclasses: bypass __setattr__
    object.__setattr__(obj, "values", values)
    return obj


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------

FAMILY_IDS = ("gaussian", "anisotropic_gaussian", "tensor_bump",
              "windowed_trig", "mollified_cone", "mollified_indicator")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one analytic family member.

    width is the per-axis scale: the gaussian width, the bump half-support,
    the plateau half-width of the smoothed indicator.  freq/phase are used by
    windowed_trig only, radius by mollified_cone, moll_width by the two
    mollified families (transition-layer thickness).
    """

    family: str
    dim: int
    amplitude: float
    center: tuple[float, ...]
    width: tuple[float, ...]
    freq: tuple[float, ...] = ()
    phase: float = 0.0
    radius: float = 0.0
    moll_width: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILY_IDS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.dim not in _DIMS:
            raise ValueError("dim must be 1, 2 or 3")
        if len(self.center) != self.dim or len(self.width) != self.dim:
            raise ValueError("center and width must have length dim")
        if any(w <= 0 for w in self.width):
            raise ValueError("widths must be positive")
        if self.family == "windowed_trig" and len(self.freq) != self.dim:
            raise ValueError("windowed_trig needs a frequency per axis")
        if self.family == "mollified_cone" and self.radius <= 0:
            raise ValueError("mollified_cone needs radius > 0")
        if self.family in ("mollified_cone", "mollified_indicator") and self.moll_width <= 0:
            raise ValueError("mollified families need moll_width > 0")


def _bump(u):
    """C-infinity bump: exp(1 - 1/(1-u^2)) for |u| < 1, else 0; peak value 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def _bump_du(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    one = 1.0 - ui * ui
    out[inside] = np.exp(1.0 - 1.0 / one) * (-2.0 * ui / (one * one))
    return out


def _smoothstep(v):
    """C-infinity transition s(v), 0 for v <= 0 and 1 for v >= 1, and its slope s'(v).

    One exp per side on 0 < v < 1: with a = exp(-1/v) and b = exp(-1/(1-v)),
    s = a / (a + b) and s' = (a / v^2 * b + a * (b / (1-v)^2)) / (a + b)^2.
    a + b > 0 there, since one of the two terms is bounded away from 0.
    Outside, s is exactly 0 or 1 and s' is 0.
    """
    v = np.asarray(v, dtype=float)
    step = np.where(v >= 1.0, 1.0, 0.0)
    slope = np.zeros(v.shape)
    mid = (v > 0.0) & (v < 1.0)
    vm = v[mid]
    wm = 1.0 - vm
    a = np.exp(-1.0 / vm)
    b = np.exp(-1.0 / wm)
    s = a + b
    step[mid] = a / s
    slope[mid] = (a / (vm * vm) * b + a * (b / (wm * wm))) / (s * s)
    return step, slope


def _product(first, factors):
    """((first * f_0) * f_1) * ...; the order fixes the rounding of every sample."""
    out = first
    for factor in factors:
        out = out * factor
    return out


def _swap(factors, k, *new):
    """The factors with the k-th replaced by new: a partial along axis k."""
    return [*factors[:k], *new, *factors[k + 1:]]


def _bump_factors(fam: FamilySpec, coords):
    """Per-axis bumps b_i((x_i - c_i) / w_i) and their x_i-derivatives."""
    us = [(x - c) / w for x, c, w in zip(coords, fam.center, fam.width)]
    return [_bump(u) for u in us], [_bump_du(u) / w for u, w in zip(us, fam.width)]


def _gaussian_field(fam: FamilySpec, coords):
    expo = 0.0
    for x, c, w in zip(coords, fam.center, fam.width):
        expo = expo + ((x - c) / w) ** 2
    value = fam.amplitude * np.exp(-np.pi * expo)
    return value, (value * (-2.0 * np.pi * (coords[k] - fam.center[k])
                            / (fam.width[k] * fam.width[k])) for k in range(fam.dim))


def _tensor_bump_field(fam: FamilySpec, coords):
    bumps, dbumps = _bump_factors(fam, coords)
    return (_product(fam.amplitude, bumps),
            (_product(fam.amplitude, _swap(bumps, k, dbumps[k])) for k in range(fam.dim)))


def _windowed_trig_field(fam: FamilySpec, coords):
    arg = fam.phase
    for x, nu in zip(coords, fam.freq):
        arg = arg + 2.0 * np.pi * nu * x
    bumps, dbumps = _bump_factors(fam, coords)
    win = _product(1.0, bumps)
    sin, cos = np.sin(arg), np.cos(arg)
    return (fam.amplitude * sin * win,
            (fam.amplitude * (2.0 * np.pi * fam.freq[k] * cos * win
                              + sin * _product(1.0, _swap(bumps, k, dbumps[k])))
             for k in range(fam.dim)))


def _indicator_field(fam: FamilySpec, coords):
    m = fam.moll_width
    vs = [(R + m - np.abs(x - c)) / m for x, c, R in zip(coords, fam.center, fam.width)]
    steps, slopes = zip(*(_smoothstep(v) for v in vs))  # per-axis 1-d arrays
    # the chain-rule factor -sign(x - c) / m is a separate multiplication:
    # folding it into smoothstep'(v) first would round differently
    return (_product(fam.amplitude, steps),
            (_product(fam.amplitude, _swap(steps, k, slopes[k],
                                           -np.sign(coords[k] - fam.center[k]) / m))
             for k in range(fam.dim)))


def _mollified_cone_field(fam: FamilySpec, coords):
    R, m, eps = fam.radius, fam.moll_width, fam.moll_width
    r2 = 0.0
    for x, c in zip(coords, fam.center):
        r2 = r2 + (x - c) ** 2
    # r2, rho, v and the slope go as soon as they are used: on a 64^3 grid
    # this sample peaks at 14.9 MB traced (tracemalloc) for 8.4 MB of results
    root = np.sqrt(r2 + eps * eps)
    del r2
    rho = root - eps
    q = 1.0 - rho / R
    v = (R - rho) / m
    del rho
    step, slope = _smoothstep(v)
    del v
    # d/dx_k of amplitude * q * step(v) is this radial factor times drho/dx_k
    radial = fam.amplitude * (-step / R - q * slope / m)
    del slope
    return (fam.amplitude * q * step,
            (radial * ((coords[k] - fam.center[k]) / root) for k in range(fam.dim)))


# family -> (fam, coords) -> (value, iterator over the partials along every axis).
# The partials are built lazily, so a caller can wrap each before the next exists.
_FIELDS: dict[str, Callable] = {
    "gaussian": _gaussian_field,
    "anisotropic_gaussian": _gaussian_field,
    "tensor_bump": _tensor_bump_field,
    "windowed_trig": _windowed_trig_field,
    "mollified_cone": _mollified_cone_field,
    "mollified_indicator": _indicator_field,
}


def _support_radius(fam: FamilySpec, axis) -> float:
    """Half-width of the support along axis of a compactly supported family."""
    if fam.family in ("tensor_bump", "windowed_trig"):
        return fam.width[axis]
    if fam.family == "mollified_indicator":
        return fam.width[axis] + fam.moll_width
    # cone: support radius in euclidean distance; bounded per axis by the same
    rho_max = fam.radius
    return math.sqrt(rho_max * (rho_max + 2.0 * fam.moll_width))


# Largest tail_fraction that a corpus or a sample accepts.
TAIL_TOL = 1e-8


def tail_fraction(fam: FamilySpec, grid: GridSpec) -> float:
    """Estimated fraction of |f| mass outside the grid box.

    Gaussians get a closed-form erfc bound per axis (union bound); compactly
    supported families return 0.0 when the support fits strictly inside the
    box with one cell of margin, else 1.0.
    """
    if fam.dim != grid.dim:
        raise ValueError("family and grid dimension mismatch")
    if fam.amplitude == 0:
        return 0.0
    if fam.family in ("gaussian", "anisotropic_gaussian"):
        total = 0.0
        for c, w, L in zip(fam.center, fam.width, grid.half_extents):
            right = math.erfc(math.sqrt(math.pi) * (L - c) / w)
            left = math.erfc(math.sqrt(math.pi) * (L + c) / w)
            total += 0.5 * (right + left)
        return total
    for axis in range(fam.dim):
        L = grid.half_extents[axis]
        h = grid.spacing[axis]
        if abs(fam.center[axis]) + _support_radius(fam, axis) > L - h:
            return 1.0
    return 0.0


def _grid_function(grid: GridSpec, vals) -> GridFunction:
    return GridFunction(grid, np.broadcast_to(vals, grid.shape))


def _check_tail(fam: FamilySpec, grid: GridSpec) -> None:
    """Reject a family whose tail_fraction on grid exceeds TAIL_TOL."""
    frac = tail_fraction(fam, grid)
    if frac > TAIL_TOL:
        raise ValueError(f"tail mass fraction {frac:.3g} exceeds tolerance {TAIL_TOL:.3g}")


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusMember:
    family: FamilySpec
    f: GridFunction
    derivs: tuple[GridFunction, ...]

    @property
    def dim(self) -> int:
        return self.f.spec.dim

    @property
    def grid(self) -> GridSpec:
        return self.f.spec


def _draw_family(rng: np.random.Generator, family: str, dim: int, L: float) -> FamilySpec:
    # Parameter ranges are fractions of the half extent, chosen so every draw
    # passes the tail check and stays smooth on the coarsest grids in use.
    amp = float(rng.uniform(0.5, 2.0))
    center = tuple(float(x) for x in rng.uniform(-0.18, 0.18, dim) * L)
    if family == "gaussian":
        w = float(rng.uniform(0.14, 0.22)) * L
        return FamilySpec(family, dim, amp, center, (w,) * dim)
    if family == "anisotropic_gaussian":
        width = tuple(float(x) for x in rng.uniform(0.14, 0.22, dim) * L)
        return FamilySpec(family, dim, amp, center, width)
    if family == "tensor_bump":
        width = tuple(float(x) for x in rng.uniform(0.24, 0.34, dim) * L)
        return FamilySpec(family, dim, amp, center, width)
    if family == "windowed_trig":
        width = tuple(float(x) for x in rng.uniform(0.24, 0.34, dim) * L)
        freq = tuple(float(x) for x in rng.uniform(0.5, 0.9, dim))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        return FamilySpec(family, dim, amp, center, width, freq=freq, phase=phase)
    if family == "mollified_cone":
        radius = float(rng.uniform(0.20, 0.30)) * L
        m = float(rng.uniform(0.10, 0.14)) * L
        width = (radius,) * dim  # informational; support is radial
        return FamilySpec(family, dim, amp, center, width, radius=radius, moll_width=m)
    if family == "mollified_indicator":
        width = tuple(float(x) for x in rng.uniform(0.12, 0.18, dim) * L)
        m = float(rng.uniform(0.11, 0.15)) * L
        return FamilySpec(family, dim, amp, center, width, moll_width=m)
    raise ValueError(f"unknown family {family!r}")


def sample_member(fam: FamilySpec, grid: GridSpec) -> CorpusMember:
    """Sample one family and its exact partial derivatives on a grid.

    Raises ValueError if the family's tail mass outside the box exceeds
    TAIL_TOL.  Each array is wrapped as soon as it is built and its raw copy
    dropped, so at most one raw partial is alive at a time.
    """
    _check_tail(fam, grid)
    value, partials = _FIELDS[fam.family](fam, grid.meshgrid())
    f = _grid_function(grid, value)
    del value
    return CorpusMember(fam, f, tuple(_grid_function(grid, p) for p in partials))


def corpus_generate(seed: int, count: int, grid: GridSpec) -> list[FamilySpec]:
    """Seeded corpus: `count` families cycling through FAMILY_IDS, checked against grid.

    Nothing is sampled; sample_member samples a family on a grid.  Each
    draw's tail mass outside grid's box must stay within TAIL_TOL, else
    ValueError.  Draws depend on (seed, count, dim, half extents) but not on
    the point counts, so the same seed gives the same analytic functions on
    a refined grid.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    L = min(grid.half_extents)
    families = []
    for i in range(count):
        fam = _draw_family(rng, FAMILY_IDS[i % len(FAMILY_IDS)], grid.dim, L)
        _check_tail(fam, grid)
        families.append(fam)
    return families


def dilate_family(fam: FamilySpec, lam: float) -> FamilySpec:
    """Family of x -> f(lam * x): centers, widths and radii shrink, freqs grow."""
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    return dataclasses.replace(
        fam,
        center=tuple(c / lam for c in fam.center),
        width=tuple(w / lam for w in fam.width),
        freq=tuple(nu * lam for nu in fam.freq),
        radius=fam.radius / lam,
        moll_width=fam.moll_width / lam,
    )


def dilate_member(member: CorpusMember, lam: float) -> CorpusMember:
    """The member of x -> f(lam x) on the box scaled by 1/lam, from member's arrays.

    Its sample at the node x / lam is f's sample at x, so f's read-only
    values array is shared, not copied, and its partials are lam times f's.
    For lam a power of two this is sample_member(dilate_family(family, lam),
    scaled grid) bit for bit, since the nodes, centers, widths and
    frequencies all scale exactly, apart from partials in the subnormal
    range, where the product by lam may round.
    """
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    grid = member.grid
    scaled = GridSpec(grid.dim, tuple(L / lam for L in grid.half_extents), grid.points)
    return CorpusMember(
        dilate_family(member.family, lam),
        _owned(GridFunction, scaled, member.f.values),
        tuple(_owned(GridFunction, scaled, lam * d.values) for d in member.derivs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_corpus_spec(path, grid: GridSpec, seed: int, count: int) -> None:
    """Write the small JSON document that identifies a corpus."""
    doc = {"format_version": FORMAT_VERSION,
           "grid": grid.to_dict(), "seed": int(seed), "count": int(count)}
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_corpus_spec(path) -> tuple[GridSpec, int, int]:
    """(grid, seed, count) from a corpus file; bad fields raise ValueError, missing ones KeyError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_format_version(doc, "the corpus file")
    return (GridSpec.from_dict(doc["grid"]), _as_int(doc["seed"], "seed and count"),
            _as_int(doc["count"], "seed and count"))


def _check_format_version(doc, what: str) -> None:
    """Raise ValueError unless doc is a JSON object whose format_version is exactly FORMAT_VERSION.

    Both readers of a saved document call it: load_corpus_spec and report
    render.  JSON true is rejected, although True == 1 in Python.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object with format_version "
                         f"{FORMAT_VERSION}, got a {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"{what} has format_version {version!r}, expected {FORMAT_VERSION}")


def _atomic_write(path, data) -> None:
    """Write bytes, or text encoded as UTF-8, to path in one os.replace.

    The data goes to a temporary file in the target's directory first, so a
    reader sees the old file or the new one, never a partial write.  If the
    write fails the temporary file is removed and path is left as it was.
    Every module that saves a file writes through here.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Uniform grids, analytic test families, and seeded corpora.

Everything downstream works on functions truncated to a box [-L, L]^n sampled
on a uniform grid with an even number of points per axis (even sizes keep the
discrete Fourier transform aligned with the half-open node layout).  The test
families are smooth, rapidly decaying or compactly supported, and carry closed
form partial derivatives, so discretization error is the only error source.

A corpus is a seeded, reproducible list of family members sampled on a grid
together with their exact partial derivatives.  Generation draws parameters
independently of the grid resolution, so the same seed yields the same
analytic functions on a refined grid.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "GridSpec",
    "GridFunction",
    "FamilySpec",
    "FAMILY_IDS",
    "sample",
    "derivative",
    "tail_fraction",
    "finite_difference_derivative",
    "CorpusMember",
    "sample_member",
    "corpus_generate",
    "dilate_family",
    "scale_family",
    "save_corpus_spec",
    "load_corpus_spec",
    "save_corpus_dump",
    "load_corpus_dump",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1

_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the box prod_i [-L_i, L_i] with N_i (even) points per axis.

    Nodes along axis i are x_j = -L_i + j * h_i for j = 0..N_i-1 with
    h_i = 2 L_i / N_i, so 0 is always a node and the layout matches the
    standard FFT ordering after an ifftshift.
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
            if N <= 0 or N % 2:
                raise ValueError(f"points per axis must be positive and even, got {N}")

    @classmethod
    def box(cls, dim, half_extent, points):
        """Build a spec broadcasting scalar half_extent / points over axes."""
        Ls = tuple(float(x) for x in (half_extent if isinstance(half_extent, Iterable) else (half_extent,) * dim))
        Ns = tuple(int(x) for x in (points if isinstance(points, Iterable) else (points,) * dim))
        return cls(dim, Ls, Ns)

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
        L = self.half_extents[axis]
        h = self.spacing[axis]
        return -L + h * np.arange(self.points[axis])

    def meshgrid(self) -> list[np.ndarray]:
        """Sparse (broadcastable) coordinate arrays for all axes."""
        return list(np.meshgrid(*(self.axis_nodes(i) for i in range(self.dim)),
                                indexing="ij", sparse=True))

    def refine(self, factor=2) -> "GridSpec":
        """Same box, factor times as many points per axis."""
        if factor < 1 or factor != int(factor):
            raise ValueError("refine factor must be a positive integer")
        return GridSpec(self.dim, self.half_extents, tuple(int(factor) * N for N in self.points))

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
        return cls(int(d["dim"]), tuple(float(x) for x in d["half_extents"]),
                   tuple(int(x) for x in d["points"]))


@dataclass(frozen=True)
class GridFunction:
    """Immutable sampled function on a GridSpec.

    kind is "real" or "complex"; values are normalized to float64/complex128
    and frozen (the array is copied and marked read-only).
    """

    spec: GridSpec
    values: np.ndarray
    kind: str = "real"

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.shape != self.spec.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid {self.spec.shape}")
        if self.kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {self.kind!r}")
        dtype = np.complex128 if self.kind == "complex" else np.float64
        if self.kind == "real" and np.iscomplexobj(arr):
            raise ValueError("complex values with kind='real'")
        arr = arr.astype(dtype, copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def cell_volume(self) -> float:
        return self.spec.cell_volume

    def abs_values(self) -> np.ndarray:
        return np.abs(self.values)

    def scaled(self, c) -> "GridFunction":
        kind = "complex" if (self.kind == "complex" or np.iscomplexobj(np.asarray(c))) else "real"
        return GridFunction(self.spec, self.values * c, kind)


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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d) -> "FamilySpec":
        d = dict(d)
        for key in ("center", "width", "freq"):
            if key in d:
                d[key] = tuple(float(x) for x in d[key])
        return cls(**d)


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


def _expstep(v):
    """exp(-1/v) continued by 0 for v <= 0."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    pos = v > 0
    out[pos] = np.exp(-1.0 / v[pos])
    return out


def _expstep_dv(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    pos = v > 0
    vp = v[pos]
    out[pos] = np.exp(-1.0 / vp) / (vp * vp)
    return out


def _smoothstep(v):
    """C-infinity transition, 0 for v <= 0 and 1 for v >= 1."""
    a = _expstep(v)
    b = _expstep(1.0 - np.asarray(v, dtype=float))
    return a / (a + b)  # a + b > 0 everywhere: one of the two terms is bounded away from 0


def _smoothstep_dv(v):
    v = np.asarray(v, dtype=float)
    a = _expstep(v)
    b = _expstep(1.0 - v)
    da = _expstep_dv(v)
    db = _expstep_dv(1.0 - v)
    s = a + b
    out = np.zeros(v.shape)
    mid = (v > 0) & (v < 1)
    out[mid] = (da[mid] * b[mid] + a[mid] * db[mid]) / (s[mid] * s[mid])
    return out


def _gaussian_value(fam: FamilySpec, coords):
    expo = 0.0
    for x, c, w in zip(coords, fam.center, fam.width):
        expo = expo + ((x - c) / w) ** 2
    return fam.amplitude * np.exp(-np.pi * expo)


def _gaussian_grad(fam: FamilySpec, coords, axis):
    base = _gaussian_value(fam, coords)
    x = coords[axis]
    c, w = fam.center[axis], fam.width[axis]
    return base * (-2.0 * np.pi * (x - c) / (w * w))


def _tensor_bump_value(fam: FamilySpec, coords):
    out = np.full(np.broadcast_shapes(*(np.shape(x) for x in coords)), fam.amplitude)
    for x, c, w in zip(coords, fam.center, fam.width):
        out = out * _bump((x - c) / w)
    return out


def _tensor_bump_grad(fam: FamilySpec, coords, axis):
    out = np.full(np.broadcast_shapes(*(np.shape(x) for x in coords)), fam.amplitude)
    for i, (x, c, w) in enumerate(zip(coords, fam.center, fam.width)):
        u = (x - c) / w
        out = out * (_bump_du(u) / w if i == axis else _bump(u))
    return out


def _trig_window(fam: FamilySpec, coords):
    win = 1.0
    for x, c, w in zip(coords, fam.center, fam.width):
        win = win * _bump((x - c) / w)
    return win


def _windowed_trig_value(fam: FamilySpec, coords):
    arg = fam.phase
    for x, nu in zip(coords, fam.freq):
        arg = arg + 2.0 * np.pi * nu * x
    return fam.amplitude * np.sin(arg) * _trig_window(fam, coords)


def _windowed_trig_grad(fam: FamilySpec, coords, axis):
    arg = fam.phase
    for x, nu in zip(coords, fam.freq):
        arg = arg + 2.0 * np.pi * nu * x
    win = _trig_window(fam, coords)
    dwin = np.full(np.broadcast_shapes(*(np.shape(x) for x in coords)), 1.0)
    for i, (x, c, w) in enumerate(zip(coords, fam.center, fam.width)):
        u = (x - c) / w
        dwin = dwin * (_bump_du(u) / w if i == axis else _bump(u))
    return fam.amplitude * (2.0 * np.pi * fam.freq[axis] * np.cos(arg) * win
                            + np.sin(arg) * dwin)


def _indicator_value(fam: FamilySpec, coords):
    m = fam.moll_width
    out = np.full(np.broadcast_shapes(*(np.shape(x) for x in coords)), fam.amplitude)
    for x, c, R in zip(coords, fam.center, fam.width):
        out = out * _smoothstep((R + m - np.abs(x - c)) / m)
    return out


def _indicator_grad(fam: FamilySpec, coords, axis):
    m = fam.moll_width
    out = np.full(np.broadcast_shapes(*(np.shape(x) for x in coords)), fam.amplitude)
    for i, (x, c, R) in enumerate(zip(coords, fam.center, fam.width)):
        v = (R + m - np.abs(x - c)) / m
        if i == axis:
            out = out * _smoothstep_dv(v) * (-np.sign(x - c) / m)
        else:
            out = out * _smoothstep(v)
    return out


def _cone_rho(fam: FamilySpec, coords):
    eps = fam.moll_width
    r2 = 0.0
    for x, c in zip(coords, fam.center):
        r2 = r2 + (x - c) ** 2
    return np.sqrt(r2 + eps * eps) - eps


def _mollified_cone_value(fam: FamilySpec, coords):
    R, m = fam.radius, fam.moll_width
    rho = _cone_rho(fam, coords)
    return fam.amplitude * (1.0 - rho / R) * _smoothstep((R - rho) / m)


def _mollified_cone_grad(fam: FamilySpec, coords, axis):
    R, m, eps = fam.radius, fam.moll_width, fam.moll_width
    r2 = 0.0
    for x, c in zip(coords, fam.center):
        r2 = r2 + (x - c) ** 2
    root = np.sqrt(r2 + eps * eps)
    rho = root - eps
    drho = (coords[axis] - fam.center[axis]) / root
    v = (R - rho) / m
    dq = -_smoothstep(v) / R - (1.0 - rho / R) * _smoothstep_dv(v) / m
    return fam.amplitude * dq * drho


_VALUE: dict[str, Callable] = {
    "gaussian": _gaussian_value,
    "anisotropic_gaussian": _gaussian_value,
    "tensor_bump": _tensor_bump_value,
    "windowed_trig": _windowed_trig_value,
    "mollified_cone": _mollified_cone_value,
    "mollified_indicator": _indicator_value,
}

_GRAD: dict[str, Callable] = {
    "gaussian": _gaussian_grad,
    "anisotropic_gaussian": _gaussian_grad,
    "tensor_bump": _tensor_bump_grad,
    "windowed_trig": _windowed_trig_grad,
    "mollified_cone": _mollified_cone_grad,
    "mollified_indicator": _indicator_grad,
}


def _support_radius(fam: FamilySpec, axis) -> float:
    """Half-width of the support along axis (inf for gaussians)."""
    if fam.family in ("gaussian", "anisotropic_gaussian"):
        return math.inf
    if fam.family in ("tensor_bump", "windowed_trig"):
        return fam.width[axis]
    if fam.family == "mollified_indicator":
        return fam.width[axis] + fam.moll_width
    # cone: support radius in euclidean distance; bounded per axis by the same
    rho_max = fam.radius
    return math.sqrt(rho_max * (rho_max + 2.0 * fam.moll_width))


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


def sample(fam: FamilySpec, grid: GridSpec, tail_tol=1e-8) -> GridFunction:
    """Sample the family member on the grid; reject excessive tail mass."""
    frac = tail_fraction(fam, grid)
    if frac > tail_tol:
        raise ValueError(f"tail mass fraction {frac:.3g} exceeds tolerance {tail_tol:.3g}")
    vals = np.broadcast_to(_VALUE[fam.family](fam, grid.meshgrid()), grid.shape)
    return GridFunction(grid, np.ascontiguousarray(vals, dtype=float))


def derivative(fam: FamilySpec, axis, grid: GridSpec) -> GridFunction:
    """Closed-form partial derivative along axis, sampled on the grid."""
    if not 0 <= axis < fam.dim:
        raise ValueError(f"axis {axis} out of range for dim {fam.dim}")
    vals = np.broadcast_to(_GRAD[fam.family](fam, grid.meshgrid(), axis), grid.shape)
    return GridFunction(grid, np.ascontiguousarray(vals, dtype=float))


def finite_difference_derivative(f: GridFunction, axis) -> GridFunction:
    """Second-order finite difference along axis (one-sided at the ends)."""
    if not 0 <= axis < f.spec.dim:
        raise ValueError(f"axis {axis} out of range")
    vals = np.gradient(f.values, f.spec.spacing[axis], axis=axis, edge_order=2)
    return GridFunction(f.spec, vals, f.kind)


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


def sample_member(fam: FamilySpec, grid: GridSpec, tail_tol=1e-8) -> CorpusMember:
    """Sample one family and its exact partial derivatives on a grid."""
    f = sample(fam, grid, tail_tol)
    derivs = tuple(derivative(fam, k, grid) for k in range(grid.dim))
    return CorpusMember(fam, f, derivs)


def corpus_generate(seed: int, count: int, grid: GridSpec, tail_tol=1e-8) -> list[CorpusMember]:
    """Seeded corpus of `count` members cycling through all families.

    Draws depend on (seed, count, dim, half extents) but not on the point
    counts, so refining the grid resamples the same analytic functions.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    L = min(grid.half_extents)
    members = []
    for i in range(count):
        fam = _draw_family(rng, FAMILY_IDS[i % len(FAMILY_IDS)], grid.dim, L)
        members.append(sample_member(fam, grid, tail_tol))
    return members


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


def scale_family(fam: FamilySpec, c: float) -> FamilySpec:
    """Family of c * f."""
    return dataclasses.replace(fam, amplitude=fam.amplitude * c)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_corpus_spec(path, grid: GridSpec, seed: int, count: int) -> None:
    """Write the small JSON document that identifies a corpus."""
    doc = {"format_version": FORMAT_VERSION,
           "grid": grid.to_dict(), "seed": int(seed), "count": int(count)}
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_corpus_spec(path) -> tuple[GridSpec, int, int]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported corpus format version {doc.get('format_version')}")
    return GridSpec.from_dict(doc["grid"]), int(doc["seed"]), int(doc["count"])


def save_corpus_dump(path, members: list[CorpusMember], seed: int) -> None:
    """Binary dump: sampled values plus a JSON header with grid and families."""
    if not members:
        raise ValueError("empty corpus")
    grid = members[0].grid
    header = {"format_version": FORMAT_VERSION, "seed": int(seed),
              "grid": grid.to_dict(),
              "families": [m.family.to_dict() for m in members]}
    arrays = {"header": np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)}
    for i, m in enumerate(members):
        arrays[f"f{i}"] = m.f.values
        for k, d in enumerate(m.derivs):
            arrays[f"d{i}_{k}"] = d.values
    import io, os, tempfile
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_corpus_dump(path) -> tuple[list[CorpusMember], int]:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported dump format version {header.get('format_version')}")
        grid = GridSpec.from_dict(header["grid"])
        members = []
        for i, famd in enumerate(header["families"]):
            fam = FamilySpec.from_dict(famd)
            f = GridFunction(grid, data[f"f{i}"])
            derivs = tuple(GridFunction(grid, data[f"d{i}_{k}"]) for k in range(grid.dim))
            members.append(CorpusMember(fam, f, derivs))
    return members, int(header["seed"])


def _atomic_write_text(path, text: str) -> None:
    import os, tempfile
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

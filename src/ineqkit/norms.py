"""Lebesgue, Lorentz, mixed, and iterated-rearrangement norms of grid functions.

Norm specifications form a tiny grammar, also used on the command line:

    Leb(p)            Lebesgue norm with exponent p
    Lor(p,r)          Lorentz norm, first exponent p, second exponent r
    Mix(k;IN;OUT)     inner norm IN along axis k (0-based), outer norm OUT
                      over the flattened complement; IN and OUT must not be
                      Mix themselves (nesting depth is at most 2)
    IterLor(p,r)      Lorentz-type norm of the order-2 iterated rearrangement
                      (2-d grids, distinguished axis 0)

Numbers may carry cosmetic "name=" prefixes, so "Lor(q=3,r=1)" and "Lor(3,1)"
parse identically.  All exponents are finite and >= 1 except the Lorentz
second exponent which may be any positive real.

Lebesgue and Lorentz norms of a sampled step function are computed in closed
form from the sorted cell values (no quadrature), so identities like
Lor(p,p) == Leb(p) hold to rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .gridfn import GridFunction
from .rearrange import iterated_rearrangement

__all__ = [
    "Lebesgue",
    "Lorentz",
    "Mixed",
    "IteratedLorentz",
    "NormSpec",
    "parse_norm",
    "format_norm",
    "norm",
    "norm_of_values",
    "lp_norm",
    "lorentz_norm",
    "mixed_norm",
    "iterated_lorentz_norm",
]


@dataclass(frozen=True)
class Lebesgue:
    p: float

    def __post_init__(self):
        if not (self.p >= 1 and np.isfinite(self.p)):
            raise ValueError(f"Lebesgue exponent must be finite and >= 1, got {self.p}")


@dataclass(frozen=True)
class Lorentz:
    p: float
    r: float

    def __post_init__(self):
        if not (self.p >= 1 and np.isfinite(self.p)):
            raise ValueError(f"Lorentz first exponent must be finite and >= 1, got {self.p}")
        if not (self.r > 0 and np.isfinite(self.r)):
            raise ValueError(f"Lorentz second exponent must be finite and positive, got {self.r}")


@dataclass(frozen=True)
class Mixed:
    axis: int
    inner: Union[Lebesgue, Lorentz]
    outer: Union[Lebesgue, Lorentz]

    def __post_init__(self):
        if self.axis < 0:
            raise ValueError("axis must be nonnegative")
        for part in (self.inner, self.outer):
            if isinstance(part, (Mixed, IteratedLorentz)):
                raise ValueError("mixed norms nest at most one level")


@dataclass(frozen=True)
class IteratedLorentz:
    p: float
    r: float

    def __post_init__(self):
        if not (self.p >= 1 and np.isfinite(self.p)):
            raise ValueError(f"first exponent must be finite and >= 1, got {self.p}")
        if not (self.r > 0 and np.isfinite(self.r)):
            raise ValueError(f"second exponent must be finite and positive, got {self.r}")


NormSpec = Union[Lebesgue, Lorentz, Mixed, IteratedLorentz]


_NUM = r"(?:[A-Za-z_]\w*\s*=\s*)?([0-9.]+(?:[eE][+-]?[0-9]+)?)"


def parse_norm(text: str) -> NormSpec:
    """Parse the norm grammar; raises ValueError on malformed input."""
    spec, rest = _parse(text.strip())
    if rest.strip():
        raise ValueError(f"trailing input {rest!r} in norm spec {text!r}")
    return spec


def _parse(text: str):
    m = re.match(r"\s*(Leb|Lor|Mix|IterLor)\s*\(", text)
    if not m:
        raise ValueError(f"cannot parse norm spec at {text!r}")
    head, rest = m.group(1), text[m.end():]
    if head == "Leb":
        (p,), rest = _numbers(rest, 1)
        return Lebesgue(p), rest
    if head == "Lor":
        (p, r), rest = _numbers(rest, 2)
        return Lorentz(p, r), rest
    if head == "IterLor":
        (p, r), rest = _numbers(rest, 2)
        return IteratedLorentz(p, r), rest
    m = re.match(r"\s*" + _NUM + r"\s*;", rest)
    if not m:
        raise ValueError(f"Mix needs an axis before ';' at {rest!r}")
    axis = int(float(m.group(1)))
    inner, rest = _parse(rest[m.end():])
    m = re.match(r"\s*;", rest)
    if not m:
        raise ValueError(f"Mix needs ';' between inner and outer at {rest!r}")
    outer, rest = _parse(rest[m.end():])
    m = re.match(r"\s*\)", rest)
    if not m:
        raise ValueError(f"unclosed Mix at {rest!r}")
    return Mixed(axis, inner, outer), rest[m.end():]


def _numbers(text: str, count: int):
    vals = []
    rest = text
    for i in range(count):
        sep = r"\s*\)" if i == count - 1 else r"\s*,"
        m = re.match(r"\s*" + _NUM + sep, rest)
        if not m:
            raise ValueError(f"expected number at {rest!r}")
        vals.append(float(m.group(1)))
        rest = rest[m.end():]
    return tuple(vals), rest


def format_norm(spec: NormSpec) -> str:
    if isinstance(spec, Lebesgue):
        return f"Leb({_fmt(spec.p)})"
    if isinstance(spec, Lorentz):
        return f"Lor({_fmt(spec.p)},{_fmt(spec.r)})"
    if isinstance(spec, IteratedLorentz):
        return f"IterLor({_fmt(spec.p)},{_fmt(spec.r)})"
    if isinstance(spec, Mixed):
        return f"Mix({spec.axis};{format_norm(spec.inner)};{format_norm(spec.outer)})"
    raise TypeError(f"not a norm spec: {spec!r}")


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _lebesgue_of_cells(a: np.ndarray, cell: float, p: float, axis=None):
    """Lebesgue norm of a step function with cells of measure `cell`, values a.

    With an axis, one norm per slice along it.  The roots are then taken one
    scalar at a time, so each equals the norm of its slice alone bit for bit
    (numpy's vectorised power may differ from the scalar one in the last bit).
    """
    if axis is not None:
        sums = np.sum(a ** p, axis=axis) * cell
        return np.reshape([s ** (1.0 / p) for s in sums.ravel().tolist()], sums.shape)
    if a.size == 0:
        return 0.0
    return float((np.sum(a ** p) * cell) ** (1.0 / p))


def _lorentz_weights(count: int, step: float, p: float, r: float) -> np.ndarray:
    """w_i = integral of t^(r/p - 1) over [i*step, (i+1)*step], times r/p... inverse.

    Closed form: (p/r) * step^(r/p) * ((i+1)^(r/p) - i^(r/p)).
    """
    i = np.arange(count + 1, dtype=float)
    powers = i ** (r / p)
    return (p / r) * step ** (r / p) * np.diff(powers)


def _lorentz_of_cells(a: np.ndarray, cell: float, p: float, r: float) -> float:
    """Lorentz norm of a step function with cells of measure `cell`, values a."""
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    srt = np.sort(a)[::-1]
    w = _lorentz_weights(srt.size, cell, p, r)
    return float(np.sum(srt ** r * w) ** (1.0 / r))


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete Lebesgue norm (cell sums, exact for the sampled step function)."""
    Lebesgue(p)  # validate
    return _lebesgue_of_cells(np.abs(f.values).ravel(), f.cell_volume, p)


def lorentz_norm(f: GridFunction, p: float, r: float) -> float:
    """Lorentz norm via the closed-form integral of the sorted step profile."""
    Lorentz(p, r)  # validate
    return _lorentz_of_cells(np.abs(f.values).ravel(), f.cell_volume, p, r)


def _inner_reduce(a: np.ndarray, axis: int, spec, step: float) -> np.ndarray:
    """Per-slice 1-d norm along `axis` of the nonnegative array a."""
    if isinstance(spec, Lebesgue):
        return (np.sum(a ** spec.p, axis=axis) * step) ** (1.0 / spec.p)
    if isinstance(spec, Lorentz):
        srt = np.flip(np.sort(a, axis=axis), axis=axis)
        w = _lorentz_weights(a.shape[axis], step, spec.p, spec.r)
        shape = [1] * a.ndim
        shape[axis] = -1
        return np.sum(srt ** spec.r * w.reshape(shape), axis=axis) ** (1.0 / spec.r)
    raise TypeError(f"inner norm must be Lebesgue or Lorentz, got {spec!r}")


def _outer_reduce(vals: np.ndarray, cell: float, spec) -> float:
    if isinstance(spec, Lebesgue):
        return _lebesgue_of_cells(vals.ravel(), cell, spec.p)
    if isinstance(spec, Lorentz):
        return _lorentz_of_cells(vals.ravel(), cell, spec.p, spec.r)
    raise TypeError(f"outer norm must be Lebesgue or Lorentz, got {spec!r}")


def mixed_norm(f: GridFunction, spec: Mixed) -> float:
    """Inner norm along spec.axis slice by slice, outer norm over the complement."""
    return norm_of_values(f.values, f.spec, spec)


def iterated_lorentz_norm(f: GridFunction, p: float, r: float, axis=0) -> float:
    """Lorentz-type norm of the order-2 iterated rearrangement (2-d only).

    Integrates (s t)^(r/p - 1) times the table to the r-th power, with the
    one-dimensional cell integrals in closed form along each factor.
    """
    IteratedLorentz(p, r)  # validate
    if f.spec.dim != 2:
        raise ValueError("iterated Lorentz norms are defined for dim == 2")
    prof = iterated_rearrangement(f, axis)
    table = prof.table
    wr = _lorentz_weights(table.shape[0], prof.row_step, p, r)
    wc = _lorentz_weights(table.shape[1], prof.col_step, p, r)
    val = wr @ (table ** r) @ wc
    return float(val ** (1.0 / r))


def norm(f: GridFunction, spec: NormSpec) -> float:
    """Evaluate any norm spec (see module docstring for the grammar)."""
    if isinstance(spec, str):
        spec = parse_norm(spec)
    if isinstance(spec, IteratedLorentz):
        return iterated_lorentz_norm(f, spec.p, spec.r)
    return norm_of_values(f.values, f.spec, spec)


def norm_of_values(values: np.ndarray, grid, spec: NormSpec) -> float:
    """Norm of a raw sample array on `grid`; skips GridFunction bookkeeping.

    Useful in loops that evaluate many norms of derived arrays (differences,
    shifted copies).  IteratedLorentz is not supported here.
    """
    if isinstance(spec, str):
        spec = parse_norm(spec)
    a = np.abs(values)
    if isinstance(spec, Lebesgue):
        return _lebesgue_of_cells(a.ravel(), grid.cell_volume, spec.p)
    if isinstance(spec, Lorentz):
        return _lorentz_of_cells(a.ravel(), grid.cell_volume, spec.p, spec.r)
    if isinstance(spec, Mixed):
        if grid.dim < 2:
            raise ValueError("mixed norms need dim >= 2")
        if not spec.axis < grid.dim:
            raise ValueError(f"axis {spec.axis} out of range for dim {grid.dim}")
        step = grid.spacing[spec.axis]
        inner_vals = _inner_reduce(a, spec.axis, spec.inner, step)
        return _outer_reduce(inner_vals, grid.cell_volume / step, spec.outer)
    raise TypeError(f"unsupported norm spec for raw arrays: {spec!r}")

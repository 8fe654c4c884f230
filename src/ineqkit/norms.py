"""Lebesgue, Lorentz, mixed, and iterated-rearrangement norms of grid functions.

Norm specifications form a tiny grammar, also used in the registry's params:

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

import functools
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
    "norm",
    "norm_of_values",
    "lp_norm",
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


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


# Every norm here is evaluated in two steps: a reduction of the nonnegative
# cell values that the cell measure does not enter (_reduce), and a finish
# that applies the cell measure, the Lorentz weights and the roots (_finish).
# A caller that needs the same norm of the same values on grids that differ
# only in their spacing (smoothness.difference_norms on rescaled copies of a
# sample) reduces once and finishes per grid, with the same float operations.


def _power_sum(a: np.ndarray, p: float, axis=None):
    """Sum of a^p, over the whole array or along axis: a Lebesgue reduction."""
    # a ** 1.0 is a copy in numpy, so skipping it changes no bit
    return np.sum(a if p == 1.0 else a ** p, axis=axis)


def _lebesgue_root(total, cell: float, p: float):
    """Lebesgue norm of a step function with cells of measure `cell` from its power sum.

    An array of power sums gives an array of norms.  Every root is taken on a
    scalar, so each norm equals that of its sum alone bit for bit: numpy's
    vectorised power may differ from the scalar one in the last bit, and
    the scalar one equals Python's.
    """
    if np.ndim(total):
        return np.array([s ** (1.0 / p) for s in (total * cell).tolist()])
    return float((total * cell) ** (1.0 / p))


@functools.lru_cache(maxsize=32)
def _lorentz_weights(count: int, step: float, p: float, r: float) -> np.ndarray:
    """Lorentz cell weights w_i = integral of t^(r/p - 1) dt over [i step, (i+1) step].

    Closed form, i = 0 .. count - 1:

        w_i = (p/r) * step^(r/p) * ((i+1)^(r/p) - i^(r/p)).

    The weights of the 32 most recently used (count, step, p, r) are cached,
    so every caller shares the returned array: it is read-only.
    """
    i = np.arange(count + 1, dtype=float)
    powers = i ** (r / p)
    w = (p / r) * step ** (r / p) * np.diff(powers)
    w.flags.writeable = False
    return w


def _sorted_powers(a: np.ndarray, r: float) -> np.ndarray:
    """The positive values of the 1-d array a, sorted decreasingly, to the power r.

    This is a Lorentz reduction: zero cells add nothing to the norm.
    """
    return np.sort(a[a > 0])[::-1] ** r


def _lorentz_root(powers: np.ndarray, cell: float, p: float, r: float) -> float:
    """Lorentz norm of a step function with cells of measure `cell` from _sorted_powers."""
    if powers.size == 0:
        return 0.0
    w = _lorentz_weights(powers.size, cell, p, r)
    return float(np.sum(powers * w) ** (1.0 / r))


def _root(part, cell: float, spec):
    """Lebesgue or Lorentz norm with cells of measure `cell` from its reduction."""
    if isinstance(spec, Lebesgue):
        return _lebesgue_root(part, cell, spec.p)
    return _lorentz_root(part, cell, spec.p, spec.r)


def _inner_part(a: np.ndarray, axis: int, spec) -> np.ndarray:
    """Reduction of the 1-d norm along `axis` of each line of the nonnegative array a.

    A Lebesgue inner norm gives the power sum per line, a Lorentz one each
    line sorted decreasingly to the power r (zeros kept, so the lines keep
    their length).
    """
    if isinstance(spec, Lebesgue):
        return _power_sum(a, spec.p, axis)
    return np.flip(np.sort(a, axis=axis), axis=axis) ** spec.r


def _inner_root(part: np.ndarray, axis: int, spec, step: float) -> np.ndarray:
    """Per-line norms along `axis` with cells of length `step` from _inner_part."""
    if isinstance(spec, Lebesgue):
        return (part * step) ** (1.0 / spec.p)
    w = _lorentz_weights(part.shape[axis], step, spec.p, spec.r)
    shape = [1] * part.ndim
    shape[axis] = -1
    return np.sum(part * w.reshape(shape), axis=axis) ** (1.0 / spec.r)


def _reduce(a: np.ndarray, spec: NormSpec):
    """The part of the norm of the nonnegative array a that no cell measure enters.

    Lebesgue: the power sum; Lorentz: the sorted powers of the positive
    values; Mixed: the inner reduction of every line along spec.axis.
    """
    if isinstance(spec, Lebesgue):
        return _power_sum(a.ravel(), spec.p)
    if isinstance(spec, Lorentz):
        return _sorted_powers(a.ravel(), spec.r)
    return _inner_part(a, spec.axis, spec.inner)


def _finish(part, grid, spec: NormSpec, at=None):
    """The norm on grid from its reduction _reduce(a, spec).

    For a Mixed spec, at (when given) places the inner norms in a zero-filled
    table of all lines along spec.axis: part then reduced a block of a whose
    other lines are all zero, and the outer norm reads the whole table.  An
    array of Lebesgue power sums gives an array of norms (_lebesgue_root).
    """
    if not isinstance(spec, Mixed):
        return _root(part, grid.cell_volume, spec)
    step = grid.spacing[spec.axis]
    inner = _inner_root(part, spec.axis, spec.inner, step)
    if at is not None:
        table = np.zeros(grid.shape[:spec.axis] + grid.shape[spec.axis + 1:])
        table[at] = inner
        inner = table
    return _root(_reduce(inner, spec.outer), grid.cell_volume / step, spec.outer)


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete Lebesgue norm (cell sums, exact for the sampled step function)."""
    return norm_of_values(f.values, f.spec, Lebesgue(p))


def mixed_norm(f: GridFunction, spec: Mixed) -> float:
    """Inner norm along spec.axis slice by slice, outer norm over the complement."""
    return norm_of_values(f.values, f.spec, spec)


def iterated_lorentz_norm(f: GridFunction, p: float, r: float) -> float:
    """Lorentz-type norm of the order-2 iterated rearrangement along axis 0 (2-d only).

    Integrates (s t)^(r/p - 1) times the table to the r-th power, with the
    one-dimensional cell integrals in closed form along each factor.
    """
    IteratedLorentz(p, r)  # validate
    if f.spec.dim != 2:
        raise ValueError("iterated Lorentz norms are defined for dim == 2")
    prof = iterated_rearrangement(f)
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

    spec is a NormSpec (parse_norm reads a text).  Useful in loops that
    evaluate many norms of derived arrays (differences, shifted copies).
    IteratedLorentz is not supported here.
    """
    _check_values_spec(grid, spec)
    return _finish(_reduce(np.abs(values), spec), grid, spec)


def _check_values_spec(grid, spec) -> None:
    """Raise the error norm_of_values gives for a spec it cannot evaluate on grid."""
    if isinstance(spec, (Lebesgue, Lorentz)):
        return
    if not isinstance(spec, Mixed):
        raise TypeError(f"unsupported norm spec for raw arrays: {spec!r}")
    if grid.dim < 2:
        raise ValueError("mixed norms need dim >= 2")
    if not spec.axis < grid.dim:
        raise ValueError(f"axis {spec.axis} out of range for dim {grid.dim}")
    for part, name in ((spec.inner, "inner"), (spec.outer, "outer")):
        if not isinstance(part, (Lebesgue, Lorentz)):
            raise TypeError(f"{name} norm must be Lebesgue or Lorentz, got {part!r}")

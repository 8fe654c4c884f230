"""Directional differences, moduli of smoothness, and Besov-type seminorms.

Differences are taken along one axis with shifts that are integer multiples of
the grid spacing; points shifted outside the box contribute zero (no circular
wraparound).  The corpus functions vanish near the boundary, so this matches
the behaviour of the underlying functions on the whole space up to tail mass.
A shift by m >= N cells, N the points on the axis, moves the box off itself:
the difference is exactly -f and its norm is the norm of f.

difference_norms is the one kernel behind every difference norm here: the
moduli of smoothness, the Besov sums and the 1-d tail integrals all read
from it.  Moduli come from one table of signed running maxima, which stops
at shift N since the modulus is constant beyond it.

Besov-type quantities integrate h^(-alpha) times a difference norm against
dh/h over a geometric h-window.  Outside the window the integral is completed
with the two standard analytic bounds: a difference norm is at most h times
the norm of the directional derivative (small h), and at most twice the norm
of the function (large h).  The small-h completion therefore needs the exact
derivative and is skipped when none is supplied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gridfn import GridFunction, GridSpec
from .norms import (Lebesgue, NormSpec, _lebesgue_of_cells, format_norm, norm_of_values,
                    parse_norm)
from .quadrature import log_midpoint_nodes
from .rearrange import decreasing_rearrangement, double_star

__all__ = [
    "difference",
    "difference_norms",
    "modulus",
    "BesovSpec",
    "besov_seminorm",
    "ulyanov_pointwise",
    "ulyanov_tail",
    "DEFAULT_RATIO",
]

log = logging.getLogger(__name__)

DEFAULT_RATIO = 2.0 ** 0.125


def _check_axis(f: GridFunction, axis) -> None:
    if not 0 <= axis < f.spec.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.spec.dim}")


def _shift_multiple(f: GridFunction, axis, h) -> int:
    step = f.spec.spacing[axis]
    m = h / step
    m_int = int(round(m))
    if abs(m - m_int) > 1e-9 * max(1.0, abs(m)):
        raise ValueError(f"shift {h} is not an integer multiple of the spacing {step}")
    return m_int


def _integer_multiples(multiples) -> np.ndarray:
    ms = np.asarray(multiples)
    if ms.ndim != 1 or ms.dtype.kind not in "iuf":
        raise ValueError(f"shift multiples must be a 1-d sequence of integers, got {multiples!r}")
    if ms.dtype.kind == "f" and not (np.isfinite(ms).all() and (ms == np.round(ms)).all()):
        raise ValueError(f"shift multiples must be integers, got {multiples!r}")
    return ms.astype(np.int64)


def _difference_values(values: np.ndarray, axis, m: int) -> np.ndarray:
    """Samples of f(x + m h e_axis) - f(x), zero fill outside the box.

    Only the overlap is subtracted; the tail is 0 - f, so every value equals
    that of the zero-filled shift minus f bit for bit.
    """
    out = np.empty_like(values)
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    n = v.shape[0]
    k = min(abs(m), n)
    if m >= 0:
        np.subtract(v[k:], v[:n - k], out=o[:n - k])
        np.subtract(0.0, v[n - k:], out=o[n - k:])
    else:
        np.subtract(v[:n - k], v[k:], out=o[k:])
        np.subtract(0.0, v[:k], out=o[:k])
    return out


def difference(f: GridFunction, axis, h) -> GridFunction:
    """f(. + h e_axis) - f; h must be a (signed) multiple of the axis spacing."""
    _check_axis(f, axis)
    m = _shift_multiple(f, axis, h)
    return GridFunction(f.spec, _difference_values(f.values, axis, m), f.kind)


# Elements of one batch of 1-d difference rows; bounds the kernel's scratch memory.
_BATCH_ELEMENTS = 1 << 17


def _lebesgue_rows(values: np.ndarray, ms: np.ndarray, cell: float, p: float) -> np.ndarray:
    """Lebesgue p norms of the 1-d differences at the in-box shifts ms (0 < |m| < N).

    Row m of the window view of the zero-padded samples is the shifted
    function, so each batch is one gather, one subtraction and one reduction.
    """
    n = values.size
    padded = np.concatenate((np.zeros(n), values, np.zeros(n)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)
    rows = max(1, _BATCH_ELEMENTS // n)
    out = np.empty(ms.size)
    for lo in range(0, ms.size, rows):
        batch = windows[n + ms[lo:lo + rows]]
        batch -= values
        np.abs(batch, out=batch)
        out[lo:lo + rows] = _lebesgue_of_cells(batch, cell, p, axis=1)
    return out


def difference_norms(f: GridFunction, axis, multiples, base: NormSpec) -> np.ndarray:
    """Norms of f(. + m h e_axis) - f at the given shift multiples m.

    Contract: axis lies in [0, dim), every multiple is an integer (integral
    floats are accepted; any other value raises ValueError), and points
    shifted outside the box count as zero.  Shift 0 has norm 0.  For |m| >= N,
    N the points on the axis, the difference is exactly -f, so its norm is
    the norm of f, computed once per call.  Other shifts subtract on the
    overlap only; with a 1-d Lebesgue base they are reduced in batches.
    """
    if isinstance(base, str):
        base = parse_norm(base)
    _check_axis(f, axis)
    ms = _integer_multiples(multiples)
    grid, vals = f.spec, f.values
    n = grid.points[axis]
    out = np.zeros(ms.size)
    outside = np.abs(ms) >= n
    if outside.any():
        out[outside] = norm_of_values(vals, grid, base)
    inside = np.flatnonzero((ms != 0) & ~outside)
    if grid.dim == 1 and isinstance(base, Lebesgue):
        out[inside] = _lebesgue_rows(vals, ms[inside], grid.cell_volume, base.p)
    else:
        for i in inside:
            out[i] = norm_of_values(_difference_values(vals, axis, int(ms[i])), grid, base)
    return out


def _moduli(f: GridFunction, axis, base: NormSpec, ms) -> tuple[np.ndarray, np.ndarray]:
    """Moduli of smoothness at the positive shift multiples ms.

    Builds the one table of signed running maxima: it evaluates every shift
    1 <= |j| <= J once, J = min(max(ms), N), since all shifts with |j| >= N
    have the same norm.  Returns (omega, pos): omega[i] is the largest
    difference norm over 1 <= |j| <= ms[i], and pos[j - 1] the norm at +j.
    """
    ms = np.asarray(ms)
    top = min(int(ms.max()), f.spec.points[axis])
    js = np.arange(1, top + 1)
    both = difference_norms(f, axis, np.concatenate((js, -js)), base)
    pos = both[:top]
    running = np.maximum.accumulate(np.maximum(pos, both[top:]))
    return running[np.minimum(ms, top) - 1], pos


def modulus(f: GridFunction, axis, t, base: NormSpec) -> float:
    """Modulus of smoothness: max difference norm over grid shifts |h| <= t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    step = f.spec.spacing[axis]
    m_max = int(math.floor(t / step + 1e-9))
    if m_max == 0:
        return 0.0
    return float(_moduli(f, axis, base, [m_max])[0][0])


@dataclass(frozen=True)
class BesovSpec:
    """Parameters of a Besov-type seminorm.

    alpha in (0, 1) is the smoothness order, theta >= 1 the integral exponent,
    axis the difference direction, base the norm applied to each difference.
    The h-window defaults to [axis spacing, 4 * max half extent]; ratio is the
    geometric step of the quadrature grid.  use_modulus switches the integrand
    from the plain difference norm to the modulus of smoothness.
    """

    alpha: float
    theta: float
    axis: int
    base: NormSpec
    ratio: float = DEFAULT_RATIO
    h_min: Optional[float] = None
    h_max: Optional[float] = None
    use_modulus: bool = False

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.theta >= 1 and np.isfinite(self.theta)):
            raise ValueError(f"theta must be finite and >= 1, got {self.theta}")
        if self.axis < 0:
            raise ValueError("axis must be nonnegative")
        if not 1 < self.ratio <= 2:
            raise ValueError(f"ratio must lie in (1, 2], got {self.ratio}")
        if isinstance(self.base, str):
            object.__setattr__(self, "base", parse_norm(self.base))

    def describe(self) -> str:
        kind = "omega" if self.use_modulus else "delta"
        return (f"Bes(alpha={self.alpha},theta={self.theta},axis={self.axis},"
                f"{kind};{format_norm(self.base)})")


def _snapped_nodes(h_min, h_max, ratio, step):
    """Log-midpoint nodes snapped to grid multiples, duplicates merged."""
    nodes, weights = log_midpoint_nodes(h_min, h_max, ratio)
    if nodes.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ms = np.maximum(1, np.round(nodes / step).astype(np.int64))
    uniq, inverse = np.unique(ms, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, weights)
    return uniq, w


def besov_seminorm(f: GridFunction, spec: BesovSpec, deriv: Optional[GridFunction] = None,
                   lower_tail=True, upper_tail=True) -> float:
    """Besov-type seminorm of f; see the module docstring for the completion.

    deriv, when given, must be the exact partial derivative along spec.axis
    and enables the small-h analytic completion.  A window or completion whose
    integral diverges yields math.inf with a logged diagnostic instead of an
    exception.
    """
    grid = f.spec
    if not spec.axis < grid.dim:
        raise ValueError(f"axis {spec.axis} out of range for dim {grid.dim}")
    step = grid.spacing[spec.axis]
    h_min = spec.h_min if spec.h_min is not None else step
    h_max = spec.h_max if spec.h_max is not None else 4.0 * max(grid.half_extents)
    alpha, theta = spec.alpha, spec.theta
    if alpha * theta <= 0 or (1.0 - alpha) * theta <= 0:
        log.warning("divergent completion for %s; reporting inf", spec.describe())
        return math.inf

    ms, weights = _snapped_nodes(h_min, h_max, spec.ratio, step)
    if spec.use_modulus and ms.size:
        d = _moduli(f, spec.axis, spec.base, ms)[0]
    else:
        d = difference_norms(f, spec.axis, ms, spec.base)
    hs = ms * step
    total = float(np.sum(hs ** (-alpha * theta) * d ** theta * weights))

    if upper_tail:
        fnorm = norm_of_values(f.values, grid, spec.base)
        total += (2.0 * fnorm) ** theta * h_max ** (-alpha * theta) / (alpha * theta)
    if lower_tail and deriv is not None:
        dnorm = norm_of_values(deriv.values, grid, spec.base)
        total += dnorm ** theta * h_min ** ((1.0 - alpha) * theta) / ((1.0 - alpha) * theta)
    return float(total ** (1.0 / theta))


# ---------------------------------------------------------------------------
# one-dimensional rearrangement estimates
# ---------------------------------------------------------------------------


def ulyanov_pointwise(f: GridFunction, p: float, t: float) -> tuple[float, float]:
    """Gap between the running average and the rearrangement vs. the modulus.

    Returns (lhs, rhs) with lhs the running-average excess over the
    rearrangement at measure t and rhs = 2 t^(-1/p) times the modulus at t in
    the Lebesgue p norm.  One-dimensional functions only.
    """
    if f.spec.dim != 1:
        raise ValueError("defined for 1-d functions")
    if t <= 0:
        raise ValueError("t must be positive")
    prof = decreasing_rearrangement(f)
    lhs = double_star(prof, t) - prof.value_at(t)
    rhs = 2.0 * t ** (-1.0 / p) * modulus(f, 0, t, Lebesgue(p))
    return float(lhs), float(rhs)


def ulyanov_tail(f: GridFunction, p: float, t: float, ratio=DEFAULT_RATIO) -> tuple[float, float]:
    """Rearrangement value vs. the tail integral of the modulus.

    Returns (lhs, rhs): lhs is the rearrangement at measure t, rhs is twice
    the integral over s in (t, oo) of s^(-1/p) times the modulus at s, against
    ds/s.  The range beyond 4 L uses the bound modulus <= 2 ||f||_p, which
    completes the integral in closed form (an upper estimate of rhs).
    """
    if f.spec.dim != 1:
        raise ValueError("defined for 1-d functions")
    if t <= 0:
        raise ValueError("t must be positive")
    base = Lebesgue(p)
    grid = f.spec
    step = grid.spacing[0]
    s_max = 4.0 * grid.half_extents[0]
    prof = decreasing_rearrangement(f)
    lhs = prof.value_at(t)

    finite = 0.0
    if t < s_max:
        ms, weights = _snapped_nodes(t, s_max, ratio, step)
        if ms.size:
            omega = _moduli(f, 0, base, ms)[0]
            ss = ms * step
            finite = float(np.sum(ss ** (-1.0 / p) * omega * weights))
    fnorm = norm_of_values(f.values, grid, base)
    tail_from = max(t, s_max)
    tail = 2.0 * fnorm * p * tail_from ** (-1.0 / p)
    rhs = 2.0 * (finite + tail)
    return float(lhs), float(rhs)

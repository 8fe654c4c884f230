"""Directional differences, moduli of smoothness, and Besov-type seminorms.

Differences are taken along one axis with shifts that are integer multiples of
the grid spacing, at the nodes of the box only: f(x + h) counts as zero where
x + h leaves the box (no circular wraparound), and the values of f(. + h) at
nodes x outside the box are not counted.  A shift by m >= N cells, N the
points on the axis, moves the box off itself: the difference is exactly -f
and its norm is the norm of f, where the whole-space difference of a function
supported in the box has the norm 2^(1/p) ||f|| for an L^p or L^(p,r) base.
So the norms here are those of the difference on the box, not on the whole
space, once h is comparable with the distance from the support to the edge.
ROADMAP item 2 measured the resulting gap of a Besov integral (simple2's lhs
on the 2-D default members at L = 4, with the large-h completion below) at
6.7-11 % above the whole-space value.

difference_norms is the one kernel behind every difference norm here: the
moduli of smoothness, the Besov sums and the 1-d tail integrals all read
from it.  Each distinct shift is reduced once and then finished, in the two
steps of norms._reduce and norms._finish.  The reduction does not depend on
the grid spacing: the power sum for Leb(p), the sorted positive values to
the power r for Lor(p,r), the inner reduction of every line of the cropped
block for a Mixed base, and the row power sums of the batched 1-d kernel.
The finish applies the cell volume, the step, the roots and the Lorentz
weights of the grid, with the float operations of norm_of_values.  Every
shift past the box is the shift N, whose difference is -f, so the norm of f
is one more reduced shift.  It allocates no array per shift: 1-d samples
with a Lebesgue base are gathered and reduced in batches from one
window view, and every other shift reuses one scratch array for its
difference and absolute value, which is reduced in place.  Every norm
equals that of a fresh zero-filled difference of the whole array bit for
bit:

- Samples are C-contiguous (GridFunction stores them so), and so is every
  crop and scratch array made from them.  The overlap is subtracted in one
  pass over the flattened array along any axis; the elements whose partner
  crossed into the next line lie in the tail, which is then filled with
  0 - f.
- Lorentz and Mixed bases work on the support: f is cropped to the bounding
  box of its nonzero samples along the axes where the difference vanishes
  on whole lines (all but the shift axis, and for Mixed also its inner
  axis).  A Lorentz norm drops zeros before it sorts; a Mixed base writes
  the cropped inner norms into a zero-filled table of the full shape and
  reduces that table, since the inner norm of a zero line is exactly 0.
  Lebesgue bases are not cropped: their pairwise sums over the whole array
  would group other elements.

The dilation sweep of verify evaluates the same samples on three grids that
differ only in their spacing (gridfn.dilate_member).  There the fine sample
and its rescaled copies share one memo of reductions, keyed by (axis, base)
and then by shift (_share_reductions), so a copy only finishes them.  Only the
sweep creates a memo, and it drops it when the sweep ends.  On verify's 64^3
fine grid embed32's memo of a Gaussian holds 3.1 MB: one 64^2 inner table
per shift, for 32 shifts on each of 3 axes.

Moduli come from one table of signed running maxima, which stops at shift N
since the modulus is constant beyond it.

Besov-type quantities integrate h^(-alpha) times a difference norm against
dh/h over a geometric h-window.  The window starts at the axis spacing, the
smallest shift the grid has, and ends at h_max, by default 4 times the
largest half extent; its nodes step by DEFAULT_RATIO and are snapped to
multiples of the spacing.  Outside the window the integral is completed
with the two standard analytic bounds: a difference norm is at most h times
the norm of the directional derivative (small h), and at most twice the norm
of the function (large h).  The small-h completion therefore needs the exact
derivative, which every caller passes.  The large-h completion
reads the norm of f from a window shift past the box when there is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gridfn import GridFunction, _check_axis
from .norms import (Lebesgue, Lorentz, Mixed, NormSpec, _check_values_spec, _finish,
                    _power_sum, _reduce, norm_of_values)
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

DEFAULT_RATIO = 2.0 ** 0.125


def _shift_multiple(f: GridFunction, axis, h) -> int:
    if not math.isfinite(h):
        raise ValueError(f"shift {h} must be finite")
    step = f.spec.spacing[axis]
    m = h / step
    m_int = int(round(m))
    if abs(m - m_int) > 1e-9 * max(1.0, abs(m)):
        raise ValueError(f"shift {h} is not an integer multiple of the spacing {step}")
    return m_int


def _integer_multiples(multiples, n: int) -> np.ndarray:
    """multiples as int64, each |m| capped at n first in its own dtype.

    Every shift with |m| >= n has the norm of f.  Uncapped, the cast wraps
    an unsigned multiple past 2^63 into the negatives, and |-2^63|
    overflows back to -2^63; either slips past the |m| >= n test.
    """
    ms = np.asarray(multiples)
    if ms.ndim != 1 or ms.size == 0 or ms.dtype.kind not in "iu":
        raise ValueError("shift multiples must be a nonempty 1-d array of integers, "
                         f"got {multiples!r}")
    info = np.iinfo(ms.dtype)
    return np.clip(ms, max(-n, info.min), min(n, info.max)).astype(np.int64)


def _difference_values(values: np.ndarray, axis, m: int, out=None) -> np.ndarray:
    """Samples of f(x + m h e_axis) - f(x), zero fill outside the box.

    Only the overlap is subtracted; the tail is 0 - f, so every value equals
    that of the zero-filled shift minus f bit for bit.  values and out must
    be C-contiguous: the overlap is one subtraction on the flattened arrays,
    whatever the axis, and a flattened view of any other layout would be a
    copy, whose writes are lost.  x + m e_axis lies m times the axis stride
    further along the flat order, and every element whose partner crossed
    into the next line lies in the tail, which the tail fill then
    overwrites.  Every element of out (a fresh array when None) is written,
    so a scratch buffer of the shape of values can be reused across shifts.
    """
    if out is None:
        out = np.empty_like(values)
    n = values.shape[axis]
    k = min(abs(m), n)
    head = (slice(None),) * axis
    v, o = values.reshape(-1), out.reshape(-1)
    d = k * math.prod(values.shape[axis + 1:])
    lo, hi = slice(None, v.size - d), slice(d, None)
    if m >= 0:
        np.subtract(v[hi], v[lo], out=o[lo])
        tail = head + (slice(n - k, None),)
    else:
        np.subtract(v[lo], v[hi], out=o[hi])
        tail = head + (slice(None, k),)
    np.subtract(0.0, values[tail], out=out[tail])
    return out


def difference(f: GridFunction, axis, h) -> GridFunction:
    """f(. + h e_axis) - f; h must be a (signed) multiple of the axis spacing."""
    _check_axis(axis, f.spec.dim)
    m = _shift_multiple(f, axis, h)
    return GridFunction(f.spec, _difference_values(f.values, axis, m))


# Elements of one batch of 1-d difference rows; bounds the kernel's scratch memory.
_BATCH_ELEMENTS = 1 << 17


def _lebesgue_rows(values: np.ndarray, ms, p: float) -> np.ndarray:
    """Power sums of |f(. + m h) - f| for 1-d samples at the shifts ms (0 < |m| <= N).

    Row m of the window view of the zero-padded samples is the shifted
    function, so each batch is one gather, one subtraction and one reduction.
    Each row sum runs over its row alone, as the sum of a fresh difference.
    """
    n = values.size
    ms = np.asarray(ms, dtype=np.int64)
    padded = np.concatenate((np.zeros(n), values, np.zeros(n)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)
    rows = max(1, _BATCH_ELEMENTS // n)
    out = np.empty(ms.size)
    for lo in range(0, ms.size, rows):
        batch = windows[n + ms[lo:lo + rows]]
        batch -= values
        np.abs(batch, out=batch)
        out[lo:lo + rows] = _power_sum(batch, p, axis=1)
    return out


def _crop_axes(base: NormSpec, axis, dim: int) -> list[int]:
    """Axes along which base ignores lines on which the difference vanishes.

    A Lorentz norm drops zero cells before it sorts, and a mixed norm's
    inner norm of an all-zero line is exactly 0.  The shift axis is never
    cropped, since shifting moves the support along it, nor is a mixed
    norm's inner axis, whose sums would run over other elements.  A
    Lebesgue norm sums the whole array pairwise, so no crop keeps its bits.
    """
    if isinstance(base, Lorentz):
        keep = {axis}
    elif isinstance(base, Mixed):
        keep = {axis, base.axis}
    else:
        return []
    return [d for d in range(dim) if d not in keep]


def _support_box(values: np.ndarray, axes) -> tuple:
    """Index of the bounding box of the nonzero samples along axes, whole elsewhere."""
    box = [slice(None)] * values.ndim
    for d in axes:
        others = tuple(j for j in range(values.ndim) if j != d)
        hits = np.flatnonzero(np.any(values != 0, axis=others))
        box[d] = slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)
    return tuple(box)


def _reductions(vals: np.ndarray, axis, shifts, base: NormSpec) -> list:
    """(reduction, placement) of the difference norm at each shift 0 < |m| <= N.

    The reduction is norms._reduce of |f(. + m h) - f|; the placement is the
    crop's index in a Mixed base's table of inner norms, None otherwise.
    Shift N stands for every shift past the box, whose difference is -f.
    """
    if vals.ndim == 1 and isinstance(base, Lebesgue):
        return [(s, None) for s in _lebesgue_rows(vals, shifts, base.p).tolist()]
    box = _support_box(vals, _crop_axes(base, axis, vals.ndim))
    sub = vals[box]
    if sub.shape != vals.shape:
        # C order, as vals has, so the inner sums run as on the whole array
        sub = sub.copy()
    at = box[:base.axis] + box[base.axis + 1:] if isinstance(base, Mixed) else None
    buf = np.empty_like(sub)
    out = []
    for m in shifts:
        np.abs(_difference_values(sub, axis, int(m), out=buf), out=buf)
        out.append((_reduce(buf, base), at))
    return out


def _share_reductions(f: GridFunction, source: Optional[GridFunction]) -> None:
    """Let difference_norms of f read and store its reductions in the memo of source.

    source gets a memo if it has none; f may be source itself.  A reduction
    depends on the samples, not on the spacing, so f must hold the same
    values array as source (a copy that gridfn.dilate_member rescaled), or
    ValueError is raised.  With source None, f drops its memo.
    """
    if source is None:
        vars(f).pop("_reductions", None)
        return
    if f.values is not source.values:
        raise ValueError("only functions with one values array share a reduction memo")
    # both are frozen: bypass their __setattr__
    vars(f)["_reductions"] = vars(source).setdefault("_reductions", {})


def difference_norms(f: GridFunction, axis, multiples, base: NormSpec) -> np.ndarray:
    """Norms of f(. + m h e_axis) - f at the given shift multiples m.

    Contract: axis lies in [0, dim), multiples is a nonempty 1-d array of
    integers (anything else, integral floats too, raises ValueError), base
    is a norm norm_of_values can evaluate on the grid (checked on entry,
    with its errors, whatever the shifts), and points shifted outside the
    box count as zero.  Shift 0 has norm 0.  For |m| >= N, N the points on the axis, the
    difference is exactly -f, so its norm is the norm of f, evaluated once
    per call as the shift N.  Other shifts subtract on the overlap only.  For
    1-d samples and a Lebesgue base they are reduced in batches.

    Otherwise the call crops f once to the bounding box of its nonzero
    samples along every axis but the shift axis for a Lorentz base, and
    along every axis but the shift axis and base.axis for a Mixed base; a
    Lebesgue base is not cropped.  Outside that box f, and with it the
    difference, vanishes on every line along the shift axis.  A Lorentz norm
    drops those zeros before it sorts.  A Mixed base writes the inner norms
    of the block into a zero-filled table of the full shape and reduces that
    table, so the outer sums run in the same order.  The block is C-ordered,
    as f.values is, so the inner sums do too.  The call allocates one
    scratch array of the block's shape, and each norm equals that of a
    fresh difference of the whole array bit for bit.  The crop depends only on the
    data: a function with no zero sample runs on the whole grid.

    Each distinct shift is reduced once (norms._reduce) and finished on the
    grid of f (norms._finish).  When f carries a reduction memo
    (_share_reductions), the reductions are read from it and stored in it,
    keyed by (axis, base) and then by shift, so a copy of f on a rescaled
    grid only finishes what f reduced.
    """
    _check_axis(axis, f.spec.dim)
    grid = f.spec
    n = grid.points[axis]
    ms = _integer_multiples(multiples, n)
    _check_values_spec(grid, base)
    shifts, where = np.unique(np.where(np.abs(ms) >= n, n, ms), return_inverse=True)
    moved = shifts != 0
    # the reductions of this axis and base: in f's memo, or in a dict of this call
    memo = vars(f).get("_reductions", {}).setdefault((axis, base), {})
    todo = [m for m in shifts[moved].tolist() if m not in memo]
    if todo:
        memo.update(zip(todo, _reductions(f.values, axis, todo, base)))
    parts = [memo[m] for m in shifts[moved].tolist()]
    out = np.zeros(shifts.size)
    if isinstance(base, Lebesgue):
        # scalar power sums: one finish for all of them
        out[moved] = _finish(np.array([part for part, _ in parts]), grid, base)
    else:
        out[moved] = [_finish(part, grid, base, at) for part, at in parts]
    return out[where]


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


def _moduli_at(f: GridFunction, axis, ts, base: NormSpec) -> np.ndarray:
    """Moduli of smoothness at the radii ts >= 0, from one running-max table.

    The table is a prefix running max, so every value equals the one the
    radius would get from a table of its own.  The modulus is constant from
    t = N h on, so the multiples are capped at N, which also serves t = inf.
    """
    if any(math.isnan(t) for t in ts):
        raise ValueError("t must not be NaN")
    step, n = f.spec.spacing[axis], f.spec.points[axis]
    ms = np.array([math.floor(min(t / step + 1e-9, n)) for t in ts], dtype=np.int64)
    out = np.zeros(ms.size)
    pos = ms > 0
    if pos.any():
        out[pos] = _moduli(f, axis, base, ms[pos])[0]
    return out


def modulus(f: GridFunction, axis, t, base: NormSpec) -> float:
    """Modulus of smoothness: max difference norm over grid shifts |h| <= t.

    t = inf gives the value at t = N h, past which the modulus is constant.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    _check_axis(axis, f.spec.dim)
    return float(_moduli_at(f, axis, [t], base)[0])


@dataclass(frozen=True)
class BesovSpec:
    """Parameters of a Besov-type seminorm.

    alpha in (0, 1) is the smoothness order, theta >= 1 the integral exponent,
    axis the difference direction, base the NormSpec applied to each
    difference.  The h-window runs from the axis spacing to h_max, by default
    4 * max half extent; the quadrature grid steps geometrically by
    DEFAULT_RATIO.  use_modulus switches the integrand from the plain
    difference norm to the modulus of smoothness.
    """

    alpha: float
    theta: float
    axis: int
    base: NormSpec
    h_max: Optional[float] = None
    use_modulus: bool = False

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.theta >= 1 and np.isfinite(self.theta)):
            raise ValueError(f"theta must be finite and >= 1, got {self.theta}")
        if self.axis < 0:
            raise ValueError("axis must be nonnegative")
        if self.h_max is not None and not 0 < self.h_max < math.inf:
            raise ValueError(f"h_max must be finite and positive, got {self.h_max}")


def _snapped_nodes(h_min, h_max, step):
    """Log-midpoint nodes with ratio DEFAULT_RATIO snapped to grid multiples, duplicates merged."""
    nodes, weights = log_midpoint_nodes(h_min, h_max, DEFAULT_RATIO)
    if nodes.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ms = np.maximum(1, np.round(nodes / step).astype(np.int64))
    uniq, inverse = np.unique(ms, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, weights)
    return uniq, w


def besov_seminorm(f: GridFunction, spec: BesovSpec, deriv: GridFunction,
                   upper_tail=True) -> float:
    """Besov-type seminorm of f; see the module docstring for the completion.

    deriv must be the exact partial derivative along spec.axis; the small-h
    analytic completion reads its norm.  upper_tail=False drops the
    large-h completion.  Both completions converge, since BesovSpec keeps
    alpha in (0, 1) and theta >= 1.  A window whose h_max is not above the
    axis spacing raises ValueError.
    """
    grid = f.spec
    if not spec.axis < grid.dim:
        raise ValueError(f"axis {spec.axis} out of range for dim {grid.dim}")
    step = grid.spacing[spec.axis]
    h_max = spec.h_max if spec.h_max is not None else 4.0 * max(grid.half_extents)
    if step >= h_max:
        raise ValueError(f"h-window [{step}, {h_max}] is empty")
    alpha, theta = spec.alpha, spec.theta

    ms, weights = _snapped_nodes(step, h_max, step)
    n = grid.points[spec.axis]
    # the norms at shifts past the box, if any, are the norm of f
    if spec.use_modulus and ms.size:
        d, pos = _moduli(f, spec.axis, spec.base, ms)
        past = pos[n - 1:]
    else:
        d = difference_norms(f, spec.axis, ms, spec.base)
        past = d[ms >= n]
    hs = ms * step
    total = float(np.sum(hs ** (-alpha * theta) * d ** theta * weights))

    if upper_tail:
        fnorm = float(past[0]) if past.size else norm_of_values(f.values, grid, spec.base)
        total += (2.0 * fnorm) ** theta * h_max ** (-alpha * theta) / (alpha * theta)
    dnorm = norm_of_values(deriv.values, grid, spec.base)
    total += dnorm ** theta * step ** ((1.0 - alpha) * theta) / ((1.0 - alpha) * theta)
    return float(total ** (1.0 / theta))


# ---------------------------------------------------------------------------
# one-dimensional rearrangement estimates
# ---------------------------------------------------------------------------


def _measures(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise ValueError("t must be a 1-d array")
    if np.isnan(ts).any():
        raise ValueError("t must not be NaN")
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    return ts


def ulyanov_pointwise(f: GridFunction, p: float, t):
    """Gap between the running average and the rearrangement vs. the modulus.

    Returns arrays (lhs, rhs) over the measures of the 1-d array t: lhs is
    the running-average excess over the rearrangement at measure t and
    rhs = 2 t^(-1/p) times the modulus at t in the Lebesgue p norm.
    One-dimensional functions only.  The moduli at all of t come from one
    table, and each entry equals the one a table of its own gives.
    """
    if f.spec.dim != 1:
        raise ValueError("defined for 1-d functions")
    ts = _measures(t)
    prof = decreasing_rearrangement(f)
    lhs = double_star(prof, ts) - prof.value_at(ts)
    omega = _moduli_at(f, 0, ts, Lebesgue(p))
    # numpy's vectorised power may differ from the scalar one in the last bit
    rhs = [2.0 * s ** (-1.0 / p) * w for s, w in zip(ts, omega)]
    return lhs, np.array(rhs, dtype=float)


def ulyanov_tail(f: GridFunction, p: float, t):
    """Rearrangement value vs. the tail integral of the modulus.

    Returns arrays (lhs, rhs) over the measures of the 1-d array t: lhs is
    the rearrangement at measure t, rhs is twice the integral over s in
    (t, oo) of s^(-1/p) times the modulus at s, against ds/s, on log-spaced
    nodes with ratio DEFAULT_RATIO.  The range beyond 4 L uses the bound
    modulus <= 2 ||f||_p, which completes the integral in closed form (an
    upper estimate of rhs).  The moduli at the quadrature nodes of all of t
    come from one table, and each entry equals the one a table of its own
    gives.
    """
    if f.spec.dim != 1:
        raise ValueError("defined for 1-d functions")
    ts = _measures(t)
    base = Lebesgue(p)
    grid = f.spec
    step = grid.spacing[0]
    s_max = 4.0 * grid.half_extents[0]
    prof = decreasing_rearrangement(f)
    lhs = prof.value_at(ts)

    nodes = [_snapped_nodes(s, s_max, step) if s < s_max
             else (np.empty(0, dtype=np.int64), np.empty(0)) for s in ts]
    all_ms = np.concatenate([ms for ms, _ in nodes])
    omegas = np.split(_moduli(f, 0, base, all_ms)[0] if all_ms.size else all_ms,
                      np.cumsum([ms.size for ms, _ in nodes])[:-1])
    fnorm = norm_of_values(f.values, grid, base)
    rhs = []
    for s, (ms, weights), omega in zip(ts, nodes, omegas):
        finite = 0.0
        if ms.size:
            ss = ms * step
            finite = float(np.sum(ss ** (-1.0 / p) * omega * weights))
        tail_from = max(s, s_max)
        tail = 2.0 * fnorm * p * tail_from ** (-1.0 / p)
        rhs.append(2.0 * (finite + tail))
    return lhs, np.array(rhs, dtype=float)

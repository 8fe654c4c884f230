"""Hardy-type integral inequalities on the half line, with explicit constants.

Inputs are nonnegative functions sampled on a geometric grid in (0, oo),
wrapped in RaySamples.  Between samples the function is modelled as a power
law through the two endpoints (a chord in log-log coordinates), falling back
to a linear chord when an endpoint vanishes; each segment is then integrated
in closed form.  Beyond the sampled range, on both sides, the edge segment's
power law extends the function; an edge value of 0 ends it there instead.  A
tail whose model fails to be integrable makes the affected integral +inf
rather than raising.

doublestar_bound_check is the exception: it consumes a grid function, whose
rearrangement is an exact step profile, and evaluates everything piecewise in
closed form (Gauss-Legendre on the analytic pieces for non-integer exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gridfn import GridFunction
from .norms import lp_norm
from .quadrature import powerlaw_exponent, segment_integral
from .rearrange import decreasing_rearrangement

__all__ = [
    "RaySamples",
    "ray_integral",
    "cumulative_integral",
    "hardy_check",
    "doublestar_bound_check",
]


@dataclass(frozen=True)
class RaySamples:
    """A nonnegative function on (0, oo) known at increasing sample points.

    The edge segments' power laws extend it below ts[0] and above ts[-1]; a
    zero edge value makes it vanish on that side.
    """

    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
            raise ValueError("need matching 1-d arrays with at least 2 samples")
        if not (ts[0] > 0 and np.all(np.diff(ts) > 0)):
            raise ValueError("sample points must be positive and increasing")
        if not np.all(values >= 0) or not np.all(np.isfinite(values)):
            raise ValueError("values must be finite and nonnegative")
        ts.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", values)


def _edge_exponent(t0, v0, t1, v1) -> float:
    # constant extrapolation when a zero endpoint defeats the log-log fit
    expo = powerlaw_exponent(t0, v0, t1, v1)
    return 0.0 if expo is None else expo


def _low_tail(ray: RaySamples) -> float:
    """Integral over (0, ts[0]) of the extrapolated model."""
    if ray.values[0] == 0:
        return 0.0
    t0, v0 = ray.ts[0], ray.values[0]
    expo = _edge_exponent(t0, v0, ray.ts[1], ray.values[1])
    if expo <= -1.0:
        return math.inf
    return v0 * t0 / (expo + 1.0)


def _high_tail(ray: RaySamples) -> float:
    """Integral over (ts[-1], oo) of the extrapolated model."""
    if ray.values[-1] == 0:
        return 0.0
    t1, v1 = ray.ts[-1], ray.values[-1]
    expo = _edge_exponent(ray.ts[-2], ray.values[-2], t1, v1)
    if expo >= -1.0:
        return math.inf
    return v1 * t1 / (-expo - 1.0)


def _segment_integrals(ray: RaySamples) -> np.ndarray:
    ts, vals = ray.ts, ray.values
    out = np.empty(ts.size - 1)
    for i in range(ts.size - 1):
        out[i] = segment_integral(ts[i], ts[i + 1], vals[i], vals[i + 1])
    return out


def ray_integral(ray: RaySamples) -> float:
    """Integral over (0, oo) under the segment + tail model."""
    return float(_low_tail(ray) + _segment_integrals(ray).sum() + _high_tail(ray))


def cumulative_integral(ray: RaySamples) -> np.ndarray:
    """Integral from 0 up to each sample point (the low tail included)."""
    segs = np.concatenate(([_low_tail(ray)], _segment_integrals(ray)))
    return np.cumsum(segs)


def hardy_check(ray: RaySamples, lam: float, p: float) -> tuple[float, float]:
    """Averaging-operator bound with constant 1/(1-lam).

    Returns (lhs, rhs_bound) where
      lhs       = ( int (t^(lam-1) int_0^t phi)^p dt/t )^(1/p)
      rhs_bound = 1/(1-lam) * ( int (t^lam phi(t))^p dt/t )^(1/p)
    and the claim under test is lhs <= rhs_bound.  Either side may be +inf
    when its tail model diverges.
    """
    if lam >= 1:
        raise ValueError(f"lam must be < 1, got {lam}")
    if p < 1 or not np.isfinite(p):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    cum = cumulative_integral(ray)
    if not np.all(np.isfinite(cum)):
        return math.inf, math.inf
    # both derived integrands vanish where their source does, so a zero edge
    # value of the source shuts their tail off too
    lhs_ray = RaySamples(ray.ts, (ray.ts ** (lam - 1.0) * cum) ** p / ray.ts)
    rhs_ray = RaySamples(ray.ts, (ray.ts ** lam * ray.values) ** p / ray.ts)
    lhs = ray_integral(lhs_ray) ** (1.0 / p)
    rhs_int = ray_integral(rhs_ray)
    return float(lhs), float(rhs_int ** (1.0 / p) / (1.0 - lam))


@lru_cache(maxsize=None)
def _gauss_nodes(n=64):
    return np.polynomial.legendre.leggauss(n)


def _piece_power_integral(a: float, b: float, v: float, d: float, p: float) -> float:
    """Integral of (v + d/t)^p over (a, b), 0 < a < b, v >= 0, d >= 0."""
    if d == 0.0:
        return v ** p * (b - a)
    if p == round(p):
        ip = int(round(p))
        total = 0.0
        for j in range(ip + 1):
            coeff = math.comb(ip, j) * v ** j * d ** (ip - j)
            e = j - ip + 1
            if e == 0:
                total += coeff * math.log(b / a)
            else:
                total += coeff * (b ** e - a ** e) / e
        return total
    x, w = _gauss_nodes()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid + half * x
    return float(half * np.sum(w * (v + d / t) ** p))


def doublestar_bound_check(f: GridFunction, p: float) -> tuple[float, float]:
    """Running-average operator bound in L^p: lhs <= p/(p-1) * rhs.

    lhs is the L^p(0, oo) norm of the running average of the decreasing
    rearrangement of f, rhs is the L^p norm of f itself.  Both are evaluated
    in closed form over the step profile (the running average is v + d/t on
    each piece, P/t beyond the support).
    """
    if not (p > 1 and np.isfinite(p)):
        raise ValueError(f"p must be finite and > 1, got {p}")
    prof = decreasing_rearrangement(f)
    if prof.values.size == 0:
        return 0.0, 0.0
    rhs = lp_norm(f, p)
    breaks = prof.breakpoints
    lens = np.diff(np.concatenate(([0.0], breaks)))
    masses = prof.values * lens
    cum = np.concatenate(([0.0], np.cumsum(masses)))

    total = prof.values[0] ** p * breaks[0]
    for k in range(1, prof.values.size):
        a, b = breaks[k - 1], breaks[k]
        v = prof.values[k]
        d = cum[k] - v * a
        total += _piece_power_integral(a, b, v, d, p)
    mass = cum[-1]
    support = breaks[-1]
    total += mass ** p * support ** (1.0 - p) / (p - 1.0)
    return float(total ** (1.0 / p)), float(rhs)

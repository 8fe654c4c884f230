"""Quadrature helpers on (0, oo): a geometric midpoint rule and a segment model.

log_midpoint_nodes serves the integrals against the multiplicative measure
dt/t over a finite window [lo, hi] (the h-integrals of smoothness).  It
discretizes the window geometrically and uses the midpoint rule in log
coordinates, which is exact for pure powers up to the usual O(step^2)
midpoint error and keeps the node count independent of the window's dynamic
range.

segment_integral integrates a function known at two nodes against dt, under
the power-law chord through them (hardyops' ray integrals, the t-integral of
fourier.sup_integral_functional); powerlaw_exponent is that chord's slope.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_midpoint_nodes",
    "powerlaw_exponent",
    "segment_integral",
]


def log_midpoint_nodes(lo, hi, ratio):
    """Midpoint nodes and log-weights for integrating f(t) dt/t over [lo, hi].

    Returns (nodes, weights) with sum(f(nodes) * weights) ~ int_lo^hi f dt/t.
    The last cell is shortened so the cells tile [log lo, log hi] exactly.
    Empty result when hi <= lo.
    """
    if not (lo > 0 and hi > 0 and ratio > 1):
        raise ValueError("need 0 < lo, 0 < hi and ratio > 1")
    if hi <= lo:
        return np.empty(0), np.empty(0)
    step = np.log(ratio)
    total = np.log(hi / lo)
    n = int(np.ceil(total / step - 1e-12))
    edges = np.minimum(np.arange(n + 1) * step, total)
    widths = np.diff(edges)
    mids = np.log(lo) + 0.5 * (edges[:-1] + edges[1:])
    keep = widths > 0
    return np.exp(mids[keep]), widths[keep]


def powerlaw_exponent(t0, v0, t1, v1):
    """Exponent of the power law through (t0, v0), (t1, v1); None if not both > 0."""
    if v0 > 0 and v1 > 0:
        return np.log(v1 / v0) / np.log(t1 / t0)
    return None


def segment_integral(t0, t1, v0, v1):
    """Integral of v(t) over [t0, t1] for sampled endpoints.

    Between nodes the sampled function is modelled as a power law (log-log
    linear), which integrates pure powers exactly; if either endpoint is zero
    the model falls back to linear interpolation.
    """
    if t1 <= t0:
        return 0.0
    if not (v0 > 0 and v1 > 0):
        # linear chord a + b t, integrated exactly
        b = (v1 - v0) / (t1 - t0)
        a = v0 - b * t0
        return a * (t1 - t0) + b * ((t1 ** 2.0 - t0 ** 2.0) / 2.0)
    # v is a power law with endpoint masses A = v0 * t0 and B = A * e**u;
    # writing the integral as A * lnr * expm1(u)/u keeps it well conditioned
    # for every exponent, including the near -1 chords where the textbook
    # (B - A)/(expo + 1) form cancels catastrophically
    lnr = np.log(t1 / t0)
    u = np.log(v1 / v0) + lnr
    if u > 709.0:
        return v1 * t1 * lnr / u
    if u < -709.0:
        return v0 * t0 * lnr / -u
    if u == 0.0:
        return v0 * t0 * lnr
    return v0 * t0 * lnr * np.expm1(u) / u

"""Inequality registry and corpus runner.

Each registry entry pairs two functionals of a corpus member (lhs, rhs) with
a validity window over the exponent parameters and a kind:

  assert  - the inequality carries an explicit constant; a run fails if any
            member's ratio exceeds constant * (1 + tolerance).
  report  - the constant is not explicit; runs record the empirical maximum
            ratio over the corpus and its drift between two resolutions, and
            fail only if a side diverges inside the validity window.
  probe   - an open question; probe() sweeps escalating input families and
            reports evidence, never a direction.

Every member is evaluated at a coarse grid and its 2x refinement; the
empirical constant is the maximum fine-grid ratio.  Evaluators are top-level
functions looked up by entry id, so corpus members can be rebuilt and
evaluated in worker processes from (family, grid) descriptions alone.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from . import fourier
from .gridfn import (CorpusMember, FamilySpec, FORMAT_VERSION, GridSpec,
                     corpus_generate, dilate_family, sample_member)
from .hardyops import RaySamples, doublestar_bound_check, hardy_check
from .norms import (Lebesgue, Lorentz, Mixed, iterated_lorentz_norm,
                    lorentz_norm, lp_norm, norm, norm_of_values, parse_norm)
from .rearrange import decreasing_rearrangement, double_star
# difference_norms stays importable from here: perfbench/tests checks the name.
from .smoothness import (BesovSpec, _moduli, besov_seminorm, difference_norms,  # noqa: F401
                         modulus, ulyanov_pointwise, ulyanov_tail)

__all__ = [
    "InequalitySpec",
    "InequalityReport",
    "registry",
    "registry_map",
    "run",
    "run_all",
    "probe",
    "save_report",
    "default_grid",
    "default_families",
    "empirical_ratio",
    "DEFAULT_SEED",
    "DEFAULT_COUNTS",
    "PROBE_LABEL",
    "escalate_family",
]

DEFAULT_SEED = 20240817
DEFAULT_COUNTS = {1: 24, 2: 20, 3: 20}
_GRID_SHAPES = {1: (8.0, 256), 2: (4.0, 32), 3: (4.0, 32)}

PROBE_LABEL = "OPEN QUESTION — no asserted direction"

DRIFT_GATE = 0.10
DILATION_TOL = 0.05


def default_grid(dim: int) -> GridSpec:
    L, n = _GRID_SHAPES[dim]
    return GridSpec.box(dim, L, n)


def default_families(dim: int, seed: int = DEFAULT_SEED, count: Optional[int] = None):
    count = DEFAULT_COUNTS[dim] if count is None else count
    return [m.family for m in corpus_generate(seed, count, default_grid(dim))]


def empirical_ratio(lhs: float, rhs: float) -> float:
    """lhs/rhs with 0/0 counted as 0 (a zero function satisfies anything)."""
    if rhs == 0:
        return 0.0 if lhs == 0 else math.inf
    return lhs / rhs


# ---------------------------------------------------------------------------
# evaluators (top-level so runs can cross process boundaries by entry id)
# ---------------------------------------------------------------------------


def _grad_norm(member: CorpusMember, p: float) -> float:
    g = np.sqrt(sum(d.values ** 2 for d in member.derivs))
    return norm_of_values(g, member.grid, Lebesgue(p))


def _worst_pair(pairs):
    return max(pairs, key=lambda lr: empirical_ratio(lr[0], lr[1]))


def _eval_hardy(member, params):
    """Averaging-operator bound on two derived half-line functions.

    The worse of two pairs is returned: the decreasing rearrangement sampled
    geometrically, and the gap between its running average and itself.  Both
    decay at infinity, so every tail of the segment model stays finite.  The
    rhs excludes the constant 1/(1-lam); the registry carries it.
    """
    lam, p = params["lam"], params["p"]
    prof = decreasing_rearrangement(member.f)
    if prof.values.size == 0:
        return 0.0, 0.0
    support = prof.support_measure
    ts = np.geomspace(support * 1e-3, support * 2.0, 96)
    star = np.asarray(prof.value_at(ts), dtype=float)
    pairs = [hardy_check(RaySamples(ts, star, extrapolate_low=True), lam, p)]

    # the gap integral grows like log t, so the ray must reach far enough for
    # the fitted tail exponent of the averaged side to drop below -1
    ts2 = np.geomspace(support * 1e-3, support * 64.0, 128)
    gap = double_star(prof, ts2) - prof.value_at(ts2)
    pairs.append(hardy_check(
        RaySamples(ts2, np.maximum(gap, 0.0), extrapolate_low=True,
                   extrapolate_high=True), lam, p))
    lhs, rhs_bound = _worst_pair(pairs)
    return lhs, rhs_bound * (1.0 - lam)


def _eval_bound(member, params):
    return doublestar_bound_check(member.f, params["p"])


def _delta_sweep(member, fraction_lo=4.0, count=8):
    grid = member.grid
    step = grid.spacing[0]
    prof = decreasing_rearrangement(member.f)
    hi = 2.0 * prof.support_measure if prof.values.size else 2.0 * grid.half_extents[0]
    return np.geomspace(fraction_lo * step, hi, count)


def _eval_ulyanov_pointwise(member, params):
    p = params["p"]
    pairs = []
    for t in _delta_sweep(member):
        lhs, rhs = ulyanov_pointwise(member.f, p, t)
        pairs.append((lhs, rhs / 2.0))
    return _worst_pair(pairs)


def _eval_ulyanov_tail(member, params):
    p = params["p"]
    pairs = []
    for t in _delta_sweep(member):
        lhs, rhs = ulyanov_tail(member.f, p, t)
        pairs.append((lhs, rhs / 2.0))
    return _worst_pair(pairs)


def _eval_omega1(member, params):
    """Modulus vs. the average of difference norms; constant 3 in the registry."""
    base = parse_norm(params["base"])
    step = member.grid.spacing[0]
    n = member.grid.points[0]
    running, pos = _moduli(member.f, 0, base, np.arange(1, n))
    pos = np.concatenate(([0.0], pos))
    # cum[m] = trapezoid rule for the integral of the norm over [0, m*step]
    cum = np.concatenate(([0.0], np.cumsum((pos[:-1] + pos[1:]) * (step / 2.0))))
    pairs = []
    for delta in params["deltas"]:
        m = max(1, min(int(delta / step + 1e-9), n - 1))
        pairs.append((float(running[m - 1]), float(cum[m] / (m * step))))
    return _worst_pair(pairs)


def _besov_axis_sum(member, alpha, theta, base_for_axis, use_modulus=False,
                    h_max=None, upper_tail=True):
    total = 0.0
    for k in range(member.dim):
        spec = BesovSpec(alpha, theta, k, base_for_axis(k), h_max=h_max,
                         use_modulus=use_modulus)
        total += besov_seminorm(member.f, spec, deriv=member.derivs[k],
                                upper_tail=upper_tail)
    return total


def _eval_sob1(member, params):
    return lp_norm(member.f, params["pstar"]), _grad_norm(member, params["p"])


def _eval_embed0(member, params):
    lhs = lorentz_norm(member.f, params["pstar"], params["p"])
    return lhs, _grad_norm(member, params["p"])


def _eval_embed1(member, params):
    p, q, s = params["p"], params["q"], params["s"]
    lhs = _besov_axis_sum(member, s, p, lambda k: Lorentz(q, p))
    rhs = sum(lp_norm(d, p) for d in member.derivs)
    return lhs, rhs


def _eval_embed32(member, params):
    p, q, alpha = params["p"], params["q"], params["alpha"]
    lhs = _besov_axis_sum(member, alpha, p,
                          lambda k: Mixed(k, Lebesgue(p), Lorentz(q, p)))
    rhs = sum(lp_norm(d, p) for d in member.derivs)
    return lhs, rhs


def _eval_hardy_refined(member, params):
    """Mixed-norm first-difference integral vs. Riesz-augmented L1 norms."""
    q, alpha = params["q"], params["alpha"]
    lhs = _besov_axis_sum(member, alpha, 1.0,
                          lambda k: Mixed(k, Lebesgue(1.0), Lorentz(q, 1.0)))
    rhs = sum(fourier.h1_norm(d) for d in member.derivs)
    return lhs, rhs


def _eval_ulyanov2(member, params):
    p, q = params["p"], params["q"]
    spec = BesovSpec(1.0 / p - 1.0 / q, q, 0, Lebesgue(p))
    rhs = besov_seminorm(member.f, spec, deriv=member.derivs[0])
    return lp_norm(member.f, q), rhs


def _eval_ulyanov3(member, params):
    p, q = params["p"], params["q"]
    alpha = 1.0 / p - 1.0 / q
    pairs = []
    for delta in params["deltas"]:
        lhs = modulus(member.f, 0, delta, Lebesgue(q))
        spec = BesovSpec(alpha, q, 0, Lebesgue(p), h_max=delta)
        rhs = besov_seminorm(member.f, spec, deriv=member.derivs[0],
                             upper_tail=False)
        pairs.append((lhs, rhs))
    return _worst_pair(pairs)


def _eval_diff(member, params):
    p, q, theta = params["p"], params["q"], params["theta"]
    alpha, beta = params["alpha"], params["beta"]
    lhs = lp_norm(member.f, q) + _besov_axis_sum(member, beta, theta,
                                                 lambda k: Lebesgue(q))
    rhs = lp_norm(member.f, p) + _besov_axis_sum(member, alpha, theta,
                                                 lambda k: Lebesgue(p))
    return lhs, rhs


def _eval_equivalence(member, params):
    """Theta-power integrals of the modulus vs. the plain difference norm.

    Termwise the modulus dominates the difference norm, so the ratio is at
    least 1; the inequality under test bounds it from above.
    """
    alpha, theta = params["alpha"], params["theta"]
    base = parse_norm(params["base"])
    spec_m = BesovSpec(alpha, theta, 0, base, use_modulus=True)
    spec_d = BesovSpec(alpha, theta, 0, base)
    lhs = besov_seminorm(member.f, spec_m, deriv=member.derivs[0]) ** theta
    rhs = besov_seminorm(member.f, spec_d, deriv=member.derivs[0]) ** theta
    return lhs, rhs


def _simple_base(params):
    return Mixed(0, Lebesgue(params["r"]), Lebesgue(params["p"]))


def _eval_simple1(member, params):
    base = _simple_base(params)
    spec = BesovSpec(params["alpha"], params["theta"], 0, base, use_modulus=True)
    rhs = norm(member.f, base) + besov_seminorm(member.f, spec,
                                                deriv=member.derivs[0])
    return lp_norm(member.f, params["p"]), rhs


def _eval_simple2(member, params):
    theta = params["theta"]
    spec_l = BesovSpec(params["beta"], theta, 0, Lebesgue(params["p"]))
    spec_r = BesovSpec(params["alpha"], theta, 0, _simple_base(params))
    lhs = besov_seminorm(member.f, spec_l, deriv=member.derivs[0]) ** theta
    rhs = besov_seminorm(member.f, spec_r, deriv=member.derivs[0]) ** theta
    return lhs, rhs


def _strong_base(params):
    return Mixed(0, Lebesgue(params["r"]), Lorentz(params["p"], params["nu"]))


def _eval_strong1(member, params):
    base = _strong_base(params)
    spec = BesovSpec(params["alpha"], params["theta"], 0, base, use_modulus=True)
    rhs = norm(member.f, base) + besov_seminorm(member.f, spec,
                                                deriv=member.derivs[0])
    return lorentz_norm(member.f, params["p"], params["nu"]), rhs


def _eval_strong10(member, params):
    theta = params["theta"]
    spec_l = BesovSpec(params["beta"], theta, 0,
                       Lorentz(params["p"], params["nu"]))
    spec_r = BesovSpec(params["alpha"], theta, 0, _strong_base(params))
    lhs = besov_seminorm(member.f, spec_l, deriv=member.derivs[0]) ** theta
    rhs = besov_seminorm(member.f, spec_r, deriv=member.derivs[0]) ** theta
    return lhs, rhs


def _eval_const1(member, params):
    p, nu = params["p"], params["nu"]
    return lorentz_norm(member.f, p, nu), iterated_lorentz_norm(member.f, p, nu)


def _eval_const2(member, params):
    p, nu = params["p"], params["nu"]
    return iterated_lorentz_norm(member.f, p, nu), lorentz_norm(member.f, p, nu)


def _eval_h_ineq(member, params):
    g = member.derivs[0]
    F = fourier.transform(g)
    lhs = fourier.weighted_fourier_integral(F, -member.dim).value
    return lhs, fourier.h1_norm(g)


def _eval_pelcz(member, params):
    F = fourier.transform(member.f)
    lhs = fourier.weighted_fourier_integral(F, 1 - member.dim).value
    return lhs, _grad_norm(member, 1.0)


def _eval_pelcz1(member, params):
    lhs = 0.0
    for d in member.derivs:
        lhs += fourier.weighted_fourier_integral(fourier.transform(d),
                                                 -member.dim).value
    rhs = sum(lp_norm(d, 1.0) for d in member.derivs)
    return lhs, rhs


def _eval_oberlin(member, params):
    g = member.derivs[0]
    F = fourier.transform(g)
    quad = fourier.ShellQuadrature(member.dim)
    return fourier.dyadic_shell_sum(F, 1 - member.dim, quad), fourier.h1_norm(g)


def _eval_sup_integral(member, params):
    F = fourier.transform(member.f)
    lhs = sum(fourier.sup_integral_functional(F, j) for j in range(member.dim))
    return lhs, _grad_norm(member, 1.0)


def _eval_sup_integral_h1(member, params):
    F = fourier.transform(member.f)
    lhs = sum(fourier.sup_integral_functional(F, j) for j in range(member.dim))
    return lhs, sum(fourier.h1_norm(d) for d in member.derivs)


def _eval_obertype1(member, params):
    F = fourier.transform(member.f)
    quad = fourier.ShellQuadrature(member.dim)
    return fourier.dyadic_shell_sum(F, 2 - member.dim, quad), _grad_norm(member, 1.0)


def _eval_obertype33(member, params):
    F = fourier.transform(member.f)
    return fourier.cube_shell_sum(F), _grad_norm(member, 1.0)


def _eval_embed_compare(member, params):
    lhs = _eval_embed1(member, params)[0]
    rhs = _eval_embed32(member, params)[0]
    return lhs, rhs


# ---------------------------------------------------------------------------
# validity windows
# ---------------------------------------------------------------------------


def _valid_always(dim, params):
    return True


def _valid_sobolev(dim, params):
    p = params["p"]
    return dim >= 2 and 1 <= p < dim and \
        abs(params["pstar"] - dim * p / (dim - p)) < 1e-12


def _valid_embed1(dim, params):
    p, q = params["p"], params["q"]
    if not ((p > 1 and dim >= 1) or (p == 1 and dim >= 2)):
        return False
    return p < q < math.inf and params["s"] > 0 and \
        abs(params["s"] - (1 - dim * (1 / p - 1 / q))) < 1e-12


def _valid_embed32(dim, params):
    p, q = params["p"], params["q"]
    if not ((p > 1 and dim >= 2) or (p == 1 and dim >= 3)):
        return False
    return p < q < math.inf and params["alpha"] > 0 and \
        abs(params["alpha"] - (1 - (dim - 1) * (1 / p - 1 / q))) < 1e-12


def _valid_hardy_refined(dim, params):
    # the admissible window is 1 < q < (dim-1)/(dim-2), open-ended when
    # dim == 2; alpha is forced by q
    q = params["q"]
    if dim < 2 or not q > 1:
        return False
    if dim > 2 and q >= (dim - 1) / (dim - 2):
        return False
    return abs(params["alpha"] - (1 - (dim - 1) * (1 - 1 / q))) < 1e-12


def _valid_ulyanov_pair(dim, params):
    p, q = params["p"], params["q"]
    return dim == 1 and 1 <= p < q < math.inf


def _valid_diff(dim, params):
    p, q = params["p"], params["q"]
    if not (1 <= p < q < math.inf and params["theta"] >= 1):
        return False
    beta = params["alpha"] - dim * (1 / p - 1 / q)
    return 0 < params["alpha"] < 1 and beta > 0 and \
        abs(params["beta"] - beta) < 1e-12


def _valid_simple(dim, params):
    r, p = params["r"], params["p"]
    if not (dim >= 2 and params["theta"] >= 1 and 1 <= r < p < math.inf):
        return False
    return 1 / r - 1 / p < params["alpha"] < 1


def _valid_strong(dim, params):
    r, p, nu = params["r"], params["p"], params["nu"]
    if not (dim >= 2 and params["theta"] >= 1 and 1 <= nu <= p < math.inf):
        return False
    return 1 <= r < p and 1 / r - 1 / p < params["alpha"] < 1


def _valid_const1(dim, params):
    return dim == 2 and 0 < params["nu"] <= params["p"] < math.inf


def _valid_const2(dim, params):
    return dim == 2 and 0 < params["p"] <= params["nu"] < math.inf


def _valid_dim2plus(dim, params):
    return dim >= 2


def _valid_dim3plus(dim, params):
    return dim >= 3


def _valid_dim1(dim, params):
    return dim == 1


def _valid_probe_embed32(dim, params):
    return dim == 2 and params["p"] == 1 and params["alpha"] > 0


def _valid_compare(dim, params):
    return _valid_embed1(dim, params) and _valid_embed32(dim, params)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalitySpec:
    """One inequality: paired functionals plus its validity window."""

    id: str
    kind: str
    description: str
    dims: tuple[int, ...]
    params: Mapping[int, dict]
    evaluate: Callable[[CorpusMember, dict], tuple[float, float]]
    valid: Callable[[int, dict], bool] = _valid_always
    constant: Optional[float] = None
    tolerance: float = 0.05
    dilation_sweep: bool = False

    def __post_init__(self):
        if self.kind not in ("assert", "report", "probe"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "assert" and self.constant is None:
            raise ValueError(f"assert entry {self.id} needs an explicit constant")
        if set(self.params) != set(self.dims):
            raise ValueError(f"entry {self.id}: params must cover exactly its dims")
        for d in self.dims:
            if not self.valid(d, self.params[d]):
                raise ValueError(f"entry {self.id}: parameters for dim {d} "
                                 "fall outside the validity window")


def registry() -> tuple[InequalitySpec, ...]:
    """All registered inequalities; ids are unique and stable."""
    entries = [
        InequalitySpec(
            "hardy", "assert",
            "half-line averaging operator bound, constant 1/(1-lam)",
            (1,), {1: {"lam": 0.5, "p": 2.0}}, _eval_hardy,
            constant=2.0),
        InequalitySpec(
            "bound", "assert",
            "running average of the rearrangement in L^p, constant p/(p-1)",
            (1,), {1: {"p": 2.0}}, _eval_bound,
            constant=2.0, tolerance=1e-4),
        InequalitySpec(
            "ulyanov0", "assert",
            "rearrangement average gap vs. t^(-1/p) modulus, constant 2",
            (1,), {1: {"p": 2.0}}, _eval_ulyanov_pointwise,
            constant=2.0),
        InequalitySpec(
            "Ulyanov1", "assert",
            "rearrangement tail integral of the modulus, constant 2",
            (1,), {1: {"p": 1.0}}, _eval_ulyanov_tail,
            constant=2.0),
        InequalitySpec(
            "omega1", "assert",
            "modulus vs. averaged difference norms, constant 3",
            (1,), {1: {"base": "Leb(1)", "deltas": [0.5, 2.0, 8.0]}}, _eval_omega1,
            constant=3.0),
        InequalitySpec(
            "sob1", "report",
            "critical Lebesgue norm vs. gradient norm",
            (2,), {2: {"p": 1.0, "pstar": 2.0}}, _eval_sob1,
            valid=_valid_sobolev),
        InequalitySpec(
            "embed0", "report",
            "critical Lorentz norm vs. gradient norm",
            (2,), {2: {"p": 1.0, "pstar": 2.0}}, _eval_embed0,
            valid=_valid_sobolev, dilation_sweep=True),
        InequalitySpec(
            "embed1", "report",
            "directional Lorentz-norm smoothness integrals vs. derivative norms",
            (1, 2), {1: {"p": 2.0, "q": 4.0, "s": 0.75},
                     2: {"p": 1.0, "q": 1.5, "s": 1.0 / 3.0}}, _eval_embed1,
            valid=_valid_embed1, dilation_sweep=True),
        InequalitySpec(
            "embed32", "report",
            "directional mixed-norm smoothness integrals vs. derivative norms",
            (2, 3), {2: {"p": 1.5, "q": 2.5, "alpha": 1.0 - 1.0 / 1.5 + 1.0 / 2.5},
                     3: {"p": 1.0, "q": 1.5, "alpha": 1.0 / 3.0}}, _eval_embed32,
            valid=_valid_embed32, dilation_sweep=True),
        InequalitySpec(
            "embed321", "report",
            "mixed-norm first-difference integrals vs. Riesz-augmented derivative norms",
            (2,), {2: {"q": 2.0, "alpha": 0.5}}, _eval_hardy_refined,
            valid=_valid_hardy_refined),
        InequalitySpec(
            "hardy1", "report",
            "mixed-norm first-difference integrals vs. Riesz-augmented derivative norms",
            (2,), {2: {"q": 3.0, "alpha": 1.0 / 3.0}}, _eval_hardy_refined,
            valid=_valid_hardy_refined),
        InequalitySpec(
            "Ulyanov2", "report",
            "L^q norm vs. weighted difference-norm integral",
            (1,), {1: {"p": 1.0, "q": 2.0}}, _eval_ulyanov2,
            valid=_valid_ulyanov_pair),
        InequalitySpec(
            "Ulyanov3", "report",
            "L^q modulus vs. truncated weighted difference-norm integral",
            (1,), {1: {"p": 1.0, "q": 2.0, "deltas": [0.5, 2.0]}}, _eval_ulyanov3,
            valid=_valid_ulyanov_pair),
        InequalitySpec(
            "diff", "report",
            "smoothness-graded norm embedding across Lebesgue exponents",
            (1,), {1: {"p": 1.0, "q": 2.0, "theta": 2.0, "alpha": 0.75,
                       "beta": 0.25}}, _eval_diff,
            valid=_valid_diff),
        InequalitySpec(
            "equivalence", "report",
            "modulus-built vs. difference-built smoothness integrals (ratio >= 1)",
            (2,), {2: {"alpha": 0.5, "theta": 2.0, "base": "Leb(2)"}},
            _eval_equivalence),
        InequalitySpec(
            "simple1", "report",
            "plain norm vs. modulus-graded mixed-norm class norm",
            (2,), {2: {"r": 1.0, "p": 2.0, "theta": 2.0, "alpha": 0.75}},
            _eval_simple1, valid=_valid_simple),
        InequalitySpec(
            "simple2", "report",
            "difference-norm integrals: plain target vs. mixed-norm source",
            (2,), {2: {"r": 1.0, "p": 2.0, "theta": 2.0, "alpha": 0.75,
                       "beta": 0.25}}, _eval_simple2,
            valid=_valid_simple),
        InequalitySpec(
            "strong1", "report",
            "Lorentz norm vs. modulus-graded Lorentz-over-Lebesgue class norm",
            (2,), {2: {"r": 1.0, "p": 2.0, "nu": 1.5, "theta": 2.0,
                       "alpha": 0.75}}, _eval_strong1,
            valid=_valid_strong),
        InequalitySpec(
            "strong10", "report",
            "difference-norm integrals: Lorentz target vs. mixed source",
            (2,), {2: {"r": 1.0, "p": 2.0, "nu": 1.5, "theta": 2.0,
                       "alpha": 0.75, "beta": 0.25}}, _eval_strong10,
            valid=_valid_strong),
        InequalitySpec(
            "const1", "report",
            "Lorentz norm vs. iterated-rearrangement norm (nu <= p)",
            (2,), {2: {"p": 2.0, "nu": 1.0}}, _eval_const1,
            valid=_valid_const1),
        InequalitySpec(
            "const2", "report",
            "iterated-rearrangement norm vs. Lorentz norm (p <= nu)",
            (2,), {2: {"p": 2.0, "nu": 3.0}}, _eval_const2,
            valid=_valid_const2),
        InequalitySpec(
            "H_ineq", "report",
            "spectrum weighted by |xi|^(-n) vs. Riesz-augmented L1 norm",
            (2, 3), {2: {}, 3: {}}, _eval_h_ineq,
            valid=_valid_dim2plus),
        InequalitySpec(
            "pelcz", "report",
            "spectrum weighted by |xi|^(1-n) vs. gradient L1 norm",
            (2, 3), {2: {}, 3: {}}, _eval_pelcz,
            valid=_valid_dim2plus),
        InequalitySpec(
            "pelcz1", "report",
            "derivative spectra weighted by |xi|^(-n) vs. derivative L1 norms",
            (2, 3), {2: {}, 3: {}}, _eval_pelcz1,
            valid=_valid_dim2plus),
        InequalitySpec(
            "oberlin", "report",
            "dyadic shell sums of a mean-zero spectrum vs. Riesz-augmented L1 norm",
            (2,), {2: {}}, _eval_oberlin,
            valid=_valid_dim2plus),
        InequalitySpec(
            "sup111", "report",
            "integrated running averages of slab sups vs. gradient L1 norm",
            (3,), {3: {}}, _eval_sup_integral,
            valid=_valid_dim3plus),
        InequalitySpec(
            "supH", "report",
            "integrated running averages of slab sups vs. Riesz-augmented norms",
            (2,), {2: {}}, _eval_sup_integral_h1,
            valid=_valid_dim2plus),
        InequalitySpec(
            "obertype1", "report",
            "weighted dyadic shell sums of the spectrum vs. gradient L1 norm",
            (3,), {3: {}}, _eval_obertype1,
            valid=_valid_dim3plus),
        InequalitySpec(
            "obertype33", "report",
            "cube-face shell sums of the spectrum vs. gradient L1 norm",
            (3,), {3: {}}, _eval_obertype33,
            valid=_valid_dim3plus),
        InequalitySpec(
            "embed1_vs_embed32", "report",
            "plain-norm smoothness integrals vs. their mixed-norm refinement",
            (2,), {2: {"p": 1.5, "q": 2.0, "s": 1.0 - 2.0 * (1 / 1.5 - 0.5),
                       "alpha": 1.0 - (1 / 1.5 - 0.5)}}, _eval_embed_compare,
            valid=_valid_compare),
        InequalitySpec(
            "embed32_n2_p1", "probe",
            "mixed-norm smoothness integrals at the open parameter corner",
            (2,), {2: {"p": 1.0, "q": 1.5, "alpha": 2.0 / 3.0}}, _eval_embed32,
            valid=_valid_probe_embed32),
        InequalitySpec(
            "obertype_n2", "probe",
            "unweighted dyadic shell sums at the open dimension",
            (2,), {2: {}}, _eval_obertype1,
            valid=_valid_dim2plus),
    ]
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate registry ids")
    return tuple(entries)


@lru_cache(maxsize=1)
def registry_map() -> Mapping[str, InequalitySpec]:
    return {e.id: e for e in registry()}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    id: str
    dim: int
    kind: str
    params: dict
    constant: Optional[float]
    tolerance: float
    rows: list
    max_ratio_coarse: float
    max_ratio_fine: float
    empirical_constant: float
    refinement_drift: float
    stable: bool
    passed: bool
    failures: list
    dilation: Optional[dict] = None
    runtime: float = 0.0

    def to_dict(self) -> dict:
        # runtime deliberately excluded: reports must be deterministic, and
        # timing lives in the saver's metadata block
        d = {
            "id": self.id, "dim": self.dim, "kind": self.kind,
            "params": self.params, "constant": self.constant,
            "tolerance": self.tolerance, "rows": self.rows,
            "max_ratio_coarse": self.max_ratio_coarse,
            "max_ratio_fine": self.max_ratio_fine,
            "empirical_constant": self.empirical_constant,
            "refinement_drift": self.refinement_drift,
            "stable": self.stable, "passed": self.passed,
            "failures": self.failures,
        }
        if self.dilation is not None:
            d["dilation"] = self.dilation
        return d


def _json_float(x) -> float:
    return float(x)


def _log2_ratio(a: float, b: float) -> float:
    if a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b):
        return math.log2(a / b)
    return math.nan


def _evaluate_task(task):
    """One (entry, member) evaluation at both resolutions; pool-safe."""
    entry_id, dim, index, fam_dict, grid_dict = task
    spec = registry_map()[entry_id]
    params = spec.params[dim]
    fam = FamilySpec.from_dict(fam_dict)
    grid = GridSpec.from_dict(grid_dict)
    mc = sample_member(fam, grid)
    mf = sample_member(fam, grid.refine(2))
    lc, rc = spec.evaluate(mc, params)
    lf, rf = spec.evaluate(mf, params)
    row = {
        "member": index, "family": fam.family,
        "lhs_coarse": _json_float(lc), "rhs_coarse": _json_float(rc),
        "lhs_fine": _json_float(lf), "rhs_fine": _json_float(rf),
        "ratio_coarse": _json_float(empirical_ratio(lc, rc)),
        "ratio_fine": _json_float(empirical_ratio(lf, rf)),
        "lhs_refinement": _json_float(empirical_ratio(lf, lc)),
        "rhs_refinement": _json_float(empirical_ratio(rf, rc)),
    }
    if spec.dilation_sweep:
        # f(lam x) is sampled on the box rescaled by 1/lam with the same point
        # count, so the dilated configuration is an exact rescale of the
        # original and the fitted exponents carry no extra discretization error
        fine = grid.refine(2)
        sweep = {}
        for lam in (0.5, 2.0):
            g = GridSpec(fine.dim, tuple(L / lam for L in fine.half_extents),
                         fine.points)
            sweep[lam] = spec.evaluate(sample_member(dilate_family(fam, lam), g),
                                       params)
        row["dilation_values"] = {
            "0.5": [_json_float(v) for v in sweep[0.5]],
            "2.0": [_json_float(v) for v in sweep[2.0]],
        }
        # [down-step, up-step]: log2 slopes over lam in {1/2, 1} and {1, 2}
        row["lhs_scaling_exponents"] = [_log2_ratio(lf, sweep[0.5][0]),
                                        _log2_ratio(sweep[2.0][0], lf)]
        row["rhs_scaling_exponents"] = [_log2_ratio(rf, sweep[0.5][1]),
                                        _log2_ratio(sweep[2.0][1], rf)]
    return row


def _map_tasks(tasks, jobs):
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(tasks) <= 1:
        return [_evaluate_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_evaluate_task, tasks))


def _drift(coarse: float, fine: float) -> float:
    if coarse == fine:
        return 0.0
    if coarse == 0 or not (math.isfinite(coarse) and math.isfinite(fine)):
        return math.inf
    return abs(fine / coarse - 1.0)


def run(spec: InequalitySpec, dim: int, families, coarse_grid: GridSpec,
        jobs: int = 1) -> InequalityReport:
    """Evaluate one entry over the corpus at coarse_grid and its refinement."""
    if dim not in spec.dims:
        raise ValueError(f"entry {spec.id} does not apply to dim {dim}")
    params = spec.params[dim]
    if not spec.valid(dim, params):
        raise ValueError(f"entry {spec.id}: invalid parameters for dim {dim}")
    started = time.perf_counter()
    tasks = [(spec.id, dim, i, fam.to_dict(), coarse_grid.to_dict())
             for i, fam in enumerate(families)]
    rows = _map_tasks(tasks, jobs)

    failures = []
    ratios_c = [r["ratio_coarse"] for r in rows]
    ratios_f = [r["ratio_fine"] for r in rows]
    max_c = max(ratios_c, default=0.0)
    max_f = max(ratios_f, default=0.0)
    drift = _drift(max_c, max_f)
    if spec.kind != "probe":  # probes are evidence only, never a verdict
        for r in rows:
            sides = (r["lhs_coarse"], r["rhs_coarse"], r["lhs_fine"], r["rhs_fine"])
            if not all(math.isfinite(s) for s in sides):
                failures.append(f"member {r['member']}: non-finite side {sides}")
    if spec.kind == "assert":
        cap = spec.constant * (1.0 + spec.tolerance)
        for r in rows:
            for key in ("ratio_coarse", "ratio_fine"):
                if r[key] > cap:
                    failures.append(f"member {r['member']}: {key} "
                                    f"{r[key]:.6g} exceeds {cap:.6g}")
    passed = not failures

    dilation = None
    if spec.dilation_sweep:
        worst_gap = 0.0
        for r in rows:
            for el, er in zip(r["lhs_scaling_exponents"],
                              r["rhs_scaling_exponents"]):
                if math.isnan(el) or math.isnan(er):
                    continue
                worst_gap = max(worst_gap, abs(el - er) / max(1.0, abs(er)))
        dilation = {"factors": [0.5, 1.0, 2.0],
                    "max_exponent_gap": _json_float(worst_gap),
                    "matched": worst_gap <= DILATION_TOL}

    return InequalityReport(
        id=spec.id, dim=dim, kind=spec.kind, params=dict(params),
        constant=spec.constant, tolerance=spec.tolerance, rows=rows,
        max_ratio_coarse=_json_float(max_c), max_ratio_fine=_json_float(max_f),
        empirical_constant=_json_float(max_f), refinement_drift=_json_float(drift),
        stable=drift <= DRIFT_GATE, passed=passed, failures=failures,
        dilation=dilation, runtime=time.perf_counter() - started)


def run_all(ids=None, corpora=None, jobs: int = 1, seed: int = DEFAULT_SEED,
            include_probes: bool = True):
    """Run registry entries over per-dimension corpora.

    corpora maps dim -> (families, coarse GridSpec); defaults are generated
    from the seed.  Probe entries are included as evidence rows (they cannot
    fail); their escalation sweeps live in probe().  Returns (reports,
    metadata); reports are sorted by (id, dim) and deterministic.  Only the
    timestamp lives in metadata: anything else would break the byte-identity
    of repeated runs.
    """
    if corpora is None:
        corpora = {d: (default_families(d, seed), default_grid(d))
                   for d in (1, 2, 3)}
    specs = registry()
    if ids is not None:
        unknown = set(ids) - {e.id for e in specs}
        if unknown:
            raise ValueError(f"unknown registry ids: {sorted(unknown)}")
        specs = [e for e in specs if e.id in set(ids)]
    reports = []
    for spec in sorted(specs, key=lambda e: e.id):
        if spec.kind == "probe" and not include_probes:
            continue
        for dim in sorted(spec.dims):
            if dim not in corpora:
                continue
            families, grid = corpora[dim]
            reports.append(run(spec, dim, families, grid, jobs=jobs))
    metadata = {"timestamp": datetime.now(timezone.utc).isoformat()}
    return reports, metadata


def _atomic_write_text(path, text: str):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_report(path, reports, metadata) -> dict:
    """Write the report JSON; everything outside "metadata" is deterministic."""
    doc = {
        "format_version": FORMAT_VERSION,
        "reports": [r.to_dict() for r in reports],
        "metadata": metadata,
    }
    _atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2,
                                        allow_nan=True) + "\n")
    return doc


# ---------------------------------------------------------------------------
# open-question probes
# ---------------------------------------------------------------------------


def escalate_family(fam: FamilySpec, level: int) -> FamilySpec:
    """Adversarial sharpening: oscillation up, widths down, support kept."""
    if level <= 0:
        return fam
    factor = 2.0 ** level
    d = fam.to_dict()
    if fam.family == "windowed_trig":
        d["freq"] = tuple(v * factor for v in fam.freq)
    elif fam.family in ("mollified_cone", "mollified_indicator"):
        d["moll_width"] = fam.moll_width / factor
    else:
        d["width"] = tuple(w / factor for w in fam.width)
    return FamilySpec.from_dict(d)


def probe(question: str, depth: int = 2, families=None, grid=None,
          jobs: int = 1, seed: int = DEFAULT_SEED) -> dict:
    """Evidence sweep for an open question; never asserts a direction.

    Evaluates the question's functional pair on the base corpus (level 0) and
    on escalating sharpened variants (levels 1..depth), recording the maximum
    ratio per level and whether the sequence is monotone nondecreasing.
    """
    spec = registry_map().get(question)
    if spec is None or spec.kind != "probe":
        known = sorted(e.id for e in registry() if e.kind == "probe")
        raise ValueError(f"unknown probe {question!r}; available: {known}")
    dim = spec.dims[0]
    if families is None:
        families = default_families(dim, seed)
    if grid is None:
        grid = default_grid(dim)
    started = time.perf_counter()
    levels = []
    for level in range(depth + 1):
        fams = [escalate_family(f, level) for f in families]
        tasks = [(spec.id, dim, i, fam.to_dict(), grid.to_dict())
                 for i, fam in enumerate(fams)]
        rows = _map_tasks(tasks, jobs)
        ratios = [r["ratio_fine"] for r in rows]
        levels.append({
            "level": level,
            "max_ratio": _json_float(max(ratios, default=0.0)),
            "rows": rows,
        })
    maxima = [lv["max_ratio"] for lv in levels]
    monotone = all(b >= a * (1.0 - 1e-9) for a, b in zip(maxima, maxima[1:]))
    return {
        "question": question,
        "label": PROBE_LABEL,
        "dim": dim,
        "params": dict(spec.params[dim]),
        "depth": depth,
        "levels": levels,
        "max_ratios": maxima,
        "monotone_nondecreasing": monotone,
        "runtime": round(time.perf_counter() - started, 3),
    }


def save_probe(path, report: dict) -> dict:
    doc = dict(report)
    runtime = doc.pop("runtime", None)
    doc = {"format_version": FORMAT_VERSION, "probe": doc,
           "metadata": {"timestamp": datetime.now(timezone.utc).isoformat(),
                        "runtime": runtime}}
    _atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc

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

Most entries are Sides: each side is a sum of named functionals of the
member (a norm of f, ||grad f||_p, H^1 norms of the derivatives, Besov
integrals over plain, Lorentz and mixed bases, weighted and shell integrals
of the spectrum), with their exponents written as templates over the entry's
params.  Each functional is evaluated at most once per member and cached on
it, so entries that share a side share its work.  The worst-pair and
derived-exponent entries keep their own evaluators.  The validity windows
hold only inequalities.  One scaling rule, checked when an entry is built and
in run, pins the exponents: where each side of a Sides entry has one degree
under f -> f(lam .) (_DEGREES), the two agree.

Every member is evaluated at a coarse grid and its 2x refinement; the
empirical constant is the maximum fine-grid ratio.  Entries with a dilation
sweep also run on rescaled copies of the fine sample (see run).  The runner
is member-major: each member is sampled once per grid and every entry is
evaluated on that sample.  Entries, families and grids are frozen dataclasses
and functionals and evaluators are top-level functions, so a task carries the
specs themselves to a worker process, which samples the member from its
(family, grid) pair.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from . import fourier
from .gridfn import (CorpusMember, FamilySpec, FORMAT_VERSION, GridSpec, _atomic_write,
                     corpus_generate, dilate_member, sample_member)
from .hardyops import RaySamples, doublestar_bound_check, hardy_check
from .norms import Lebesgue, Mixed, lp_norm, norm, norm_of_values, parse_norm
from .rearrange import decreasing_rearrangement, double_star
# difference_norms stays importable from here: perfbench/tests checks the name.
from .smoothness import (BesovSpec, _moduli, _share_reductions, besov_seminorm,
                         difference_norms, modulus, ulyanov_pointwise,  # noqa: F401
                         ulyanov_tail)

__all__ = [
    "InequalitySpec",
    "InequalityReport",
    "registry",
    "registry_map",
    "run",
    "run_all",
    "probe",
    "save_report",
    "save_probe",
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
    """The default dim-D corpus: DEFAULT_COUNTS[dim] families (or count) drawn from seed.

    The families are checked against default_grid(dim) but not sampled;
    run samples each on the coarse grid and its refinement.
    """
    count = DEFAULT_COUNTS[dim] if count is None else count
    return corpus_generate(seed, count, default_grid(dim))


def empirical_ratio(lhs: float, rhs: float) -> float:
    """lhs/rhs with 0/0 counted as 0 (a zero function satisfies anything)."""
    if rhs == 0:
        return 0.0 if lhs == 0 else math.inf
    return lhs / rhs


# ---------------------------------------------------------------------------
# evaluators (top-level, so the pool can pickle the entries that name them)
# ---------------------------------------------------------------------------


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
    pairs = [hardy_check(RaySamples(ts, prof.value_at(ts)), lam, p)]

    # the gap integral grows like log t, so the ray must reach far enough for
    # the fitted tail exponent of the averaged side to drop below -1
    ts2 = np.geomspace(support * 1e-3, support * 64.0, 128)
    gap = double_star(prof, ts2) - prof.value_at(ts2)
    pairs.append(hardy_check(RaySamples(ts2, np.maximum(gap, 0.0)), lam, p))
    lhs, rhs_bound = _worst_pair(pairs)
    return lhs, rhs_bound * (1.0 - lam)


def _eval_bound(member, params):
    return doublestar_bound_check(member.f, params["p"])


def _delta_sweep(member):
    grid = member.grid
    step = grid.spacing[0]
    prof = decreasing_rearrangement(member.f)
    hi = 2.0 * prof.support_measure if prof.values.size else 2.0 * grid.half_extents[0]
    return np.geomspace(4.0 * step, hi, 8)


def _eval_ulyanov_pointwise(member, params):
    lhs, rhs = ulyanov_pointwise(member.f, params["p"], _delta_sweep(member))
    return _worst_pair(zip(lhs, rhs / 2.0))


def _eval_ulyanov_tail(member, params):
    lhs, rhs = ulyanov_tail(member.f, params["p"], _delta_sweep(member))
    return _worst_pair(zip(lhs, rhs / 2.0))


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


# ---------------------------------------------------------------------------
# sides: named functionals of a member, shared between entries
# ---------------------------------------------------------------------------
# Each functional is a top-level (member, *args) -> value, so the entries that
# name it pickle.  It reaches the public kernels (fourier.h1_norm, norm, ...)
# through module attributes at call time, so a wrapper installed around them
# after the registry is built still sees every call.  Exponents arrive as text,
# like the norm texts around them, so a literal "1.0" and a template "{p}"
# that resolves to it share one memo key.


def _value(member: CorpusMember, functional, *args):
    """functional(member, *args), evaluated once per member and cached on it.

    Only the float is kept, keyed by the functional and its resolved args, so
    entries that share a side (or a term of one) share its evaluation.
    """
    memo = vars(member).setdefault("_values", {})  # member is frozen
    key = (functional, args)
    if key not in memo:
        memo[key] = functional(member, *args)
    return memo[key]


def _norm(member, text):
    return norm(member.f, text)


def _grad(member, p):
    """||grad f||_p; the |grad f| array is dropped once its norm is taken."""
    g = np.sqrt(sum(d.values ** 2 for d in member.derivs))
    return norm_of_values(g, member.grid, Lebesgue(float(p)))


def _deriv_norms(member, p):
    return sum(lp_norm(d, float(p)) for d in member.derivs)


def _h1(member, k):
    return fourier.h1_norm(member.derivs[k])


def _h1_sum(member):
    return sum(_value(member, _h1, k) for k in range(member.dim))


def _besov(member, alpha, theta, base, modulus=False, power=False):
    """Axis-0 Besov integral over the base norm text.

    modulus integrates the modulus of smoothness instead of the difference
    norm; power raises the integral to theta.
    """
    spec = BesovSpec(float(alpha), float(theta), 0, parse_norm(base),
                     use_modulus=modulus)
    value = besov_seminorm(member.f, spec, deriv=member.derivs[0])
    return value ** float(theta) if power else value


def _besov_sum(member, alpha, theta, base):
    """Sum over the axes k of the axis-k Besov integral; a Mix base runs along k."""
    base = parse_norm(base)
    total = 0.0
    for k in range(member.dim):
        base_k = dataclasses.replace(base, axis=k) if isinstance(base, Mixed) else base
        spec = BesovSpec(float(alpha), float(theta), k, base_k)
        total += besov_seminorm(member.f, spec, deriv=member.derivs[k])
    return total


def _weighted(member, shift, k=None):
    """Integral of |xi|^(shift - n) |F| for f, or for its derivative along k."""
    F = fourier.transform(member.f if k is None else member.derivs[k])
    return fourier.weighted_fourier_integral(F, shift - member.dim).value


def _weighted_sum(member, shift):
    return sum(_value(member, _weighted, shift, k) for k in range(member.dim))


def _shells(member, shift, k=None):
    """Dyadic shell sum at |xi|^(shift - n) for f, or for its derivative along k."""
    F = fourier.transform(member.f if k is None else member.derivs[k])
    return fourier.dyadic_shell_sum(F, shift - member.dim)


def _slab_sups(member):
    F = fourier.transform(member.f)
    return sum(fourier.sup_integral_functional(F, j) for j in range(member.dim))


def _cube_shells(member):
    return fourier.cube_shell_sum(fourier.transform(member.f))


def _norm_degree(n, text):
    """-n/p for a norm text, or -1/p_IN - (n-1)/p_OUT for Mix(k; IN; OUT)."""
    spec = parse_norm(text)
    if isinstance(spec, Mixed):
        return -1.0 / spec.inner.p - (n - 1) / spec.outer.p
    return -n / spec.p


# Degree d of each functional, given n and the resolved args: its value at
# x -> f(lam x) is lam^d times that at f.  Kept off the specs the pool pickles.
_DEGREES = {
    _norm: _norm_degree,
    **dict.fromkeys((_grad, _deriv_norms), lambda n, p: 1.0 - n / float(p)),
    **dict.fromkeys((_h1, _h1_sum, _slab_sups, _cube_shells), lambda n, *k: 1.0 - n),
    _besov: lambda n, alpha, theta, base, modulus=False, power=False:
        (float(alpha) + _norm_degree(n, base)) * (float(theta) if power else 1.0),
    _besov_sum: lambda n, alpha, theta, base: float(alpha) + _norm_degree(n, base),
    _weighted: lambda n, shift, k=None: shift - n + (k is not None),
    _weighted_sum: lambda n, shift: shift - n + 1.0,
    _shells: lambda n, shift, k=None: shift - n - 1.0 + (k is not None),
}


def _resolve(args, params):
    return tuple(a.format_map(params) if isinstance(a, str) else a for a in args)


def _side(member, terms, params):
    """Sum of the terms (functional, *args), in order; str args are templates."""
    return sum(_value(member, functional, *_resolve(args, params))
               for functional, *args in terms)


@dataclass(frozen=True)
class Sides:
    """An entry's evaluator as two sums of named functionals of the member.

    lhs and rhs are tuples of terms (functional, *args).  A str arg is a
    str.format template over the params a run is given, resolved per call,
    so a spec whose params are replaced evaluates the new ones.  balanced
    compares the degrees of the sides under f -> f(lam .) (_DEGREES).
    """

    lhs: tuple
    rhs: tuple

    def __call__(self, member: CorpusMember, params: dict) -> tuple[float, float]:
        return _side(member, self.lhs, params), _side(member, self.rhs, params)

    def balanced(self, dim: int, params: dict) -> bool:
        """Whether the sides agree in degree to 1e-12, or a side mixes two (diff)."""
        lhs, rhs = ([_DEGREES[functional](dim, *_resolve(args, params))
                     for functional, *args in side] for side in (self.lhs, self.rhs))
        one = max(lhs) - min(lhs) <= 1e-12 and max(rhs) - min(rhs) <= 1e-12
        return not one or abs(lhs[0] - rhs[0]) <= 1e-12


_EMBED1 = Sides(((_besov_sum, "{s}", "{p}", "Lor({q},{p})"),), ((_deriv_norms, "{p}"),))
_EMBED32 = Sides(((_besov_sum, "{alpha}", "{p}", "Mix(0;Leb({p});Lor({q},{p}))"),),
                 ((_deriv_norms, "{p}"),))


# ---------------------------------------------------------------------------
# validity windows
# ---------------------------------------------------------------------------


def _valid_always(dim, params):
    return True


def _valid_sobolev(dim, params):
    return dim >= 2 and 1 <= params["p"] < dim


def _valid_embed1(dim, params):
    p, q = params["p"], params["q"]
    if not ((p > 1 and dim >= 1) or (p == 1 and dim >= 2)):
        return False
    return p < q < math.inf and params["s"] > 0


def _valid_embed32(dim, params):
    p, q = params["p"], params["q"]
    if not ((p > 1 and dim >= 2) or (p == 1 and dim >= 3)):
        return False
    return p < q < math.inf and params["alpha"] > 0


def _valid_hardy_refined(dim, params):
    # the admissible window is 1 < q < (dim-1)/(dim-2), open-ended when dim == 2
    q = params["q"]
    return dim >= 2 and q > 1 and (dim == 2 or q < (dim - 1) / (dim - 2))


def _valid_ulyanov_pair(dim, params):
    p, q = params["p"], params["q"]
    return dim == 1 and 1 <= p < q < math.inf


def _valid_diff(dim, params):
    p, q = params["p"], params["q"]
    if not (1 <= p < q < math.inf and params["theta"] >= 1):
        return False
    # each side adds a norm to a seminorm of another degree, so the degree
    # check skips diff; beta balances the seminorm terms alone
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


def _valid_probe_embed32(dim, params):
    return dim == 2 and params["p"] == 1 and params["alpha"] > 0


def _valid_compare(dim, params):
    # the sides fix only s - alpha; each embedding's own sides pin s and alpha
    return _valid_embed1(dim, params) and _valid_embed32(dim, params) and \
        _EMBED1.balanced(dim, params) and _EMBED32.balanced(dim, params)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalitySpec:
    """One inequality: paired functionals plus its validity window.

    params maps each dimension the entry applies to onto its parameters,
    which construction checks (check).
    """

    id: str
    kind: str
    description: str
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
        for d in self.dims:
            self.check(d)

    def check(self, dim: int) -> None:
        """Raise ValueError unless params[dim] lie in the window and balance the Sides."""
        params = self.params[dim]
        if not (self.valid(dim, params) and
                (not isinstance(self.evaluate, Sides) or self.evaluate.balanced(dim, params))):
            raise ValueError(f"entry {self.id}: parameters for dim {dim} "
                             "fall outside the validity window")

    @property
    def dims(self) -> tuple[int, ...]:
        """The dimensions the entry applies to: the keys of params."""
        return tuple(self.params)


def registry() -> tuple[InequalitySpec, ...]:
    """All registered inequalities; ids are unique and stable."""
    simple_base = "Mix(0;Leb({r});Leb({p}))"
    strong_base = "Mix(0;Leb({r});Lor({p},{nu}))"
    hardy_refined = Sides(((_besov_sum, "{alpha}", "1.0", "Mix(0;Leb(1.0);Lor({q},1.0))"),),
                          ((_h1_sum,),))
    obertype = Sides(((_shells, 2),), ((_grad, "1.0"),))
    entries = [
        InequalitySpec(
            "hardy", "assert",
            "half-line averaging operator bound, constant 1/(1-lam)",
            {1: {"lam": 0.5, "p": 2.0}}, _eval_hardy,
            constant=2.0),
        InequalitySpec(
            "bound", "assert",
            "running average of the rearrangement in L^p, constant p/(p-1)",
            {1: {"p": 2.0}}, _eval_bound,
            constant=2.0, tolerance=1e-4),
        InequalitySpec(
            "ulyanov0", "assert",
            "rearrangement average gap vs. t^(-1/p) modulus, constant 2",
            {1: {"p": 2.0}}, _eval_ulyanov_pointwise,
            constant=2.0),
        InequalitySpec(
            "Ulyanov1", "assert",
            "rearrangement tail integral of the modulus, constant 2",
            {1: {"p": 1.0}}, _eval_ulyanov_tail,
            constant=2.0),
        InequalitySpec(
            "omega1", "assert",
            "modulus vs. averaged difference norms, constant 3",
            {1: {"base": "Leb(1)", "deltas": [0.5, 2.0, 8.0]}}, _eval_omega1,
            constant=3.0),
        InequalitySpec(
            "sob1", "report",
            "critical Lebesgue norm vs. gradient norm",
            {2: {"p": 1.0, "pstar": 2.0}},
            Sides(((_norm, "Leb({pstar})"),), ((_grad, "{p}"),)),
            valid=_valid_sobolev),
        InequalitySpec(
            "embed0", "report",
            "critical Lorentz norm vs. gradient norm",
            {2: {"p": 1.0, "pstar": 2.0}},
            Sides(((_norm, "Lor({pstar},{p})"),), ((_grad, "{p}"),)),
            valid=_valid_sobolev, dilation_sweep=True),
        InequalitySpec(
            "embed1", "report",
            "directional Lorentz-norm smoothness integrals vs. derivative norms",
            {1: {"p": 2.0, "q": 4.0, "s": 0.75},
                     2: {"p": 1.0, "q": 1.5, "s": 1.0 / 3.0}}, _EMBED1,
            valid=_valid_embed1, dilation_sweep=True),
        InequalitySpec(
            "embed32", "report",
            "directional mixed-norm smoothness integrals vs. derivative norms",
            {2: {"p": 1.5, "q": 2.5, "alpha": 1.0 - 1.0 / 1.5 + 1.0 / 2.5},
                     3: {"p": 1.0, "q": 1.5, "alpha": 1.0 / 3.0}}, _EMBED32,
            valid=_valid_embed32, dilation_sweep=True),
        InequalitySpec(
            "embed321", "report",
            "mixed-norm first-difference integrals vs. Riesz-augmented derivative norms",
            {2: {"q": 2.0, "alpha": 0.5}}, hardy_refined,
            valid=_valid_hardy_refined),
        InequalitySpec(
            "hardy1", "report",
            "mixed-norm first-difference integrals vs. Riesz-augmented derivative norms",
            {2: {"q": 3.0, "alpha": 1.0 / 3.0}}, hardy_refined,
            valid=_valid_hardy_refined),
        InequalitySpec(
            "Ulyanov2", "report",
            "L^q norm vs. weighted difference-norm integral",
            {1: {"p": 1.0, "q": 2.0}}, _eval_ulyanov2,
            valid=_valid_ulyanov_pair),
        InequalitySpec(
            "Ulyanov3", "report",
            "L^q modulus vs. truncated weighted difference-norm integral",
            {1: {"p": 1.0, "q": 2.0, "deltas": [0.5, 2.0]}}, _eval_ulyanov3,
            valid=_valid_ulyanov_pair),
        InequalitySpec(
            "diff", "report",
            "smoothness-graded norm embedding across Lebesgue exponents",
            {1: {"p": 1.0, "q": 2.0, "theta": 2.0, "alpha": 0.75,
                       "beta": 0.25}},
            Sides(((_norm, "Leb({q})"), (_besov_sum, "{beta}", "{theta}", "Leb({q})")),
                  ((_norm, "Leb({p})"), (_besov_sum, "{alpha}", "{theta}", "Leb({p})"))),
            valid=_valid_diff),
        InequalitySpec(
            "equivalence", "report",
            "modulus-built vs. difference-built smoothness integrals (ratio >= 1)",
            {2: {"alpha": 0.5, "theta": 2.0, "base": "Leb(2)"}},
            Sides(((_besov, "{alpha}", "{theta}", "{base}", True, True),),
                  ((_besov, "{alpha}", "{theta}", "{base}", False, True),))),
        InequalitySpec(
            "simple1", "report",
            "plain norm vs. modulus-graded mixed-norm class norm",
            {2: {"r": 1.0, "p": 2.0, "theta": 2.0, "alpha": 0.75}},
            Sides(((_norm, "Leb({p})"),),
                  ((_norm, simple_base), (_besov, "{alpha}", "{theta}", simple_base, True))),
            valid=_valid_simple),
        InequalitySpec(
            "simple2", "report",
            "difference-norm integrals: plain target vs. mixed-norm source",
            {2: {"r": 1.0, "p": 2.0, "theta": 2.0, "alpha": 0.75,
                       "beta": 0.25}},
            Sides(((_besov, "{beta}", "{theta}", "Leb({p})", False, True),),
                  ((_besov, "{alpha}", "{theta}", simple_base, False, True),)),
            valid=_valid_simple),
        InequalitySpec(
            "strong1", "report",
            "Lorentz norm vs. modulus-graded Lorentz-over-Lebesgue class norm",
            {2: {"r": 1.0, "p": 2.0, "nu": 1.5, "theta": 2.0,
                       "alpha": 0.75}},
            Sides(((_norm, "Lor({p},{nu})"),),
                  ((_norm, strong_base), (_besov, "{alpha}", "{theta}", strong_base, True))),
            valid=_valid_strong),
        InequalitySpec(
            "strong10", "report",
            "difference-norm integrals: Lorentz target vs. mixed source",
            {2: {"r": 1.0, "p": 2.0, "nu": 1.5, "theta": 2.0,
                       "alpha": 0.75, "beta": 0.25}},
            Sides(((_besov, "{beta}", "{theta}", "Lor({p},{nu})", False, True),),
                  ((_besov, "{alpha}", "{theta}", strong_base, False, True),)),
            valid=_valid_strong),
        InequalitySpec(
            "const1", "report",
            "Lorentz norm vs. iterated-rearrangement norm (nu <= p)",
            {2: {"p": 2.0, "nu": 1.0}},
            Sides(((_norm, "Lor({p},{nu})"),), ((_norm, "IterLor({p},{nu})"),)),
            valid=_valid_const1),
        InequalitySpec(
            "const2", "report",
            "iterated-rearrangement norm vs. Lorentz norm (p <= nu)",
            {2: {"p": 2.0, "nu": 3.0}},
            Sides(((_norm, "IterLor({p},{nu})"),), ((_norm, "Lor({p},{nu})"),)),
            valid=_valid_const2),
        InequalitySpec(
            "H_ineq", "report",
            "spectrum weighted by |xi|^(-n) vs. Riesz-augmented L1 norm",
            {2: {}, 3: {}}, Sides(((_weighted, 0, 0),), ((_h1, 0),))),
        InequalitySpec(
            "pelcz", "report",
            "spectrum weighted by |xi|^(1-n) vs. gradient L1 norm",
            {2: {}, 3: {}}, Sides(((_weighted, 1),), ((_grad, "1.0"),))),
        InequalitySpec(
            "pelcz1", "report",
            "derivative spectra weighted by |xi|^(-n) vs. derivative L1 norms",
            {2: {}, 3: {}},
            Sides(((_weighted_sum, 0),), ((_deriv_norms, "1.0"),))),
        InequalitySpec(
            "oberlin", "report",
            "dyadic shell sums of a mean-zero spectrum vs. Riesz-augmented L1 norm",
            {2: {}}, Sides(((_shells, 1, 0),), ((_h1, 0),))),
        InequalitySpec(
            "sup111", "report",
            "integrated running averages of slab sups vs. gradient L1 norm",
            {3: {}}, Sides(((_slab_sups,),), ((_grad, "1.0"),))),
        InequalitySpec(
            "supH", "report",
            "integrated running averages of slab sups vs. Riesz-augmented norms",
            {2: {}}, Sides(((_slab_sups,),), ((_h1_sum,),))),
        InequalitySpec(
            "obertype1", "report",
            "weighted dyadic shell sums of the spectrum vs. gradient L1 norm",
            {3: {}}, obertype),
        InequalitySpec(
            "obertype33", "report",
            "cube-face shell sums of the spectrum vs. gradient L1 norm",
            {3: {}}, Sides(((_cube_shells,),), ((_grad, "1.0"),))),
        InequalitySpec(
            "embed1_vs_embed32", "report",
            "plain-norm smoothness integrals vs. their mixed-norm refinement",
            {2: {"p": 1.5, "q": 2.0, "s": 1.0 - 2.0 * (1 / 1.5 - 0.5),
                       "alpha": 1.0 - (1 / 1.5 - 0.5)}},
            Sides(_EMBED1.lhs, _EMBED32.lhs),
            valid=_valid_compare),
        InequalitySpec(
            "embed32_n2_p1", "probe",
            "mixed-norm smoothness integrals at the open parameter corner",
            {2: {"p": 1.0, "q": 1.5, "alpha": 2.0 / 3.0}}, _EMBED32,
            valid=_valid_probe_embed32),
        InequalitySpec(
            "obertype_n2", "probe",
            "unweighted dyadic shell sums at the open dimension",
            {2: {}}, obertype),
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

    def to_dict(self) -> dict:
        """The fields by name, without dilation when there is none; nothing is copied."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.dilation is None:
            del d["dilation"]
        return d


def _log2_ratio(a: float, b: float) -> float:
    if a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b):
        return math.log2(a / b)
    return math.nan


def _evaluate(specs, dim, member):
    """Each entry's (lhs, rhs) on one sampled member."""
    return [spec.evaluate(member, spec.params[dim]) for spec in specs]


def _sweep(specs, dim, member):
    """The dilation sweep: the entries on member and on its copies dilated by 1/2 and 2.

    Returns one (fine, down, up) triple of (lhs, rhs) pairs per spec, for
    lam = 1, 1/2 and 2.  lam = 1 is member itself, so later entries share
    what it caches.  The copies (gridfn.dilate_member) share f's values, so
    all three share one memo of difference-norm reductions, and a copy only
    finishes what member reduced.  Each copy is dropped before the next one
    is built, and the memo before this returns.
    """
    if not specs:
        return []
    sides = []
    for lam in (1.0, 0.5, 2.0):
        copy = member if lam == 1.0 else dilate_member(member, lam)
        _share_reductions(copy.f, member.f)
        sides.append(_evaluate(specs, dim, copy))
        del copy
    _share_reductions(member.f, None)
    return list(zip(*sides))


def _evaluate_member(task):
    """Every entry's row for one member at both resolutions; pool-safe.

    Member-major: the member is sampled once per grid and every entry runs on
    that sample, so an entry reuses what an earlier one cached on it (the
    Fourier transforms of f and its derivatives).  The coarse sample is
    dropped before the fine one is drawn.  On the fine sample the sweep
    entries run first, with their dilated copies (_sweep), so the reduction
    memo is gone before any other entry computes a spectrum.  Returns one
    row per entry, in the order of the specs.
    """
    specs, dim, index, fam, grid = task
    coarse = _evaluate(specs, dim, sample_member(fam, grid))
    member = sample_member(fam, grid.refine())
    swept = iter(_sweep([spec for spec in specs if spec.dilation_sweep], dim, member))
    rest = iter(_evaluate([spec for spec in specs if not spec.dilation_sweep], dim, member))
    del member
    out = []
    for spec, (lc, rc) in zip(specs, coarse):
        if spec.dilation_sweep:
            (lf, rf), down, up = next(swept)
        else:
            lf, rf = next(rest)
        row = {
            "member": index, "family": fam.family,
            "lhs_coarse": float(lc), "rhs_coarse": float(rc),
            "lhs_fine": float(lf), "rhs_fine": float(rf),
            "ratio_coarse": float(empirical_ratio(lc, rc)),
            "ratio_fine": float(empirical_ratio(lf, rf)),
            "lhs_refinement": float(empirical_ratio(lf, lc)),
            "rhs_refinement": float(empirical_ratio(rf, rc)),
        }
        if spec.dilation_sweep:
            row["dilation_values"] = {
                "0.5": [float(v) for v in down],
                "2.0": [float(v) for v in up],
            }
            # [down-step, up-step]: log2 slopes over lam in {1/2, 1} and {1, 2}
            row["lhs_scaling_exponents"] = [_log2_ratio(lf, down[0]),
                                            _log2_ratio(up[0], lf)]
            row["rhs_scaling_exponents"] = [_log2_ratio(rf, down[1]),
                                            _log2_ratio(up[1], rf)]
        out.append(row)
    return out


def _map_tasks(tasks, jobs):
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(tasks) <= 1:
        return [_evaluate_member(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_evaluate_member, tasks))


def _drift(coarse: float, fine: float) -> float:
    """|fine / coarse - 1|; inf when either is not finite, even when both are inf."""
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return math.inf
    if coarse == fine:
        return 0.0
    if coarse == 0:
        return math.inf
    return abs(fine / coarse - 1.0)


def run(specs, dim: int, families, coarse_grid: GridSpec,
        jobs: int = 1) -> list[InequalityReport]:
    """Evaluate registry entries over one corpus at coarse_grid and its refinement.

    specs is a sequence of registry entries that all apply to dim, each
    checked again (InequalitySpec.check); one report per entry is returned,
    in the same order.  The loop is member-major: each member is sampled
    once on the coarse grid and every entry runs on that sample, then once
    on the fine grid.  With jobs > 1 the members are spread over one process pool.

    Entries with dilation_sweep also run on two rescaled copies of the fine
    sample, for x -> lam x with lam = 1/2 and 2: the same samples on the box
    scaled by 1/lam, with derivatives lam * d_k f (gridfn.dilate_member).
    The sweep measures the declared degrees (InequalitySpec.check) numerically:
    the log2 slopes of both sides must match.  On these bit-identical
    samples it measures no discretization error; the coarse/fine drift does.
    """
    specs = list(specs)
    for spec in specs:
        if dim not in spec.dims:
            raise ValueError(f"entry {spec.id} does not apply to dim {dim}")
        spec.check(dim)
    if not specs:
        return []
    tasks = [(specs, dim, i, fam, coarse_grid) for i, fam in enumerate(families)]
    members = _map_tasks(tasks, jobs)
    return [_report(spec, dim, [m[k] for m in members]) for k, spec in enumerate(specs)]


def _report(spec: InequalitySpec, dim: int, rows: list) -> InequalityReport:
    """One entry's verdict, drift and dilation summary from its rows."""
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
                    "max_exponent_gap": float(worst_gap),
                    "matched": worst_gap <= DILATION_TOL}

    return InequalityReport(
        id=spec.id, dim=dim, kind=spec.kind, params=dict(spec.params[dim]),
        constant=spec.constant, tolerance=spec.tolerance, rows=rows,
        max_ratio_coarse=float(max_c), max_ratio_fine=float(max_f),
        empirical_constant=float(max_f), refinement_drift=float(drift),
        stable=drift <= DRIFT_GATE, passed=passed, failures=failures,
        dilation=dilation)


def run_all(ids=None, corpora=None, jobs: int = 1):
    """Run registry entries over per-dimension corpora.

    corpora maps dim -> (families, coarse GridSpec); the default corpora are
    drawn from DEFAULT_SEED.  Each dimension is one run() call: one
    member-major pass and at most one process pool.  Probe entries are included as evidence
    rows (they cannot fail); their escalation sweeps live in probe().
    Returns (reports, metadata); reports are sorted by (id, dim) and
    deterministic.  Only the timestamp lives in metadata: anything else
    would break the byte-identity of repeated runs.
    """
    if corpora is None:
        corpora = {d: (default_families(d), default_grid(d))
                   for d in (1, 2, 3)}
    specs = registry()
    if ids is not None:
        unknown = set(ids) - {e.id for e in specs}
        if unknown:
            raise ValueError(f"unknown registry ids: {sorted(unknown)}")
        specs = [e for e in specs if e.id in set(ids)]
    reports = []
    for dim in sorted(corpora):
        chosen = sorted((e for e in specs if dim in e.dims), key=lambda e: e.id)
        if chosen:
            families, grid = corpora[dim]
            # positional up to coarse_grid: perfbench/tracing.py hooks run by position
            reports.extend(run(chosen, dim, families, grid, jobs=jobs))
    reports.sort(key=lambda r: (r.id, r.dim))
    metadata = {"timestamp": datetime.now(timezone.utc).isoformat()}
    return reports, metadata


def save_report(path, reports, metadata) -> dict:
    """Write the report JSON; everything outside "metadata" is deterministic."""
    doc = {
        "format_version": FORMAT_VERSION,
        "reports": [r.to_dict() for r in reports],
        "metadata": metadata,
    }
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2,
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
    if fam.family == "windowed_trig":
        return dataclasses.replace(fam, freq=tuple(v * factor for v in fam.freq))
    if fam.family in ("mollified_cone", "mollified_indicator"):
        return dataclasses.replace(fam, moll_width=fam.moll_width / factor)
    return dataclasses.replace(fam, width=tuple(w / factor for w in fam.width))


def probe(question: str, depth: int = 2, jobs: int = 1) -> dict:
    """Evidence sweep for an open question; never asserts a direction.

    Evaluates the question's functional pair on the default corpus of its
    dimension (level 0) and on escalating sharpened variants (levels
    1..depth), recording the maximum ratio per level and whether the
    sequence is monotone nondecreasing.
    """
    spec = registry_map().get(question)
    if spec is None or spec.kind != "probe":
        known = sorted(e.id for e in registry() if e.kind == "probe")
        raise ValueError(f"unknown probe {question!r}; available: {known}")
    dim = spec.dims[0]
    families, grid = default_families(dim), default_grid(dim)
    started = time.perf_counter()
    levels = []
    for level in range(depth + 1):
        fams = [escalate_family(f, level) for f in families]
        rows = run([spec], dim, fams, grid, jobs=jobs)[0].rows
        ratios = [r["ratio_fine"] for r in rows]
        levels.append({
            "level": level,
            "max_ratio": float(max(ratios, default=0.0)),
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
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc

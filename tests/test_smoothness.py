"""Differences, moduli, Besov-type seminorms, and the 1-d pointwise estimates."""

import math

import numpy as np
import pytest

from ineqkit import smoothness
from ineqkit.gridfn import FamilySpec, GridFunction, GridSpec, sample_member
from ineqkit.norms import (IteratedLorentz, Lebesgue, Mixed, lp_norm, norm_of_values,
                           parse_norm)
from ineqkit.smoothness import (BesovSpec, besov_seminorm, difference,
                                difference_norms, modulus, ulyanov_pointwise,
                                ulyanov_tail)
from ineqkit.gridfn import dilate_family, dilate_member

from conftest import SEED, sampled_corpus


def manual_difference(values, m):
    """Zero-padded shift minus identity along axis 0, m any sign."""
    shifted = np.zeros_like(values)
    n = values.shape[0]
    if m >= 0:
        shifted[:n - m] = values[m:]
    else:
        shifted[-m:] = values[:n + m]
    return shifted - values


def test_difference_matches_manual_shift(corpus1):
    f = corpus1[0].f
    step = f.spec.spacing[0]
    for m in (1, 5, -3):
        d = difference(f, 0, m * step)
        assert np.array_equal(d.values, manual_difference(f.values, m))


def test_difference_rejects_off_grid_shift(corpus1):
    f = corpus1[0].f
    step = f.spec.spacing[0]
    with pytest.raises(ValueError):
        difference(f, 0, 0.4 * step)
    for h in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            difference(f, 0, h)


def test_difference_beyond_box_is_negation(corpus1):
    f = corpus1[0].f
    n = f.spec.points[0]
    d = difference(f, 0, n * f.spec.spacing[0])
    assert np.array_equal(d.values, -f.values)


def test_difference_norms_batch(corpus1):
    f = corpus1[1].f
    base = Lebesgue(2.0)
    ms = np.array([0, 1, 4])
    vals = difference_norms(f, 0, ms, base)
    assert vals[0] == 0.0
    step = f.spec.spacing[0]
    for m, v in zip(ms[1:], vals[1:]):
        assert v == pytest.approx(lp_norm(difference(f, 0, m * step), 2.0),
                                  rel=1e-12)


def _naive_difference_norms(f, axis, multiples, base):
    """Reference loop: zero-filled shift, full subtraction, one norm per shift."""
    vals = f.values
    n = vals.shape[axis]
    out = np.empty(len(multiples))
    for i, m in enumerate(multiples):
        m = int(m)
        shifted = np.zeros_like(vals)
        if 0 < abs(m) < n:
            src = [slice(None)] * vals.ndim
            dst = [slice(None)] * vals.ndim
            if m > 0:
                dst[axis], src[axis] = slice(0, n - m), slice(m, n)
            else:
                dst[axis], src[axis] = slice(-m, n), slice(0, n + m)
            shifted[tuple(dst)] = vals[tuple(src)]
        out[i] = norm_of_values(shifted - vals, f.spec, base) if m else 0.0
    return out


def _oracle_shifts(n):
    return np.array([0, 1, -1, n - 1, 1 - n, n, -n, 2 * n, -2 * n, 3, -5])


def _reuse_shifts(n):
    # each shift's tail lies where the previous shift wrote its overlap
    return np.array([1, -(n - 1), n - 1, -1, n, -2 * n, 0])


def _oracle_bases(dim):
    texts = ["Leb(1)", "Leb(1.5)", "Leb(2)", "Lor(1.5,1)", "Lor(2,0.5)"]
    if dim > 1:
        for k in range(dim):
            texts += [f"Mix({k};Leb(1);Lor(1.5,1))", f"Mix({k};Lor(1.5,1);Leb(1))",
                      # exponents that numpy raises with its vectorised power
                      f"Mix({k};Leb(1.5);Lor(2,1.5))", f"Mix({k};Lor(2,1.5);Leb(1.5))"]
    return texts


def _support_cases(grid):
    """Members whose support box is empty, one corner cell, or reaches the box edge."""
    rng = np.random.default_rng(SEED)
    n = grid.points
    corner = np.zeros(grid.shape)
    corner[tuple(k - 1 for k in n)] = 1.7
    edge = np.zeros(grid.shape)
    # from the first cell on axis 0 to the last one on the last axis
    block = [slice(k // 4, k - k // 3) for k in n]
    block[0], block[-1] = slice(0, n[0] // 3), slice(n[-1] - n[-1] // 4, n[-1])
    edge[tuple(block)] = rng.standard_normal(edge[tuple(block)].shape)
    return [GridFunction(grid, np.zeros(grid.shape)), GridFunction(grid, corner),
            GridFunction(grid, edge)]


@pytest.mark.parametrize("grid, bases", [
    # 512 points: the in-box shifts span several batches of the 1-d kernel
    (grid, _oracle_bases(grid.dim))
    for grid in (GridSpec.box(1, 8.0, 512), GridSpec.box(2, 4.0, 32), GridSpec.box(3, 4.0, 16))
])
def test_difference_norms_match_naive_loop(grid, bases):
    # the six families: compact members crop to their support, Gaussians do not
    fs = [member.f for member in sampled_corpus(SEED, 6, grid)] + _support_cases(grid)
    for text in bases:
        base = parse_norm(text)
        for f in fs:
            for axis in range(grid.dim):
                n = grid.points[axis]
                seqs = [_reuse_shifts(n)]
                seqs.append(np.arange(-2 * n, 2 * n + 1) if grid.dim == 1 else _oracle_shifts(n))
                for ms in seqs:
                    got = difference_norms(f, axis, ms, base)
                    want = _naive_difference_norms(f, axis, ms, base)
                    assert np.array_equal(got, want), f"{text} axis {axis} shifts {ms}"


@pytest.mark.parametrize("grid", [GridSpec.box(1, 8.0, 128), GridSpec.box(2, 4.0, 16),
                                  GridSpec.box(3, 4.0, 8)])
def test_difference_norms_from_a_shared_memo_match_fresh_calls(grid):
    # the dilation sweep's memo: the fine sample reduces each shift once, and
    # its rescaled copies only finish those reductions on their own grids
    texts = ["Leb(1)", "Leb(1.5)", "Lor(1.5,1)", "Lor(2,0.5)"]
    if grid.dim > 1:
        texts += [f"Mix({k};{inner};{outer})" for k in range(grid.dim)
                  for inner, outer in (("Leb(1)", "Lor(1.5,1)"), ("Lor(2,1.5)", "Leb(1.5)"))]
    bases = [parse_norm(text) for text in texts]
    for member in sampled_corpus(SEED, 6, grid):
        for lam in (1.0, 0.5, 2.0):
            # lam = 1 is the fine sample itself; each fresh copy has no memo
            copy = member if lam == 1.0 else dilate_member(member, lam)
            smoothness._share_reductions(copy.f, member.f)
            memo = vars(copy.f)["_reductions"]
            entries = sum(map(len, memo.values()))
            for base in bases:
                for axis in range(grid.dim):
                    n = grid.points[axis]
                    ms = [0, 1, -1, n - 1, 1 - n, n, -n, 2 * n]
                    got = difference_norms(copy.f, axis, ms, base)
                    want = difference_norms(dilate_member(member, lam).f, axis, ms, base)
                    assert np.array_equal(got, want), f"{base} axis {axis} lam {lam}"
            assert (sum(map(len, memo.values())) > entries) == (lam == 1.0)
        assert memo is vars(member.f)["_reductions"]
        smoothness._share_reductions(member.f, None)
        assert "_reductions" not in vars(member.f)
        other = sampled_corpus(SEED + 1, 1, grid)[0].f
        with pytest.raises(ValueError, match="one values array"):
            smoothness._share_reductions(other, member.f)


def _moveaxis_difference(values, axis, m):
    """Reference: overlap subtraction and tail fill on the axis moved to the front."""
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


@pytest.mark.parametrize("shape", [(7, 5), (6, 5, 4)])
def test_difference_values_match_moveaxis_oracle(shape):
    rng = np.random.default_rng(SEED)
    real = rng.standard_normal(shape)
    # C-contiguous, as GridFunction stores its values
    for values in (real, real + 1j * rng.standard_normal(shape)):
        for axis, n in enumerate(shape):
            for m in (1, -1, n - 1, 1 - n, n, -n, 2 * n, -2 * n):
                want = _moveaxis_difference(values, axis, m)
                assert np.array_equal(smoothness._difference_values(values, axis, m), want)
                # a reused buffer: every element is overwritten
                out = np.full_like(values, np.nan)
                assert smoothness._difference_values(values, axis, m, out=out) is out
                assert np.array_equal(out, want)


def test_difference_norms_leave_values_unchanged(corpus1, corpus3):
    for f, base in ((corpus1[0].f, "Leb(1)"), (corpus1[0].f, "Lor(1.5,1)"),
                    (corpus3[0].f, "Mix(1;Leb(1);Lor(1.5,1))")):
        before = f.values.copy()
        difference_norms(f, 0, _reuse_shifts(f.spec.points[0]), parse_norm(base))
        assert np.array_equal(f.values, before)


def test_difference_norms_batch_boundary(corpus1, monkeypatch):
    # a batch of 7 rows: the 2(N - 1) in-box shifts end mid-batch
    monkeypatch.setattr(smoothness, "_BATCH_ELEMENTS", 7 * corpus1[0].grid.points[0])
    f = corpus1[4].f
    ms = np.arange(-300, 301)
    for p in (1.0, 2.0):
        got = difference_norms(f, 0, ms, Lebesgue(p))
        assert np.array_equal(got, _naive_difference_norms(f, 0, ms, Lebesgue(p)))


def test_difference_norms_reject_bad_input(corpus1, corpus2):
    f = corpus1[0].f
    with pytest.raises(ValueError):
        difference_norms(f, 0, [1.5], Lebesgue(1.0))
    with pytest.raises(ValueError):
        difference_norms(f, 0, [np.nan], Lebesgue(1.0))
    for axis in (-1, 1):
        with pytest.raises(ValueError):
            difference_norms(f, axis, [1], Lebesgue(1.0))
    with pytest.raises(ValueError):
        difference_norms(corpus2[0].f, 2, [1], Lebesgue(1.0))
    # the base is checked whatever the shifts, with norm_of_values' errors
    for ms in ([0], [1]):
        with pytest.raises(ValueError, match="mixed norms need dim >= 2"):
            difference_norms(f, 0, ms, Mixed(0, Lebesgue(1.0), Lebesgue(1.0)))
        # a norm text is parsed by the caller (parse_norm), not here
        for base in (IteratedLorentz(2.0, 1.0), "Leb(1)"):
            with pytest.raises(TypeError, match="unsupported norm spec"):
                difference_norms(f, 0, ms, base)
        with pytest.raises(ValueError, match="out of range"):
            difference_norms(corpus2[0].f, 0, ms, Mixed(2, Lebesgue(1.0), Lebesgue(1.0)))
    with pytest.raises(TypeError, match="unsupported norm spec"):
        norm_of_values(f.values, f.spec, "Leb(1)")
    with pytest.raises(TypeError, match="unsupported norm spec"):
        besov_seminorm(f, BesovSpec(0.5, 2.0, 0, "Leb(1)"), deriv=corpus1[0].derivs[0])
    # multiples are a nonempty 1-d integer array: integral floats are not
    for ms in ([2.0, -3.0], [], np.array([], dtype=int), [[1]], [True]):
        with pytest.raises(ValueError, match="nonempty 1-d array of integers"):
            difference_norms(f, 0, ms, Lebesgue(1.0))


@pytest.mark.parametrize("dim,base", [(1, "Leb(1)"), (2, "Lor(1.5,1)")])
def test_difference_norms_cap_huge_multiples_at_the_box(dim, base):
    # every |m| >= N has the shift-N norm, the norm of f; a uint64 past 2^63
    # and the int64 minimum must not wrap into the box when cast to int64
    grid = GridSpec.box(dim, 4.0, 16)
    f = GridFunction(grid, np.exp(-math.pi * sum(x ** 2 for x in grid.meshgrid())))
    base = parse_norm(base)
    want = difference_norms(f, 0, np.array([16]), base)
    assert want[0] == pytest.approx(norm_of_values(f.values, grid, base), rel=1e-12)
    for ms in (np.array([2 ** 64 - 1], dtype=np.uint64), np.array([2 ** 63], dtype=np.uint64),
               np.array([-2 ** 63], dtype=np.int64), np.array([-128, 127], dtype=np.int8)):
        got = difference_norms(f, 0, ms, base)
        assert np.array_equal(got, np.repeat(want, ms.size)), ms


def test_modulus_cost_is_capped_at_the_box(corpus1, monkeypatch):
    f = corpus1[2].f
    n, step = f.spec.points[0], f.spec.spacing[0]
    base = Lebesgue(1.0)
    shifts = []

    def counting(g, axis, multiples, b):
        shifts.append(len(multiples))
        return difference_norms(g, axis, multiples, b)

    monkeypatch.setattr(smoothness, "difference_norms", counting)
    far = modulus(f, 0, 1e6 * f.spec.half_extents[0], base)
    assert 0 < sum(shifts) <= 2 * n
    assert far == modulus(f, 0, n * step, base)


def test_modulus_rejects_bad_axis(corpus1, corpus2):
    for f in (corpus1[0].f, corpus2[0].f):
        for axis in (1.0, -1, f.spec.dim):
            for t in (0.0, 1.0):
                with pytest.raises(ValueError, match="out of range"):
                    modulus(f, axis, t, Lebesgue(1.0))
            with pytest.raises(ValueError, match="out of range"):
                difference(f, axis, 0.0)
            with pytest.raises(ValueError, match="out of range"):
                difference_norms(f, axis, [1], Lebesgue(1.0))


def test_nonfinite_radii(corpus1):
    f = corpus1[2].f
    base = Lebesgue(1.0)
    # the modulus is constant from t = N h on, so t = inf gives the capped value
    assert modulus(f, 0, math.inf, base) == modulus(f, 0, 1e6, base) > 0.0
    # the running average and t^(-1/p) both vanish at t = inf
    for fn in (ulyanov_pointwise, ulyanov_tail):
        assert [side.tolist() for side in fn(f, 1.0, [math.inf])] == [[0.0], [0.0]]
    with pytest.raises(ValueError, match="NaN"):
        modulus(f, 0, math.nan, base)
    for fn in (ulyanov_tail, ulyanov_pointwise):
        for bad in ([math.nan], [1.0, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                fn(f, 1.0, bad)


def test_modulus_basics(corpus1):
    f = corpus1[2].f
    base = Lebesgue(1.0)
    assert modulus(f, 0, 0.0, base) == 0.0
    ts = np.linspace(0.1, 6.0, 12)
    vals = [modulus(f, 0, t, base) for t in ts]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
    # the modulus never exceeds twice the norm
    assert vals[-1] <= 2.0 * lp_norm(f, 1) * (1.0 + 1e-12)


def test_besov_spec_validation():
    with pytest.raises(ValueError):
        BesovSpec(0.0, 2.0, 0, Lebesgue(2.0))
    with pytest.raises(ValueError):
        BesovSpec(0.5, 0.5, 0, Lebesgue(2.0))
    for h in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="h_max must be finite and positive"):
            BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), h_max=h)
    # the quadrature step is DEFAULT_RATIO and the window starts at the spacing
    for option in ("ratio", "h_min"):
        with pytest.raises(TypeError):
            BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), **{option: 1.5})


def test_besov_seminorm_rejects_empty_resolved_window(corpus1):
    member = corpus1[0]
    step = member.grid.spacing[0]
    # the window starts at the spacing
    for spec in (BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), h_max=step / 2),
                 BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), h_max=step)):
        with pytest.raises(ValueError, match="is empty"):
            besov_seminorm(member.f, spec, deriv=member.derivs[0])
    window = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), h_max=0.5)
    assert np.isfinite(besov_seminorm(member.f, window, deriv=member.derivs[0]))


def test_besov_zero_function():
    grid = GridSpec.box(1, 4.0, 64)
    z = GridFunction(grid, np.zeros(grid.shape))
    spec = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
    assert besov_seminorm(z, spec, deriv=z) == 0.0


def test_besov_dilation_covariance(corpus1):
    # f(lam x) on the 1/lam box: exact covariance lam^(alpha - n/p) because
    # the snapped h-grid rescales with the spacing
    member = corpus1[0]
    alpha, p = 0.5, 2.0
    spec = BesovSpec(alpha, 2.0, 0, Lebesgue(p))
    base_val = besov_seminorm(member.f, spec, deriv=member.derivs[0])
    for lam in (0.5, 2.0):
        shrunk = GridSpec(1, (member.grid.half_extents[0] / lam,),
                          member.grid.points)
        dil = sample_member(dilate_family(member.family, lam), shrunk)
        val = besov_seminorm(dil.f, spec, deriv=dil.derivs[0])
        assert val == pytest.approx(lam ** (alpha - 1.0 / p) * base_val,
                                    rel=1e-10)


def test_besov_quadrature_self_convergence(corpus1, monkeypatch):
    # halving the log step moves the value by well under 1%
    member = corpus1[0]
    spec = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
    values = []
    for ratio in (2.0 ** 0.25, 2.0 ** 0.125):
        monkeypatch.setattr(smoothness, "DEFAULT_RATIO", ratio)
        values.append(besov_seminorm(member.f, spec, deriv=member.derivs[0]))
    assert values[0] == pytest.approx(values[1], rel=1e-2)
    assert values[0] != values[1]  # the step reached the quadrature


def test_besov_completion_terms_are_additive(corpus1):
    member = corpus1[3]
    spec = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
    full = besov_seminorm(member.f, spec, deriv=member.derivs[0])
    # a zero derivative makes the small-h completion exactly 0
    zero = GridFunction(member.grid, np.zeros(member.grid.shape))
    no_lower = besov_seminorm(member.f, spec, deriv=zero)
    no_tails = besov_seminorm(member.f, spec, deriv=zero, upper_tail=False)
    assert full > no_lower > no_tails > 0.0
    with pytest.raises(TypeError):
        besov_seminorm(member.f, spec)  # the derivative is not optional


def test_besov_modulus_variant_dominates(corpus1):
    # omega >= |Delta| termwise, so the omega-based seminorm is the larger
    for member in corpus1[:4]:
        plain = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
        strong = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), use_modulus=True)
        a = besov_seminorm(member.f, plain, deriv=member.derivs[0])
        b = besov_seminorm(member.f, strong, deriv=member.derivs[0])
        assert b >= a * (1.0 - 1e-12)


@pytest.fixture(scope="module")
def plateau(grid1):
    fam = FamilySpec("mollified_indicator", 1, 1.0, (0.5,), (1.2,),
                     moll_width=1.0)
    return sample_member(fam, grid1)


def test_ulyanov_pointwise_cases(plateau):
    # t = 4 lands inside the taper, past the flat top of the profile; on the
    # flat top (t = 1) the average equals the profile, so the gap vanishes;
    # below one cell both sides vanish
    tiny = plateau.grid.spacing[0] / 2.0
    lhs, rhs = ulyanov_pointwise(plateau.f, 1.0, [4.0, 1.0, tiny])
    assert 0.0 < lhs[0] <= rhs[0]
    assert (lhs[1:].tolist(), rhs[1:].tolist()) == ([0.0, 0.0], [4.0, 0.0])
    z = GridFunction(plateau.grid, np.zeros(plateau.grid.shape))
    assert [side.tolist() for side in ulyanov_pointwise(z, 2.0, [1.0])] == [[0.0], [0.0]]
    with pytest.raises(ValueError):
        ulyanov_pointwise(plateau.f, 1.0, [0.0])


def test_ulyanov_tail_cases(plateau):
    lhs, rhs = ulyanov_tail(plateau.f, 1.0, [0.5, 2.0])
    assert np.isfinite(rhs[0]) and 0.0 <= lhs[0] <= rhs[0]
    # rhs shrinks as the integration window shrinks
    assert rhs[1] <= rhs[0] * (1.0 + 1e-12)
    z = GridFunction(plateau.grid, np.zeros(plateau.grid.shape))
    assert [side.tolist() for side in ulyanov_tail(z, 2.0, [1.0])] == [[0.0], [0.0]]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_ulyanov_array_t_matches_per_t_calls(corpus1, p):
    for member in corpus1[:6]:
        f = member.f
        ts = np.geomspace(4.0 * f.spec.spacing[0], 40.0, 8)
        for fn in (ulyanov_tail, ulyanov_pointwise):
            lhs, rhs = fn(f, p, ts)
            loop = [fn(f, p, ts[i:i + 1]) for i in range(ts.size)]
            # one table for all t is a prefix of each per-t table: exact
            assert lhs.tolist() == [pair[0].item() for pair in loop]
            assert rhs.tolist() == [pair[1].item() for pair in loop]


def test_ulyanov_rejects_bad_t(corpus1):
    f = corpus1[0].f
    for fn in (ulyanov_tail, ulyanov_pointwise):
        # t is a 1-d array of positive measures; a scalar is not one
        for bad in ([0.0], [-1.0], [1.0, 0.0], np.ones((2, 2)), 1.0):
            with pytest.raises(ValueError):
                fn(f, 2.0, bad)

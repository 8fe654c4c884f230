"""Differences, moduli, Besov-type seminorms, and the 1-d pointwise estimates."""

import numpy as np
import pytest

from ineqkit import smoothness
from ineqkit.gridfn import FamilySpec, GridFunction, GridSpec, corpus_generate, sample_member
from ineqkit.norms import Lebesgue, lp_norm, norm_of_values, parse_norm
from ineqkit.smoothness import (BesovSpec, besov_seminorm, difference,
                                difference_norms, modulus, ulyanov_pointwise,
                                ulyanov_tail)
from ineqkit.gridfn import dilate_family

from conftest import SEED


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


@pytest.mark.parametrize("grid, bases", [
    # 512 points: the in-box shifts span several batches of the 1-d kernel
    (GridSpec.box(1, 8.0, 512), ["Leb(1)", "Leb(2)", "Lor(1.5,1)"]),
    (GridSpec.box(2, 4.0, 16), ["Leb(1)", "Leb(2)", "Lor(1.5,1)",
                                "Mix(0;Leb(1);Lor(1.5,1))", "Mix(1;Leb(1);Lor(1.5,1))"]),
    (GridSpec.box(3, 4.0, 8), ["Leb(1)", "Leb(2)", "Lor(1.5,1)",
                               "Mix(0;Leb(1);Lor(1.5,1))", "Mix(2;Leb(1);Lor(1.5,1))"]),
])
def test_difference_norms_match_naive_loop(grid, bases):
    members = corpus_generate(SEED, 3, grid)
    for text in bases:
        base = parse_norm(text)
        for member in members:
            for axis in range(grid.dim):
                n = grid.points[axis]
                ms = np.arange(-2 * n, 2 * n + 1) if grid.dim == 1 else _oracle_shifts(n)
                got = difference_norms(member.f, axis, ms, base)
                want = _naive_difference_norms(member.f, axis, ms, base)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                           err_msg=f"{text} axis {axis}")


def test_difference_norms_batch_boundary(corpus1, monkeypatch):
    # a batch of 7 rows: the 2(N - 1) in-box shifts end mid-batch
    monkeypatch.setattr(smoothness, "_BATCH_ELEMENTS", 7 * corpus1[0].grid.points[0])
    f = corpus1[4].f
    ms = np.arange(-300, 301)
    for p in (1.0, 2.0):
        got = difference_norms(f, 0, ms, Lebesgue(p))
        want = _naive_difference_norms(f, 0, ms, Lebesgue(p))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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
    # integral floats are integer multiples
    assert np.array_equal(difference_norms(f, 0, [2.0, -3.0], Lebesgue(1.0)),
                          difference_norms(f, 0, [2, -3], Lebesgue(1.0)))


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
    with pytest.raises(ValueError):
        BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), ratio=2.5)
    spec = BesovSpec(0.5, 2.0, 0, "Lor(2,1)")
    assert spec.base.p == 2.0


def test_besov_zero_function():
    grid = GridSpec.box(1, 4.0, 64)
    z = GridFunction(grid, np.zeros(grid.shape))
    spec = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
    assert besov_seminorm(z, spec) == 0.0


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


def test_besov_quadrature_self_convergence(corpus1):
    # halving the log step moves the value by well under 1%
    member = corpus1[0]
    coarse = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), ratio=2.0 ** 0.25)
    fine = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), ratio=2.0 ** 0.125)
    a = besov_seminorm(member.f, coarse, deriv=member.derivs[0])
    b = besov_seminorm(member.f, fine, deriv=member.derivs[0])
    assert a == pytest.approx(b, rel=1e-2)


def test_besov_completion_terms_are_additive(corpus1):
    member = corpus1[3]
    spec = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
    full = besov_seminorm(member.f, spec, deriv=member.derivs[0])
    no_lower = besov_seminorm(member.f, spec)
    no_tails = besov_seminorm(member.f, spec, lower_tail=False,
                              upper_tail=False)
    assert full >= no_lower >= no_tails >= 0.0


def test_besov_modulus_variant_dominates(corpus1):
    # omega >= |Delta| termwise, so the omega-based seminorm is the larger
    for member in corpus1[:4]:
        plain = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0))
        strong = BesovSpec(0.5, 2.0, 0, Lebesgue(2.0), use_modulus=True)
        a = besov_seminorm(member.f, plain, lower_tail=False)
        b = besov_seminorm(member.f, strong, lower_tail=False)
        assert b >= a * (1.0 - 1e-12)


@pytest.fixture(scope="module")
def plateau(grid1):
    fam = FamilySpec("mollified_indicator", 1, 1.0, (0.5,), (1.2,),
                     moll_width=1.0)
    return sample_member(fam, grid1)


def test_ulyanov_pointwise_cases(plateau):
    # t = 4 lands inside the taper, past the flat top of the profile
    lhs, rhs = ulyanov_pointwise(plateau.f, 1.0, 4.0)
    assert 0.0 < lhs <= rhs
    # on the flat top the average equals the profile: the gap vanishes
    assert ulyanov_pointwise(plateau.f, 1.0, 1.0) == (0.0, 4.0)
    # below one cell both sides vanish
    tiny = plateau.grid.spacing[0] / 2.0
    assert ulyanov_pointwise(plateau.f, 1.0, tiny) == (0.0, 0.0)
    z = GridFunction(plateau.grid, np.zeros(plateau.grid.shape))
    assert ulyanov_pointwise(z, 2.0, 1.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        ulyanov_pointwise(plateau.f, 1.0, 0.0)


def test_ulyanov_tail_cases(plateau):
    lhs, rhs = ulyanov_tail(plateau.f, 1.0, 0.5)
    assert np.isfinite(rhs) and 0.0 <= lhs <= rhs
    # rhs shrinks as the integration window shrinks
    rhs_later = ulyanov_tail(plateau.f, 1.0, 2.0)[1]
    assert rhs_later <= rhs * (1.0 + 1e-12)
    z = GridFunction(plateau.grid, np.zeros(plateau.grid.shape))
    assert ulyanov_tail(z, 2.0, 1.0) == (0.0, 0.0)

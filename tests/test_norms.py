"""Norm grammar, Lorentz closed forms, and the mixed/iterated norm oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqkit import norms
from ineqkit.gridfn import GridFunction, GridSpec
from ineqkit.norms import (IteratedLorentz, Lebesgue, Lorentz, Mixed,
                           iterated_lorentz_norm, lp_norm, mixed_norm, norm,
                           norm_of_values, parse_norm)

from conftest import two_level_function


# -- grammar -----------------------------------------------------------------


@pytest.mark.parametrize("text,spec", [
    pytest.param("Leb(2)", Lebesgue(2.0), id="Leb(2)"),
    pytest.param("Leb(1.5)", Lebesgue(1.5), id="Leb(1.5)"),
    pytest.param("Lor(2,1)", Lorentz(2.0, 1.0), id="Lor(2,1)"),
    pytest.param("IterLor(2.5,1)", IteratedLorentz(2.5, 1.0), id="IterLor(2.5,1)"),
    pytest.param("Mix(0;Leb(1);Lor(2,1))", Mixed(0, Lebesgue(1.0), Lorentz(2.0, 1.0)),
                 id="Mix(0;Leb(1);Lor(2,1))"),
    pytest.param("Mix(1;Lor(2,2);Leb(3))", Mixed(1, Lorentz(2.0, 2.0), Lebesgue(3.0)),
                 id="Mix(1;Lor(2,2);Leb(3))"),
])
def test_parse_format_roundtrip(text, spec):
    # the text a registry entry writes parses to the spec it spells
    assert parse_norm(text) == spec


@pytest.mark.parametrize("text", [
    "", "Leb", "Leb()", "Leb(0.5)", "Lor(2)", "Lor(2,0)", "Banana(2)",
    "Mix(0;Leb(1))", "Mix(0;Mix(0;Leb(1);Leb(1));Leb(1))", "Leb(2) trailing",
    # a fractional axis is not truncated to an integer one
    "Mix(1.5;Leb(1);Leb(2))", "Mix(0.9;Leb(1);Leb(2))",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_norm(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        Lebesgue(0.0)
    with pytest.raises(ValueError):
        Lorentz(2.0, -1.0)
    with pytest.raises(ValueError):
        IteratedLorentz(0.5, 1.0)


def test_mixed_checks_its_axis_like_the_grid_functions():
    # a fractional or boolean axis is rejected at construction, not by a
    # TypeError deep in the first evaluation; numpy integers pass
    for axis in (0.5, 1.0, False, -1):
        with pytest.raises(ValueError, match="out of range"):
            Mixed(axis, Lebesgue(1.0), Lebesgue(2.0))
    assert Mixed(np.int64(1), Lebesgue(1.0), Lebesgue(2.0)).axis == 1


# -- Lorentz closed forms ----------------------------------------------------


def test_lorentz_collapses_to_lebesgue(corpus1, corpus2):
    for member in corpus1[:5] + corpus2[:3]:
        for p in (1.0, 2.0, 3.5):
            assert norm(member.f, Lorentz(p, p)) == pytest.approx(
                lp_norm(member.f, p), rel=1e-12)


def test_lorentz_two_level_oracle(grid1):
    # f* = 3 on (0, 1/2], 1 on (1/2, 3/2]; direct integral of
    # (t^(1/p) f*)^r dt/t split at the step
    f = two_level_function(grid1)
    for p, r in [(2.0, 1.0), (2.0, 3.0), (1.5, 1.0), (3.0, 2.0)]:
        c = r / p
        exact = (3.0 ** r * 0.5 ** c / c
                 + (1.5 ** c - 0.5 ** c) / c) ** (1.0 / r)
        assert norm(f, Lorentz(p, r)) == pytest.approx(exact, rel=1e-12)


def test_norms_vanish_on_zero(grid1):
    z = GridFunction(grid1, np.zeros(grid1.shape))
    assert lp_norm(z, 2) == 0.0
    assert norm(z, Lorentz(2, 1)) == 0.0


def test_lorentz_weights_are_cached_read_only():
    for count, step, p, r in ((5, 0.25, 1.5, 1.0), (64, 1.0 / 16, 2.0, 0.5), (1, 3.0, 4.0, 2.0)):
        i = np.arange(count + 1, dtype=float)
        want = (p / r) * step ** (r / p) * np.diff(i ** (r / p))
        w = norms._lorentz_weights(count, step, p, r)
        assert np.array_equal(w, want)
        assert not w.flags.writeable
        assert norms._lorentz_weights(count, step, p, r) is w
        with pytest.raises(ValueError):
            w[0] = 0.0


@given(c=st.floats(min_value=0.01, max_value=100.0),
       p=st.floats(min_value=1.0, max_value=4.0),
       r=st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_lorentz_homogeneity(c, p, r):
    rng = np.random.default_rng(11)
    grid = GridSpec.box(1, 2.0, 32)
    f = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.shape))
    assert norm(GridFunction(grid, f.values * c), Lorentz(p, r)) == pytest.approx(
        c * norm(f, Lorentz(p, r)), rel=1e-10)


def test_lorentz_secondary_index_monotone(corpus1):
    # smaller r gives the larger norm at fixed p (classical Lorentz nesting)
    for member in corpus1[:5]:
        n1 = norm(member.f, Lorentz(2.0, 1.0))
        n2 = norm(member.f, Lorentz(2.0, 2.0))
        n3 = norm(member.f, Lorentz(2.0, 3.0))
        assert n1 >= n2 * (1.0 - 1e-12) >= n3 * (1.0 - 1e-12) ** 2


# -- mixed norms vs. the slice oracle ----------------------------------------


def slice_oracle(f, spec):
    """Evaluate a Mixed spec by explicit 1-d slicing, no shared code paths."""
    grid = f.spec
    axis = spec.axis
    line_grid = GridSpec(1, (grid.half_extents[axis],), (grid.points[axis],))
    moved = np.moveaxis(np.abs(f.values), axis, -1)
    inner = np.empty(moved.shape[:-1])
    for idx in np.ndindex(*moved.shape[:-1]):
        inner[idx] = norm_of_values(moved[idx], line_grid, spec.inner)
    return norm_of_values(inner, grid.drop_axis(axis), spec.outer)


@pytest.mark.parametrize("text", [
    "Mix(0;Leb(1);Lor(2,1))",
    "Mix(1;Lor(2,1);Leb(1))",
    "Mix(1;Leb(2);Leb(3))",
    "Mix(0;Lor(3,2);Lor(1.5,1))",
])
def test_mixed_norm_matches_slice_oracle(corpus2, text):
    spec = parse_norm(text)
    for member in corpus2:
        expected = slice_oracle(member.f, spec)
        assert mixed_norm(member.f, spec) == pytest.approx(expected, rel=1e-12)


def test_mixed_norm_three_dimensional_oracle():
    rng = np.random.default_rng(3)
    grid = GridSpec(3, (2.0, 2.0, 1.0), (8, 8, 16))
    f = GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape))
    for text in ("Mix(2;Leb(1);Lor(1.5,1))", "Mix(0;Lor(2,1);Leb(2))"):
        spec = parse_norm(text)
        assert mixed_norm(f, spec) == pytest.approx(slice_oracle(f, spec),
                                                    rel=1e-12)


# -- iterated Lorentz --------------------------------------------------------


def test_iterated_lorentz_factorizes_on_products():
    # table of a product is the outer product of sorted factors, so the norm
    # splits into two 1-d Lorentz norms
    rng = np.random.default_rng(5)
    grid = GridSpec(2, (2.0, 4.0), (16, 32))
    a = rng.uniform(0.0, 3.0, 16)
    b = rng.uniform(0.0, 1.0, 32)
    f = GridFunction(grid, np.outer(a, b))
    ga = GridFunction(GridSpec(1, (2.0,), (16,)), a)
    gb = GridFunction(GridSpec(1, (4.0,), (32,)), b)
    for p, r in [(2.0, 1.0), (2.0, 2.0), (1.5, 3.0)]:
        expected = norm(ga, Lorentz(p, r)) * norm(gb, Lorentz(p, r))
        assert iterated_lorentz_norm(f, p, r) == pytest.approx(expected,
                                                               rel=1e-10)


def test_iterated_lorentz_needs_two_dims(unit_indicator):
    with pytest.raises(ValueError):
        iterated_lorentz_norm(unit_indicator, 2.0, 1.0)


def test_norm_dispatch(corpus2):
    member = corpus2[0]
    assert norm(member.f, "Leb(2)") == pytest.approx(lp_norm(member.f, 2))
    assert norm(member.f, "IterLor(2,1)") == pytest.approx(
        iterated_lorentz_norm(member.f, 2.0, 1.0))
    assert norm(member.f, "Lor(2,1)") == norm_of_values(
        member.f.values, member.grid, Lorentz(2.0, 1.0))

"""Rearrangement profiles: exact level measures, mass identities, iteration.

The step-profile representation makes most identities exact (integer cell
counts times a cell volume), so equality assertions below are mostly
bit-level, not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqkit.gridfn import GridFunction, GridSpec
from ineqkit.norms import lp_norm
from ineqkit.rearrange import (DecreasingProfile, decreasing_rearrangement,
                               distribution_function, double_star,
                               iterated_rearrangement)

from conftest import two_level_function


def test_unit_indicator_profile(unit_indicator):
    prof = decreasing_rearrangement(unit_indicator)
    assert prof.values.tolist() == [1.0]
    assert prof.counts.tolist() == [16]
    assert prof.support_measure == pytest.approx(1.0)
    assert prof.total_mass == pytest.approx(1.0)
    assert prof.value_at(0.5) == 1.0
    assert prof.value_at(1.5) == 0.0
    assert prof.integral_up_to(0.5) == pytest.approx(0.5)
    assert prof.integral_up_to(7.0) == pytest.approx(1.0)


def test_two_level_profile_oracle(grid1):
    f = two_level_function(grid1)
    prof = decreasing_rearrangement(f)
    assert prof.values.tolist() == [3.0, 1.0]
    assert prof.counts.tolist() == [8, 16]
    # measures 1/2 and 1; mass 3/2 + 1 = 5/2
    assert prof.support_measure == pytest.approx(1.5)
    assert prof.total_mass == pytest.approx(2.5)
    assert prof.level_measure(2.0) == pytest.approx(0.5)
    assert prof.level_measure(0.5) == pytest.approx(1.5)
    assert prof.level_measure(3.0) == 0.0  # strict inequality
    assert prof.value_at(0.25) == 3.0
    assert prof.value_at(1.0) == 1.0
    # integral through the first run plus half of the second
    assert prof.integral_up_to(1.0) == pytest.approx(1.5 + 0.5)


def test_profile_validation():
    with pytest.raises(ValueError):
        DecreasingProfile(np.array([1.0, 2.0]), np.array([1, 1]), 0.5)
    with pytest.raises(ValueError):
        DecreasingProfile(np.array([2.0, 1.0]), np.array([1, 0]), 0.5)
    with pytest.raises(ValueError):
        DecreasingProfile(np.array([1.0]), np.array([1]), 0.0)
    empty = DecreasingProfile(np.array([]), np.array([]), 0.5)
    assert empty.support_measure == 0.0 and empty.total_mass == 0.0
    assert empty.value_at(1.0) == 0.0


def test_distribution_matches_level_measure_exactly(corpus1, corpus2):
    for member in corpus1 + corpus2:
        prof = decreasing_rearrangement(member.f)
        levels = list(prof.values) + [0.0, 0.5 * prof.values[-1],
                                      float(prof.values[0]) * 1.5]
        for y in levels:
            assert distribution_function(member.f, y) == prof.level_measure(y)


def test_profile_mass_equals_l1_norm(corpus1, corpus2):
    for member in corpus1 + corpus2:
        prof = decreasing_rearrangement(member.f)
        assert prof.total_mass == pytest.approx(lp_norm(member.f, 1), rel=1e-12)


def test_double_star_dominates_and_decreases(corpus1):
    ts = np.geomspace(0.01, 50.0, 40)
    for member in corpus1[:4]:
        prof = decreasing_rearrangement(member.f)
        fss = np.asarray(double_star(prof, ts))
        assert np.all(fss >= prof.value_at(ts) - 1e-14)
        assert np.all(np.diff(fss) <= 1e-14)
        # beyond the support the average is mass / t
        t = 2.0 * prof.support_measure
        assert double_star(prof, t) == pytest.approx(prof.total_mass / t, rel=1e-12)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       y=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_equimeasurability_property(seed, y):
    """distribution_function agrees with the profile's level measure at any y."""
    rng = np.random.default_rng(seed)
    grid = GridSpec.box(1, 2.0, 16)
    f = GridFunction(grid, rng.uniform(0.0, 1.5, grid.shape))
    prof = decreasing_rearrangement(f)
    assert distribution_function(f, y) == prof.level_measure(y)
    assert prof.total_mass == pytest.approx(lp_norm(f, 1), rel=1e-12)


def test_iterated_table_monotone_and_mass_preserving(corpus2):
    for member in corpus2:
        g = member.grid
        # the transposed member puts axis 1 first
        swapped = GridFunction(GridSpec(2, g.half_extents[::-1], g.points[::-1]),
                               member.f.values.T)
        for f in (member.f, swapped):
            prof = iterated_rearrangement(f)
            assert np.all(np.diff(prof.table, axis=0) <= 0)
            assert np.all(np.diff(prof.table, axis=1) <= 0)
            cell = prof.row_step * prof.col_step
            assert float(prof.table.sum()) * cell == pytest.approx(lp_norm(f, 1), rel=1e-12)
            y = float(np.median(prof.table[prof.table > 0])) if \
                np.any(prof.table > 0) else 0.0
            assert int(np.count_nonzero(prof.table > y)) * cell == distribution_function(f, y)
            for name in ("cell_measure", "total_mass", "level_measure"):
                assert not hasattr(prof, name)


def test_iterated_rearrangement_separates_products():
    # f(x, y) = a(x) b(y) rearranges to the outer product of the sorted factors
    rng = np.random.default_rng(7)
    grid = GridSpec(2, (2.0, 4.0), (16, 32))
    a = rng.uniform(0.0, 3.0, 16)
    b = rng.uniform(0.0, 1.0, 32)
    f = GridFunction(grid, np.outer(a, b))
    prof = iterated_rearrangement(f)
    expected = np.outer(np.sort(a)[::-1], np.sort(b)[::-1])
    assert np.max(np.abs(prof.table - expected)) <= 1e-10
    assert prof.row_step == pytest.approx(grid.spacing[0])
    assert prof.col_step == pytest.approx(grid.spacing[1])


def test_iterated_rejects_one_dimensional(unit_indicator):
    with pytest.raises(ValueError):
        iterated_rearrangement(unit_indicator)



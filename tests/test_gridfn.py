"""Grids, analytic families, sampling, and seeded corpus generation."""

import pickle

import numpy as np
import pytest

from ineqkit.gridfn import (FAMILY_IDS, CorpusMember, FamilySpec, GridFunction,
                            GridSpec, corpus_generate, derivative,
                            dilate_family, finite_difference_derivative,
                            load_corpus_dump, load_corpus_spec, sample,
                            sample_member, save_corpus_dump, save_corpus_spec,
                            scale_family, tail_fraction)

from conftest import SEED


# -- grid specs --------------------------------------------------------------


def test_grid_spec_geometry():
    g = GridSpec.box(2, 4.0, 32)
    assert g.spacing == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.shape == (32, 32)
    nodes = g.axis_nodes(0)
    assert nodes[0] == pytest.approx(-4.0)
    assert nodes[-1] == pytest.approx(4.0 - 0.25)
    assert np.allclose(np.diff(nodes), 0.25)


def test_grid_spec_rejects_odd_points():
    with pytest.raises(ValueError):
        GridSpec(1, (4.0,), (15,))
    with pytest.raises(ValueError):
        GridSpec(2, (4.0,), (16, 16))


def test_grid_spec_refine_and_drop_axis():
    g = GridSpec(2, (4.0, 2.0), (32, 16))
    f = g.refine(2)
    assert f.points == (64, 32)
    assert f.half_extents == g.half_extents
    d = g.drop_axis(0)
    assert d.dim == 1 and d.half_extents == (2.0,) and d.points == (16,)


def test_grid_spec_dict_roundtrip():
    g = GridSpec(3, (4.0, 4.0, 2.0), (16, 16, 8))
    assert GridSpec.from_dict(g.to_dict()) == g


def test_grid_spec_cached_geometry_keeps_identity():
    g = GridSpec(3, (4.0, 4.0, 2.0), (16, 16, 8))
    assert (g.spacing, g.cell_volume) == ((0.5, 0.5, 0.5), 0.125)
    fresh = GridSpec(3, (4.0, 4.0, 2.0), (16, 16, 8))
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert g.to_dict() == fresh.to_dict()
    for copy in (GridSpec.from_dict(g.to_dict()), pickle.loads(pickle.dumps(g))):
        assert copy == fresh and hash(copy) == hash(fresh)
        assert (copy.spacing, copy.cell_volume) == (g.spacing, g.cell_volume)
    assert {g: 1}[fresh] == 1


# -- grid functions ----------------------------------------------------------


def test_grid_function_is_frozen_and_validated(grid1):
    vals = np.ones(grid1.shape)
    f = GridFunction(grid1, vals)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    vals[0] = np.nan
    with pytest.raises(ValueError):
        GridFunction(grid1, vals)
    with pytest.raises(ValueError):
        GridFunction(grid1, np.ones(grid1.shape[0] // 2))
    g = f.scaled(-2.0)
    assert float(g.values[0]) == -2.0 and f.values[0] == 1.0


# -- families ----------------------------------------------------------------


def test_sampled_families_are_bounded_by_amplitude(corpus1, corpus2):
    for member in corpus1 + corpus2:
        amp = member.family.amplitude
        assert np.max(np.abs(member.f.values)) <= amp * (1.0 + 1e-12)
        assert np.isfinite(member.f.values).all()


def test_derivatives_match_finite_differences(corpus1, corpus2):
    # analytic derivatives vs. centered differences: O(h^2) agreement
    for member in corpus1 + corpus2:
        for axis in range(member.dim):
            exact = member.derivs[axis].values
            approx = finite_difference_derivative(member.f, axis).values
            scale = max(np.max(np.abs(exact)), 1e-12)
            step = member.grid.spacing[axis]
            # families have curvature up to ~(2 pi / width)^2; generous cap
            assert np.max(np.abs(exact - approx)) <= 40.0 * step ** 2 * scale


def test_tail_fraction_gates_sampling():
    grid = GridSpec.box(1, 8.0, 128)
    centered = FamilySpec("gaussian", 1, 1.0, (0.0,), (1.0,))
    assert tail_fraction(centered, grid) < 1e-10
    off_edge = FamilySpec("gaussian", 1, 1.0, (7.5,), (2.0,))
    assert tail_fraction(off_edge, grid) > 1e-8
    with pytest.raises(ValueError):
        sample(off_edge, grid)


def test_corpus_generation_is_deterministic(grid1):
    a = corpus_generate(SEED, 6, grid1)
    b = corpus_generate(SEED, 6, grid1)
    assert [m.family for m in a] == [m.family for m in b]
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.f.values, mb.f.values)
    c = corpus_generate(SEED + 1, 6, grid1)
    assert [m.family for m in c] != [m.family for m in a]


def test_corpus_draws_ignore_point_count(grid1):
    # refining the grid resamples the same analytic functions
    fine = grid1.refine(2)
    coarse = corpus_generate(SEED, 8, grid1)
    refined = corpus_generate(SEED, 8, fine)
    assert [m.family for m in coarse] == [m.family for m in refined]


def test_corpus_covers_all_families(grid1):
    members = corpus_generate(SEED, 24, grid1)
    assert {m.family.family for m in members} == set(FAMILY_IDS)


def test_scale_family_scales_samples(corpus1):
    member = corpus1[0]
    scaled = sample_member(scale_family(member.family, 3.0), member.grid)
    assert np.allclose(scaled.f.values, 3.0 * member.f.values, rtol=1e-12)
    assert np.allclose(scaled.derivs[0].values, 3.0 * member.derivs[0].values,
                       rtol=1e-12)


def test_dilate_family_matches_rescaled_grid(corpus2):
    # f(lam x) on the 1/lam box hits the same nodes: identical sample values
    member = corpus2[0]
    for lam in (0.5, 2.0):
        shrunk = GridSpec(2, tuple(L / lam for L in member.grid.half_extents),
                          member.grid.points)
        g = sample(dilate_family(member.family, lam), shrunk)
        assert np.array_equal(g.values, member.f.values)


def test_family_spec_dict_roundtrip(corpus2):
    for member in corpus2:
        fam = member.family
        assert FamilySpec.from_dict(fam.to_dict()) == fam


def test_corpus_spec_file_roundtrip(tmp_path, grid2):
    path = tmp_path / "corpus.json"
    save_corpus_spec(path, grid2, SEED, 12)
    grid, seed, count = load_corpus_spec(path)
    assert grid == grid2 and seed == SEED and count == 12


def test_corpus_dump_roundtrip(tmp_path, grid1):
    members = corpus_generate(SEED, 3, grid1)
    path = tmp_path / "dump.json"
    save_corpus_dump(path, members, SEED)
    loaded, seed = load_corpus_dump(path)
    assert seed == SEED and len(loaded) == 3
    for a, b in zip(members, loaded):
        assert a.family == b.family
        assert np.allclose(a.f.values, b.f.values, rtol=0, atol=1e-15)

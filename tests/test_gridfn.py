"""Grids, analytic families, sampling, and seeded corpus generation."""

import dataclasses
import json
import math
import os
import pickle

import numpy as np
import pytest

from ineqkit import gridfn, verify
from ineqkit.gridfn import (FAMILY_IDS, CorpusMember, FamilySpec, GridFunction,
                            GridSpec, corpus_generate, dilate_family, dilate_member,
                            load_corpus_spec, sample_member, save_corpus_spec,
                            tail_fraction)

from conftest import SEED, sampled_corpus


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
    # box takes scalars only; GridSpec itself builds a box with per-axis sizes
    with pytest.raises(TypeError):
        GridSpec.box(2, (4.0, 2.0), 32)
    with pytest.raises(ValueError, match="integers"):
        GridSpec.box(2, 4.0, (32, 16))


def _sweep_specs():
    for n in range(2, 200, 2):
        for k in range(39):
            g = GridSpec.box(1, 0.5 + 0.25 * k, n)
            yield g
            yield GridSpec(1, (n / (4.0 * g.half_extents[0]),), (n,))  # its dual grid


def test_grid_nodes_have_an_exact_zero_and_are_antisymmetric():
    count = 0
    for g in _sweep_specs():
        x = g.axis_nodes(0)
        m = g.points[0] // 2
        assert x[m] == 0.0
        assert np.array_equal(x[m + 1:], -x[m - 1:0:-1])
        count += 1
    assert count == 7722


def test_grid_nodes_match_the_offset_formula_on_the_run_grids():
    # default, fine and dilated grids of every dimension, and criterion 6's
    # 3-D grid with its refinement and dilations, and all their duals
    shapes = [(1, 8.0, 256), (2, 4.0, 32), (3, 4.0, 32), (3, 4.0, 64)]
    specs = []
    for dim, L, n in shapes:
        for grid in (GridSpec.box(dim, L, n), GridSpec.box(dim, L, 2 * n)):
            specs.append(grid)
        for lam in (0.5, 2.0):
            specs.append(GridSpec.box(dim, L / lam, 2 * n))
    specs += [GridSpec(s.dim, tuple(N / (4.0 * L) for N, L in zip(s.points, s.half_extents)),
                       s.points) for s in specs]
    for spec in specs:
        for axis in range(spec.dim):
            L, h = spec.half_extents[axis], spec.spacing[axis]
            old = -L + h * np.arange(spec.points[axis])
            assert spec.axis_nodes(axis).tobytes() == old.tobytes()


def test_grid_spec_rejects_odd_points():
    with pytest.raises(ValueError):
        GridSpec(1, (4.0,), (15,))
    with pytest.raises(ValueError):
        GridSpec(2, (4.0,), (16, 16))


def test_grid_spec_rejects_fractional_point_counts():
    with pytest.raises(ValueError, match="integers"):
        GridSpec(2, (4.0, 4.0), (32.0, 32.0))
    for points in (32.5, (32, 31.5)):
        with pytest.raises(ValueError, match="integers"):
            GridSpec.box(2, 4.0, points)
    with pytest.raises(ValueError, match="integers"):
        GridSpec.from_dict({"dim": 1, "half_extents": [4.0], "points": [32.5]})
    # integral counts of any numeric type give the same spec
    g = GridSpec(2, (4.0, 4.0), (32, 32))
    assert GridSpec.box(2, 4.0, 32.0) == g == GridSpec.box(2, 4.0, np.int64(32))
    assert GridSpec(2, (4.0, 4.0), (np.int64(32), 32)) == g


def test_grid_spec_refine_and_drop_axis():
    g = GridSpec(2, (4.0, 2.0), (32, 16))
    f = g.refine()
    assert f.points == (64, 32)
    assert f.half_extents == g.half_extents
    with pytest.raises(TypeError):
        g.refine(2)  # refine always doubles
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


def test_grid_function_rejects_complex_values(grid1):
    # samples are real: fourier keeps only the half spectrum of each transform
    for vals in (np.ones(grid1.shape, dtype=complex), np.ones(grid1.shape) + 0.5j):
        with pytest.raises(ValueError, match="values must be real"):
            GridFunction(grid1, vals)
    assert GridFunction(grid1, np.ones(grid1.shape, dtype=np.float32)).values.dtype == np.float64


def test_grid_function_stores_c_contiguous_values(grid2):
    # the difference kernels subtract on flattened views of the samples,
    # which would be copies, and lose their writes, in any other layout
    rng = np.random.default_rng(SEED)
    fortran = np.asfortranarray(rng.standard_normal(grid2.shape))
    strided = rng.standard_normal(tuple(2 * n for n in grid2.shape))[::2, ::2]
    for vals in (fortran, strided):
        assert not vals.flags.c_contiguous
        f = GridFunction(grid2, vals)
        assert f.values.flags.c_contiguous
        assert np.array_equal(f.values, vals)


def test_owned_rejects_values_that_are_not_c_contiguous(grid2):
    # _owned wraps an array without copying it, so it checks the layout
    vals = np.asfortranarray(np.ones(grid2.shape))
    with pytest.raises(ValueError, match="C-contiguous"):
        gridfn._owned(GridFunction, grid2, vals)
    f = gridfn._owned(GridFunction, grid2, np.ascontiguousarray(vals))
    assert f.values.flags.c_contiguous and not f.values.flags.writeable


# -- families ----------------------------------------------------------------


def test_sampled_families_are_bounded_by_amplitude(corpus1, corpus2):
    for member in corpus1 + corpus2:
        amp = member.family.amplitude
        assert np.max(np.abs(member.f.values)) <= amp * (1.0 + 1e-12)
        assert np.isfinite(member.f.values).all()


def test_derivatives_match_finite_differences(corpus1, corpus2):
    # analytic derivatives vs. second-order differences (one-sided at the
    # ends): O(h^2) agreement; the 3-D members cover all six families
    corpus3 = sampled_corpus(SEED, 6, GridSpec.box(3, 4.0, 32))
    for member in corpus1 + corpus2 + corpus3:
        for axis in range(member.dim):
            exact = member.derivs[axis].values
            step = member.grid.spacing[axis]
            approx = np.gradient(member.f.values, step, axis=axis, edge_order=2)
            scale = max(np.max(np.abs(exact)), 1e-12)
            # families have curvature up to ~(2 pi / width)^2; generous cap
            assert np.max(np.abs(exact - approx)) <= 40.0 * step ** 2 * scale


# The smooth step as gridfn computed it before it shared one exp per side
# between the step and its slope: the oracle of the sampler.


def _old_expstep(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    pos = v > 0
    out[pos] = np.exp(-1.0 / v[pos])
    return out


def _old_expstep_dv(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    pos = v > 0
    vp = v[pos]
    out[pos] = np.exp(-1.0 / vp) / (vp * vp)
    return out


def _old_smoothstep(v):
    a = _old_expstep(v)
    b = _old_expstep(1.0 - np.asarray(v, dtype=float))
    return a / (a + b)


def _old_smoothstep_dv(v):
    v = np.asarray(v, dtype=float)
    a = _old_expstep(v)
    b = _old_expstep(1.0 - v)
    da = _old_expstep_dv(v)
    db = _old_expstep_dv(1.0 - v)
    s = a + b
    out = np.zeros(v.shape)
    mid = (v > 0) & (v < 1)
    out[mid] = (da[mid] * b[mid] + a[mid] * db[mid]) / (s[mid] * s[mid])
    return out


def test_smoothstep_matches_the_three_exp_helpers():
    # the geometric run crosses v = 1/745.14, below which exp(-1/v) underflows to 0
    edges = [-np.inf, -1.0, -1e-300, 0.0, 0.5, 1.0 - 1e-16, 1.0, 1.5, np.inf]
    v = np.concatenate([np.linspace(-0.5, 1.5, 4001), np.geomspace(1e-6, 1e-2, 400), edges])
    step, slope = gridfn._smoothstep(v)
    assert np.array_equal(step, _old_smoothstep(v))
    assert np.array_equal(slope, _old_smoothstep_dv(v))
    assert step[v <= 0].max() == 0.0 and step[v >= 1].min() == 1.0
    grid = v[:4000].reshape(40, 100)
    assert all(np.array_equal(new, old(grid)) for new, old in
               zip(gridfn._smoothstep(grid), (_old_smoothstep, _old_smoothstep_dv)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_samples_match_the_three_exp_helpers(dim, monkeypatch):
    # every default family on the default, fine and dilated grids of verify
    coarse = verify.default_grid(dim)
    fine = coarse.refine()
    cases = []
    for fam in verify.default_families(dim):
        cases += [(fam, coarse), (fam, fine)]
        cases += [(dilate_family(fam, lam),
                   GridSpec(dim, tuple(L / lam for L in fine.half_extents), fine.points))
                  for lam in (0.5, 2.0)]
    new = [sample_member(fam, grid) for fam, grid in cases]
    monkeypatch.setattr(gridfn, "_smoothstep",
                        lambda v: (_old_smoothstep(v), _old_smoothstep_dv(v)))
    for (fam, grid), got in zip(cases, new):
        old = sample_member(fam, grid)
        for a, b in zip((got.f,) + got.derivs, (old.f,) + old.derivs):
            assert np.array_equal(a.values, b.values)


def test_sample_member_rejects_dimension_mismatch():
    fam = FamilySpec("gaussian", 2, 1.0, (0.0, 0.0), (1.0, 1.0))
    grid = GridSpec.box(3, 4.0, 8)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sample_member(fam, grid)


def test_tail_fraction_gates_sampling():
    grid = GridSpec.box(1, 8.0, 128)
    centered = FamilySpec("gaussian", 1, 1.0, (0.0,), (1.0,))
    assert tail_fraction(centered, grid) < 1e-10
    off_edge = FamilySpec("gaussian", 1, 1.0, (7.5,), (2.0,))
    assert tail_fraction(off_edge, grid) > 1e-8
    with pytest.raises(ValueError, match="tail mass fraction"):
        sample_member(off_edge, grid)
    with pytest.raises(ValueError, match="tail mass fraction"):
        corpus_generate(SEED, 6, GridSpec.box(1, 8.0, 2))


def test_corpus_generation_is_deterministic(grid1):
    a = corpus_generate(SEED, 6, grid1)
    assert a == corpus_generate(SEED, 6, grid1)
    assert corpus_generate(SEED + 1, 6, grid1) != a


def test_corpus_draws_ignore_point_count(grid1):
    # refining the grid resamples the same analytic functions
    fine = grid1.refine()
    assert corpus_generate(SEED, 8, grid1) == corpus_generate(SEED, 8, fine)


def test_corpus_covers_all_families(grid1):
    assert {fam.family for fam in corpus_generate(SEED, 24, grid1)} == set(FAMILY_IDS)


def test_amplitude_scales_samples(corpus1):
    member = corpus1[0]
    fam = member.family
    scaled = sample_member(dataclasses.replace(fam, amplitude=3.0 * fam.amplitude), member.grid)
    assert np.allclose(scaled.f.values, 3.0 * member.f.values, rtol=1e-12)
    assert np.allclose(scaled.derivs[0].values, 3.0 * member.derivs[0].values,
                       rtol=1e-12)


def test_dilate_family_matches_rescaled_grid(corpus2):
    # f(lam x) on the 1/lam box hits the same nodes: identical sample values
    member = corpus2[0]
    for lam in (0.5, 2.0):
        shrunk = GridSpec(2, tuple(L / lam for L in member.grid.half_extents),
                          member.grid.points)
        g = sample_member(dilate_family(member.family, lam), shrunk).f
        assert np.array_equal(g.values, member.f.values)


@pytest.mark.parametrize("seed", [SEED, 7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dilate_member_is_the_resampled_dilation(dim, seed):
    # the premise of the dilation sweep: on the fine grid of every default
    # member, the rescaled copy is the dilated family sampled on the scaled box
    fine = verify.default_grid(dim).refine()
    subnormal_nodes = set()
    for i, fam in enumerate(verify.default_families(dim, seed)):
        member = sample_member(fam, fine)
        for lam in (0.5, 2.0):
            got = dilate_member(member, lam)
            scaled = GridSpec(dim, tuple(L / lam for L in fine.half_extents), fine.points)
            want = sample_member(dilate_family(fam, lam), scaled)
            assert got.family == want.family and got.grid == scaled
            assert got.f.values is member.f.values
            assert np.array_equal(got.f.values, want.f.values)
            for d, e, source in zip(got.derivs, want.derivs, member.derivs):
                assert not d.values.flags.writeable
                off = d.values != e.values
                # a partial in the subnormal range: lam * d rounds, and the
                # sampler's own rounding there may land one step away
                assert np.all(np.abs(source.values[off]) < np.finfo(float).tiny)
                assert np.all(np.abs(d.values[off] - e.values[off]) <= 5e-324)
                subnormal_nodes.update((i, *map(int, node)) for node in np.argwhere(off))
    # one node of a 3-D mollified_cone at the default seed, two at seed 7
    assert len(subnormal_nodes) == {(3, SEED): 1, (3, 7): 2}.get((dim, seed), 0)


def test_dilate_member_rejects_a_nonpositive_factor(corpus1):
    for lam in (0.0, -2.0):
        with pytest.raises(ValueError, match="positive"):
            dilate_member(corpus1[0], lam)


def test_corpus_spec_file_roundtrip(tmp_path, grid2):
    path = tmp_path / "corpus.json"
    save_corpus_spec(path, grid2, SEED, 12)
    grid, seed, count = load_corpus_spec(path)
    assert grid == grid2 and seed == SEED and count == 12
    doc = json.loads(path.read_text())
    doc["seed"] = float(SEED)  # an integral float loads as its int
    path.write_text(json.dumps(doc))
    assert load_corpus_spec(path) == (grid2, SEED, 12)


@pytest.mark.parametrize("field,value", [("seed", 7.5), ("count", 3.9),
                                         ("seed", None), ("count", math.inf)])
def test_corpus_spec_rejects_a_seed_or_count_that_is_not_an_integer(tmp_path, grid2,
                                                                     field, value):
    # a fractional value was truncated (seed 7.5 ran as seed 7), and a null or
    # an infinity raised TypeError or OverflowError
    path = tmp_path / "corpus.json"
    save_corpus_spec(path, grid2, 7, 3)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="seed and count must be integers"):
        load_corpus_spec(path)


def test_atomic_write_failure_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    gridfn._atomic_write(target, "old\n")
    gridfn._atomic_write(tmp_path / "b.bin", b"\x00\x01")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        gridfn._atomic_write(target, "new text \u2014 utf-8\n")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin", "report.json"]

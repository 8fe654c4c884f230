"""Registry integrity, evaluator invariants, and the report machinery."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ineqkit.gridfn import (FamilySpec, GridSpec, corpus_generate,
                            sample_member, scale_family)
from ineqkit import verify
from ineqkit.verify import (InequalityReport, InequalitySpec, default_families,
                            default_grid, empirical_ratio, escalate_family,
                            probe, registry, registry_map, run, run_all,
                            save_probe, save_report)

from conftest import SEED


# -- registry shape ----------------------------------------------------------


def test_registry_ids_unique_and_kinds_sane():
    entries = registry()
    assert len(entries) >= 20
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    for e in entries:
        assert e.kind in ("assert", "report", "probe")
        assert set(e.params) == set(e.dims)
        if e.kind == "assert":
            assert e.constant is not None and e.constant > 0


def test_registry_has_the_assert_suite():
    kinds = {e.id: e.kind for e in registry()}
    for name in ("hardy", "bound", "ulyanov0", "Ulyanov1", "omega1"):
        assert kinds[name] == "assert"
    for name in ("embed32", "pelcz", "Ulyanov2", "diff", "const1"):
        assert kinds[name] == "report"
    for name in ("embed32_n2_p1", "obertype_n2"):
        assert kinds[name] == "probe"


def test_inequality_spec_validation():
    entry = registry_map()["bound"]
    with pytest.raises(ValueError):
        InequalitySpec("x", "wrong", "", (1,), {1: {}}, entry.evaluate)
    with pytest.raises(ValueError):
        InequalitySpec("x", "assert", "", (1,), {1: {}}, entry.evaluate)
    with pytest.raises(ValueError):
        InequalitySpec("x", "report", "", (1, 2), {1: {}}, entry.evaluate)


def test_run_rejects_wrong_dim_and_bad_params(corpus1, grid1):
    entry = registry_map()["embed32"]
    with pytest.raises(ValueError):
        run([entry], 1, corpus1, grid1)


def test_empirical_ratio_conventions():
    assert empirical_ratio(0.0, 0.0) == 0.0
    assert empirical_ratio(1.0, 0.0) == math.inf
    assert empirical_ratio(2.0, 4.0) == 0.5


# -- amplitude-scaling soundness --------------------------------------------
# Both sides of every entry are homogeneous of one common degree, so the
# lhs/rhs ratio must survive f -> c*f to 1e-10.  The degree itself is not
# pinned: equivalence-style entries report theta-th powers of seminorms.


@pytest.mark.parametrize("entry_id", sorted(registry_map()))
def test_ratio_invariant_under_amplitude_scaling(entry_id, corpus1, corpus2, corpus3):
    entry = registry_map()[entry_id]
    dim = min(entry.params)
    member = {1: corpus1, 2: corpus2, 3: corpus3}[dim][1]
    params = entry.params[dim]
    lhs, rhs = entry.evaluate(member, params)[:2]
    scaled = sample_member(scale_family(member.family, 3.7), member.grid)
    lhs_s, rhs_s = entry.evaluate(scaled, params)[:2]
    assert math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0
    assert empirical_ratio(lhs_s, rhs_s) == pytest.approx(
        empirical_ratio(lhs, rhs), rel=1e-10, abs=1e-300)


def test_grad_norm_is_cached_per_p(grid2):
    member = corpus_generate(SEED, 2, grid2)[1]
    grad = np.sqrt(sum(d.values ** 2 for d in member.derivs))
    for p in (1.0, 2.0, 1.0, 2.0):
        direct = (np.sum(grad ** p) * grid2.cell_volume) ** (1.0 / p)
        assert verify._grad_norm(member, p) == pytest.approx(direct, rel=1e-12)


def test_zero_function_passes_assert_entries(grid1):
    zero = [FamilySpec("gaussian", 1, 0.0, (0.0,), (1.0,))]
    for name in ("hardy", "bound", "omega1"):
        rep = run([registry_map()[name]], 1, zero, grid1)[0]
        assert rep.passed and rep.max_ratio_fine == 0.0


# -- reports -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    grid = GridSpec.box(1, 8.0, 128)
    families = [m.family for m in corpus_generate(SEED, 4, grid)]
    return run([registry_map()["bound"]], 1, families, grid)[0]


def test_report_fields(small_run):
    rep = small_run
    assert rep.id == "bound" and rep.dim == 1 and rep.kind == "assert"
    assert len(rep.rows) == 4
    for row in rep.rows:
        for key in ("member", "family", "lhs_coarse", "rhs_coarse",
                    "ratio_coarse", "lhs_fine", "rhs_fine", "ratio_fine",
                    "lhs_refinement", "rhs_refinement"):
            assert key in row
        assert row["ratio_fine"] <= 2.0 * (1.0 + 1e-4)
    assert rep.passed and not rep.failures
    assert rep.empirical_constant == rep.max_ratio_fine
    assert rep.stable and rep.refinement_drift <= 0.10
    d = rep.to_dict()
    assert "runtime" not in d and "dilation" not in d


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_evaluates_the_specs_it_is_given(jobs):
    # a spec need not be the registry's copy: its params and id are used as given
    grid = GridSpec.box(1, 8.0, 128)
    members = corpus_generate(SEED, 3, grid)
    bound = registry_map()["bound"]
    specs = [dataclasses.replace(bound, params={1: {"p": 3.0}}),
             dataclasses.replace(bound, id="custom")]
    reports = run(specs, 1, [m.family for m in members], grid, jobs=jobs)
    assert [(r.id, r.params) for r in reports] == [("bound", {"p": 3.0}),
                                                   ("custom", {"p": 2.0})]
    for spec, rep in zip(specs, reports):
        for row, m in zip(rep.rows, members):
            fine = sample_member(m.family, grid.refine(2))
            for grid_name, member in (("coarse", m), ("fine", fine)):
                lhs, rhs = spec.evaluate(member, spec.params[1])
                assert (row[f"lhs_{grid_name}"], row[f"rhs_{grid_name}"]) == (lhs, rhs)


def test_run_is_deterministic_and_pool_safe():
    grid = GridSpec.box(1, 8.0, 128)
    families = [m.family for m in corpus_generate(SEED, 4, grid)]
    entry = registry_map()["omega1"]
    serial = run([entry], 1, families, grid, jobs=1)[0]
    pooled = run([entry], 1, families, grid, jobs=2)[0]
    assert serial.to_dict() == pooled.to_dict()


# Every entry kind at every dimension: dilation sweeps (embed0, embed1),
# spectral entries sharing cached transforms (H_ineq, pelcz, pelcz1, sup111,
# obertype33) and the Ulyanov table sweeps.
MULTI_ENTRY_CASES = [
    (1, GridSpec.box(1, 8.0, 128), ("bound", "embed1", "omega1", "Ulyanov1", "ulyanov0")),
    (2, GridSpec.box(2, 4.0, 16), ("H_ineq", "embed0", "embed1", "pelcz", "const1")),
    (3, GridSpec.box(3, 4.0, 16), ("obertype33", "pelcz1", "sup111")),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dim,grid,ids", MULTI_ENTRY_CASES)
def test_multi_entry_run_matches_one_entry_runs(dim, grid, ids, jobs):
    families = [m.family for m in corpus_generate(SEED, 3, grid)]
    specs = [registry_map()[i] for i in ids]
    reports = run(specs, dim, families, grid, jobs=jobs)
    assert [r.id for r in reports] == list(ids)
    for spec, rep in zip(specs, reports):
        alone = run([spec], dim, families, grid, jobs=1)[0]
        # json text: rows may hold NaN exponents, which never compare equal
        assert json.dumps(rep.to_dict(), sort_keys=True) == \
            json.dumps(alone.to_dict(), sort_keys=True)


def test_run_all_makes_one_run_per_dimension(monkeypatch, grid1, grid2):
    calls = []
    real_run = verify.run

    def counting_run(specs, dim, *args, **kwargs):
        calls.append((dim, [s.id for s in specs]))
        return real_run(specs, dim, *args, **kwargs)

    monkeypatch.setattr(verify, "run", counting_run)
    corpora = {1: ([m.family for m in corpus_generate(SEED, 2, grid1)], grid1),
               2: ([m.family for m in corpus_generate(SEED, 2, grid2)], grid2)}
    reports, _ = run_all(ids=["omega1", "bound", "embed1", "const1"], corpora=corpora)
    assert calls == [(1, ["bound", "embed1", "omega1"]), (2, ["const1", "embed1"])]
    assert [(r.id, r.dim) for r in reports] == [
        ("bound", 1), ("const1", 2), ("embed1", 1), ("embed1", 2), ("omega1", 1)]


def test_dilation_sweep_reports_matched_exponents():
    grid = GridSpec.box(1, 8.0, 128)
    families = [m.family for m in corpus_generate(SEED, 3, grid)]
    rep = run([registry_map()["embed1"]], 1, families, grid)[0]
    assert rep.dilation is not None
    assert rep.dilation["factors"] == [0.5, 1.0, 2.0]
    assert rep.dilation["matched"] is True
    assert rep.dilation["max_exponent_gap"] <= 0.05
    for row in rep.rows:
        assert len(row["lhs_scaling_exponents"]) == 2
        assert set(row["dilation_values"]) == {"0.5", "2.0"}


def test_run_all_subset_and_unknown_ids(grid1):
    families = [m.family for m in corpus_generate(SEED, 3, grid1)]
    reports, metadata = run_all(ids=["bound", "omega1"],
                                corpora={1: (families, grid1)})
    assert [r.id for r in reports] == ["bound", "omega1"]
    # only the timestamp: any other live value would break byte determinism
    assert set(metadata) == {"timestamp"}
    with pytest.raises(ValueError):
        run_all(ids=["nope"], corpora={1: (families, grid1)})


def test_save_report_layout(tmp_path, small_run):
    path = tmp_path / "report.json"
    doc = save_report(path, [small_run], {"timestamp": "T"})
    assert path.exists()
    assert doc["format_version"] == 1
    assert doc["reports"][0]["id"] == "bound"
    assert "runtime" not in doc["reports"][0]


def test_default_corpora_shapes():
    assert default_grid(1).dim == 1
    assert default_grid(3).points == (32, 32, 32)
    fams = default_families(2, count=5)
    assert len(fams) == 5 and all(f.dim == 2 for f in fams)


# -- probes ------------------------------------------------------------------


def test_escalate_family_sharpens():
    trig = FamilySpec("windowed_trig", 1, 1.0, (0.0,), (2.0,), freq=(0.5,))
    assert escalate_family(trig, 2).freq == (2.0,)
    cone = FamilySpec("mollified_cone", 1, 1.0, (0.0,), (1.0,),
                      radius=1.0, moll_width=0.5)
    assert escalate_family(cone, 1).moll_width == 0.25
    gauss = FamilySpec("gaussian", 1, 1.0, (0.0,), (1.0,))
    assert escalate_family(gauss, 1).width == (0.5,)
    assert escalate_family(gauss, 0) is gauss


def test_probe_structure(tmp_path):
    grid = GridSpec.box(2, 4.0, 16)
    families = [m.family for m in corpus_generate(SEED, 2, grid)]
    out = probe("obertype_n2", depth=1, families=families, grid=grid)
    assert out["label"] == "OPEN QUESTION — no asserted direction"
    assert out["depth"] == 1 and len(out["levels"]) == 2
    assert out["max_ratios"] == [lv["max_ratio"] for lv in out["levels"]]
    assert isinstance(out["monotone_nondecreasing"], bool)
    doc = save_probe(tmp_path / "probe.json", out)
    assert doc["format_version"] == 1
    assert "runtime" not in doc["probe"]
    assert doc["probe"]["question"] == "obertype_n2"


def test_probe_rejects_non_probe_ids():
    with pytest.raises(ValueError):
        probe("bound")
    with pytest.raises(ValueError):
        probe("no_such_question")

"""Registry integrity, evaluator invariants, and the report machinery."""

import dataclasses
import inspect
import json
import math
import pickle

import numpy as np
import pytest

from ineqkit.gridfn import FamilySpec, GridSpec, corpus_generate, sample_member
from ineqkit import fourier, gridfn, verify
from ineqkit.norms import (Lebesgue, Lorentz, Mixed, iterated_lorentz_norm,
                           lp_norm, norm, norm_of_values, parse_norm)
from ineqkit.smoothness import BesovSpec, besov_seminorm
from ineqkit.verify import (InequalityReport, InequalitySpec, default_families,
                            default_grid, empirical_ratio, escalate_family,
                            probe, registry, registry_map, run, run_all,
                            save_probe, save_report)

from conftest import SEED, sampled_corpus


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
        InequalitySpec("x", "wrong", "", {1: {}}, entry.evaluate)
    with pytest.raises(ValueError):
        InequalitySpec("x", "assert", "", {1: {}}, entry.evaluate)
    with pytest.raises(ValueError, match="validity window"):
        InequalitySpec("x", "report", "", {2: {"p": 3.0, "pstar": 2.0}}, entry.evaluate,
                       valid=registry_map()["sob1"].valid)
    # the dimensions are the keys of params, in their order
    assert InequalitySpec("x", "report", "", {2: {}, 3: {}}, entry.evaluate).dims == (2, 3)
    with pytest.raises(TypeError):
        InequalitySpec("x", "report", "", {1: {}}, entry.evaluate, dims=(1,))


def test_run_rejects_wrong_dim_and_bad_params(corpus1, grid1):
    entry = registry_map()["embed32"]
    with pytest.raises(ValueError):
        run([entry], 1, corpus1, grid1)
    # params edited after construction: run checks them again, as construction does
    entry = dataclasses.replace(registry_map()["embed1"],
                                params={1: {"p": 2.0, "q": 4.0, "s": 0.75}})
    entry.params[1]["s"] = 0.5
    with pytest.raises(ValueError, match="^entry embed1: parameters for dim 1 fall outside "
                                         "the validity window$"):
        run([entry], 1, corpus1, grid1)


# each (entry, dim, changed params) lies outside the window or unbalances the sides
REJECTED = [
    ("sob1", 2, {"pstar": 3.0}),
    ("embed1", 2, {"s": 0.5}),
    ("embed1", 1, {"s": 0.5}),
    ("embed32", 3, {"alpha": 0.5}),
    ("embed321", 2, {"alpha": 0.4}),
    ("hardy1", 2, {"alpha": 0.5}),
    ("diff", 1, {"beta": 0.3}),
    # s - alpha is unchanged, so only each embedding's own balance sees it
    ("embed1_vs_embed32", 2, {"s": 1.0 - 2.0 * (1 / 1.5 - 0.5) + 0.1,
                              "alpha": 1.0 - (1 / 1.5 - 0.5) + 0.1}),
    # the degree check alone rejects these
    ("simple2", 2, {"beta": 0.3}),
    ("strong10", 2, {"beta": 0.3}),
    ("embed32_n2_p1", 2, {"alpha": 0.5}),
]


@pytest.mark.parametrize("entry_id,dim,changes", REJECTED,
                         ids=[f"{i}-{d}-{'+'.join(c)}" for i, d, c in REJECTED])
def test_exponents_off_the_scaling_rule_are_rejected(entry_id, dim, changes):
    entry = registry_map()[entry_id]
    params = {**entry.params[dim], **changes}
    with pytest.raises(ValueError, match=f"entry {entry_id}: parameters for dim {dim} "
                                         "fall outside the validity window"):
        dataclasses.replace(entry, params={dim: params})


def _term_degrees(side, dim, params):
    return [verify._DEGREES[functional](dim, *verify._resolve(args, params))
            for functional, *args in side]


def test_degree_check_covers_every_sides_pair_of_one_degree_per_side():
    checked, mixed, own = [], set(), set()
    for entry in registry():
        for dim in entry.dims:
            if not isinstance(entry.evaluate, verify.Sides):
                own.add((entry.id, dim))
                continue
            lhs, rhs = (_term_degrees(side, dim, entry.params[dim])
                        for side in (entry.evaluate.lhs, entry.evaluate.rhs))
            if max(lhs) - min(lhs) > 1e-12 or max(rhs) - min(rhs) > 1e-12:
                mixed.add(entry.id)
            else:
                checked.append((entry.id, dim))
                assert lhs[0] == pytest.approx(rhs[0], abs=1e-12)
    assert len(checked) == 27 and len(own) == 7
    assert mixed == {"diff", "simple1", "strong1"}
    assert {("simple2", 2), ("strong10", 2), ("sup111", 3), ("obertype_n2", 2)} <= set(checked)


# a term of every functional; IterLor is a 2-D norm
DEGREE_CASES = [
    (verify._norm, "Leb(2)"), (verify._norm, "Lor(1.5,1)"),
    (verify._norm, "Mix(0;Leb(1);Lor(2,1))"), (verify._norm, "IterLor(2,1)"),
    (verify._grad, "1.0"), (verify._grad, "2.0"), (verify._deriv_norms, "1.5"),
    (verify._h1, 0), (verify._h1_sum,),
    (verify._besov, "0.5", "2.0", "Leb(2)", True, True),
    (verify._besov, "0.75", "2.0", "Mix(0;Leb(1);Lor(2,1.5))"),
    (verify._besov_sum, "0.5", "1.0", "Mix(0;Leb(1);Lor(2,1))"),
    (verify._weighted, 1), (verify._weighted, 0, 0), (verify._weighted_sum, 0),
    (verify._shells, 2), (verify._shells, 1, 0),
    (verify._slab_sups,), (verify._cube_shells,),
]


def test_degree_cases_cover_every_functional():
    assert {functional for functional, *_ in DEGREE_CASES} == set(verify._DEGREES)


@pytest.mark.parametrize("dim", [2, 3])
def test_declared_degrees_match_the_dilation_slopes(dim):
    # f -> f(lam .) for lam = 1/2 and 2 rescales the box, not the samples, so
    # each functional's log2 slope is its degree up to rounding
    families = default_families(dim)[:6]
    assert len({fam.family for fam in families}) == 6
    for fam in families:
        member = sample_member(fam, default_grid(dim))
        copies = (gridfn.dilate_member(member, 0.5), member, gridfn.dilate_member(member, 2.0))
        for functional, *args in DEGREE_CASES:
            if dim == 3 and args == ["IterLor(2,1)"]:
                continue
            degree = verify._DEGREES[functional](dim, *args)
            down, mid, up = (functional(copy, *args) for copy in copies)
            for slope in (math.log2(mid / down), math.log2(up / mid)):
                assert slope == pytest.approx(degree, abs=1e-12), (fam.family, functional, args)


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
    fam = member.family
    scaled = sample_member(dataclasses.replace(fam, amplitude=fam.amplitude * 3.7), member.grid)
    lhs_s, rhs_s = entry.evaluate(scaled, params)[:2]
    assert math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0
    assert empirical_ratio(lhs_s, rhs_s) == pytest.approx(
        empirical_ratio(lhs, rhs), rel=1e-10, abs=1e-300)


def test_grad_norm_is_cached_per_p(monkeypatch, grid2):
    member = sample_member(corpus_generate(SEED, 2, grid2)[1], grid2)
    grad = np.sqrt(sum(d.values ** 2 for d in member.derivs))
    specs = []
    real = verify.norm_of_values

    def counting(values, grid, spec):
        specs.append(spec)
        return real(values, grid, spec)

    monkeypatch.setattr(verify, "norm_of_values", counting)
    for p in ("1.0", "2.0", "1.0", "2.0"):
        direct = (np.sum(grad ** float(p)) * grid2.cell_volume) ** (1.0 / float(p))
        assert verify._value(member, verify._grad, p) == pytest.approx(direct, rel=1e-12)
    assert specs == [Lebesgue(1.0), Lebesgue(2.0)]


def test_shared_h1_norms_are_evaluated_once_per_member(monkeypatch):
    # every one of these entries reads h1_norm of the derivatives of f
    calls = []
    real = fourier.h1_norm

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(fourier, "h1_norm", counting)
    grid = GridSpec.box(2, 4.0, 16)
    families = corpus_generate(SEED, 2, grid)
    ids = ("H_ineq", "oberlin", "embed321", "hardy1", "supH")
    run([registry_map()[i] for i in ids], 2, families, grid)
    assert len(calls) == 2 * 2 * 2  # members x grids x derivatives


def test_zero_function_passes_assert_entries(grid1):
    zero = [FamilySpec("gaussian", 1, 0.0, (0.0,), (1.0,))]
    for name in ("hardy", "bound", "omega1"):
        rep = run([registry_map()[name]], 1, zero, grid1)[0]
        assert rep.passed and rep.max_ratio_fine == 0.0


# -- reports -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    grid = GridSpec.box(1, 8.0, 128)
    families = corpus_generate(SEED, 4, grid)
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


def test_drift_of_an_infinite_maximum_is_infinite():
    # an entry whose maximum ratio is infinite on both grids is not stable
    assert verify._drift(math.inf, math.inf) == math.inf
    assert verify._drift(math.inf, 2.0) == verify._drift(2.0, math.nan) == math.inf
    assert verify._drift(0.0, 0.0) == 0.0
    assert verify._drift(2.0, 2.5) == 0.25


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_evaluates_the_specs_it_is_given(jobs):
    # a spec need not be the registry's copy: its params and id are used as given
    grid = GridSpec.box(1, 8.0, 128)
    members = sampled_corpus(SEED, 3, grid)
    bound = registry_map()["bound"]
    embed1 = {"p": 2.0, "q": 3.0, "s": 1.0 - (1 / 2.0 - 1 / 3.0)}
    specs = [dataclasses.replace(bound, params={1: {"p": 3.0}}),
             dataclasses.replace(bound, id="custom"),
             dataclasses.replace(registry_map()["embed1"], params={1: embed1})]
    reports = run(specs, 1, [m.family for m in members], grid, jobs=jobs)
    assert [(r.id, r.params) for r in reports] == [("bound", {"p": 3.0}),
                                                   ("custom", {"p": 2.0}),
                                                   ("embed1", embed1)]
    for spec, rep in zip(specs, reports):
        for row, m in zip(rep.rows, members):
            fine = sample_member(m.family, grid.refine())
            for grid_name, member in (("coarse", m), ("fine", fine)):
                lhs, rhs = spec.evaluate(member, spec.params[1])
                assert (row[f"lhs_{grid_name}"], row[f"rhs_{grid_name}"]) == (lhs, rhs)
                if spec.id == "embed1":  # its templates read the replaced params
                    assert (lhs, rhs) == _eval_embed1(member, embed1)


def test_run_is_deterministic_and_pool_safe():
    grid = GridSpec.box(1, 8.0, 128)
    families = corpus_generate(SEED, 4, grid)
    entry = registry_map()["omega1"]
    serial = run([entry], 1, families, grid, jobs=1)[0]
    pooled = run([entry], 1, families, grid, jobs=2)[0]
    assert serial.to_dict() == pooled.to_dict()


# Every entry kind at every dimension: dilation sweeps (embed0, embed1,
# embed32), which run first on the fine sample and drop their reduction memo
# before the spectral entries sharing cached transforms (H_ineq, pelcz,
# pelcz1, sup111, obertype33) run, and the Ulyanov table sweeps.
MULTI_ENTRY_CASES = [
    (1, GridSpec.box(1, 8.0, 128), ("bound", "embed1", "omega1", "Ulyanov1", "ulyanov0")),
    (2, GridSpec.box(2, 4.0, 16), ("H_ineq", "embed0", "embed1", "pelcz", "const1")),
    (3, GridSpec.box(3, 4.0, 16), ("obertype33", "embed32", "pelcz1", "sup111")),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dim,grid,ids", MULTI_ENTRY_CASES)
def test_multi_entry_run_matches_one_entry_runs(dim, grid, ids, jobs):
    families = corpus_generate(SEED, 3, grid)
    specs = [registry_map()[i] for i in ids]
    reports = run(specs, dim, families, grid, jobs=jobs)
    assert [r.id for r in reports] == list(ids)
    for spec, rep in zip(specs, reports):
        alone = run([spec], dim, families, grid, jobs=1)[0]
        # json text: rows may hold NaN exponents, which never compare equal
        assert json.dumps(rep.to_dict(), sort_keys=True) == \
            json.dumps(alone.to_dict(), sort_keys=True)


def test_sweep_memo_is_small_and_gone_before_any_spectrum(monkeypatch):
    # verify_all's 3-D fine grid (64^3), and a Gaussian: its support box is
    # the whole grid, so its memo is the largest
    grid = default_grid(3)
    fam = default_families(3)[0]
    assert fam.family == "gaussian"
    events, memos = [], []
    share = verify._share_reductions

    def spy_share(f, source):
        events.append(("share", f.spec, source is not None))
        share(f, source)
        if source is not None:
            memos.append(vars(f)["_reductions"])

    transform = fourier.transform

    def spy_transform(f):
        events.append(("transform", f.spec, None))
        return transform(f)

    monkeypatch.setattr(verify, "_share_reductions", spy_share)
    monkeypatch.setattr(fourier, "transform", spy_transform)
    specs = [registry_map()[i] for i in ("pelcz1", "embed32")]
    verify._evaluate_member((specs, 3, 0, fam, grid))
    # one memo, attached to the fine sample and its two copies, then detached
    fine = grid.refine()
    assert [(kind, spec.half_extents[0], on) for kind, spec, on in events
            if kind == "share"] == [("share", 4.0, True), ("share", 8.0, True),
                                    ("share", 2.0, True), ("share", 4.0, False)]
    assert all(memo is memos[0] for memo in memos)
    assert 0 < sum(part.nbytes for reductions in memos[0].values()
                   for part in reductions.values()) <= 4e6
    # the fine sample's spectra come after the memo is gone
    detached = events.index(("share", fine, False))
    spectra = [i for i, (kind, spec, _) in enumerate(events)
               if kind == "transform" and spec == fine]
    assert spectra and min(spectra) > detached


def test_run_all_makes_one_run_per_dimension(monkeypatch, grid1, grid2):
    calls = []
    real_run = verify.run

    def counting_run(specs, dim, *args, **kwargs):
        calls.append((dim, [s.id for s in specs]))
        return real_run(specs, dim, *args, **kwargs)

    monkeypatch.setattr(verify, "run", counting_run)
    corpora = {1: (corpus_generate(SEED, 2, grid1), grid1),
               2: (corpus_generate(SEED, 2, grid2), grid2)}
    reports, _ = run_all(ids=["omega1", "bound", "embed1", "const1"], corpora=corpora)
    assert calls == [(1, ["bound", "embed1", "omega1"]), (2, ["const1", "embed1"])]
    assert [(r.id, r.dim) for r in reports] == [
        ("bound", 1), ("const1", 2), ("embed1", 1), ("embed1", 2), ("omega1", 1)]


def test_each_family_is_sampled_once_per_grid(monkeypatch):
    # drawing a corpus samples nothing; the run samples each member once on
    # the coarse grid and once on its refinement
    calls = []

    def counting(fam, grid):
        calls.append((fam, grid))
        return sample_member(fam, grid)

    monkeypatch.setattr(gridfn, "sample_member", counting)
    monkeypatch.setattr(verify, "sample_member", counting)
    corpora = {d: (default_families(d, count=2), verify.default_grid(d)) for d in (1, 2, 3)}
    assert calls == []
    run_all(ids=["bound", "pelcz"], corpora=corpora, jobs=1)
    pairs = {(fam, g) for families, grid in corpora.values()
             for fam in families for g in (grid, grid.refine())}
    assert len(calls) == len(pairs) == 12 and set(calls) == pairs


def test_dilation_sweep_reports_matched_exponents():
    grid = GridSpec.box(1, 8.0, 128)
    families = corpus_generate(SEED, 3, grid)
    rep = run([registry_map()["embed1"]], 1, families, grid)[0]
    assert rep.dilation is not None
    assert rep.dilation["factors"] == [0.5, 1.0, 2.0]
    assert rep.dilation["matched"] is True
    assert rep.dilation["max_exponent_gap"] <= 0.05
    # both sides of embed1 in 1-D have the declared degree 1 - 1/p = 1/2
    for row in rep.rows:
        assert len(row["lhs_scaling_exponents"]) == 2
        assert set(row["dilation_values"]) == {"0.5", "2.0"}
        for e in row["lhs_scaling_exponents"] + row["rhs_scaling_exponents"]:
            assert e == pytest.approx(0.5, abs=1e-12)


def test_run_all_subset_and_unknown_ids(grid1):
    families = corpus_generate(SEED, 3, grid1)
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


def test_probe_structure(tmp_path, monkeypatch):
    # probe runs on the default corpus; a small one keeps this test fast
    grid = GridSpec.box(2, 4.0, 16)
    monkeypatch.setattr(verify, "default_grid", lambda dim: grid)
    monkeypatch.setattr(verify, "default_families", lambda dim: corpus_generate(SEED, 2, grid))
    out = probe("obertype_n2", depth=1)
    assert [len(lv["rows"]) for lv in out["levels"]] == [2, 2]
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
    with pytest.raises(TypeError):
        probe("obertype_n2", families=[])  # a probe runs on the default corpus


# -- sides against the evaluators they replaced --------------------------------
# The per-entry evaluators as they stood before the registry sides became sums
# of shared functionals.  Every side must reproduce them bit for bit.


def _grad_norm(member, p):
    g = np.sqrt(sum(d.values ** 2 for d in member.derivs))
    return norm_of_values(g, member.grid, Lebesgue(p))


def _besov_axis_sum(member, alpha, theta, base_for_axis):
    total = 0.0
    for k in range(member.dim):
        spec = BesovSpec(alpha, theta, k, base_for_axis(k))
        total += besov_seminorm(member.f, spec, deriv=member.derivs[k])
    return total


def _eval_sob1(member, params):
    return lp_norm(member.f, params["pstar"]), _grad_norm(member, params["p"])


def _eval_embed0(member, params):
    lhs = norm(member.f, Lorentz(params["pstar"], params["p"]))
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
    q, alpha = params["q"], params["alpha"]
    lhs = _besov_axis_sum(member, alpha, 1.0,
                          lambda k: Mixed(k, Lebesgue(1.0), Lorentz(q, 1.0)))
    rhs = sum(fourier.h1_norm(d) for d in member.derivs)
    return lhs, rhs


def _eval_diff(member, params):
    p, q, theta = params["p"], params["q"], params["theta"]
    alpha, beta = params["alpha"], params["beta"]
    lhs = lp_norm(member.f, q) + _besov_axis_sum(member, beta, theta,
                                                 lambda k: Lebesgue(q))
    rhs = lp_norm(member.f, p) + _besov_axis_sum(member, alpha, theta,
                                                 lambda k: Lebesgue(p))
    return lhs, rhs


def _eval_equivalence(member, params):
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
    return norm(member.f, Lorentz(params["p"], params["nu"])), rhs


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
    return norm(member.f, Lorentz(p, nu)), iterated_lorentz_norm(member.f, p, nu)


def _eval_const2(member, params):
    p, nu = params["p"], params["nu"]
    return iterated_lorentz_norm(member.f, p, nu), norm(member.f, Lorentz(p, nu))


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
    return fourier.dyadic_shell_sum(F, 1 - member.dim), fourier.h1_norm(g)


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
    return fourier.dyadic_shell_sum(F, 2 - member.dim), _grad_norm(member, 1.0)


def _eval_obertype33(member, params):
    F = fourier.transform(member.f)
    return fourier.cube_shell_sum(F), _grad_norm(member, 1.0)


def _eval_embed_compare(member, params):
    lhs = _eval_embed1(member, params)[0]
    rhs = _eval_embed32(member, params)[0]
    return lhs, rhs


REFERENCE = {
    "sob1": _eval_sob1, "embed0": _eval_embed0, "embed1": _eval_embed1,
    "embed32": _eval_embed32, "embed321": _eval_hardy_refined,
    "hardy1": _eval_hardy_refined, "diff": _eval_diff,
    "equivalence": _eval_equivalence, "simple1": _eval_simple1,
    "simple2": _eval_simple2, "strong1": _eval_strong1, "strong10": _eval_strong10,
    "const1": _eval_const1, "const2": _eval_const2, "H_ineq": _eval_h_ineq,
    "pelcz": _eval_pelcz, "pelcz1": _eval_pelcz1, "oberlin": _eval_oberlin,
    "sup111": _eval_sup_integral, "supH": _eval_sup_integral_h1,
    "obertype1": _eval_obertype1, "obertype33": _eval_obertype33,
    "embed1_vs_embed32": _eval_embed_compare, "embed32_n2_p1": _eval_embed32,
    "obertype_n2": _eval_obertype1,
}
# one member of each of the six families, on grids small enough to run every side
ORACLE_GRIDS = {1: GridSpec.box(1, 8.0, 32), 2: GridSpec.box(2, 4.0, 16),
                3: GridSpec.box(3, 4.0, 8)}
SIDES_CASES = [(e.id, d) for e in registry() if isinstance(e.evaluate, verify.Sides)
               for d in e.dims]


def test_every_sides_entry_has_a_reference():
    assert {i for i, _ in SIDES_CASES} == set(REFERENCE)


@pytest.mark.parametrize("entry_id,dim", SIDES_CASES)
def test_sides_equal_the_evaluators_they_replaced(entry_id, dim):
    entry = registry_map()[entry_id]
    params = entry.params[dim]
    members = sampled_corpus(SEED, 6, ORACLE_GRIDS[dim])
    assert len({m.family.family for m in members}) == 6
    for member in members:
        assert entry.evaluate(member, params) == REFERENCE[entry_id](member, params)


def test_registry_pickles_and_names_only_private_functionals():
    # a tracer wraps public functions after the registry is built, so a term
    # that held one would bypass the wrapper
    entries = registry()
    assert pickle.loads(pickle.dumps(entries)) == entries
    for entry in entries:
        if isinstance(entry.evaluate, verify.Sides):
            for functional, *_ in entry.evaluate.lhs + entry.evaluate.rhs:
                assert inspect.isfunction(functional)
                assert functional.__name__.startswith("_")
                assert functional.__module__ == "ineqkit.verify"

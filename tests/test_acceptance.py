"""Acceptance gate: nine end-to-end criteria over seeded corpora.

Each test prints one `criterion N: PASS/FAIL` line with the measured
numbers, then asserts.  Budgeted criteria also time themselves.
"""

import copy
import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ineqkit.fourier import (SpectralFunction, cone_derivative_check, dual_grid,
                             dyadic_shell_sum, dyadic_shell_terms,
                             frequency_radii, riesz, transform)
from ineqkit.gridfn import GridFunction, GridSpec, corpus_generate
from ineqkit.norms import lp_norm, mixed_norm, norm_of_values, parse_norm
from ineqkit.rearrange import (decreasing_rearrangement, distribution_function,
                               iterated_rearrangement)
from ineqkit.verify import (PROBE_LABEL, default_grid, probe, registry_map,
                            run, run_all, save_report)

from conftest import SEED, sampled_corpus


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_rearrangement_exactness():
    started = time.perf_counter()
    members = (sampled_corpus(SEED, 50, default_grid(1))
               + sampled_corpus(SEED, 50, default_grid(2)))
    mismatches = 0
    worst_mass = 0.0
    for m in members:
        prof = decreasing_rearrangement(m.f)
        for v in prof.values:
            if distribution_function(m.f, v) != prof.level_measure(v):
                mismatches += 1
        l1 = lp_norm(m.f, 1.0)
        worst_mass = max(worst_mass, abs(prof.total_mass - l1) / l1)
    runtime = time.perf_counter() - started
    ok = mismatches == 0 and worst_mass <= 1e-12 and runtime < 10.0
    assert verdict(1, ok, f"100 members, {mismatches} level mismatches, "
                          f"mass err {worst_mass:.2e}, {runtime:.1f}s")


def test_criterion_2_explicit_constant_suite():
    started = time.perf_counter()
    ids = ["hardy", "bound", "ulyanov0", "Ulyanov1", "omega1"]
    reports, _ = run_all(ids=ids, jobs=1)
    runtime = time.perf_counter() - started
    consts = ", ".join(f"{r.id}={r.empirical_constant:.4f}/{r.constant:g}"
                       for r in reports)
    ok = all(r.passed for r in reports) and runtime < 30.0
    assert verdict(2, ok, f"{consts}, {runtime:.1f}s")


def test_criterion_3_gaussian_self_duality_and_riesz():
    errs = []
    for dim, n, tol in ((1, 512, 1e-8), (2, 256, 1e-6)):
        grid = GridSpec.box(dim, 8.0, n)
        mesh = grid.meshgrid()
        f = GridFunction(grid, np.exp(-np.pi * sum(x ** 2 for x in mesh)))
        F = transform(f)
        expected = np.exp(-np.pi * frequency_radii(F.spec) ** 2)
        errs.append((dim, float(np.max(np.abs(F.values - expected))), tol))
    riesz_errs = []
    for dim, n in ((1, 512), (2, 128)):
        grid = GridSpec.box(dim, 8.0, n)
        mesh = grid.meshgrid()
        vals = -2.0 * np.pi * mesh[0] * np.exp(-np.pi * sum(x ** 2 for x in mesh))
        f = GridFunction(grid, vals)
        total = np.zeros(grid.shape)
        for j in range(dim):
            total += riesz(riesz(f, j), j).values
        riesz_errs.append((dim, float(np.max(np.abs(total + f.values)))
                           / float(np.max(np.abs(vals)))))
    ok = (all(err <= tol for _, err, tol in errs)
          and all(err <= 1e-8 for _, err in riesz_errs))
    assert verdict(3, ok, "duality " + " ".join(f"n{d}:{e:.1e}" for d, e, _ in errs)
                   + ", riesz " + " ".join(f"n{d}:{e:.1e}" for d, e in riesz_errs))


def test_criterion_4_cone_pointwise_domination():
    members = sampled_corpus(SEED, 20, default_grid(2))
    worst = -math.inf
    for m in members:
        lhs, rhs = cone_derivative_check(m.f)
        scale = float(np.max(np.abs(m.f.values)))
        worst = max(worst, float(np.max(lhs - rhs)) / (1e-6 * scale))
    ok = worst <= 1.0
    assert verdict(4, ok, f"20 members, worst violation {worst:.2e} "
                          "of the 1e-6 * scale budget")


def test_criterion_5_dilation_homogeneity():
    gaps = []
    ok = True
    for eid in ("embed0", "embed1", "embed32"):
        entry = registry_map()[eid]
        for dim in sorted(entry.params):
            grid = default_grid(dim)
            families = corpus_generate(SEED, 10, grid)
            rep = run([entry], dim, families, grid)[0]
            ok = ok and rep.dilation is not None and rep.dilation["matched"]
            gaps.append(f"{eid}@n{dim}:{rep.dilation['max_exponent_gap']:.1e}")
    assert verdict(5, ok, "exponent gaps " + " ".join(gaps))


STABILITY_CASES = [
    ("Ulyanov2", 1), ("Ulyanov3", 1), ("diff", 1),
    ("oberlin", 2), ("const1", 2), ("const2", 2), ("strong10", 2),
    ("simple2", 2), ("pelcz", 2),
    ("embed32", 3), ("sup111", 3), ("obertype1", 3), ("pelcz", 3),
]


def test_criterion_6_empirical_constant_stability():
    pinned = registry_map()["embed32"].params[3]
    assert pinned["p"] == 1.0 and pinned["q"] == 1.5
    grids = {1: default_grid(1), 2: default_grid(2), 3: GridSpec.box(3, 4.0, 64)}
    corpora = {d: corpus_generate(SEED, 20, g)
               for d, g in grids.items()}
    drifts = []
    n3_runtime = 0.0
    ok = True
    for eid, dim in STABILITY_CASES:
        started = time.perf_counter()
        rep = run([registry_map()[eid]], dim, corpora[dim], grids[dim])[0]
        elapsed = time.perf_counter() - started
        if dim == 3:
            n3_runtime += elapsed
        ok = ok and rep.stable
        drifts.append(f"{eid}@n{dim}:{rep.refinement_drift:.3f}")
    ok = ok and n3_runtime < 600.0
    assert verdict(6, ok, "drift " + " ".join(drifts)
                   + f", n3 block {n3_runtime:.0f}s")


def test_criterion_7_oracle_equivalences():
    # mixed norms against explicit slicing
    grid2 = default_grid(2)
    members = sampled_corpus(SEED, 3, grid2)
    mixed_err = 0.0
    for text in ("Mix(0;Leb(1);Lor(2,1))", "Mix(1;Lor(2,1);Leb(1))"):
        spec = parse_norm(text)
        for m in members:
            axis = spec.axis
            line = GridSpec(1, (grid2.half_extents[axis],), (grid2.points[axis],))
            moved = np.moveaxis(np.abs(m.f.values), axis, -1)
            inner = np.empty(moved.shape[:-1])
            for idx in np.ndindex(*moved.shape[:-1]):
                inner[idx] = norm_of_values(moved[idx], line, spec.inner)
            expected = norm_of_values(inner, grid2.drop_axis(axis), spec.outer)
            got = mixed_norm(m.f, spec)
            mixed_err = max(mixed_err, abs(got - expected) / expected)

    # dyadic shell sums against a dense analytic (k, r)-sweep
    dual = dual_grid(GridSpec.box(2, 4.0, 32))
    F = SpectralFunction(dual, np.exp(-frequency_radii(dual) ** 2))
    ks, _ = dyadic_shell_terms(F)
    dense = sum(2.0 ** (k * -1.0) * np.max(2.0 * np.pi * r * np.exp(-r ** 2))
                for k in ks
                for r in [np.geomspace(2.0 ** k, 2.0 ** (k + 1), 400)])
    shell_err = abs(dyadic_shell_sum(F, -1.0) - dense) / dense

    # iterated rearrangement factorizes on product functions
    rng = np.random.default_rng(SEED)
    sep_err = 0.0
    for _ in range(3):
        a = rng.uniform(0.0, 2.0, 24)
        b = rng.uniform(0.0, 2.0, 16)
        grid = GridSpec(2, (3.0, 2.0), (24, 16))
        table = iterated_rearrangement(GridFunction(grid, np.outer(a, b))).table
        expected = np.outer(np.sort(a)[::-1], np.sort(b)[::-1])
        sep_err = max(sep_err, float(np.max(np.abs(table - expected)))
                      / float(expected.max()))

    ok = mixed_err <= 1e-12 and shell_err <= 0.02 and sep_err <= 1e-10
    assert verdict(7, ok, f"mixed {mixed_err:.1e}, shell {shell_err:.1e}, "
                          f"separability {sep_err:.1e}")


def test_criterion_8_probe_outputs():
    ok = True
    ratios = []
    for question in ("embed32_n2_p1", "obertype_n2"):
        out = probe(question, depth=2, jobs=1)
        ok = (ok and out["label"] == PROBE_LABEL
              and "OPEN QUESTION" in out["label"]
              and len(out["levels"]) == 3
              and out["max_ratios"] == [lv["max_ratio"] for lv in out["levels"]]
              and isinstance(out["monotone_nondecreasing"], bool)
              and "passed" not in out)
        ratios.append(f"{question}:{['%.2f' % r for r in out['max_ratios']]}")
    # evidence only: the ratio trajectories are reported, never judged
    assert verdict(8, ok, "; ".join(ratios))


@pytest.fixture(scope="module")
def verify_all_text(tmp_path_factory):
    """One default `verify all` report (run_all(jobs=1)) as save_report writes it.

    Criterion 9 and the reference check share it, so neither adds a run.
    """
    path = tmp_path_factory.mktemp("verify_all") / "report.json"
    reports, metadata = run_all(jobs=1)
    save_report(path, reports, metadata)
    return path.read_text()


def test_criterion_9_verify_all_determinism(tmp_path, verify_all_text):
    reports, metadata = run_all(jobs=1)
    path = tmp_path / "report1.json"
    save_report(path, reports, metadata)
    texts = []
    for text in (verify_all_text, path.read_text()):
        stamp = json.loads(text)["metadata"]["timestamp"]
        texts.append(text.replace(json.dumps(stamp), '"X"', 1))
    ok = texts[0] == texts[1]
    assert verdict(9, ok, f"{len(texts[0])} bytes, identical outside timestamp")


def _perfbench_check():
    """perfbench/check.py, the one reader of the committed reference rows."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_rows_match_the_committed_reference(verify_all_text):
    # every default-seed row equals perfbench/reference.json to its rel_tol:
    # a change that moves a value rebuilds the reference in the same diff
    check = _perfbench_check()
    reference = check.load_reference(SEED)
    doc = json.loads(verify_all_text)
    assert check.failed_rows(doc, reference) == set()
    # one field moved by 1e-11 relative fails its row, and only it
    moved = copy.deepcopy(doc)
    rep = moved["reports"][len(moved["reports"]) // 2]
    row = rep["rows"][-1]
    row["rhs_fine"] *= 1 + 1e-11
    assert check.failed_rows(moved, reference) == {(rep["id"], rep["dim"], row["member"])}

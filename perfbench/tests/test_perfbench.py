"""Self-tests of the benchmark harness (not part of the ineqkit test suite).

    python -m pytest perfbench/tests -q
"""

import copy
import math

import pytest

import check
import run as bench
import tracing
import workloads
from ineqkit import render, smoothness, verify

SEED = verify.DEFAULT_SEED

# The functions the per-layer metrics name: each must record at least one
# call on a one-member corpus.
NAMED = ("gridfn.sample_member", "smoothness.difference_norms",
         "norms.norm_of_values", "rearrange.decreasing_rearrangement",
         "fourier.transform", "fourier.riesz", "fourier.sup_integral_functional",
         "fourier.dyadic_shell_sum", "fourier.h1_norm", "verify.run",
         "verify.save_report", "render.render_csv", "render.render_svg")


def _one_member_pass(outdir):
    corpora = {d: (verify.default_families(d, SEED, count=1), verify.default_grid(d))
               for d in (1, 2, 3)}
    return bench.timed_pass({"corpora": corpora, "jobs": 1}, outdir)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """An untraced and a traced pass over a one-member corpus per dimension."""
    outdir = tmp_path_factory.mktemp("out")
    plain = _one_member_pass(outdir)
    tracer = tracing.Tracer()
    with tracer:
        traced = _one_member_pass(outdir)
    return plain, traced, tracer


def test_every_named_function_records_a_call(passes):
    _, _, tracer = passes
    calls = dict(zip(tracer.names, tracer.calls))
    assert {name: calls.get(name, 0) for name in NAMED
            if calls.get(name, 0) == 0} == {}
    # verify imported difference_norms by name: its calls must be seen too
    assert tracer.metrics()["smoothness.difference_norms.calls"] > 0


def test_uninstall_restores_the_modules(passes):
    assert not hasattr(verify.difference_norms, "__wrapped__")
    assert verify.difference_norms is smoothness.difference_norms
    assert not hasattr(render.render_csv, "__wrapped__")


def test_tracing_changes_no_result(passes):
    plain, traced, _ = passes
    assert check.canonical(traced["doc"]) == check.canonical(plain["doc"])


def test_self_time_sums_to_inclusive_time_of_the_top_spans(passes):
    _, _, tracer = passes
    top = sum(e - s for e, s, p in zip(tracer.end, tracer.start, tracer.parent) if p < 0)
    assert math.isclose(sum(tracer.self_time), top, rel_tol=1e-9)


@pytest.mark.parametrize("name", sorted(workloads.ROWS))
def test_workload_inputs_are_a_pure_function_of_the_seed(name):
    a, b = workloads.inputs(name, SEED), workloads.inputs(name, SEED)
    assert a == b
    assert workloads.inputs(name, SEED + 1) != a


def test_committed_reference_covers_both_workloads():
    ref = check.load_reference(SEED)
    assert len(ref) == workloads.ROWS["verify_all"]
    spectral = [k for k in ref if k[0] in workloads.SPECTRAL_IDS and k[1] == 3]
    assert len(spectral) == workloads.ROWS["spectral_3d"]
    assert check.load_reference(SEED + 1) is None


def _checked(doc, reference):
    checker = bench.Checker(len(check.row_table(doc)), reference)
    checker.add({"doc": doc})
    return checker.failed / checker.attempted


def test_failed_frac_counts_a_perturbed_reference_value(passes, tmp_path):
    doc = passes[0]["doc"]
    check.write_reference(doc, SEED, tmp_path / "ref.json")
    ref = check.load_reference(SEED, tmp_path / "ref.json")
    assert _checked(doc, ref) == 0

    key = next(iter(ref))
    within, beyond = copy.deepcopy(ref), copy.deepcopy(ref)
    within[key]["lhs_fine"] *= 1 + 1e-13
    beyond[key]["lhs_fine"] *= 1 + 1e-11
    assert _checked(doc, within) == 0
    assert _checked(doc, beyond) == 1 / len(ref)


def test_without_a_reference_the_reports_failures_count(passes):
    doc = copy.deepcopy(passes[0]["doc"])
    assert _checked(doc, None) == 0
    doc["reports"][0]["failures"].append("member 0: non-finite side (inf, 1, 1, 1)")
    assert _checked(doc, None) > 0

"""Tests of the benchmark itself: tracing changes no result, trace
counts repeat exactly, the wrappers are removed again, and the
reference check applies its rules.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

Each test runs a cheap subset of every workload's operations.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import harmonicdisk.cli  # noqa: E402,F401
from perfbench import passes, tracing, workloads  # noqa: E402

CHEAP = {
    "series-verify": ("verify.prop1.identity", "verify.thm3.identity",
                      "verify.thm5.identity", "verify.schwarz.identity",
                      "verify.selfmap.identity",
                      "verify.selfmap.affine:1,0.5"),
    "poisson-verify": ("verify.prop2.poisson:phi=t+0.2*sin(t)",
                       "verify.selfmap.poisson:phi=t+0.2*sin(t)",
                       "length.crosscut"),
    "curves": ("constants.square", "lavrentiev.poly2048",
               "ahlfors.poly2048"),
}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def cheap_ops(request, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp(request.param))
    ops = [op for op in workloads.build(request.param, 0, workdir)
           if op.name in CHEAP[request.param]]
    assert len(ops) == len(CHEAP[request.param])
    return request.param, ops, workdir


def _traced_pass(ops, workdir):
    tracer = tracing.Tracer()
    with tracer:
        result = passes.run_pass(ops, workdir)
    return result, tracing.layer_metrics(tracer.spans, result.wall)


def test_traced_pass_matches_untraced(cheap_ops):
    workload, ops, workdir = cheap_ops
    plain = passes.run_pass(ops, workdir)
    traced, _ = _traced_pass(ops, workdir)
    assert traced.payloads == plain.payloads
    assert traced.outcomes == plain.outcomes
    reference = passes.load_reference(workload, 0)
    assert passes.check(ops, [plain, traced], reference) == []


def test_trace_counts_repeat_exactly(cheap_ops):
    _, ops, workdir = cheap_ops
    _, first = _traced_pass(ops, workdir)
    _, second = _traced_pass(ops, workdir)
    counts = {k for k, (_, unit) in first.items()
              if unit in ("count", "bytes")}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert any(first[k][0] > 0 for k in counts)


def test_wrappers_restore_the_originals():
    from harmonicdisk import geometry, maps, quadrature, theorems

    adaptive = quadrature.adaptive_simpson
    derivs = maps.SeriesHarmonicMap.__dict__["derivs_many"]
    tracer = tracing.Tracer()
    with tracer:
        patches = tracer.patched()
        assert geometry.adaptive_simpson is not adaptive
        assert theorems.adaptive_simpson is geometry.adaptive_simpson
        assert maps.SeriesHarmonicMap.__dict__["derivs_many"] is not derivs
    assert len(patches) > 100
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    assert geometry.adaptive_simpson is adaptive
    assert theorems.adaptive_simpson is adaptive
    assert maps.SeriesHarmonicMap.__dict__["derivs_many"] is derivs
    assert tracer.patched() == []


def test_compare_rules():
    value = workloads.Operation("v", ("verify", "thm1"))
    bound = workloads.Operation("c", ("constants",), lower_bound=True)
    ref = {"exit": 0, "verdicts": [True], "values": {"x": 2.0}}

    def got(x, code=0, verdicts=(True,)):
        return {"exit": code, "verdicts": list(verdicts), "values": {"x": x}}

    assert passes.compare(value, got(2.0 + 1e-7), ref) == []
    assert passes.compare(value, got(2.0 + 1e-6), ref) != []
    assert passes.compare(value, got(2.0 - 1e-6), ref) != []
    assert passes.compare(bound, got(2.5), ref) == []
    assert passes.compare(bound, got(2.0 - 1e-6), ref) != []
    assert passes.compare(value, got(float("nan")), ref) != []
    assert passes.compare(bound, got(float("inf")), ref) != []
    assert passes.compare(value, got(2.0, code=3), ref) != []
    assert passes.compare(value, got(2.0, verdicts=(False,)), ref) != []
    refusal = {"exit": 3, "verdicts": [], "values": {}}
    assert passes.compare(value, {"exit": 3, "verdicts": [], "values": {}},
                          refusal) == []
    assert passes.compare(value, {"error": "ValueError: x"}, ref) != []

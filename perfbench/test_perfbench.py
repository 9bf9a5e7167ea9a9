"""Tests of the benchmark itself: generators, the gate and the span arithmetic."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hrsym.algebra import build_algebra, check_jacobi
from hrsym.scenarios import CheckResult, RunReport, run_scenario, scenario_from_dict
from perfbench import gate, run, tracing, workloads

GENERATED = ("operators", "flows", "exact")


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_same_scenarios_other_seed_differs(workload):
    first = workloads.build(workload, 11)
    assert workloads.build(workload, 11) == first
    other = workloads.build(workload, 12)
    assert [it.label for it in other] == [it.label for it in first]
    assert [it.scenario for it in other] != [it.scenario for it in first]


def _outcomes(items):
    return [(it.label, run_scenario(scenario_from_dict(it.scenario))) for it in items]


@pytest.mark.parametrize("workload, seed", [
    ("exact", 58), ("exact", 2024),
    ("operators", 5), ("operators", 731),
    ("flows", 8), ("flows", 404),
])
def test_generated_scenarios_meet_their_expectations(workload, seed):
    items = workloads.build(workload, seed)
    assert gate.check(items, _outcomes(items)) == []


def test_paper_meets_the_recorded_listing():
    items = workloads.build("paper", 0)
    listing = gate.load_listing()
    assert (listing["scenario_count"], listing["check_count"]) == (25, 55)
    assert [it.label for it in items] == [e["label"] for e in listing["scenarios"]]


def test_galilei_table_at_three_dimensions_is_the_catalog_g3tilde():
    _, table = workloads.galilei_table(3)
    catalog = build_algebra("g3tilde").bracket_table()
    assert table == {key: {c: int(f) for c, f in terms.items()} for key, terms in catalog.items()}


def test_every_single_flip_of_the_three_dimensional_algebra_breaks_jacobi():
    import random

    desc = workloads.galilei_descriptor(3, random.Random(0), "galilei3")
    assert check_jacobi(build_algebra(desc)).passed
    for i, entry in enumerate(desc["brackets"]):
        for j in range(len(entry["terms"])):
            brackets = [{**b, "terms": [dict(t) for t in b["terms"]]} for b in desc["brackets"]]
            brackets[i]["terms"][j]["num"] *= -1
            flipped = build_algebra({**desc, "brackets": brackets})
            assert not check_jacobi(flipped).passed, (entry["a"], entry["b"])


def test_expected_shells_match_the_suite_expectations():
    assert workloads.expected_shells(3, 0, 0) == {"0": [0], "1": [1], "2": [0, 2], "3": [1, 3]}
    assert workloads.expected_shells(0, 0.5, 0.5) == {"0": [0, 1]}


def _report(*checks):
    return RunReport(scenario_digest="x", checks=[CheckResult(*c) for c in checks])


def test_gate_flags_a_wrong_expectation():
    items = workloads.build("exact", 1)
    flip = next(it for it in items if it.label == "algebra:galilei3_flip")
    outcome = _outcomes([flip])
    assert gate.check([flip], outcome) == []
    wrong = workloads.Item(flip.label, flip.scenario)  # claims every check passes
    [(label, reason)] = gate.check([wrong], outcome)
    assert label == flip.label and "jacobi:galilei3_flip" in reason


def test_gate_flags_exceptions_missing_scenarios_and_headlines():
    item = workloads.Item("c", {"kind": "composite", "payload": {"particleA": {"hbar": 2.0}}})
    good = _report(("ccr:x_naive:p", "naive-position-sum-noncanonical", True,
                    {"coefficient": 4.0}))
    assert gate.check([item], [("c", good)]) == []
    bad = _report(("ccr:x_naive:p", "naive-position-sum-noncanonical", True,
                   {"coefficient": 2.0}))
    assert "coefficient" in gate.check([item], [("c", bad)])[0][1]
    assert "raised" in gate.check([item], [("c", ValueError("boom"))])[0][1]
    assert gate.check([item], []) == [("c", "not run")]

    flow = workloads.Item("f", {"kind": "dynamics", "payload": {"calV": 3.0}})
    slope = _report(("flow_agreement_free", "flow-dichotomy", True,
                     {"phase_slope": 3.0, "max_phase_error": 0.0}))
    assert "phase slope" in gate.check([flow], [("f", slope)])[0][1]


def test_gate_flags_a_listing_mismatch():
    item = workloads.Item("00_algebra", {"kind": "algebra", "payload": {}})
    listing = {"scenario_count": 1, "check_count": 1,
               "scenarios": [{"label": "00_algebra", "checks": [["jacobi:h3", "jacobi-identity"]]}]}
    same = _report(("jacobi:h3", "jacobi-identity", True))
    assert gate.check([item], [("00_algebra", same)], listing) == []
    renamed = _report(("jacobi:h3x", "jacobi-identity", True))
    assert len(gate.check([item], [("00_algebra", renamed)], listing)) == 1
    extra = _report(("jacobi:h3", "jacobi-identity", True), ("more", "jacobi-identity", True))
    assert len(gate.check([item], [("00_algebra", extra)], listing)) == 2  # checks and count


def _span(sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "iteration": 0, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, "root", 0, 100), _span(1, "a", 10, 40, 0), _span(2, "b", 30, 60, 0),
             _span(3, "c", 15, 20, 1)]
    children = tracing.children_of(spans)
    assert tracing.self_ns(spans[0], children) == 50
    assert tracing.self_ns(spans[1], children) == 25
    assert tracing.self_ns(spans[3], children) == 5
    assert [s["id"] for s in tracing.outermost(spans, {"a", "c"})] == [1]


def test_unattributed_time_is_split_by_enclosing_scenario():
    it = _span(0, "iteration", 0, 100)
    spans = [it,
             _span(1, "scenarios.run_scenario", 5, 95, 0, kind="dynamics:x"),
             _span(2, "dynamics.evolve_state", 10, 50, 1),
             _span(3, "dynamics.expm", 20, 30, 2),
             _span(4, "report.render", 60, 70, 1)]
    total, regions = tracing.unattributed(it, spans)
    assert total == 50
    assert regions == {"dynamics:x": 40, "benchmark loop": 10}
    m = tracing.iteration_metrics(it, spans)
    assert m["dynamics.evolve_s"] == pytest.approx(30e-9)
    assert m["dynamics.expm_s"] == pytest.approx(10e-9)
    assert m["trace.unattributed_ratio"] == pytest.approx(0.5)


def test_installed_wrappers_record_spans_and_are_removed():
    import scipy

    import hrsym.dynamics
    import hrsym.scenarios

    original = hrsym.scenarios.run_scenario
    tracer = tracing.Tracer()
    items = workloads.build("flows", 0)
    small = next(it for it in items if it.label == "dynamics:relative_conservation:n6:spin")
    with tracing.installed(tracer):
        assert hrsym.scenarios.run_scenario is not original
        with tracer.span("iteration") as frame:
            hrsym.scenarios.run_scenario(scenario_from_dict(small.scenario))
    assert hrsym.scenarios.run_scenario is original and hrsym.dynamics.scipy is scipy
    m = tracing.iteration_metrics(frame, tracer.spans)
    assert m["spin.relmode_build_s"] > 0 and m["dynamics.expm_calls"] > 0
    assert m["dynamics.grid_points"] == 31


def test_per_layer_metrics_match_the_benchmark_spec():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    frame = _span(0, "iteration", 0, 10)
    names = set(tracing.iteration_metrics(frame, [frame])) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_tail_keeps_ten_iterations_beyond_it():
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 66)

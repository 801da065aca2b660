"""Self-tests of the benchmark: the oracle gate, failure counting, span
arithmetic and seed independence of the op counts.

Run:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json

import numpy as np
import pytest

import run
import tracing
import workloads
from conftest import ROOT
from univalence_lab import cli
from univalence_lab.errors import DomainError


def _step(plan, name):
    return next(s for s in plan.steps if s.name == name)


def test_gate_rejects_value_perturbed_by_1e_8(tmp_path):
    plan = workloads.build_image(ROOT, 5, str(tmp_path))
    step = _step(plan, "eval[example31_thm32]")
    result = step.run()
    assert all(status == "ok" for status, _ in step.gate(result))

    out = tmp_path / "eval_example31_thm32.csv"
    with open(out, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    cells = lines[17].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-8))
    lines[17] = ",".join(cells)
    with open(out, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

    statuses = step.gate(result)
    assert statuses[16][0] == "wrong"
    assert sum(status != "ok" for status, _ in statuses) == 1


def test_gate_rejects_perturbed_sup_and_flipped_verdict(tmp_path):
    plan = workloads.build_verdict(ROOT, 5, str(tmp_path))
    step = _step(plan, "criterion_check[example31,thm41]")
    report = step.run()
    assert step.gate(report) == [("ok", "")]

    nudged = dataclasses.replace(report, sup_value=report.sup_value * (1.0 + 1e-8))
    assert step.gate(nudged)[0][0] == "wrong"
    flipped = dataclasses.replace(report, passed=not report.passed)
    assert step.gate(flipped)[0][0] == "wrong"


def _plan(steps):
    return workloads.Plan(steps)


def _raising():
    raise DomainError("outside the disk")


def test_raised_library_error_counts_as_failed():
    steps = [
        workloads.Step("boom", ["boom#0", "boom#1"], _raising, lambda raw: [("ok", "")] * 2),
        workloads.Step("fine", ["fine"], lambda: 1.0, lambda raw: [("ok", "")]),
    ]
    plan = _plan(steps)
    tally = run.Tally(plan, workloads)
    _, _, raws, _ = run.run_pass(plan, workloads)
    tally.gate(raws)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.per_pass == [(1, 0, 2)]
    assert tally.failures["boom#0"][0] == "raised"
    assert "DomainError" in tally.failures["boom#0"][1]
    assert not tally.correct


def test_known_defect_counts_as_failed_but_keeps_the_run_correct():
    step = workloads.Step("old", ["old#0"], lambda: 0, lambda raw: [("wrong", "off")], "documented defect")
    plan = _plan([step])
    tally = run.Tally(plan, workloads)
    tally.gate(run.run_pass(plan, workloads)[2])
    assert tally.failed == 1 and tally.correct
    assert tally.inventory()[0]["ops"] == "old#0"


def _span(i, parent, layer, t0, t1, name="m.f"):
    return tracing.Span(i, parent, name, layer, t0, t1, op=0)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, None, "cli", 0.0, 10.0),
        _span(1, 0, "operator", 1.0, 4.0),
        _span(2, 1, "kernels", 2.0, 3.0),
        _span(3, 0, "operator", 5.0, 7.0),
        _span(4, 3, "kernels", 5.5, 6.0),
        _span(5, 3, "kernels", 5.8, 6.5),  # overlaps its sibling: counted once
    ]
    self_t = tracing.self_times(spans)
    assert self_t == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 0.5, 5: 0.7})
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["operator.self_s"] == pytest.approx(3.0)
    assert m["kernels.self_s"] == pytest.approx(2.2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_seeds_give_identical_op_counts(tmp_path, name):
    build = workloads.WORKLOADS[name]
    a = build(ROOT, 1, str(tmp_path))
    b = build(ROOT, 2, str(tmp_path))
    assert a.n_ops == b.n_ops > 0
    assert [s.ops for s in a.steps] == [s.ops for s in b.steps]


def test_tracer_records_spans_and_restores_the_package(tmp_path):
    import univalence_lab

    original = cli.main
    config = f"{ROOT}/src/univalence_lab/configs/identity.json"
    with tracing.Tracer(univalence_lab) as tracer:
        tracer.op = 7
        assert workloads.call_cli(["check", config]).rc == 0
    assert cli.main is original and "parse_args" not in vars(cli._Parser)
    assert tracer.missing == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.criterion_check", "criterion.criterion_values", "_kernels.polyval012"} <= names
    assert all(s.op == 7 for s in tracer.spans)
    m = tracing.layer_metrics(tracer.spans)
    assert m["criterion.refine_calls"] > 0 and m["cli.exit_nonzero"] == 0
    json.dumps([s.to_json() for s in tracer.spans])


def test_normalised_time_cancels_machine_speed():
    # at the reference speed the time is unchanged; a uniformly slower
    # machine stretches the pass and the chunks alike
    assert run.normalised(1.7, 10 * run.REF_CHUNK_S, 10) == pytest.approx(1.7)
    assert run.normalised(2 * 1.7, 2 * 0.2, 10) == pytest.approx(run.normalised(1.7, 0.2, 10))

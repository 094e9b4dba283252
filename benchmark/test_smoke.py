"""Smoke tests of the benchmark's own parts.

Run from the repository root: ``python3 -m pytest benchmark/test_smoke.py``.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from workloads import SRC, WORKLOADS, model_text

sys.path.insert(0, str(SRC))

from resha import PipelineOptions, analyze_text, parse_model, validate_model  # noqa: E402
from resha.ftree import BasicEvent, EventCategory, FaultTree, Gate, GateOp  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

MODEL_WORKLOADS = [name for name, w in WORKLOADS.items() if not w.cli]


@pytest.mark.parametrize("name", MODEL_WORKLOADS)
def test_generated_models_are_valid_with_expected_counts(name):
    workload = WORKLOADS[name]
    for seed in (0, 7):
        text = model_text(workload, seed)
        assert validate_model(parse_model(text)).ok
        result = analyze_text(text, options=PipelineOptions(max_order=workload.max_order))
        assert {i.division for i in result.instances} == set("ABCDEFGH"[: workload.divisions])
        assert not checks.count_mismatches(
            workload, len(result.instances), len(result.groups), result.collection.order_index()
        )


def test_seed_reorders_the_document_only():
    workload = WORKLOADS["qiasp-exact"]
    first, second = model_text(workload, 1), model_text(workload, 2)
    assert first != second
    assert sorted(first.split("\n")) == sorted(second.split("\n"))
    assert model_text(workload, 1) == first


def test_corrupted_digest_is_caught_and_counted(tmp_path):
    workload = WORKLOADS["div3-order2"]
    runner = worker.Runner(workload, model_text(workload, 3), tmp_path)
    runner.expected = dict(runner.expected, **{"ccf.csv": "0" * 64})
    reply = runner.run(seconds=0, trace=False)
    assert reply["attempted"] == 1
    assert reply["failed"] == 1
    assert any(p.startswith("ccf.csv: digest") for p in reply["problems"])


def test_traced_operation_matches_the_untraced_digests(tmp_path):
    workload = WORKLOADS["div3-order2"]
    runner = worker.Runner(workload, model_text(workload, 4), tmp_path)
    reply = runner.run(seconds=0, trace=True)
    assert reply["attempted"] == 3 and reply["failed"] == 0
    assert reply["counts"]["cutsets.order_1"] == 44


def test_self_times_plus_children_add_up_to_the_parent():
    tracer = spans.Tracer("t")
    tracer.next_op()
    with tracer.span("parent"):
        with tracer.span("child"):
            time.sleep(0.002)
            with tracer.span("grandchild"):
                time.sleep(0.001)
        with tracer.span("child"):
            time.sleep(0.001)
    own = spans.self_times(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    for parent in tracer.spans:
        children = [s for s in tracer.spans if s.parent == parent.id]
        total = own[(parent.op, parent.id)] + sum(c.duration for c in children)
        assert total == pytest.approx(parent.duration, abs=1e-9)
    medians = spans.median_self_time_per_op(tracer.spans)
    child_self = sum(own[(s.op, s.id)] for s in by_id.values() if s.name == "child")
    assert medians["child"] == pytest.approx(child_self)


def test_soundness_check_flags_non_minimal_and_non_failing_sets():
    tree = FaultTree(model_name="toy", root="top")
    tree.add(Gate(id="top", op=GateOp.OR, children=["a", "g"]))
    tree.add(Gate(id="g", op=GateOp.AND, children=["b", "c"]))
    for event in "abc":
        tree.add(BasicEvent(id=event, category=EventCategory.HW_STOCHASTIC))
    rng = random.Random(0)
    assert not checks.soundness_problems(tree, [["a"], ["b", "c"]], rng, sample=10)
    problems = checks.soundness_problems(tree, [["a", "b"], ["b"]], rng, sample=10)
    assert len(problems) == 2


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 75.0


def test_clock_scales_by_the_calibrations_around_each_sample(monkeypatch):
    passes = iter([0.05, 0.05, 0.05, 0.1, 0.02, 0.03])
    monkeypatch.setattr(calibrate, "calibration_s", lambda: next(passes))
    clock = calibrate.Clock()  # a warm-up pass, then 0.05 before the first sample
    assert clock.scale(1.0) == pytest.approx(calibrate.REFERENCE_S / 0.05)
    assert clock.scale(1.0) == pytest.approx(calibrate.REFERENCE_S / 0.075)
    clock.start()  # after a pause: 0.02 before, 0.03 after
    assert clock.scale(2.0) == pytest.approx(2 * calibrate.REFERENCE_S / 0.025)

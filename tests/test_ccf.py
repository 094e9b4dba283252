"""Common cause failure detection and injection."""

from __future__ import annotations

import pytest

from conftest import MINI_MODEL, basic_events, mk_tree, scaled_qiasp
from resha.ccf import (
    CcfGroup,
    count_by_type,
    detect_ccf_groups,
    inject_ccf_events,
)
from resha.dsl import parse_model
from resha.ftree import EventCategory, FaultTree, Gate, integrate_software, synthesize_hardware_ft
from resha.model import (
    FailureModeType,
    ModelError,
    RedundancyLevel,
    SystemModel,
    expand_replication,
)
from resha.pipeline import PipelineOptions, analyze_text
from resha.report import export_ft
from resha.stpa import apply_applicability, enumerate_candidates, extract_control_structure

MULTI_TARGET = """\
system "cmd"
top_event "bad indication"

loss L-1 "damage"
hazard H-1 "misleading state" losses: L-1

design_class DC-B "commander"
design_class DC-T "probes"
design_class DC-O "crew"

division A {
  component boss kind: controller tech: digital class: DC-B {
    control_action go -> left, right {
      applicable: A hazards: H-1
    }
  }
  component left kind: sensor tech: analog class: DC-T
  component right kind: sensor tech: analog class: DC-T
  component op kind: operator tech: human class: DC-O {
    inputs: left, right
  }
}

shared_resource bus scope: external dependents: left, right
shared_resource lan scope: internal dependents: left, right
"""


def analyzed(text: str):
    model = expand_replication(parse_model(text))
    structure = extract_control_structure(model)
    instances = apply_applicability(enumerate_candidates(structure), model)
    return model, instances


def test_qiasp_counts(qiasp_result):
    assert count_by_type(qiasp_result.groups) == {1: 0, 2: 15, 3: 0, 4: 28}
    assert len(qiasp_result.groups) == 43


def test_type4_decomposition_by_owner_kind(qiasp_result):
    model = qiasp_result.expanded
    kind_of_class: dict[str, str] = {}
    for component in model.components():
        kind_of_class[component.design_class] = component.kind.value
    counts: dict[str, int] = {}
    for group in qiasp_result.groups:
        if group.ccf_type != 4:
            continue
        kind = kind_of_class[group.trigger]
        counts[kind] = counts.get(kind, 0) + 1
    assert counts == {"controller": 3, "calculator": 15, "alarm": 10}


def test_type4_scope_and_membership(qiasp_result):
    t4 = [g for g in qiasp_result.groups if g.ccf_type == 4]
    for group in t4:
        assert group.scope is RedundancyLevel.SYSTEM
        divisions = {m.rsplit(":", 1)[1] for m in group.members}
        assert divisions == {"A", "B"}
        assert group.software


def test_alarm_type4_letters(qiasp_result):
    letters: dict[str, set[str]] = {}
    for group in qiasp_result.groups:
        if group.ccf_type == 4 and group.trigger.endswith("-ALM"):
            letters.setdefault(group.trigger, set()).add(group.failure_type.letter)
    assert len(letters) == 5
    assert all(found == {"A", "B"} for found in letters.values())


def test_type2_triggers_and_merge(qiasp_result):
    t2 = [g for g in qiasp_result.groups if g.ccf_type == 2]
    assert len(t2) == 15
    assert {g.trigger for g in t2} == {
        "cet_calculator",
        "hjtc_calculator",
        "hjtc_power_controller",
        "rcsm_calculator",
        "rvl_calculator",
    }
    for group in t2:
        assert group.scope is RedundancyLevel.DIVISION
        # Same-class replicas merge into one group spanning both divisions.
        divisions = {m.rsplit(":", 1)[1] for m in group.members}
        assert divisions == {"A", "B"}


def test_icc_calculator_not_a_type2_trigger(qiasp_result):
    # Its output reaches a single digital dependent, below the threshold.
    assert all(
        g.trigger not in ("icc_calculator", "icc_calculator__B")
        for g in qiasp_result.groups
    )


def test_groups_sorted_and_unique(qiasp_result):
    groups = qiasp_result.groups
    keys = [
        (g.ccf_type, g.trigger, g.failure_type.letter if g.failure_type else "")
        for g in groups
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert len({g.id for g in groups}) == len(groups)


def test_single_division_model_has_no_groups():
    model, instances = analyzed(MINI_MODEL)
    assert detect_ccf_groups(model, instances) == []


def test_type1_detection():
    model, instances = analyzed(MULTI_TARGET)
    groups = detect_ccf_groups(model, instances)
    t1 = [g for g in groups if g.ccf_type == 1]
    assert len(t1) == 1
    group = t1[0]
    assert group.id == "T1:go:A"
    assert group.trigger == "boss"
    assert group.members == ["left", "right"]
    assert group.scope is RedundancyLevel.DIVISION
    assert group.failure_type is FailureModeType.MISSING
    assert group.software


def test_type3_external_resources_only():
    model, instances = analyzed(MULTI_TARGET)
    t3 = [g for g in detect_ccf_groups(model, instances) if g.ccf_type == 3]
    assert [g.trigger for g in t3] == ["bus"]
    group = t3[0]
    assert group.id == "T3:bus"
    assert group.members == ["left", "right"]
    assert group.failure_type is None
    assert not group.software


def test_count_by_type_always_four_keys():
    assert count_by_type([]) == {1: 0, 2: 0, 3: 0, 4: 0}


def test_describe_mentions_trigger(qiasp_result):
    for group in qiasp_result.groups:
        assert group.trigger in group.describe()
    by_type = {g.ccf_type: g for g in qiasp_result.groups}
    assert "interdependency" in by_type[2].describe()
    assert "across divisions" in by_type[4].describe()


def test_injection_shares_event_across_divisions(qiasp_result):
    tree = qiasp_result.injected_tree
    parents = tree.parents_of()
    assert set(parents["ccf:T4:DC-HJTC-CALC:A"]) == {
        "sw:hjtc_calculator",
        "sw:hjtc_calculator__B",
    }
    assert set(parents["ccf:T2:hjtc_calculator:A"]) == {
        "sw:hjtc_calculator",
        "sw:hjtc_calculator__B",
    }
    event = tree.nodes["ccf:T4:DC-HJTC-CALC:A"]
    assert event.category is EventCategory.CCF
    assert event.software


def test_injection_count(qiasp_result):
    tree = qiasp_result.injected_tree
    injected = [e for e in basic_events(tree) if e.category is EventCategory.CCF]
    assert len(injected) == 43
    assert all(e.software for e in injected)


def test_injection_component_members_attach_to_failure_gates():
    model, instances = analyzed(MULTI_TARGET)
    tree = synthesize_hardware_ft(model)
    groups = [g for g in detect_ccf_groups(model, instances) if g.ccf_type == 3]
    injected = inject_ccf_events(tree, groups)
    parents = injected.parents_of()
    assert set(parents["ccf:T3:bus"]) == {"fail:left", "fail:right"}
    assert not injected.nodes["ccf:T3:bus"].software


def test_injection_single_event_defeats_redundancy():
    tree = mk_tree(("and", ("or", "a"), ("or", "b")))
    group = CcfGroup(
        id="T3:x",
        ccf_type=3,
        scope=RedundancyLevel.SYSTEM,
        trigger="x",
        members=["a", "b"],
    )
    injected = inject_ccf_events(tree, [group])
    assert not injected.evaluate({"a"})
    assert injected.evaluate({"ccf:T3:x"})
    # The original tree is untouched.
    assert "ccf:T3:x" not in tree.nodes


def test_injection_unknown_member():
    tree = mk_tree(("or", "a"))
    group = CcfGroup(
        id="T3:x", ccf_type=3, scope=RedundancyLevel.SYSTEM, trigger="x", members=["ghost"]
    )
    with pytest.raises(ModelError, match="no location in the fault tree"):
        inject_ccf_events(tree, [group])


def test_injection_is_idempotent(qiasp_result):
    once = qiasp_result.injected_tree
    twice = inject_ccf_events(once, qiasp_result.groups)
    assert list(twice.nodes) == list(once.nodes)
    assert [g.children for g in twice.gates()] == [g.children for g in once.gates()]


def test_detection_scans_the_links_a_constant_number_of_times(qiasp_text, monkeypatch):
    result = analyze_text(scaled_qiasp(qiasp_text, 8), "qiasp8.resha", PipelineOptions(max_order=1))
    n_links = sum(1 for _ in result.expanded.links())
    calls = steps = 0
    plain_links = SystemModel.links

    def counted_links(self):
        nonlocal calls, steps
        calls += 1
        for link in plain_links(self):
            steps += 1
            yield link

    monkeypatch.setattr(SystemModel, "links", counted_links)
    groups = detect_ccf_groups(result.expanded, result.instances)
    assert groups == result.groups
    assert calls <= 2
    assert steps <= 2 * n_links


def _assert_copied(before: FaultTree, after: FaultTree) -> None:
    """``after`` shares no gate and no child list with ``before``."""
    for gate in before.gates():
        copy = after.nodes[gate.id]
        assert isinstance(copy, Gate)
        assert copy is not gate
        assert copy.children is not gate.children


def test_integration_and_injection_leave_their_input_tree_unchanged(qiasp_result):
    hardware = qiasp_result.hardware_tree
    hardware_bytes = export_ft(hardware)
    integrated = integrate_software(hardware, qiasp_result.instances)
    assert export_ft(hardware) == hardware_bytes
    _assert_copied(hardware, integrated)

    integrated_bytes = export_ft(integrated)
    injected = inject_ccf_events(integrated, qiasp_result.groups)
    assert export_ft(integrated) == integrated_bytes
    _assert_copied(integrated, injected)
    assert export_ft(injected) == export_ft(qiasp_result.injected_tree)


def test_trees_before_injection_hold_no_ccf_events(qiasp_result):
    for tree in (qiasp_result.hardware_tree, qiasp_result.integrated_tree):
        assert not [e for e in basic_events(tree) if e.category is EventCategory.CCF]

"""Common cause failure detection and injection."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MINI_MODEL,
    basic_events,
    mk_tree,
    parents_of,
    random_analyzable_model,
    scaled_qiasp,
)
from resha.ccf import (
    CcfGroup,
    count_by_type,
    detect_ccf_groups,
    inject_ccf_events,
)
from resha.dsl import parse_model
from resha.ftree import (
    BasicEvent,
    EventCategory,
    FaultTree,
    Gate,
    integrate_software,
    synthesize_hardware_ft,
)
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


# One controller with two control actions, each commanding two targets.
TWO_ACTIONS = """\
system "two actions"
top_event "bad indication"

loss L-1 "damage"
hazard H-1 "misleading state" losses: L-1

design_class DC-C "commander"
design_class DC-T "probes"
design_class DC-O "crew"

division A {
  component ctrl kind: controller tech: digital class: DC-C {
    control_action ca1 -> t1, t2 {
      applicable: A hazards: H-1
    }
    control_action ca2 -> t3, t4 {
      applicable: A hazards: H-1
    }
  }
  component t1 kind: sensor tech: analog class: DC-T
  component t2 kind: sensor tech: analog class: DC-T
  component t3 kind: sensor tech: analog class: DC-T
  component t4 kind: sensor tech: analog class: DC-T
  component op kind: operator tech: human class: DC-O {
    inputs: t1, t2, t3, t4
  }
}
"""


def analyzed(text: str):
    return with_instances(expand_replication(parse_model(text)))


def with_instances(model: SystemModel):
    structure = extract_control_structure(model)
    return model, apply_applicability(enumerate_candidates(structure), model)


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


def test_each_control_action_forms_its_own_type1_group():
    model, instances = analyzed(TWO_ACTIONS)
    groups = detect_ccf_groups(model, instances)
    assert [(g.id, g.trigger, g.members) for g in groups] == [
        ("T1:ca1:A", "ctrl", ["t1", "t2"]),
        ("T1:ca2:A", "ctrl", ["t3", "t4"]),
    ]
    hardware = synthesize_hardware_ft(model)
    injected = inject_ccf_events(integrate_software(hardware, instances), groups)
    parents = parents_of(injected)
    assert set(parents["ccf:T1:ca1:A"]) == {"fail:t1", "fail:t2"}
    assert set(parents["ccf:T1:ca2:A"]) == {"fail:t3", "fail:t4"}


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
    parents = parents_of(tree)
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
    parents = parents_of(injected)
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


def _extended_gates(before: FaultTree, before_bytes: str, after: FaultTree) -> int:
    """Check that ``after`` extends ``before``, which is unchanged, and shares
    every node it does not extend; return how many gates it extends."""
    assert export_ft(before) == before_bytes
    extended = 0
    for node_id, node in before.nodes.items():
        new = after.nodes[node_id]
        if not isinstance(node, Gate) or new.children == node.children:
            assert new is node, node_id
            continue
        extended += 1
        assert isinstance(new, Gate) and new is not node
        for f in dataclasses.fields(Gate):
            if f.name != "children":
                assert getattr(new, f.name) == getattr(node, f.name), (node_id, f.name)
        old = len(node.children)
        assert new.children[:old] == node.children
        assert set(new.children[old:]).isdisjoint(node.children)
    return extended


def test_integration_and_injection_leave_their_input_tree_unchanged(qiasp_result):
    hardware = qiasp_result.hardware_tree
    hardware_bytes = export_ft(hardware)
    integrated = integrate_software(hardware, qiasp_result.instances)
    assert _extended_gates(hardware, hardware_bytes, integrated) == 22

    integrated_bytes = export_ft(integrated)
    injected = inject_ccf_events(integrated, qiasp_result.groups)
    assert _extended_gates(integrated, integrated_bytes, injected) == 22
    assert export_ft(injected) == export_ft(qiasp_result.injected_tree)


def test_trees_before_injection_hold_no_ccf_events(qiasp_result):
    for tree in (qiasp_result.hardware_tree, qiasp_result.integrated_tree):
        assert not [e for e in basic_events(tree) if e.category is EventCategory.CCF]


def _reference_copy(tree: FaultTree) -> FaultTree:
    nodes = {
        node_id: dataclasses.replace(node, children=list(node.children))
        if isinstance(node, Gate)
        else node
        for node_id, node in tree.nodes.items()
    }
    return FaultTree(tree.model_name, tree.root, nodes, tree.include_hw_design)


def reference_integrate_software(tree: FaultTree, instances) -> FaultTree:
    """Copy every gate, then append each instance under its owner's placeholder."""
    out = _reference_copy(tree)
    placeholders = {g.placeholder_for: g for g in out.gates() if g.placeholder_for is not None}
    for instance in sorted(instances, key=lambda i: i.id):
        category = EventCategory.SW_UCA if instance.flavor.value == "uca" else EventCategory.SW_UIF
        out.add(BasicEvent(instance.id, category, instance.describe(), software=True))
        placeholders[instance.owner].children.append(instance.id)
    return out


def reference_inject_ccf_events(tree: FaultTree, groups: list[CcfGroup]) -> FaultTree:
    """Copy every gate, then append each group's event beside its members."""
    out = _reference_copy(tree)
    parents = parents_of(out)
    for group in groups:
        event_id = f"ccf:{group.id}"
        if event_id not in out.nodes:
            label = f"common cause: {group.describe()}"
            out.add(BasicEvent(event_id, EventCategory.CCF, label, group.software))
        for member in group.members:
            is_event = isinstance(out.nodes.get(member), BasicEvent)
            for gate_id in parents[member] if is_event else [f"fail:{member}"]:
                if event_id not in out.gate(gate_id).children:
                    out.gate(gate_id).children.append(event_id)
    return out


def _assert_stages_match_reference(model: SystemModel, include_hw_design: bool) -> None:
    model, instances = with_instances(model)
    hardware = synthesize_hardware_ft(model, include_hw_design)
    integrated = integrate_software(hardware, instances)
    assert export_ft(integrated) == export_ft(reference_integrate_software(hardware, instances))
    groups = detect_ccf_groups(model, instances)
    injected = inject_ccf_events(integrated, groups)
    assert export_ft(injected) == export_ft(reference_inject_ccf_events(integrated, groups))
    again = inject_ccf_events(injected, groups)
    assert export_ft(again) == export_ft(reference_inject_ccf_events(injected, groups))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_stages_match_copy_then_append_reference(seed, include_hw_design):
    model = expand_replication(random_analyzable_model(random.Random(seed)))
    _assert_stages_match_reference(model, include_hw_design)


@pytest.mark.parametrize("include_hw_design", [False, True])
def test_stages_match_copy_then_append_reference_on_two_actions(include_hw_design):
    _assert_stages_match_reference(expand_replication(parse_model(TWO_ACTIONS)), include_hw_design)

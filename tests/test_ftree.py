"""Fault-tree synthesis, structure checks, and software integration."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MINI_MODEL,
    SYNTHESIS_MODEL,
    basic_events,
    census_tuple,
    member_sets,
    mk_tree,
    parents_of,
    random_analyzable_model,
    scaled_qiasp,
)
from resha.cutsets import minimal_cut_sets
from resha.dsl import parse_model
from resha.ftree import (
    BasicEvent,
    EventCategory,
    FaultTree,
    Gate,
    GateOp,
    branch_census,
    export_ft,
    import_ft,
    integrate_software,
    synthesize_hardware_ft,
)
from resha.model import ModelError, expand_replication
from resha.pipeline import analyze_model, run_stages
from resha.stpa import UcaUifInstance, Flavor
from resha.model import FailureModeType


def mini_tree() -> FaultTree:
    return synthesize_hardware_ft(expand_replication(parse_model(MINI_MODEL)))


def unresolved_placeholders(tree: FaultTree) -> list[str]:
    """Component ids whose software-design gates are still empty."""
    return sorted(
        gate.placeholder_for
        for gate in tree.gates()
        if gate.placeholder_for is not None and not gate.children
    )


def test_mini_shape_and_census():
    tree = mini_tree()
    assert tree.gate("top").children == ["fail:panel"]
    assert tree.gate("fail:panel").children == ["hw:panel", "dep:panel"]
    assert tree.gate("dep:panel").children == ["fail:probe"]
    assert tree.gate("fail:probe").children == ["hw:probe", "dep:probe"]
    assert tree.gate("dep:probe").children == ["fail:ctrl"]
    assert tree.gate("fail:ctrl").children == ["hw:ctrl", "sw:ctrl"]
    assert census_tuple(branch_census(tree)) == (3, 2, 1, 0)


def test_qiasp_census(qiasp_result):
    assert census_tuple(qiasp_result.census) == (41, 33, 26, 0)


def test_hw_design_events_optional(qiasp_result):
    tree = synthesize_hardware_ft(qiasp_result.expanded, include_hw_design=True)
    census = branch_census(tree)
    assert census.hw_design == census.hw_stochastic == 41
    assert "hwdesign:display_interface" in tree.nodes
    assert not qiasp_result.hardware_tree.include_hw_design
    assert tree.include_hw_design


def test_shared_component_has_one_gate_many_parents(qiasp_result):
    parents = parents_of(qiasp_result.hardware_tree)
    assert set(parents["fail:signal_conditioner"]) == {
        "dep:rvl_calculator",
        "dep:rcsm_calculator",
    }
    # One arena node, so the census counts its hardware event once.
    assert qiasp_result.census.hw_stochastic == 41


def test_division_group_becomes_and_gate(qiasp_result):
    tree = qiasp_result.hardware_tree
    sub = tree.gate("dep:operator_terminal:qias_divisions")
    assert sub.op is GateOp.AND
    assert sub.children == ["fail:display_interface", "fail:display_interface__B"]
    assert tree.gate("dep:operator_terminal").children == [
        "dep:operator_terminal:qias_divisions"
    ]


def test_any_misleads_group_becomes_or_gate():
    text = (
        'system "s"\ntop_event "t"\n'
        'design_class DC "x"\n'
        'design_class DC-O "crew"\n'
        "division A {\n"
        "  component src kind: sensor tech: analog class: DC\n"
        "}\n"
        "division B replicates A\n"
        "division M {\n"
        "  component op kind: operator tech: human class: DC-O {\n"
        "    inputs: src, src__B\n"
        "  }\n"
        "}\n"
        "redundancy_group g level: division logic: any_misleads members: A, B\n"
    )
    tree = synthesize_hardware_ft(expand_replication(parse_model(text)))
    sub = tree.gate("top:g")
    assert sub.op is GateOp.OR
    assert sub.children == ["fail:src", "fail:src__B"]
    # One misleading feed suffices.
    assert tree.evaluate({"hw:src"})


def test_census_counts_shared_nodes_once():
    shared = ("and", ("or", "a", "b"), ("or", "a", "c"))
    tree = mk_tree(shared)
    assert branch_census(tree).hw_stochastic == 3


def test_group_sub_gates_not_in_census(qiasp_result):
    tree = qiasp_result.hardware_tree
    assert "dep:operator_terminal:qias_divisions" in tree.nodes
    assert branch_census(tree).dependency == 33


def test_unresolved_placeholders_filled_by_integration(qiasp_result):
    before = unresolved_placeholders(qiasp_result.hardware_tree)
    assert len(before) == 26
    assert "hjtc_calculator" in before and "hjtc_calculator__B" in before
    # Digital components that own no flows keep their placeholders open.
    assert unresolved_placeholders(qiasp_result.integrated_tree) == [
        "mtp_panel",
        "mtp_panel__B",
        "sdn_node",
        "sdn_node__B",
    ]


def test_integration_adds_software_events(qiasp_result):
    tree = qiasp_result.integrated_tree
    software = [e for e in basic_events(tree) if e.software]
    assert len(software) == 56
    uca = [e for e in software if e.category is EventCategory.SW_UCA]
    assert len(uca) == 6
    event = tree.nodes["heater_power:A:A"]
    assert isinstance(event, BasicEvent)
    assert "control action" in event.label
    assert parents_of(tree)["heater_power:A:A"] == ["sw:hjtc_power_controller"]


def test_integration_is_non_destructive(qiasp_result):
    # The pre-integration tree still has its empty placeholders.
    assert len(unresolved_placeholders(qiasp_result.hardware_tree)) == 26


def test_integration_rejects_unknown_owner():
    tree = mini_tree()
    ghost = UcaUifInstance(
        id="x:A:MAIN",
        flavor=Flavor.UCA,
        type=FailureModeType.MISSING,
        owner="ghost",
        link="x",
        division="MAIN",
        hazards=["H-1"],
    )
    with pytest.raises(ModelError, match="no software gate"):
        integrate_software(tree, [ghost])


def test_attach_carries_every_gate_field_and_shares_the_rest():
    gate = Gate("g", GateOp.AND, ["e"], "label", "c1", "c2", "c3")
    for f in dataclasses.fields(Gate):
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(gate, f.name) != default, f.name
    event = BasicEvent("e", EventCategory.SW_UCA, "event", software=True)
    other = Gate("h", GateOp.OR, ["e"])
    tree = FaultTree("m", "g", {"g": gate, "e": event, "h": other}, include_hw_design=True)
    added = BasicEvent("n", EventCategory.CCF, "added", software=True)
    out = tree.attach([added], {"g": ["e", "n", "n"]})
    assert out.nodes["g"] == Gate("g", GateOp.AND, ["e", "n"], "label", "c1", "c2", "c3")
    assert out.nodes["g"] is not gate and gate.children == ["e"]
    assert out.nodes["e"] is event and out.nodes["h"] is other and out.nodes["n"] is added
    assert list(out.nodes) == ["g", "e", "h", "n"] and list(tree.nodes) == ["g", "e", "h"]
    assert (out.model_name, out.root, out.include_hw_design) == ("m", "g", True)
    with pytest.raises(ModelError, match="duplicate node id 'e'"):
        tree.attach([BasicEvent("e", EventCategory.CCF)], {})
    with pytest.raises(ModelError, match="node 'e' is not a gate"):
        tree.attach([], {"e": ["n"]})


def test_evaluate_monotone_chain():
    tree = mini_tree()
    assert not tree.evaluate(set())
    assert tree.evaluate({"hw:ctrl"})
    assert tree.evaluate({"hw:probe"})
    assert tree.evaluate({"hw:panel"})


def test_evaluate_and_gate(qiasp_result):
    tree = qiasp_result.hardware_tree
    assert not tree.evaluate({"hw:display_interface"})
    assert tree.evaluate({"hw:display_interface", "hw:display_interface__B"})
    assert tree.evaluate({"hw:operator_terminal"})


def test_empty_placeholder_evaluates_false():
    tree = mini_tree()
    assert "ctrl" in unresolved_placeholders(tree)
    assert not tree.evaluate({"sw:ctrl"})


def test_check_structure_rejects_empty_gate():
    tree = FaultTree(model_name="t", root="g")
    tree.add(Gate("g", GateOp.OR))
    with pytest.raises(ModelError, match="empty and not a software placeholder"):
        tree.check_structure()


def test_check_structure_rejects_empty_and_placeholder():
    # Empty, an AND placeholder would fail always: the engine would report
    # the empty cut set and the oracle would not.
    tree = mk_tree(("or", "a"))
    tree.add(Gate("ph", GateOp.AND, placeholder_for="ghost"))
    tree.gate(tree.root).children.append("ph")
    with pytest.raises(ModelError, match="gate 'ph' is empty and not a software placeholder"):
        tree.check_structure()


def test_check_structure_accepts_empty_or_placeholder_and_returns_order():
    tree = mk_tree(("or", "a", ("and", "b", "c")))
    tree.add(Gate("ph", GateOp.OR, placeholder_for="ghost"))
    tree.gate(tree.root).children.append("ph")
    order = tree.check_structure()
    assert order == tree.topological_nodes()
    assert order[-1] == tree.root
    assert set(order) == set(tree.nodes)


def _assert_stage_trees_well_formed(result):
    # Only the boundaries check structure; the built trees must pass it anyway.
    for tree in (result.hardware_tree, result.integrated_tree, result.injected_tree):
        assert tree.check_structure()[-1] == tree.root


def test_stage_trees_pass_structure_check(qiasp_result):
    _assert_stage_trees_well_formed(qiasp_result)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_stage_trees_pass_structure_check_on_random_models(seed):
    _assert_stage_trees_well_formed(analyze_model(random_analyzable_model(random.Random(seed))))


def _assert_hardware_arena_is_reachable(model, include_hw_design):
    # branch_census counts the arena, so synthesis must add only nodes
    # that are reachable from the root.
    values = {"model": model, "include_hw_design": include_hw_design}
    tree = run_stages(values, "hardware_tree")["hardware_tree"]
    assert set(tree.topological_nodes()) == set(tree.nodes)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_hardware_tree_holds_only_reachable_nodes(seed, include_hw_design):
    _assert_hardware_arena_is_reachable(random_analyzable_model(random.Random(seed)), include_hw_design)


@pytest.mark.parametrize("include_hw_design", [False, True])
def test_eight_division_hardware_tree_holds_only_reachable_nodes(qiasp_text, include_hw_design):
    _assert_hardware_arena_is_reachable(parse_model(scaled_qiasp(qiasp_text, 8)), include_hw_design)


def test_check_structure_rejects_dangling_child():
    tree = FaultTree(model_name="t", root="g")
    tree.add(Gate("g", GateOp.OR, children=["missing"]))
    with pytest.raises(ModelError, match="unknown node"):
        tree.check_structure()


def test_check_structure_rejects_cycle():
    tree = FaultTree(model_name="t", root="a")
    tree.add(Gate("a", GateOp.OR, children=["b"]))
    tree.add(Gate("b", GateOp.OR, children=["a"]))
    with pytest.raises(ModelError, match="cycle"):
        tree.check_structure()


def deep_chain(depth: int, back_to: str | None = None) -> FaultTree:
    """``g0 = OR(g1, e0)``, ``g1 = OR(g2)``, ... down to ``AND(a, b)``, with
    an event every 1000 levels; ``back_to`` closes a cycle at the bottom."""
    tree = FaultTree(model_name="deep", root="g0")
    for i in range(depth - 1):
        children = [f"g{i + 1}"]
        if i % 1000 == 0:
            children.append(f"e{i}")
            tree.add(BasicEvent(f"e{i}", EventCategory.HW_STOCHASTIC))
        tree.add(Gate(f"g{i}", GateOp.OR, children))
    bottom = ["a", "b"] + ([back_to] if back_to else [])
    tree.add(Gate(f"g{depth - 1}", GateOp.AND, bottom))
    tree.add(BasicEvent("a", EventCategory.HW_STOCHASTIC))
    tree.add(BasicEvent("b", EventCategory.HW_STOCHASTIC))
    return tree


def test_deep_imported_chain_is_ordered_and_cut():
    tree = import_ft(export_ft(deep_chain(5000)))
    order = tree.topological_nodes()
    assert order[0] == "a" and order[-1] == "g0"
    assert len(order) == 5000 + 2 + 5
    collection = minimal_cut_sets(tree)
    assert collection.order_index() == {1: 5, 2: 1}
    assert ("a", "b") in member_sets(collection)


def test_deep_cycle_is_a_model_error():
    text = export_ft(deep_chain(5000, back_to="g2500"))
    with pytest.raises(ModelError, match="^fault tree contains a cycle through 'g2500'$"):
        import_ft(text)


def recursive_topological_nodes(tree: FaultTree) -> list[str]:
    """The children-first order by plain recursion, for shallow trees."""
    order: list[str] = []
    done: set[str] = set()

    def visit(node_id: str) -> None:
        if node_id in done:
            return
        done.add(node_id)
        node = tree.nodes[node_id]
        if isinstance(node, Gate):
            for child in node.children:
                if child in tree.nodes:
                    visit(child)
        order.append(node_id)

    visit(tree.root)
    return order


def test_topological_order_matches_recursive_reference(qiasp_result):
    result = qiasp_result
    for tree in (result.hardware_tree, result.integrated_tree, result.injected_tree):
        assert tree.topological_nodes() == recursive_topological_nodes(tree)


def test_check_structure_rejects_event_root():
    tree = FaultTree(model_name="t", root="e")
    tree.add(BasicEvent("e", EventCategory.HW_STOCHASTIC))
    with pytest.raises(ModelError, match="root must be a gate"):
        tree.check_structure()


def test_synthesis_is_deterministic(qiasp_result):
    model = qiasp_result.expanded
    a = synthesize_hardware_ft(model)
    b = synthesize_hardware_ft(model)
    assert list(a.nodes) == list(b.nodes)
    assert [g.children for g in a.gates()] == [g.children for g in b.gates()]


def test_resource_leaf_shared():
    text = (
        'system "s"\ntop_event "t"\n'
        'design_class DC "x"\n'
        'design_class DC-O "crew"\n'
        "division A {\n"
        "  component s1 kind: sensor tech: analog class: DC\n"
        "  component s2 kind: sensor tech: analog class: DC\n"
        "  component op kind: operator tech: human class: DC-O {\n"
        "    inputs: s1, s2\n"
        "  }\n"
        "}\n"
        "shared_resource bus scope: external dependents: s1, s2\n"
    )
    tree = synthesize_hardware_ft(parse_model(text))
    leaf = tree.nodes["resource:bus"]
    assert isinstance(leaf, BasicEvent)
    assert leaf.category is EventCategory.DEPENDENCY_LEAF
    assert "external" in leaf.label
    parents = parents_of(tree)["resource:bus"]
    assert set(parents) == {"dep:s1", "dep:s2"}
    assert branch_census(tree).dependency == 2


def test_synthesis_model_takes_the_branches_it_pins():
    tree = synthesize_hardware_ft(expand_replication(parse_model(SYNTHESIS_MODEL)))
    assert tree.gate("top").children == ["top:calcs", "top:panels"]
    calcs, probes = tree.gate("top:calcs"), tree.gate("dep:calc_1:probes")
    assert (calcs.op, calcs.children) == (GateOp.OR, ["fail:calc_1", "fail:calc_2"])
    assert (probes.op, probes.children) == (GateOp.AND, ["fail:probe_1", "fail:probe_2"])
    assert tree.gate("dep:calc_1").children == ["dep:calc_1:probes", "fail:probe_3"]
    parents = parents_of(tree)
    assert parents["resource:mains"] == ["dep:probe_3", "dep:psu", "dep:psu__B"]
    assert parents["resource:rack"] == ["dep:probe_1", "dep:probe_2", "dep:probe_3", "dep:panel"]
    assert tree.gate("dep:probe_3").children == ["resource:mains", "resource:rack"]
    # ``feedback: calc_1`` drops the ``trim`` link, ctrl's only source.
    assert tree.gate("fail:ctrl").children == ["hw:ctrl", "sw:ctrl"]
    node_ids = list(tree.nodes)
    # A failure gate precedes its sources' subtrees; a group sub-gate
    # follows its members' subtrees; resource leaves and the software gate
    # follow the subtrees of every source.
    assert node_ids.index("fail:calc_1") < node_ids.index("fail:probe_1")
    assert node_ids.index("fail:probe_2") < node_ids.index("dep:calc_1:probes")
    assert node_ids.index("dep:calc_1:probes") < node_ids.index("fail:probe_3")
    assert node_ids.index("resource:rack") < node_ids.index("resource:mains")
    assert node_ids.index("resource:mains") < node_ids.index("sw:calc_1")

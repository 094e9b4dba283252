"""Minimal cut sets: engine, oracle agreement, truncation, ordering."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_tree, random_tree, scaled_qiasp
from resha.cutsets import (
    ORACLE_EVENT_BOUND,
    brute_force_oracle,
    first_order_cut_sets,
    minimal_cut_sets,
)
from resha.ftree import BasicEvent, EventCategory, FaultTree, Gate, GateOp
from resha.model import ModelError
from resha.pipeline import PipelineOptions, analyze_text
from reference_cutsets import reference_minimal_cut_sets


def sets_of(tree: FaultTree, max_order: int | None = None) -> set[frozenset[str]]:
    return minimal_cut_sets(tree, max_order).as_frozensets()


def test_or_gate():
    assert sets_of(mk_tree(("or", "a", "b"))) == {frozenset({"a"}), frozenset({"b"})}


def test_and_gate():
    assert sets_of(mk_tree(("and", "a", "b"))) == {frozenset({"a", "b"})}


def test_absorption():
    assert sets_of(mk_tree(("or", "a", ("and", "a", "b")))) == {frozenset({"a"})}


def test_idempotent_and():
    assert sets_of(mk_tree(("and", "a", "a"))) == {frozenset({"a"})}


def test_diamond():
    tree = mk_tree(("and", ("or", "a", "b"), ("or", "a", "c")))
    assert sets_of(tree) == {frozenset({"a"}), frozenset({"b", "c"})}


def test_nested_diamond():
    spec = ("or", ("and", "a", "b"), ("and", "a", "b", "c"), ("and", "d", ("or", "a", "d")))
    assert sets_of(mk_tree(spec)) == {frozenset({"a", "b"}), frozenset({"d"})}


def test_three_way_redundancy():
    tree = mk_tree(("and", ("or", "a", "x"), ("or", "b", "x"), ("or", "c", "x")))
    assert sets_of(tree) == {frozenset({"x"}), frozenset({"a", "b", "c"})}


def test_empty_placeholder_contributes_nothing():
    tree = mk_tree(("or", "a"))
    sw = Gate("sw:ghost", GateOp.OR, placeholder_for="ghost")
    tree.add(sw)
    tree.gate(tree.root).children.append(sw.id)
    assert sets_of(tree) == {frozenset({"a"})}


def test_oracle_matches_handcrafted():
    for spec in (
        ("or", "a", "b"),
        ("and", "a", "b"),
        ("and", ("or", "a", "b"), ("or", "a", "c")),
        ("or", ("and", "a", "b"), ("and", "b", "c"), "d"),
    ):
        tree = mk_tree(spec)
        assert sets_of(tree) == brute_force_oracle(tree).as_frozensets()


def test_oracle_matches_random_trees():
    rng = random.Random(20260822)
    for _ in range(30):
        tree = random_tree(rng)
        assert sets_of(tree) == brute_force_oracle(tree).as_frozensets()


def test_truncation_is_a_filter():
    rng = random.Random(7)
    for _ in range(20):
        tree = random_tree(rng, max_events=10)
        full = sets_of(tree)
        for bound in (1, 2, 3):
            truncated = minimal_cut_sets(tree, bound)
            assert truncated.truncation_order == bound
            assert truncated.as_frozensets() == {s for s in full if len(s) <= bound}


def test_qiasp_counts(qiasp_result):
    collection = qiasp_result.collection
    assert len(collection) == 2348
    assert collection.order_index() == {1: 44, 2: 2304}
    assert collection.truncation_order is None


def test_qiasp_first_order_partition(qiasp_result):
    report = qiasp_result.first_order
    assert len(report.software) == 43
    assert report.hardware == ["hw:operator_terminal"]
    assert all(e.startswith("ccf:") for e in report.software)


def test_qiasp_truncated_run_matches_filter(qiasp_result):
    truncated = minimal_cut_sets(qiasp_result.injected_tree, max_order=1)
    assert truncated.order_index() == {1: 44}
    full_singles = {s for s in qiasp_result.collection.as_frozensets() if len(s) == 1}
    assert truncated.as_frozensets() == full_singles


def test_max_order_must_be_positive():
    tree = mk_tree(("or", "a"))
    with pytest.raises(ModelError, match="at least 1"):
        minimal_cut_sets(tree, max_order=0)


def test_oracle_refuses_large_trees():
    wide = ("or",) + tuple(f"e{i}" for i in range(ORACLE_EVENT_BOUND + 1))
    with pytest.raises(ModelError, match=str(ORACLE_EVENT_BOUND)):
        brute_force_oracle(mk_tree(wide))


def test_canonical_member_order():
    tree = mk_tree(
        ("and", "z_ccf", "a_hw"),
        categories={"z_ccf": EventCategory.CCF, "a_hw": EventCategory.SW_UCA},
    )
    collection = minimal_cut_sets(tree)
    # Category rank places software before shared-cause events.
    assert collection.sets == [("a_hw", "z_ccf")]


def test_set_order_by_size_then_members():
    tree = mk_tree(("or", ("and", "b", "c"), "d", "a"))
    collection = minimal_cut_sets(tree)
    assert collection.sets == [("a",), ("d",), ("b", "c")]


def test_first_order_report_sorted():
    tree = mk_tree(
        ("or", "s2", "s1", "h2", "h1"),
        categories={"s1": EventCategory.SW_UCA, "s2": EventCategory.SW_UIF},
    )
    report = first_order_cut_sets(minimal_cut_sets(tree), tree)
    assert report.software == ["s1", "s2"]
    assert report.hardware == ["h1", "h2"]


def test_determinism(qiasp_result):
    a = minimal_cut_sets(qiasp_result.injected_tree)
    b = minimal_cut_sets(qiasp_result.injected_tree)
    assert a.sets == b.sets


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_engine_equals_oracle(seed):
    tree = random_tree(random.Random(seed), max_events=12, max_gates=6)
    assert sets_of(tree) == brute_force_oracle(tree).as_frozensets()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_truncated_engine_is_sound(seed, bound):
    tree = random_tree(random.Random(seed), max_events=12, max_gates=6)
    exact = brute_force_oracle(tree).as_frozensets()
    truncated = minimal_cut_sets(tree, bound).as_frozensets()
    assert truncated == {s for s in exact if len(s) <= bound}


def covering_random_tree(rng: random.Random, min_events: int, max_events: int) -> FaultTree:
    """A random monotone DAG in which every event is reachable from the root.

    Each gate takes one to three nodes no gate has taken yet, plus up to two
    shared ones; the last open node becomes the root.
    """
    tree = FaultTree(model_name="random", root="")
    pool: list[str] = []
    categories = list(EventCategory)
    for i in range(rng.randint(min_events, max_events)):
        category = rng.choice(categories)
        software = category in (EventCategory.SW_UCA, EventCategory.SW_UIF, EventCategory.CCF)
        tree.add(BasicEvent(f"e{i}", category, software=software))
        pool.append(f"e{i}")
    open_ids = list(pool)
    while len(open_ids) > 1:
        take = min(len(open_ids), rng.randint(1, 3))
        children = [open_ids.pop(rng.randrange(len(open_ids))) for _ in range(take)]
        children += [c for c in rng.sample(pool, rng.randint(0, 2)) if c not in children]
        gate = Gate(f"g{len(pool)}", rng.choice((GateOp.AND, GateOp.OR)), children)
        tree.add(gate)
        open_ids.append(gate.id)
        pool.append(gate.id)
    tree.root = open_ids[0]
    return tree


def test_engine_matches_reference_on_qiasp(qiasp_result):
    tree = qiasp_result.injected_tree
    assert qiasp_result.collection.sets == reference_minimal_cut_sets(tree).sets


def test_engine_matches_reference_on_three_divisions_at_order_2(qiasp_text):
    text = scaled_qiasp(qiasp_text, 3)
    result = analyze_text(text, "qiasp3.resha", PipelineOptions(max_order=2))
    assert {i.division for i in result.instances} == {"A", "B", "C"}
    reference = reference_minimal_cut_sets(result.injected_tree, max_order=2)
    assert result.collection.sets == reference.sets
    assert result.collection.order_index() == {1: 44}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_engine_matches_reference_past_the_oracle_bound(seed):
    tree = covering_random_tree(random.Random(seed), 30, 40)
    assert len(tree.reachable_events()) > ORACLE_EVENT_BOUND
    for bound in (None, 1, 2, 3):
        engine = minimal_cut_sets(tree, bound)
        assert engine.sets == reference_minimal_cut_sets(tree, bound).sets


def _permuted(tree: FaultTree, rng: random.Random) -> FaultTree:
    """The same tree with shuffled node insertion order and gate child order."""
    out = FaultTree(model_name=tree.model_name, root=tree.root)
    for node_id in rng.sample(list(tree.nodes), len(tree.nodes)):
        node = tree.nodes[node_id]
        if isinstance(node, Gate):
            node = dataclasses.replace(node, children=rng.sample(node.children, len(node.children)))
        out.add(node)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([None, 1, 2, 3]))
def test_result_is_independent_of_node_and_child_order(seed, bound):
    rng = random.Random(seed)
    tree = random_tree(rng, max_events=16, max_gates=10)
    expected = minimal_cut_sets(tree, bound).sets
    for _ in range(3):
        assert minimal_cut_sets(_permuted(tree, rng), bound).sets == expected

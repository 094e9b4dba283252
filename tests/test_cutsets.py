"""Minimal cut sets: engine, oracle agreement, truncation, ordering."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    as_frozensets,
    chain_text,
    mk_tree,
    random_tree,
    reachable_events,
    scaled_qiasp,
)
from resha import cutsets
from resha.cutsets import (
    ORACLE_EVENT_BOUND,
    brute_force_oracle,
    first_order_cut_sets,
    minimal_cut_sets,
)
from resha.dsl import parse_model
from resha.ftree import BasicEvent, EventCategory, FaultTree, Gate, GateOp
from resha.model import ModelError
from resha.pipeline import PipelineOptions, analyze_model, analyze_text
from reference_cutsets import reference_minimal_cut_sets


def sets_of(tree: FaultTree, max_order: int | None = None) -> set[frozenset[str]]:
    return as_frozensets(minimal_cut_sets(tree, max_order))


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


def test_and_of_families_sharing_a_larger_set():
    # {x, y} is in both families; {x, p} x {y, q} gives {x, y, p, q}, which
    # {x, y} absorbs.
    left = ("or", ("and", "x", "y"), ("and", "x", "p"))
    right = ("or", ("and", "x", "y"), ("and", "y", "q"))
    tree = mk_tree(("and", left, right))
    assert sets_of(tree) == {frozenset({"x", "y"})}


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
        assert sets_of(tree) == as_frozensets(brute_force_oracle(tree))


def test_oracle_matches_random_trees():
    rng = random.Random(20260822)
    for _ in range(30):
        tree = random_tree(rng)
        assert sets_of(tree) == as_frozensets(brute_force_oracle(tree))


def test_truncation_is_a_filter():
    rng = random.Random(7)
    for _ in range(20):
        tree = random_tree(rng, max_events=10)
        full = sets_of(tree)
        for bound in (1, 2, 3):
            truncated = minimal_cut_sets(tree, bound)
            assert truncated.truncation_order == bound
            assert as_frozensets(truncated) == {s for s in full if len(s) <= bound}


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
    full_singles = {s for s in as_frozensets(qiasp_result.collection) if len(s) == 1}
    assert as_frozensets(truncated) == full_singles


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
    assert sets_of(tree) == as_frozensets(brute_force_oracle(tree))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_truncated_engine_is_sound(seed, bound):
    tree = random_tree(random.Random(seed), max_events=12, max_gates=6)
    exact = as_frozensets(brute_force_oracle(tree))
    truncated = as_frozensets(minimal_cut_sets(tree, bound))
    assert truncated == {s for s in exact if len(s) <= bound}


def covering_random_tree(rng: random.Random, min_events: int, max_events: int) -> FaultTree:
    """A random monotone DAG in which every event is reachable from the root."""
    tree = FaultTree(model_name="random", root="")
    tree.root = add_covering_subtree(tree, rng, "", rng.randint(min_events, max_events))
    return tree


def add_covering_subtree(tree: FaultTree, rng: random.Random, prefix: str, n_events: int) -> str:
    """Add ``n_events`` fresh events and random gates over them, all reachable
    from the returned node id; ids start with ``prefix``.

    Each gate takes one to three nodes no gate has taken yet, plus up to two
    shared ones; the last open node is the subtree's root.
    """
    pool: list[str] = []
    categories = list(EventCategory)
    for i in range(n_events):
        category = rng.choice(categories)
        software = category in (EventCategory.SW_UCA, EventCategory.SW_UIF, EventCategory.CCF)
        tree.add(BasicEvent(f"{prefix}e{i}", category, software=software))
        pool.append(f"{prefix}e{i}")
    open_ids = list(pool)
    while len(open_ids) > 1:
        take = min(len(open_ids), rng.randint(1, 3))
        children = [open_ids.pop(rng.randrange(len(open_ids))) for _ in range(take)]
        children += [c for c in rng.sample(pool, rng.randint(0, 2)) if c not in children]
        gate = Gate(f"{prefix}g{len(pool)}", rng.choice((GateOp.AND, GateOp.OR)), children)
        tree.add(gate)
        open_ids.append(gate.id)
        pool.append(gate.id)
    return open_ids[0]


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
    assert len(reachable_events(tree)) > ORACLE_EVENT_BOUND
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


@contextlib.contextmanager
def spied_engine():
    """Record the path each ``_and_combine`` call takes ("fallback" when it
    absorbs a cross product, "disjoint" when it does not) and the size of
    every family ``_absorb`` receives."""
    seen = SimpleNamespace(paths=[], sizes=[])
    absorbed: list[bool] = []
    and_combine, absorb = cutsets._and_combine, cutsets._absorb

    def spy_absorb(family, singles):
        seen.sizes.append(len(family))
        if absorbed:
            absorbed[-1] = True
        return absorb(family, singles)

    def spy_and_combine(left, right, bound):
        absorbed.append(False)
        try:
            return and_combine(left, right, bound)
        finally:
            seen.paths.append("fallback" if absorbed.pop() else "disjoint")

    with mock.patch.object(cutsets, "_absorb", spy_absorb), mock.patch.object(
        cutsets, "_and_combine", spy_and_combine
    ):
        yield seen


def redundant_branches_tree(rng: random.Random, shared_inside: bool) -> FaultTree:
    """An AND over two or three branches with private events and subtrees.

    Without ``shared_inside``, one to two common events are ORed into every
    branch, as CCF injection does, so the branches share only singletons.
    With it, every branch also holds ``AND(s, x)`` for a shared event ``s``
    and a fresh ``x``, so the branches share an event inside larger sets;
    with two shared events, half of the time every branch also holds
    ``AND(s0, s1)``, a larger set found in every family.  Common singletons
    are added half of the time.
    """
    tree = FaultTree(model_name="branches", root="top")
    shared = [f"s{i}" for i in range(rng.randint(1, 2))] if shared_inside else []
    common = [f"c{i}" for i in range(rng.randint(1, 2))]
    if shared_inside and rng.random() < 0.5:
        common = []
    for event_id in shared + common:
        tree.add(BasicEvent(event_id, EventCategory.CCF, software=True))
    if len(shared) == 2 and rng.random() < 0.5:
        tree.add(Gate("pair", GateOp.AND, list(shared)))
        common.append("pair")
    branches = []
    for b in range(rng.randint(2, 3)):
        n_private = rng.randint(1, 2 if shared_inside else 3)
        children = [add_covering_subtree(tree, rng, f"b{b}", n_private)]
        for s in shared:
            tree.add(BasicEvent(f"b{b}x{s}", EventCategory.HW_STOCHASTIC))
            tree.add(Gate(f"b{b}and{s}", GateOp.AND, [s, f"b{b}x{s}"]))
            children.append(f"b{b}and{s}")
        tree.add(Gate(f"b{b}", GateOp.OR, children + common))
        branches.append(f"b{b}")
    tree.add(Gate("top", GateOp.AND, branches))
    return tree


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_and_paths_match_reference_and_oracle(seed):
    rng = random.Random(seed)
    taken: set[str] = set()
    for shared_inside in (False, True):
        tree = redundant_branches_tree(rng, shared_inside)
        assert len(reachable_events(tree)) <= 16
        exact = brute_force_oracle(tree).sets
        for bound in (None, 1, 2, 3):
            with spied_engine() as seen:
                engine = minimal_cut_sets(tree, bound)
            if bound is None:
                taken.update(seen.paths)
            assert engine.sets == reference_minimal_cut_sets(tree, bound).sets
            assert engine.sets == [s for s in exact if bound is None or len(s) <= bound]
    assert taken == {"disjoint", "fallback"}


def test_division_and_minimizes_no_large_family(qiasp_result, qiasp_text):
    # Both reached 7378 sets when the division AND minimized its full product.
    with spied_engine() as seen:
        minimal_cut_sets(qiasp_result.injected_tree)
    assert max(seen.sizes, default=0) < 3000
    assert seen.paths and "fallback" not in seen.paths
    three = analyze_text(scaled_qiasp(qiasp_text, 3), "qiasp3.resha", PipelineOptions(max_order=2))
    with spied_engine() as seen:
        minimal_cut_sets(three.injected_tree, 2)
    assert max(seen.sizes, default=0) < 3000
    assert seen.paths and "fallback" not in seen.paths


def test_four_divisions_at_order_3_equal_order_2(qiasp_text):
    text = scaled_qiasp(qiasp_text, 4)
    result = analyze_text(text, "qiasp4.resha", PipelineOptions(max_order=2))
    assert result.collection.order_index() == {1: 44}
    assert minimal_cut_sets(result.injected_tree, 3).sets == result.collection.sets


def test_dependency_chain_absorbs_nothing():
    # Every gate of a sensor chain is an OR over singletons, so each one ORs
    # masks; re-scanning the growing family per gate made this quadratic.
    with spied_engine() as seen:
        result = analyze_model(parse_model(chain_text(4000, consumer_first=False)))
    assert result.collection.order_index() == {1: 4000}
    assert seen.sizes == []


# SHA-256 of ``repr(collection.sets)`` for the exact 3-division variant, as
# computed by the engine that stored one tuple of member ids per set.
THREE_DIVISIONS_EXACT_SHA256 = "a17e232c9eb2b4cb6707edd73168cca154248eabe41cd4a823ea6c058df02e01"


def test_three_divisions_exact_sets_are_pinned(qiasp_text):
    result = analyze_text(scaled_qiasp(qiasp_text, 3), "qiasp3.resha")
    assert result.collection.order_index() == {1: 44, 3: 110592}
    digest = hashlib.sha256(repr(result.collection.sets).encode()).hexdigest()
    assert digest == THREE_DIVISIONS_EXACT_SHA256

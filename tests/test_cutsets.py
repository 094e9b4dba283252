"""Minimal cut sets: engine, oracle agreement, truncation, ordering."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    as_frozensets,
    chain_text,
    member_sets,
    mk_tree,
    random_analyzable_model,
    random_tree,
    reachable_events,
    reference_cutsets_csv,
    scaled_qiasp,
)
from resha import cli, cutsets
from resha.cutsets import first_order_cut_sets, minimal_cut_sets
from resha.dsl import parse_model
from resha.ftree import BasicEvent, EventCategory, FaultTree, Gate, GateOp
from resha.model import ModelError
from resha.pipeline import PipelineOptions, analyze_model, analyze_text
from resha.report import cut_set_counts, cutsets_csv, render_summary
from reference_cutsets import ORACLE_EVENT_BOUND, brute_force_oracle, reference_minimal_cut_sets


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
    assert member_sets(collection) == [("a_hw", "z_ccf")]


def test_set_order_by_size_then_members():
    tree = mk_tree(("or", ("and", "b", "c"), "d", "a"))
    collection = minimal_cut_sets(tree)
    assert member_sets(collection) == [("a",), ("d",), ("b", "c")]


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
    assert member_sets(a) == member_sets(b)


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
    assert member_sets(qiasp_result.collection) == reference_minimal_cut_sets(tree).sets


def test_engine_matches_reference_on_three_divisions_at_order_2(qiasp_text):
    text = scaled_qiasp(qiasp_text, 3)
    result = analyze_text(text, "qiasp3.resha", PipelineOptions(max_order=2))
    assert {i.division for i in result.instances} == {"A", "B", "C"}
    reference = reference_minimal_cut_sets(result.injected_tree, max_order=2)
    assert member_sets(result.collection) == reference.sets
    assert result.collection.order_index() == {1: 44}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_engine_matches_reference_past_the_oracle_bound(seed):
    tree = covering_random_tree(random.Random(seed), 30, 40)
    assert len(reachable_events(tree)) > ORACLE_EVENT_BOUND
    for bound in (None, 1, 2, 3):
        engine = minimal_cut_sets(tree, bound)
        assert member_sets(engine) == reference_minimal_cut_sets(tree, bound).sets


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
    expected = member_sets(minimal_cut_sets(tree, bound))
    for _ in range(3):
        assert member_sets(minimal_cut_sets(_permuted(tree, rng), bound)) == expected


@contextlib.contextmanager
def spied_engine():
    """Record what the engine builds: the path each ``_and_combine`` call
    takes ("expanded" when it crosses the expanded remainders and absorbs
    them, "lazy" when it builds no pairs), the size of every family
    ``_absorb`` receives, the number of sets of every product expanded, the
    most sets outside lazy products that any family built holds, and every
    lazy product a family built holds."""
    seen = SimpleNamespace(paths=[], sizes=[], expanded=[], largest=0, products=[])
    absorbed: list[bool] = []
    and_combine, or_families = cutsets._and_combine, cutsets._or_families
    absorb, expand = cutsets._absorb, cutsets._expand

    def built(family):
        seen.largest = max(seen.largest, len(family[1]))
        seen.products += family[2]
        return family

    def spy_absorb(family, singles):
        seen.sizes.append(len(family))
        if absorbed:
            absorbed[-1] = True
        return absorb(family, singles)

    def spy_expand(product, bound):
        sets = expand(product, bound)
        seen.expanded.append(len(sets))
        return sets

    def spy_and_combine(left, right, bound):
        absorbed.append(False)
        try:
            return built(and_combine(left, right, bound))
        finally:
            seen.paths.append("expanded" if absorbed.pop() else "lazy")

    with mock.patch.multiple(
        cutsets,
        _absorb=spy_absorb,
        _expand=spy_expand,
        _and_combine=spy_and_combine,
        _or_families=lambda families, bound: built(or_families(families, bound)),
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
        exact = member_sets(brute_force_oracle(tree))
        for bound in (None, 1, 2, 3):
            with spied_engine() as seen:
                engine = minimal_cut_sets(tree, bound)
            if bound is None:
                taken.update(seen.paths)
            assert member_sets(engine) == reference_minimal_cut_sets(tree, bound).sets
            assert member_sets(engine) == [s for s in exact if bound is None or len(s) <= bound]
    assert taken == {"lazy", "expanded"}


def factored_tree(rng: random.Random, overlap: bool) -> FaultTree:
    """An OR over an AND of two or three modules and one side child.

    Each module is an AND over two branches of private events, so the top
    AND is one product of four to six factors.  Every branch holds a private
    singleton, and, half of the time each, one more private event and a
    shared CCF event.  The side child is an AND or an OR over fresh events;
    with ``overlap`` it also holds one branch's singleton, so the OR must
    expand the product, and without it the product stays lazy beside the
    side child's sets.
    """
    tree = FaultTree(model_name="factored", root="top")
    common = ["c0"] if rng.random() < 0.5 else []
    for event_id in common:
        tree.add(BasicEvent(event_id, EventCategory.CCF, software=True))
    modules, singles = [], []
    for m in range(rng.randint(2, 3)):
        branches = []
        for b in range(2):
            prefix = f"m{m}b{b}"
            tree.add(BasicEvent(f"{prefix}x", EventCategory.SW_UCA, software=True))
            singles.append(f"{prefix}x")
            more = [add_covering_subtree(tree, rng, prefix, 1)] if rng.random() < 0.5 else []
            tree.add(Gate(f"{prefix}or", GateOp.OR, [f"{prefix}x", *more, *common]))
            branches.append(f"{prefix}or")
        tree.add(Gate(f"m{m}and", GateOp.AND, branches))
        modules.append(f"m{m}and")
    tree.add(Gate("modules", GateOp.AND, modules))
    side = [add_covering_subtree(tree, rng, "side", rng.randint(1, 2)), "side_e"]
    tree.add(BasicEvent("side_e", EventCategory.HW_STOCHASTIC))
    if overlap:
        side.append(rng.choice(singles))
    tree.add(Gate("side", rng.choice((GateOp.AND, GateOp.OR)), side))
    tree.add(Gate("top", GateOp.OR, ["modules", "side"]))
    return tree


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_lazy_products_match_reference_and_oracle(seed):
    rng = random.Random(seed)
    for overlap in (False, True):
        tree = factored_tree(rng, overlap)
        assert len(reachable_events(tree)) <= 16
        exact = member_sets(brute_force_oracle(tree))
        for bound in (None, 1, 2, 3):
            with spied_engine() as seen:
                engine = minimal_cut_sets(tree, bound)
            reference = reference_minimal_cut_sets(tree, bound)
            assert member_sets(engine) == reference.sets
            assert member_sets(engine) == [s for s in exact if bound is None or len(s) <= bound]
            assert engine.order_index() == dict(sorted(Counter(map(len, reference.sets)).items()))
            assert len(engine) == len(reference.sets)
            assert cutsets_csv(engine, tree) == reference_cutsets_csv(reference, tree)
            if bound is None:
                # The module AND is one product of four to six factors; the
                # root keeps it lazy unless the side child overlaps it.
                assert max(len(product[2]) for product in seen.products) >= 4
                kept = any(len(product[2]) >= 4 for product in engine.family[2])
                assert kept != overlap
                assert seen.expanded or not overlap


def test_division_and_minimizes_no_large_family(qiasp_result, qiasp_text):
    # Minimizing the division AND's full product would absorb 7378 sets; the
    # product stays lazy and nothing expands it.
    with spied_engine() as seen:
        minimal_cut_sets(qiasp_result.injected_tree)
    assert max(seen.sizes, default=0) < 3000
    assert seen.paths and "expanded" not in seen.paths and not seen.expanded
    three = analyze_text(scaled_qiasp(qiasp_text, 3), "qiasp3.resha", PipelineOptions(max_order=2))
    with spied_engine() as seen:
        minimal_cut_sets(three.injected_tree, 2)
    assert max(seen.sizes, default=0) < 3000
    assert seen.paths and "expanded" not in seen.paths and not seen.expanded


def test_four_divisions_at_order_3_equal_order_2(qiasp_text):
    text = scaled_qiasp(qiasp_text, 4)
    result = analyze_text(text, "qiasp4.resha", PipelineOptions(max_order=2))
    assert result.collection.order_index() == {1: 44}
    assert member_sets(minimal_cut_sets(result.injected_tree, 3)) == member_sets(result.collection)


@pytest.mark.parametrize(
    "divisions, max_order, index",
    [(4, None, {1: 44, 4: 5308416}), (5, None, {1: 44, 5: 254803968}), (5, 4, {1: 44})],
    ids=["4-exact", "5-exact", "5-order-4"],
)
def test_scaled_divisions_are_counted_without_building_their_product(qiasp_text, divisions, max_order, index):
    # The division product has 48**divisions sets: built, it takes tens of
    # seconds and hundreds of MB at 4 divisions and exhausts memory at 5.  At
    # order 4 the five-division product has no set within the bound.
    text = scaled_qiasp(qiasp_text, divisions)
    with spied_engine() as seen:
        result = analyze_text(text, f"qiasp{divisions}.resha", PipelineOptions(max_order=max_order))
        summary = render_summary(result, "txt")
    assert result.collection.order_index() == index
    assert f"Minimal cut sets: {sum(index.values())}" in summary
    assert all(f"Order {order}: {count}" in summary for order, count in index.items())
    assert max([seen.largest, *seen.sizes, *seen.expanded]) < 100


def test_dependency_chain_absorbs_nothing():
    # Every gate of a sensor chain is an OR over singletons, so each one ORs
    # masks; re-scanning the growing family per gate made this quadratic.
    with spied_engine() as seen:
        result = analyze_model(parse_model(chain_text(4000, consumer_first=False)))
    assert result.collection.order_index() == {1: 4000}
    assert seen.sizes == []


# SHA-256 of ``repr(member_sets(collection))`` for the exact 3-division
# variant, as computed by the engine that stored one tuple of member ids per set.
THREE_DIVISIONS_EXACT_SHA256 = "a17e232c9eb2b4cb6707edd73168cca154248eabe41cd4a823ea6c058df02e01"


def test_three_divisions_exact_sets_are_pinned(qiasp_text, tmp_path, capsys):
    text = scaled_qiasp(qiasp_text, 3)
    result = analyze_text(text, "qiasp3.resha")
    assert result.collection.order_index() == {1: 44, 3: 110592}
    sets = member_sets(result.collection)
    digest = hashlib.sha256(repr(sets).encode()).hexdigest()
    assert digest == THREE_DIVISIONS_EXACT_SHA256
    # The text listing renders from the walk's runs; here each order-3 run
    # shares a head of two members.
    path = tmp_path / "qiasp3.resha"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["cutsets", str(path)]) == 0
    expected = [f"order {len(cut)}: {' '.join(cut)}" for cut in sets]
    expected += cut_set_counts(result.collection, result.first_order)
    # Compared line by line and the first difference named, since pytest's
    # diff of 110,641 lines takes minutes.
    printed = capsys.readouterr().out.split("\n")
    assert (len(printed), printed[-1]) == (len(expected) + 1, "")
    first = next((i for i, pair in enumerate(zip(printed, expected)) if pair[0] != pair[1]), None)
    assert first is None, (first, printed[first], expected[first])


def assert_truncation_keeps_exact_sets(model) -> None:
    """At every bound k up to the largest order, ``analyze_model`` gives the
    exact run's sets of order at most k, in the same order, and its order
    index cut at k."""
    exact = analyze_model(model).collection
    exact_sets, exact_index = member_sets(exact), exact.order_index()
    for k in range(1, max(exact_index, default=1) + 1):
        truncated = analyze_model(model, PipelineOptions(max_order=k)).collection
        assert member_sets(truncated) == [cut for cut in exact_sets if len(cut) <= k]
        assert truncated.order_index() == {order: n for order, n in exact_index.items() if order <= k}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_truncation_keeps_the_exact_sets_up_to_the_bound(seed):
    assert_truncation_keeps_exact_sets(random_analyzable_model(random.Random(seed)))


@pytest.mark.parametrize("divisions", [2, 3])
def test_truncation_keeps_the_exact_sets_up_to_the_bound_on_the_case_study(qiasp_text, divisions):
    # Random models reach order 2 at most; three divisions reach order 3.
    assert_truncation_keeps_exact_sets(parse_model(scaled_qiasp(qiasp_text, divisions)))

"""Reference answers for the cut-set engine's differential tests.

``reference_minimal_cut_sets`` is the frozenset engine that the bitset
engine replaced: ``tests/test_cutsets.py`` asserts that
``resha.cutsets.minimal_cut_sets`` returns the same ``sets`` list, order
included.  ``brute_force_oracle`` recomputes the exact answer from the
definition, by evaluating the tree on every event assignment.  Nothing
under ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from resha.cutsets import CutSetCollection, event_sort_key
from resha.ftree import BasicEvent, FaultTree, GateOp
from resha.model import ModelError

ORACLE_EVENT_BOUND = 24


@dataclass
class ReferenceCollection:
    """Member tuples in the canonical (order, members) order."""

    sets: list[tuple[str, ...]]
    truncation_order: int | None = None


def _minimize(families: set[frozenset[str]], max_order: int | None) -> set[frozenset[str]]:
    if max_order is not None:
        families = {s for s in families if len(s) <= max_order}
    kept: list[frozenset[str]] = []
    single_members: set[str] = set()
    for candidate in sorted(families, key=len):
        if len(candidate) == 1:
            kept.append(candidate)
            single_members.update(candidate)
            continue
        if not single_members.isdisjoint(candidate):
            continue
        if any(t <= candidate for t in kept if 1 < len(t) < len(candidate)):
            continue
        kept.append(candidate)
    return set(kept)


def _and_combine(
    left: set[frozenset[str]], right: set[frozenset[str]], max_order: int | None
) -> set[frozenset[str]]:
    out: set[frozenset[str]] = set()
    for a in left:
        for b in right:
            union = a | b
            if max_order is None or len(union) <= max_order:
                out.add(union)
    return _minimize(out, max_order)


def _collection_from(
    tree: FaultTree, families: set[frozenset[str]], max_order: int | None
) -> ReferenceCollection:
    key = event_sort_key(tree)
    ordered = [tuple(sorted(s, key=key)) for s in families]
    ordered.sort(key=lambda cut: (len(cut), [key(m) for m in cut]))
    return ReferenceCollection(sets=ordered, truncation_order=max_order)


def reference_minimal_cut_sets(
    tree: FaultTree, max_order: int | None = None
) -> ReferenceCollection:
    """Minimal cut sets of the root, optionally truncated to an order bound."""
    if max_order is not None and max_order < 1:
        raise ModelError(f"max_order must be at least 1, got {max_order}")
    tree.check_structure()
    memo: dict[str, set[frozenset[str]]] = {}
    for node_id in tree.topological_nodes():
        node = tree.nodes[node_id]
        if isinstance(node, BasicEvent):
            memo[node_id] = {frozenset({node_id})}
            continue
        child_families = [memo[c] for c in node.children if c in memo]
        if node.op is GateOp.OR:
            union: set[frozenset[str]] = set()
            for family in child_families:
                union |= family
            memo[node_id] = _minimize(union, max_order)
        else:
            acc: set[frozenset[str]] = {frozenset()}
            for family in child_families:
                acc = _and_combine(acc, family, max_order)
                if not acc:
                    break
            memo[node_id] = acc
    return _collection_from(tree, memo[tree.root], max_order)


def brute_force_oracle(tree: FaultTree) -> CutSetCollection:
    """Exact minimal cut sets by exhaustive evaluation.

    Each node's truth table over all 2**n event assignments is packed into
    one integer; a failing assignment is minimal when removing any single
    member stops the failure, which is sufficient by monotonicity.  Refuses
    trees with more than ``ORACLE_EVENT_BOUND`` distinct reachable basic events.
    """
    order = tree.check_structure()
    # Event i owns bit 1 << (n - 1 - i), as in the engine.
    events = sorted(
        (node_id for node_id in order if isinstance(tree.nodes[node_id], BasicEvent)),
        key=event_sort_key(tree),
    )
    n = len(events)
    if n > ORACLE_EVENT_BOUND:
        raise ModelError(
            f"oracle refuses {n} basic events (bound is {ORACLE_EVENT_BOUND}); "
            "use minimal_cut_sets for larger trees"
        )
    total = 1 << n

    # An assignment is a cut-set mask: event i is failed in assignment b iff
    # b has event i's bit, 1 << (n - 1 - i).  tables[e] has bit b set iff
    # event e is failed in assignment b.
    tables: dict[str, int] = {}
    for bit, event_id in enumerate(reversed(events)):
        block = ((1 << (1 << bit)) - 1) << (1 << bit)
        span = 1 << (bit + 1)
        pattern = block
        while span < total:
            pattern |= pattern << span
            span <<= 1
        tables[event_id] = pattern

    full = (1 << total) - 1
    node_table: dict[str, int] = {}
    for node_id in order:
        node = tree.nodes[node_id]
        if isinstance(node, BasicEvent):
            node_table[node_id] = tables[node_id]
        elif node.op is GateOp.OR:
            acc = 0
            for child in node.children:
                acc |= node_table[child]
            node_table[node_id] = acc
        else:
            acc = full
            for child in node.children:
                acc &= node_table[child]
            node_table[node_id] = acc

    root_table = node_table[tree.root]
    found: set[int] = set()
    for mask in range(total):
        if not (root_table >> mask) & 1:
            continue
        minimal = True
        probe = mask
        while probe:
            low = probe & -probe
            if (root_table >> (mask ^ low)) & 1:
                minimal = False
                break
            probe ^= low
        if minimal:
            found.add(mask)
    singles = sum(cut for cut in found if cut.bit_count() == 1)
    return CutSetCollection(events, (singles, {cut for cut in found if cut.bit_count() > 1}, ()))

"""The frozenset cut-set engine that the bitset engine replaced.

Kept only as a reference for differential tests: ``tests/test_cutsets.py``
asserts that ``resha.cutsets.minimal_cut_sets`` returns the same ``sets``
list, order included.  Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from resha.cutsets import event_sort_key
from resha.ftree import BasicEvent, FaultTree, GateOp
from resha.model import ModelError


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

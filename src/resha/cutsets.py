"""Minimal cut sets over monotone fault-tree DAGs.

The engine works on integer bitsets: each basic event reachable from the
root gets one bit, numbered in canonical (category, id) order, so a cut set
is an ``int`` and a family a ``set[int]``.  Families combine bottom-up with
memoization, so shared subtrees are computed once.  OR nodes union their
children's families (a lone non-empty child's family passes through) and
minimize the union by absorbing sets into strictly smaller kept ones,
singletons through one OR-mask.  AND nodes fold their children pairwise, and
each pair is factored first: a singleton found in both families is a
minimal set of the product and, the families being minimal, no other set of
either holds its event, so it passes straight through.  When what remains
of the two families has disjoint supports (independent modules, as the
divisions under an ``all_must_fail`` gate are once their shared CCF events
pass through), every union ``a | b`` is already minimal and has order
``|a| + |b|``, so only the pairs within the bound are built and nothing is
minimized; otherwise the remainders are crossed and minimized.  An optional
order bound prunes sets by ``int.bit_count`` during combination, which is
sound for monotone trees (dropping a set can never create a new minimal set
at or below the bound); without a bound the result is exact.  Sets become
member tuples only at the end, sorted by order and then by bit indices,
which is the canonical (order, members) order.

``brute_force_oracle`` recomputes the same answer from the definition by
evaluating the tree on every event assignment, packed as truth-table
bit-integers so the cost is one big-int operation per node.  It numbers
events the same way and shares the final conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ftree import BasicEvent, EventCategory, FaultTree, GateOp
from .model import ModelError

ORACLE_EVENT_BOUND = 24

_CATEGORY_RANK = {
    EventCategory.HW_STOCHASTIC: 0,
    EventCategory.HW_DESIGN: 1,
    EventCategory.DEPENDENCY_LEAF: 2,
    EventCategory.SW_UCA: 3,
    EventCategory.SW_UIF: 4,
    EventCategory.CCF: 5,
}


def event_sort_key(tree: FaultTree):
    """Canonical (category, id) ordering for basic events."""

    def key(event_id: str) -> tuple[int, str]:
        node = tree.nodes.get(event_id)
        rank = _CATEGORY_RANK.get(node.category, 9) if isinstance(node, BasicEvent) else 9
        return (rank, event_id)

    return key


@dataclass
class CutSetCollection:
    """Canonically ordered minimal cut sets.

    Members inside a set are sorted by (category, id); sets are sorted by
    (order, members).  ``truncation_order`` records the bound the sets were
    computed under, None when exact.
    """

    sets: list[tuple[str, ...]] = field(default_factory=list)
    truncation_order: int | None = None

    def __len__(self) -> int:
        return len(self.sets)

    def as_frozensets(self) -> set[frozenset[str]]:
        return {frozenset(s) for s in self.sets}

    def order_index(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for cut in self.sets:
            counts[len(cut)] = counts.get(len(cut), 0) + 1
        return dict(sorted(counts.items()))

    def singletons(self) -> list[str]:
        return [cut[0] for cut in self.sets if len(cut) == 1]


def _numbered_events(tree: FaultTree, order: list[str]) -> list[str]:
    """Reachable basic events in canonical order; event i owns bit ``1 << i``."""
    events = [node_id for node_id in order if isinstance(tree.nodes[node_id], BasicEvent)]
    return sorted(events, key=event_sort_key(tree))


def _minimize(family: set[int], bound: int) -> set[int]:
    """Drop sets above the bound and every set that contains a smaller one."""
    singles: list[int] = []
    buckets: dict[int, list[int]] = {}
    for cut in family:
        size = cut.bit_count()
        if size == 1:
            singles.append(cut)
        elif size <= bound:
            buckets.setdefault(size, []).append(cut)
    # Distinct single bits, so their sum is their OR.
    single_mask = sum(singles)
    kept = set(singles)
    # Kept sets of order two and up, all smaller than the bucket in hand.
    smaller: list[int] = []
    for size in sorted(buckets):
        fresh = [cut for cut in buckets[size] if not cut & single_mask]
        if smaller:
            fresh = [cut for cut in fresh if not any(t & cut == t for t in smaller)]
        kept.update(fresh)
        smaller.extend(fresh)
    return kept


def _and_combine(left: set[int], right: set[int], bound: int) -> set[int]:
    """Minimal sets of ``{a | b}`` over two minimal families within the bound."""
    # A singleton in both inputs is a minimal set of the product, and since
    # each input is minimal no other set of either input holds its event.
    common = {cut for cut in left & right if cut.bit_count() == 1}
    if common:
        left = left - common
        right = right - common
    left_mask = right_mask = 0
    for cut in left:
        left_mask |= cut
    for cut in right:
        right_mask |= cut
    if left_mask & right_mask:
        return common | _minimize(
            {u for a in left for b in right if (u := a | b).bit_count() <= bound}, bound
        )
    # Disjoint supports: every union is minimal and its order is the sum of
    # its parts' orders, so build only the pairs within the bound.
    by_order: dict[int, list[int]] = {}
    for b in right:
        by_order.setdefault(b.bit_count(), []).append(b)
    sizes = sorted(by_order)
    for a in left:
        room = bound - a.bit_count()
        for size in sizes:
            if size > room:
                break
            common.update(a | b for b in by_order[size])
    return common


def _collection_from(
    events: list[str], family: set[int], max_order: int | None
) -> CutSetCollection:
    rows = []
    for cut in family:
        bits = []
        while cut:
            low = cut & -cut
            bits.append(low.bit_length() - 1)
            cut ^= low
        rows.append(bits)
    rows.sort(key=lambda bits: (len(bits), bits))
    sets = [tuple(events[i] for i in bits) for bits in rows]
    return CutSetCollection(sets=sets, truncation_order=max_order)


def minimal_cut_sets(tree: FaultTree, max_order: int | None = None) -> CutSetCollection:
    """Minimal cut sets of the root, optionally truncated to an order bound."""
    if max_order is not None and max_order < 1:
        raise ModelError(f"max_order must be at least 1, got {max_order}")
    order = tree.check_structure()
    events = _numbered_events(tree, order)
    # No set has more members than there are events.
    bound = len(events) if max_order is None else max_order
    memo: dict[str, set[int]] = {event_id: {1 << i} for i, event_id in enumerate(events)}
    for node_id in order:
        node = tree.nodes[node_id]
        if isinstance(node, BasicEvent):
            continue
        child_families = [memo[c] for c in node.children]
        if node.op is GateOp.OR:
            live = [family for family in child_families if family]
            if len(live) == 1:
                # Already minimal and within the bound.
                memo[node_id] = live[0]
            else:
                memo[node_id] = _minimize(set().union(*live), bound)
        else:
            acc = child_families[0]
            for family in child_families[1:]:
                if not acc:
                    break
                acc = _and_combine(acc, family, bound)
            memo[node_id] = acc
    return _collection_from(events, memo[tree.root], max_order)


@dataclass
class FirstOrderReport:
    """Singleton cut sets split into hardware and software events."""

    software: list[str] = field(default_factory=list)
    hardware: list[str] = field(default_factory=list)


def first_order_cut_sets(collection: CutSetCollection, tree: FaultTree) -> FirstOrderReport:
    report = FirstOrderReport()
    for event_id in collection.singletons():
        node = tree.nodes.get(event_id)
        is_software = isinstance(node, BasicEvent) and node.software
        (report.software if is_software else report.hardware).append(event_id)
    key = event_sort_key(tree)
    report.software.sort(key=key)
    report.hardware.sort(key=key)
    return report


def brute_force_oracle(tree: FaultTree, max_events: int = ORACLE_EVENT_BOUND) -> CutSetCollection:
    """Exact minimal cut sets by exhaustive evaluation.

    Each node's truth table over all 2**n event assignments is packed into
    one integer; a failing assignment is minimal when removing any single
    member stops the failure, which is sufficient by monotonicity.  Refuses
    trees with more than ``max_events`` distinct reachable basic events.
    """
    order = tree.check_structure()
    events = _numbered_events(tree, order)
    n = len(events)
    if n > max_events:
        raise ModelError(
            f"oracle refuses {n} basic events (bound is {max_events}); "
            "use minimal_cut_sets for larger trees"
        )
    total = 1 << n

    # tables[i] has bit b set iff event i is failed in assignment b.
    tables: dict[str, int] = {}
    for i, event_id in enumerate(events):
        block = ((1 << (1 << i)) - 1) << (1 << i)
        span = 1 << (i + 1)
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
    return _collection_from(events, found, None)

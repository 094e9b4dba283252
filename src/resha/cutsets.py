"""Minimal cut sets over monotone fault-tree DAGs.

The engine works on integer bitsets.  Each basic event reachable from the
root gets one bit: event ``i`` of the canonical (category, id) list owns
bit ``1 << (n - 1 - i)``, so a cut set is an ``int``.  A node's family is a
pair ``(singles, larger)``: ``singles`` is one mask of its first-order
events, and ``larger`` is a set of the bitsets of order two and up, none
of which touches ``singles`` since the family is minimal (Rauzy, "New
algorithms for fault trees analysis", RESS 40(3), 1993, for minimal-set
families).  Families combine bottom-up with memoization, so shared
subtrees are computed once.

OR nodes OR their children's masks, union their ``larger`` sets, drop the
sets that touch the mask and absorb each remaining set into strictly
smaller kept ones; a gate whose children have no larger sets costs one
OR per child.  AND nodes fold their children pairwise, and each pair is
factored first: a singleton of both families is a minimal set of the
product and, the families being minimal, no other set of either holds its
event, so the mask ``left.singles & right.singles`` passes straight
through.  Every other product has order two or more, so under a bound of
one nothing else is built.  When what remains of the two families has
disjoint supports (independent modules, as the divisions under an
``all_must_fail`` gate are once their shared CCF events pass through),
every union ``a | b`` is already minimal and has order ``|a| + |b|``, so
only the pairs within the bound are built and nothing is absorbed;
otherwise the remainders are crossed and absorbed.  An optional order
bound prunes sets by ``int.bit_count`` during combination, which is sound
for monotone trees (dropping a set can never create a new minimal set at
or below the bound); without a bound the result is exact.

The root's family is sorted into the canonical (order, members) order,
which with this numbering is order up, then ``int`` down.  The collection
keeps these ints; member tuples are built only on demand.

``brute_force_oracle`` recomputes the same answer from the definition by
evaluating the tree on every event assignment, packed as truth-table
bit-integers so the cost is one big-int operation per node.  It numbers
events the same way and builds the same collection.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from collections.abc import Set as AbstractSet
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

# A family: the mask of its singleton events and its sets of order two and up.
Family = tuple[int, AbstractSet[int]]
_NO_SETS: frozenset[int] = frozenset()


def event_sort_key(tree: FaultTree):
    """Canonical (category, id) ordering for basic events."""

    def key(event_id: str) -> tuple[int, str]:
        node = tree.nodes.get(event_id)
        rank = _CATEGORY_RANK.get(node.category, 9) if isinstance(node, BasicEvent) else 9
        return (rank, event_id)

    return key


@dataclass
class CutSetCollection:
    """Canonically ordered minimal cut sets, kept as bitsets.

    ``events`` is the canonical event list; event ``i`` owns bit
    ``1 << (len(events) - 1 - i)`` of each int in ``cuts``.  Members inside
    a set are sorted by (category, id); sets are sorted by (order,
    members).  ``truncation_order`` records the bound the sets were
    computed under, None when exact.
    """

    events: list[str]
    cuts: list[int]
    truncation_order: int | None = None

    def __len__(self) -> int:
        return len(self.cuts)

    def member_indices(self) -> Iterator[list[int]]:
        """Each set's member event indices, in canonical member order."""
        n = len(self.events)
        for cut in self.cuts:
            indices = []
            while cut:
                top = cut.bit_length()
                indices.append(n - top)
                cut ^= 1 << (top - 1)
            yield indices

    @property
    def sets(self) -> list[tuple[str, ...]]:
        """Member tuples of every set, built on each access and not stored."""
        events = self.events
        return [tuple([events[i] for i in indices]) for indices in self.member_indices()]

    def order_index(self) -> dict[int, int]:
        return dict(sorted(Counter(map(int.bit_count, self.cuts)).items()))

    def singletons(self) -> list[str]:
        n = len(self.events)
        return [self.events[n - cut.bit_length()] for cut in self.cuts if cut.bit_count() == 1]


def _numbered_events(tree: FaultTree, order: list[str]) -> list[str]:
    """Reachable basic events in canonical order; event i owns bit ``1 << (n-1-i)``."""
    events = [node_id for node_id in order if isinstance(tree.nodes[node_id], BasicEvent)]
    return sorted(events, key=event_sort_key(tree))


def _collection_from(
    events: list[str], cuts: Iterable[int], max_order: int | None
) -> CutSetCollection:
    # Higher bits belong to earlier events, so within one order a larger int
    # has the smaller member list.
    ordered = sorted(cuts, reverse=True)
    ordered.sort(key=int.bit_count)
    return CutSetCollection(events=events, cuts=ordered, truncation_order=max_order)


def _single_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _absorb(family: set[int], singles: int) -> set[int]:
    """Drop the sets of order two and up that touch ``singles`` or contain a
    smaller set of ``family``."""
    buckets: dict[int, list[int]] = {}
    for cut in family:
        if not cut & singles:
            buckets.setdefault(cut.bit_count(), []).append(cut)
    kept: set[int] = set()
    # Kept sets, all smaller than the bucket in hand.
    smaller: list[int] = []
    for size in sorted(buckets):
        fresh = buckets[size]
        if smaller:
            fresh = [cut for cut in fresh if not any(t & cut == t for t in smaller)]
        kept.update(fresh)
        smaller.extend(fresh)
    return kept


def _or_families(families: list[Family]) -> Family:
    singles = 0
    parts = []
    for child_singles, larger in families:
        singles |= child_singles
        if larger:
            parts.append(larger)
    if not parts:
        return singles, _NO_SETS
    if len(parts) == 1:
        # Already minimal; only the other children's singletons can absorb.
        (larger,) = parts
        if any(cut & singles for cut in larger):
            larger = {cut for cut in larger if not cut & singles}
        return singles, larger
    return singles, _absorb(set().union(*parts), singles)


def _and_combine(left: Family, right: Family, bound: int) -> Family:
    """Minimal sets of ``{a | b}`` over two minimal families within the bound."""
    (left_singles, left_larger), (right_singles, right_larger) = left, right
    # A singleton in both inputs is a minimal set of the product, and since
    # each input is minimal no other set of either input holds its event.
    common = left_singles & right_singles
    if bound == 1:
        return common, _NO_SETS
    left_mask, right_mask = left_singles ^ common, right_singles ^ common
    left_rest = _single_bits(left_mask) + list(left_larger)
    right_rest = _single_bits(right_mask) + list(right_larger)
    for cut in left_larger:
        left_mask |= cut
    for cut in right_larger:
        right_mask |= cut
    # No remaining singleton is in both inputs, so every product below has
    # order two or more.
    if left_mask & right_mask:
        return common, _absorb(
            {u for a in left_rest for b in right_rest if (u := a | b).bit_count() <= bound}, 0
        )
    # Disjoint supports: every union is minimal and its order is the sum of
    # its parts' orders, so build only the pairs within the bound.
    by_order: dict[int, list[int]] = {}
    for b in right_rest:
        by_order.setdefault(b.bit_count(), []).append(b)
    sizes = sorted(by_order)
    larger: set[int] = set()
    for a in left_rest:
        room = bound - a.bit_count()
        for size in sizes:
            if size > room:
                break
            larger.update(a | b for b in by_order[size])
    return common, larger


def minimal_cut_sets(tree: FaultTree, max_order: int | None = None) -> CutSetCollection:
    """Minimal cut sets of the root, optionally truncated to an order bound."""
    if max_order is not None and max_order < 1:
        raise ModelError(f"max_order must be at least 1, got {max_order}")
    order = tree.check_structure()
    events = _numbered_events(tree, order)
    n = len(events)
    # No set has more members than there are events.
    bound = n if max_order is None else max_order
    memo: dict[str, Family] = {
        event_id: (1 << (n - 1 - i), _NO_SETS) for i, event_id in enumerate(events)
    }
    for node_id in order:
        node = tree.nodes[node_id]
        if isinstance(node, BasicEvent):
            continue
        child_families = [memo[c] for c in node.children]
        if node.op is GateOp.OR:
            memo[node_id] = _or_families(child_families)
        else:
            acc = child_families[0]
            for family in child_families[1:]:
                if acc == (0, _NO_SETS):
                    break
                acc = _and_combine(acc, family, bound)
            memo[node_id] = acc
    singles, larger = memo[tree.root]
    return _collection_from(events, _single_bits(singles) + list(larger), max_order)


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
    return report


def brute_force_oracle(tree: FaultTree) -> CutSetCollection:
    """Exact minimal cut sets by exhaustive evaluation.

    Each node's truth table over all 2**n event assignments is packed into
    one integer; a failing assignment is minimal when removing any single
    member stops the failure, which is sufficient by monotonicity.  Refuses
    trees with more than ``ORACLE_EVENT_BOUND`` distinct reachable basic events.
    """
    order = tree.check_structure()
    events = _numbered_events(tree, order)
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
    return _collection_from(events, found, None)

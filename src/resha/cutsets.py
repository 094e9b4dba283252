"""Minimal cut sets over monotone fault-tree DAGs.

Each basic event reachable from the root owns one bit: event ``i`` of the
canonical (category, id) list owns ``1 << (n - 1 - i)``, so a cut set is an
``int``.  A node's family is its singleton mask, its other sets, none of
which touches the mask (Rauzy, RESS 40(3), 1993), and its lazy products.
A product stands for every union of one set from each of its factors,
families with disjoint supports, so each union is minimal and its order is
the sum of its parts' (Dutuit & Rauzy, IEEE Trans. Rel. 45(3), 1996).  No
product's support touches the rest of its family.

An AND passes a singleton of both children straight through; under a bound
of one that is all.  If the rest of the two have disjoint supports, as
redundant divisions do once their shared CCF events pass through, it
records their product as one flat list of factors, unless the product's
minimum order exceeds the bound; otherwise it crosses and absorbs them.  An
OR ORs the masks, keeps lazy each product whose support touches nothing
else, and absorbs the rest.  A bound prunes by ``int.bit_count``, which is
sound for monotone trees.  The order index convolves the factors' counts,
and ``CutSetCollection.walk`` enumerates the sets in canonical order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from collections.abc import Set as AbstractSet
from itertools import chain

from .ftree import BasicEvent, EventCategory, FaultTree, GateOp
from .model import ModelError

_CATEGORY_RANK = {
    EventCategory.HW_STOCHASTIC: 0,
    EventCategory.HW_DESIGN: 1,
    EventCategory.DEPENDENCY_LEAF: 2,
    EventCategory.SW_UCA: 3,
    EventCategory.SW_UIF: 4,
    EventCategory.CCF: 5,
}

# A family: singleton mask, other sets, lazy products.  A product: support
# mask, minimum order, factors.
Family = tuple[int, AbstractSet[int], tuple["Product", ...]]
Product = tuple[int, int, tuple[Family, ...]]
# A trie node: members ascending, the node below each (None where a set ends:
# no set of a minimal family holds another), and the members that end a set.
Node = tuple[list[int], list["Node | None"], list[int]]
# A run: the members shared by sets that differ only in their last member,
# and those last members ascending.
Run = tuple[tuple[int, ...], list[int]]
_NO_SETS: frozenset[int] = frozenset()


class CutSetCollection:
    """The minimal cut sets of a root family over ``events``, the canonical
    event list, whose event ``i`` owns bit ``1 << (len(events) - 1 - i)``.
    ``truncation_order`` is the bound they were computed under, None when
    exact."""

    def __init__(self, events: list[str], family: Family, truncation_order: int | None = None):
        self.events = events
        self.family = family
        self.truncation_order = truncation_order

    def __len__(self) -> int:
        return sum(self.order_index().values())

    def order_index(self) -> dict[int, int]:
        n = len(self.events)
        return dict(sorted(_counts((self.family,), min(self.truncation_order or n, n)).items()))

    def members(self) -> tuple[int, ...]:
        """Indices of the events that may appear in a set, ascending."""
        return _indices(_support(self.family), len(self.events))

    def singletons(self) -> list[str]:
        return [self.events[i] for i in _indices(self.family[0], len(self.events))]

    def walk(self) -> Iterator[Run]:
        """Every set in canonical order: order up, then member indices
        ascending.  The mask and the other sets walk as one factor and each
        product as its factors; their runs are sorted by first member.  This
        is the one view of the sets that the package renders from: a run's
        shared members are written once, and each set adds its last one."""
        n = len(self.events)
        bound = min(self.truncation_order or n, n)
        terms = [((*self.family[:2], ()),), *(product[2] for product in self.family[2])]
        walks = [(_counts(factors, bound), [_trie(f, n, bound) for f in factors]) for factors in terms]
        for order in self.order_index():
            parts = [_runs(tries, order) for counts, tries in walks if counts[order]]
            yield from parts[0] if len(parts) == 1 else sorted(chain(*parts), key=lambda run: run[0][0])


def _indices(cut: int, n: int) -> tuple[int, ...]:
    """The event indices of a bitset, ascending."""
    indices = []
    while cut:
        top = cut.bit_length()
        indices.append(n - top)
        cut ^= 1 << (top - 1)
    return tuple(indices)


def _support(family: Family) -> int:
    singles, larger, products = family
    for cut in larger:
        singles |= cut
    for product in products:
        singles |= product[0]
    return singles


def _min_order(family: Family) -> int:
    singles, larger, products = family
    return 1 if singles else min([*map(int.bit_count, larger), *(p[1] for p in products)])


def _flat(family: Family, bound: int) -> list[int]:
    """Every set of a family as a bitset, its products expanded within the bound."""
    singles, larger, products = family
    sets = list(larger)
    while singles:
        sets.append(singles & -singles)
        singles &= singles - 1
    for product in products:
        sets += _expand(product, bound)
    return sets


def _expand(product: Product, bound: int) -> list[int]:
    _, rest, factors = product
    sets = [0]
    for factor in factors:
        # Leave room for the smallest sets of the factors still to come.
        rest -= _min_order(factor)
        room, parts = bound - rest, _flat(factor, bound)
        sets = [u for a in sets for b in parts if (u := a | b).bit_count() <= room]
    return sets


def _counts(factors: tuple[Family, ...], bound: int) -> Counter[int]:
    """Sets per order of a product: its factors' counts convolved within the bound."""
    counts = Counter({0: 1})
    for singles, larger, products in factors:
        own = Counter(map(int.bit_count, larger))
        if singles:
            own[1] += singles.bit_count()
        for product in products:
            own.update(_counts(product[2], bound))
        step: Counter[int] = Counter()
        for b, y in own.items():
            for a, x in counts.items():
                if a + b <= bound:
                    step[a + b] += x * y
        counts = step
    return counts


def _trie(family: Family, n: int, bound: int) -> Node:
    """A factor's sets as a trie over their ascending member indices."""
    if not family[1] and not family[2]:
        members = list(_indices(family[0], n))
        return members, [None] * len(members), members
    root: Node = ([], [], [])
    for members in sorted(_indices(cut, n) for cut in _flat(family, bound)):
        node = root
        for member in members[:-1]:
            # Sets in lexicographic order extend only the last member of a node.
            if not node[0] or node[0][-1] != member:
                node[0].append(member)
                node[1].append(([], [], []))
            node = node[1][-1]
        node[0].append(members[-1])
        node[1].append(None)
        node[2].append(members[-1])
    return root


def _runs(factors: list[Node], order: int) -> Iterator[Run]:
    """Runs of a product's sets of one order, in canonical order.

    A step holds each open factor's trie node below the members it took.
    Members are taken smallest first: the smallest member left picks the one
    factor that holds it, and the walk continues over the other factors
    above it.  An open factor needs one member more, so a step holds no more
    factors than members still to take.
    """
    stack = [(tuple(factors), order, ())]
    while stack:
        nodes, need, head = stack.pop()
        floor = head[-1] if head else -1
        if need == 1:
            ends = nodes[0][2]
            yield head, ends[bisect_right(ends, floor):]
            continue
        candidates = sorted(
            (node[0][k], f, k)
            for f, node in enumerate(nodes)
            for k in range(bisect_right(node[0], floor), len(node[0]))
        )
        children = []
        for member, f, k in candidates:
            step = [node for g, node in enumerate(nodes) if g != f]
            if all(node[0][-1] > member for node in step):
                if nodes[f][1][k]:
                    step.append(nodes[f][1][k])
                if 0 < len(step) < need:
                    children.append((tuple(step), need - 1, (*head, member)))
        stack.extend(reversed(children))


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


def _or_families(families: list[Family], bound: int) -> Family:
    singles, parts, products = 0, [], {}
    for child_singles, larger, child_products in families:
        singles |= child_singles
        if larger:
            parts.append(larger)
        if child_products:
            # A product reached through two children is one product.
            products.update((id(p), p) for p in child_products)
    if not parts and not products:
        return singles, _NO_SETS, ()
    lazy: tuple[Product, ...] = ()
    if products:
        # A product stays lazy while its support touches nothing else.
        touched = seen = _support((singles, set().union(*parts), ()))
        for support, _, _ in products.values():
            touched |= seen & support
            seen |= support
        lazy = tuple(p for p in products.values() if not p[0] & touched)
        parts += [_expand(p, bound) for p in products.values() if p[0] & touched]
    if len(parts) == 1 and isinstance(parts[0], AbstractSet):
        # Already minimal; only the other children's singletons can absorb.
        if any(cut & singles for cut in parts[0]):
            return singles, {cut for cut in parts[0] if not cut & singles}, lazy
        return singles, parts[0], lazy
    return singles, _absorb(set().union(*parts), singles) if parts else _NO_SETS, lazy


def _and_combine(left: Family, right: Family, bound: int) -> Family:
    """Minimal sets of ``{a | b}`` over two minimal families within the bound."""
    # A singleton in both inputs is a minimal set of the product, and since
    # each input is minimal no other set of either input holds its event.
    common = left[0] & right[0]
    if bound == 1:
        return common, _NO_SETS, ()
    rests = ((left[0] ^ common, left[1], left[2]), (right[0] ^ common, right[1], right[2]))
    supports = [_support(rest) for rest in rests]
    if not all(supports):
        return common, _NO_SETS, ()
    if supports[0] & supports[1]:
        # No singleton is left in both, so every union has order two or more.
        right_sets = _flat(rests[1], bound)
        crossed = {u for a in _flat(rests[0], bound) for b in right_sets if (u := a | b).bit_count() <= bound}
        return common, _absorb(crossed, 0), ()
    factors: tuple[Family, ...] = ()
    order = 0
    for rest in rests:
        # A rest that is one product gives its factors.
        lone = not rest[0] and not rest[1] and len(rest[2]) == 1
        factors += rest[2][0][2] if lone else (rest,)
        order += rest[2][0][1] if lone else _min_order(rest)
    if order > bound:
        return common, _NO_SETS, ()
    return common, _NO_SETS, ((supports[0] | supports[1], order, factors),)


def minimal_cut_sets(tree: FaultTree, max_order: int | None = None) -> CutSetCollection:
    """Minimal cut sets of the root, optionally truncated to an order bound."""
    if max_order is not None and max_order < 1:
        raise ModelError(f"max_order must be at least 1, got {max_order}")
    nodes = tree.nodes
    # Reachable gates children first, and reachable basic events in
    # canonical (category rank, id) order; event i owns bit 1 << (n-1-i).
    gates, ranked = [], []
    for node_id in tree.check_structure():
        node = nodes[node_id]
        if isinstance(node, BasicEvent):
            ranked.append((_CATEGORY_RANK[node.category], node_id))
        else:
            gates.append(node)
    ranked.sort()
    events = [event_id for _, event_id in ranked]
    n = len(events)
    # No set has more members than there are events.
    bound = n if max_order is None else max_order
    memo: dict[str, Family] = {e: (1 << (n - 1 - i), _NO_SETS, ()) for i, e in enumerate(events)}
    for gate in gates:
        child_families = [memo[c] for c in gate.children]
        if gate.op is GateOp.OR:
            memo[gate.id] = _or_families(child_families, bound)
        else:
            acc = child_families[0]
            for family in child_families[1:]:
                acc = _and_combine(acc, family, bound)
            memo[gate.id] = acc
    return CutSetCollection(events, memo[tree.root], max_order)


class FirstOrderReport:
    """Singleton cut sets split into hardware and software events."""

    def __init__(self) -> None:
        self.software: list[str] = []
        self.hardware: list[str] = []


def first_order_cut_sets(collection: CutSetCollection, tree: FaultTree) -> FirstOrderReport:
    report = FirstOrderReport()
    for event_id in collection.singletons():
        node = tree.nodes.get(event_id)
        is_software = isinstance(node, BasicEvent) and node.software
        (report.software if is_software else report.hardware).append(event_id)
    return report

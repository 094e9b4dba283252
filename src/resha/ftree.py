"""Fault-tree synthesis over the component dependency graph.

Trees are monotone AND/OR DAGs stored in an insertion-ordered node arena.
Shared subtrees are shared nodes: a component feeding several consumers has
one failure gate with several parents.  Node ids and child order are a pure
function of the input model, so repeated synthesis is byte-identical.

Per component C the failure gate is::

    fail:C = OR(hardware stochastic event,
                [hardware design event, when enabled],
                dependency gate over C's non-feedback sources,
                software design gate, when C is digital)

The dependency gate partitions sources by redundancy groups: all_must_fail
groups combine under AND, any_misleads under OR, leftovers attach directly.
The root applies the same rule to the operator's sources.

Synthesis pops one stack of steps, each a component id or a prebuilt node,
and adds nodes in the order that ``ft.json`` pins: a component's ``fail:``
gate, its ``hw:`` and ``hwdesign:`` events and its ``dep:`` gate come before
its sources' subtrees; each group sub-gate comes after the subtrees of the
sources it groups, and the resource leaves and ``sw:`` gate after all of
them.  A component reached again reuses its ``fail:`` gate.

Software design gates start empty (unresolved placeholders) and are filled
by :func:`integrate_software`.  A stage that extends a tree does so through
:meth:`FaultTree.attach`: the new tree shares every node the stage does not
change, and the input tree is never modified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .model import (
    LOGIC_NAMES,
    SCOPE_NAMES,
    GroupLogic,
    ModelError,
    ModelIndex,
    SystemModel,
    Technology,
    depth_first,
)

if TYPE_CHECKING:
    from .stpa import UcaUifInstance


class GateOp(str, Enum):
    AND = "and"
    OR = "or"


class EventCategory(str, Enum):
    HW_STOCHASTIC = "hw_stochastic"
    HW_DESIGN = "hw_design"
    DEPENDENCY_LEAF = "dependency_leaf"
    SW_UCA = "sw_uca"
    SW_UIF = "sw_uif"
    CCF = "ccf"


# Each member's string, read in place of ``member.value`` (see ``resha.model``).
GATE_OP_NAMES: dict[GateOp, str] = {op: op.value for op in GateOp}
EVENT_CATEGORY_NAMES: dict[EventCategory, str] = {c: c.value for c in EventCategory}


@dataclass
class Gate:
    id: str
    op: GateOp
    children: list[str] = field(default_factory=list)
    label: str = ""
    # Markers tying structural gates back to the component they model.
    failure_for: str | None = None
    dependency_for: str | None = None
    placeholder_for: str | None = None


@dataclass
class BasicEvent:
    id: str
    category: EventCategory
    label: str = ""
    software: bool = False


Node = Union[Gate, BasicEvent]
# A synthesis step: a component id to expand, or a node to add.
Step = Union[str, Node]


@dataclass
class FaultTree:
    model_name: str
    root: str
    nodes: dict[str, Node] = field(default_factory=dict)
    include_hw_design: bool = False

    def gate(self, node_id: str) -> Gate:
        node = self.nodes[node_id]
        if not isinstance(node, Gate):
            raise ModelError(f"node '{node_id}' is not a gate")
        return node

    def gates(self) -> list[Gate]:
        return [node for node in self.nodes.values() if isinstance(node, Gate)]

    def add(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise ModelError(f"duplicate node id '{node.id}'")
        self.nodes[node.id] = node
        return node

    def attach(self, events: Iterable[BasicEvent], under: dict[str, list[str]]) -> FaultTree:
        """A new tree that adds ``events``, in order, and extends each gate
        named in ``under`` with the listed ids it lacks, in order.

        An extended gate is replaced by a new one with the same fields and
        the longer child list; every other node is shared with this tree,
        which is left unchanged.
        """
        out = FaultTree(self.model_name, self.root, dict(self.nodes), self.include_hw_design)
        for event in events:
            out.add(event)
        for gate_id, new_ids in under.items():
            g = self.gate(gate_id)
            present = set(g.children)
            children = g.children + [c for c in dict.fromkeys(new_ids) if c not in present]
            # Built with the constructor, as the ``resha.model`` docstring says.
            out.nodes[gate_id] = Gate(
                g.id, g.op, children, g.label, g.failure_for, g.dependency_for, g.placeholder_for
            )
        return out

    def check_structure(self) -> list[str]:
        """Raise ModelError on dangling children, a non-gate root, cycles,
        or empty gates other than software placeholders (OR gates with
        ``placeholder_for``); return ``topological_nodes()``."""
        nodes = self.nodes
        if self.root not in nodes:
            raise ModelError(f"root '{self.root}' is not in the tree")
        if not isinstance(nodes[self.root], Gate):
            raise ModelError("root must be a gate")
        for node in nodes.values():
            if isinstance(node, BasicEvent):
                continue
            if not node.children and (node.placeholder_for is None or node.op is not GateOp.OR):
                raise ModelError(
                    f"gate '{node.id}' is empty and not a software placeholder "
                    "(only an OR gate with placeholder_for may be empty)"
                )
            for child in node.children:
                if child not in nodes:
                    raise ModelError(f"gate '{node.id}' references unknown node '{child}'")
        return self.topological_nodes()

    def topological_nodes(self) -> list[str]:
        """Children-first order over reachable nodes; raises on cycles."""
        nodes = self.nodes
        order, cycle = depth_first(
            [self.root], lambda node_id: getattr(nodes[node_id], "children", ()), nodes
        )
        if cycle:
            raise ModelError(f"fault tree contains a cycle through '{cycle[0]}'")
        return order

    def evaluate(self, failed: set[str]) -> bool:
        """Monotone evaluation: does the root fail when these events have?

        Empty OR gates (unresolved placeholders) evaluate False; empty AND
        gates evaluate True, though ``check_structure`` rejects them.
        """
        memo: dict[str, bool] = {}
        for node_id in self.topological_nodes():
            node = self.nodes[node_id]
            if isinstance(node, BasicEvent):
                memo[node_id] = node_id in failed
            elif node.op is GateOp.OR:
                memo[node_id] = any(memo[c] for c in node.children if c in memo)
            else:
                memo[node_id] = all(memo[c] for c in node.children if c in memo)
        return memo[self.root]


@dataclass
class BranchCensus:
    hw_stochastic: int = 0
    hw_design: int = 0
    dependency: int = 0
    sw_design: int = 0


def branch_census(tree: FaultTree) -> BranchCensus:
    """Count the structural branches of a synthesized hardware tree.

    Synthesis adds only nodes reachable from the root, so this counts the
    arena, which holds one node per id however many parents reference it:
    shared nodes count once.  Dependency branches are the per-component
    dependency gates; group sub-gates inside them are not counted.
    """
    census = BranchCensus()
    for node in tree.nodes.values():
        if isinstance(node, BasicEvent):
            if node.category is EventCategory.HW_STOCHASTIC:
                census.hw_stochastic += 1
            elif node.category is EventCategory.HW_DESIGN:
                census.hw_design += 1
        elif node.dependency_for is not None:
            census.dependency += 1
        elif node.placeholder_for is not None:
            census.sw_design += 1
    return census


def _group_children(
    idx: ModelIndex, source_ids: Sequence[str], gate_id: str
) -> tuple[list[str], list[Step]]:
    """A dependency-style gate's child ids, and the steps that build them.

    Each redundancy group that binds among the sources becomes an AND
    (all_must_fail) or OR (any_misleads) sub-gate over the matched sources;
    the other sources attach directly.  Groups are tried in declared order,
    only those that list a source, and each matches the sources it lists
    that no earlier group took.  The steps are, in build order, each group's
    matched source ids and then its sub-gate, and after them the ungrouped
    source ids.
    """
    if len(source_ids) < 2:
        # No group binds over fewer than two sources.
        return [f"fail:{s}" for s in source_ids], list(source_ids)
    children: list[str] = []
    steps: list[Step] = []
    taken: set[str] = set()
    for position, listed in idx.grouped_sources(source_ids).items():
        group = idx.redundancy_groups[position]
        matched = [s for s in listed if s not in taken]
        if not idx.binds(group, matched):
            continue
        sub = Gate(
            id=f"{gate_id}:{group.id}",
            op=GateOp.AND if group.logic is GroupLogic.ALL_MUST_FAIL else GateOp.OR,
            children=[f"fail:{s}" for s in matched],
            label=f"{group.id} redundancy defeated ({LOGIC_NAMES[group.logic]})",
        )
        steps += [*matched, sub]
        children.append(sub.id)
        taken.update(matched)
    remaining = [s for s in source_ids if s not in taken]
    steps += remaining
    children += [f"fail:{s}" for s in remaining]
    return children, steps


def synthesize_hardware_ft(model: SystemModel, include_hw_design: bool = False) -> FaultTree:
    """Build the hardware-and-structure fault tree for a validated, expanded model.

    Only components upstream of the operator (along non-feedback dependency
    edges) get failure subtrees; the operator itself does not.  Digital
    components receive an empty software-design placeholder gate.  Declared
    shared resources appear as one leaf each, referenced from every
    dependent's dependency gate.
    """
    idx = model.index
    tree = FaultTree(model_name=model.name, root="top", include_hw_design=include_hw_design)
    leaves_of: dict[str, list[BasicEvent]] = {}
    for resource in model.shared_resources:
        label = f"shared {SCOPE_NAMES[resource.scope]} resource {resource.id} fails"
        leaf = BasicEvent(f"resource:{resource.id}", EventCategory.DEPENDENCY_LEAF, label)
        for dependent in resource.dependents:
            leaves_of.setdefault(dependent, []).append(leaf)

    children, steps = _group_children(idx, idx.dependency_sources(idx.operator()), "top")
    tree.add(Gate(id="top", op=GateOp.OR, children=children, label=model.top_event))
    # A component id adds the component's failure gate, hardware events and
    # dependency gate, then pushes what those gates still need: its sources'
    # steps, its resource leaves and its software placeholder, in that order
    # from the top.  A prebuilt node is added unless it is already in the
    # tree.  Popping last-in-first-out finishes each source's subtree before
    # the next step, without recursing once per link of a chain.
    stack = steps[::-1]
    while stack:
        step = stack.pop()
        if not isinstance(step, str):
            if step.id not in tree.nodes:
                tree.add(step)
            continue
        gate_id = f"fail:{step}"
        if gate_id in tree.nodes:
            continue
        gate = Gate(gate_id, GateOp.OR, [f"hw:{step}"], f"{step} fails", failure_for=step)
        tree.add(gate)
        tree.add(
            BasicEvent(
                f"hw:{step}", EventCategory.HW_STOCHASTIC, f"{step} hardware stochastic failure"
            )
        )
        if include_hw_design:
            gate.children.append(f"hwdesign:{step}")
            tree.add(
                BasicEvent(
                    f"hwdesign:{step}", EventCategory.HW_DESIGN, f"{step} hardware design failure"
                )
            )
        component = idx.components[step]
        sources = idx.dependency_sources(component)
        leaves = leaves_of.get(step, [])
        pending: list[Step] = []
        if sources or leaves:
            children, pending = _group_children(idx, sources, f"dep:{step}")
            dep = Gate(
                id=f"dep:{step}",
                op=GateOp.OR,
                children=children + [leaf.id for leaf in leaves],
                label=f"{step} dependency failure",
                dependency_for=step,
            )
            tree.add(dep)
            gate.children.append(dep.id)
            pending += leaves
        if component.tech is Technology.DIGITAL:
            sw = Gate(
                id=f"sw:{step}",
                op=GateOp.OR,
                label=f"{step} software design failure",
                placeholder_for=step,
            )
            gate.children.append(sw.id)
            pending.append(sw)
        stack += reversed(pending)
    return tree


def integrate_software(tree: FaultTree, instances: list["UcaUifInstance"]) -> FaultTree:
    """Return a new tree with applicable instances attached as basic events.

    Each instance becomes a software basic event under its owner's
    software-design placeholder gate.  The new tree shares every node it
    does not change with the input tree, which is never modified.
    Validation ensures every owner in a validated model has that gate in
    the tree synthesized from it; an owner without one means the tree came
    from another model.
    """
    placeholders = {
        gate.placeholder_for: gate.id for gate in tree.gates() if gate.placeholder_for is not None
    }
    events: list[BasicEvent] = []
    under: dict[str, list[str]] = {}
    for instance in sorted(instances, key=lambda i: i.id):
        gate_id = placeholders.get(instance.owner)
        if gate_id is None:
            raise ModelError(
                f"instance '{instance.id}' belongs to '{instance.owner}', "
                "which has no software gate in the tree"
            )
        # Flavor is a str enum; comparing with its string reads no ``.value``.
        category = EventCategory.SW_UCA if instance.flavor == "uca" else EventCategory.SW_UIF
        events.append(BasicEvent(instance.id, category, instance.describe(), software=True))
        under.setdefault(gate_id, []).append(instance.id)
    return tree.attach(events, under)

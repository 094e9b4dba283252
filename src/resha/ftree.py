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

Software design gates start empty (unresolved placeholders) and are filled
by :func:`integrate_software`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Generator, Iterator, Union

from .model import (
    GroupLogic,
    ModelError,
    ModelIndex,
    ResourceScope,
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

    def gates(self) -> Iterator[Gate]:
        for node in self.nodes.values():
            if isinstance(node, Gate):
                yield node

    def add(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise ModelError(f"duplicate node id '{node.id}'")
        self.nodes[node.id] = node
        return node

    def copy(self) -> FaultTree:
        """A tree whose gates and child lists are new and whose basic events
        are shared; no stage mutates a basic event."""
        nodes: dict[str, Node] = {
            node_id: Gate(
                node.id,
                node.op,
                list(node.children),
                node.label,
                node.failure_for,
                node.dependency_for,
                node.placeholder_for,
            )
            if isinstance(node, Gate)
            else node
            for node_id, node in self.nodes.items()
        }
        return FaultTree(self.model_name, self.root, nodes, self.include_hw_design)

    def parents_of(self) -> dict[str, list[str]]:
        parents: dict[str, list[str]] = {node_id: [] for node_id in self.nodes}
        for gate in self.gates():
            for child in gate.children:
                if child in parents:
                    parents[child].append(gate.id)
        return parents

    def check_structure(self) -> list[str]:
        """Raise ModelError on dangling children, a non-gate root, cycles,
        or empty gates other than software placeholders (OR gates with
        ``placeholder_for``); return ``topological_nodes()``."""
        if self.root not in self.nodes:
            raise ModelError(f"root '{self.root}' is not in the tree")
        if not isinstance(self.nodes[self.root], Gate):
            raise ModelError("root must be a gate")
        for gate in self.gates():
            if not gate.children and (gate.placeholder_for is None or gate.op is not GateOp.OR):
                raise ModelError(
                    f"gate '{gate.id}' is empty and not a software placeholder "
                    "(only an OR gate with placeholder_for may be empty)"
                )
            for child in gate.children:
                if child not in self.nodes:
                    raise ModelError(f"gate '{gate.id}' references unknown node '{child}'")
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
    """Count structural branches reachable from the root.

    Shared nodes count once (the arena holds one node per id, however many
    parents reference it).  Dependency branches are the per-component
    dependency gates; group sub-gates inside them are not counted.
    """
    census = BranchCensus()
    for node_id in tree.topological_nodes():
        node = tree.nodes[node_id]
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


def _partition_by_groups(
    idx: ModelIndex,
    tree: FaultTree,
    source_ids: list[str],
    gate_prefix: str,
) -> Generator[str, None, list[str]]:
    """Child node ids for a dependency-style gate, honoring redundancy groups.

    Yields each source id whose failure gate must be in the tree before the
    next node is added, and returns the child ids.
    """
    remaining = list(source_ids)
    children: list[str] = []
    for group in idx.model.redundancy_groups:
        matched = idx.group_matched_sources(group, remaining)
        if not matched:
            continue
        for s in matched:
            yield s
        op = GateOp.AND if group.logic is GroupLogic.ALL_MUST_FAIL else GateOp.OR
        sub = Gate(
            id=f"{gate_prefix}:{group.id}",
            op=op,
            children=[f"fail:{s}" for s in matched],
            label=f"{group.id} redundancy defeated ({group.logic.value})",
        )
        tree.add(sub)
        children.append(sub.id)
        remaining = [s for s in remaining if s not in matched]
    for s in remaining:
        yield s
        children.append(f"fail:{s}")
    return children


def synthesize_hardware_ft(model: SystemModel, include_hw_design: bool = False) -> FaultTree:
    """Build the hardware-and-structure fault tree for a validated, expanded model.

    Only components upstream of the operator (along non-feedback dependency
    edges) get failure subtrees; the operator itself does not.  Digital
    components receive an empty software-design placeholder gate.  Declared
    shared resources appear as one leaf each, referenced from every
    dependent's dependency gate.
    """
    idx = ModelIndex(model)
    operator_sources = idx.dependency_sources(idx.operator())
    tree = FaultTree(model_name=model.name, root="top", include_hw_design=include_hw_design)
    resources_of: dict[str, list[str]] = {}
    for resource in model.shared_resources:
        for dependent in resource.dependents:
            resources_of.setdefault(dependent, []).append(resource.id)

    def fail_for(component_id: str) -> Generator[str, None, None]:
        component = idx.components[component_id]
        gate = Gate(
            id=f"fail:{component_id}",
            op=GateOp.OR,
            label=f"{component_id} fails",
            failure_for=component_id,
        )
        tree.add(gate)
        hw = tree.add(
            BasicEvent(
                id=f"hw:{component_id}",
                category=EventCategory.HW_STOCHASTIC,
                label=f"{component_id} hardware stochastic failure",
            )
        )
        gate.children.append(hw.id)
        if include_hw_design:
            hwd = tree.add(
                BasicEvent(
                    id=f"hwdesign:{component_id}",
                    category=EventCategory.HW_DESIGN,
                    label=f"{component_id} hardware design failure",
                )
            )
            gate.children.append(hwd.id)
        sources = idx.dependency_sources(component)
        resource_ids = resources_of.get(component_id, [])
        if sources or resource_ids:
            dep = Gate(
                id=f"dep:{component_id}",
                op=GateOp.OR,
                label=f"{component_id} dependency failure",
                dependency_for=component_id,
            )
            tree.add(dep)
            dep.children.extend((yield from _partition_by_groups(idx, tree, sources, dep.id)))
            for resource_id in resource_ids:
                leaf_id = f"resource:{resource_id}"
                if leaf_id not in tree.nodes:
                    resource = idx.resources[resource_id]
                    scope_note = (
                        "external" if resource.scope is ResourceScope.EXTERNAL else "internal"
                    )
                    tree.add(
                        BasicEvent(
                            id=leaf_id,
                            category=EventCategory.DEPENDENCY_LEAF,
                            label=f"shared {scope_note} resource {resource_id} fails",
                        )
                    )
                dep.children.append(leaf_id)
            gate.children.append(dep.id)
        if component.tech is Technology.DIGITAL:
            sw = Gate(
                id=f"sw:{component_id}",
                op=GateOp.OR,
                label=f"{component_id} software design failure",
                placeholder_for=component_id,
            )
            tree.add(sw)
            gate.children.append(sw.id)

    root = Gate(id="top", op=GateOp.OR, label=model.top_event)
    tree.add(root)
    # fail_for adds ``fail:<id>`` and its subtree.  Each generator runs until
    # it needs a source's failure gate; a gate already in the tree (built,
    # or still being built on a cycle) is reused.  The explicit stack keeps
    # the depth-first node order, and so the exported bytes, without
    # recursing once per link of a chain.
    stack: list[Generator[str, None, Any]] = [_partition_by_groups(idx, tree, operator_sources, "top")]
    while stack:
        try:
            needed = next(stack[-1])
        except StopIteration as done:
            stack.pop()
            if not stack:
                root.children.extend(done.value)
            continue
        if f"fail:{needed}" not in tree.nodes:
            stack.append(fail_for(needed))
    return tree


def integrate_software(tree: FaultTree, instances: list["UcaUifInstance"]) -> FaultTree:
    """Return a new tree with applicable instances attached as basic events.

    Each instance becomes a software basic event under its owner's
    software-design placeholder gate.  The input tree is not modified.
    Validation ensures every owner in a validated model has that gate in
    the tree synthesized from it; an owner without one means the tree came
    from another model.
    """
    out = tree.copy()
    placeholders = {
        gate.placeholder_for: gate for gate in out.gates() if gate.placeholder_for is not None
    }
    for instance in sorted(instances, key=lambda i: i.id):
        gate = placeholders.get(instance.owner)
        if gate is None:
            raise ModelError(
                f"instance '{instance.id}' belongs to '{instance.owner}', "
                "which has no software gate in the tree"
            )
        category = EventCategory.SW_UCA if instance.flavor.value == "uca" else EventCategory.SW_UIF
        event = BasicEvent(
            id=instance.id,
            category=category,
            label=instance.describe(),
            software=True,
        )
        out.add(event)
        gate.children.append(event.id)
    return out

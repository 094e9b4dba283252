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

A tree's JSON form (schema ``resha/1``) is written by :func:`export_ft` and
read back by :func:`import_ft`.  The stages hand trees to each other through
it (``ft.json`` and the ``--ft`` files of the CLI), so a command that only
reads and writes trees needs this module and no renderer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
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
    """An AND or OR gate over child node ids."""

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
    """A leaf of the tree: one failure that can occur on its own."""

    id: str
    category: EventCategory
    label: str = ""
    software: bool = False


Node = Union[Gate, BasicEvent]
# A synthesis step: a component id to expand, or a node to add.
Step = Union[str, Node]


@dataclass
class FaultTree:
    """A rooted AND/OR DAG whose nodes are kept by id in insertion order."""

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
    """Counts of a hardware tree's structural branches, by kind."""

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

    children, steps = _group_children(idx, idx.dependency_sources(idx.operator), "top")
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


FT_SCHEMA = "resha/1"


def export_ft(tree: FaultTree) -> str:
    """Serialize a fault tree as a stable JSON document.

    The bytes are those of ``json.dumps(doc, indent=2)`` and a final
    newline, where ``doc`` is the tree as nested dicts and lists.  Given an
    ``indent``, ``json.dumps`` runs its pure-Python encoder, which costs
    several times more per node, so the fixed layout is written here as
    string pieces joined once.  Every string goes through
    ``json.encoder.encode_basestring_ascii``, the C escaper that
    ``json.dumps`` itself uses under its default ``ensure_ascii=True``, so
    escaping stays the json module's decision.  Keys appear in a fixed
    order, and the optional ones only when set.
    """
    q = encode_basestring_ascii
    # Each gate's kind and op, and each event's kind and category, encoded once.
    gate_kinds = {op: f',\n      "kind": "gate",\n      "op": {q(name)}' for op, name in GATE_OP_NAMES.items()}
    event_kinds = {
        category: f',\n      "kind": "event",\n      "category": {q(name)}'
        for category, name in EVENT_CATEGORY_NAMES.items()
    }
    out = [
        '{\n  "schema": ', q(FT_SCHEMA),
        ',\n  "model": ', q(tree.model_name),
        ',\n  "options": {\n    "include_hw_design": ', "true" if tree.include_hw_design else "false",
        '\n  },\n  "root": ', q(tree.root),
        ',\n  "nodes": [',
    ]
    separator = "\n    {\n"
    for node in tree.nodes.values():
        out += (separator, '      "id": ', q(node.id))
        separator = ",\n    {\n"
        if isinstance(node, Gate):
            out.append(gate_kinds[node.op])
            if node.label:
                out += (',\n      "label": ', q(node.label))
            if node.children:
                children = ",\n        ".join(map(q, node.children))
                out += (',\n      "children": [\n        ', children, "\n      ]")
            else:
                out.append(',\n      "children": []')
            if node.failure_for is not None:
                out += (',\n      "failure_for": ', q(node.failure_for))
            if node.dependency_for is not None:
                out += (',\n      "dependency_for": ', q(node.dependency_for))
            if node.placeholder_for is not None:
                out += (',\n      "placeholder_for": ', q(node.placeholder_for))
        else:
            out.append(event_kinds[node.category])
            if node.label:
                out += (',\n      "label": ', q(node.label))
            if node.software:
                out.append(',\n      "software": true')
        out.append("\n    }")
    out.append("\n  ]\n}\n" if tree.nodes else "]\n}\n")
    return "".join(out)


# Optional node fields that export_ft writes as JSON strings, when set.
_OPTIONAL_STRINGS = ("label", "failure_for", "dependency_for", "placeholder_for")


def import_ft(text: str) -> FaultTree:
    """Rebuild a fault tree from its JSON document.

    Trees written outside this program come in only here, so a value that
    ``export_ft`` writes as a string must be one, and a flag it writes as
    ``true`` or ``false`` must be a JSON boolean: a ModelError names the
    node whose id, label, marker, child or ``software`` flag is not.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"fault tree document is not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != FT_SCHEMA:
        raise ModelError(f"expected schema '{FT_SCHEMA}', got {schema!r}")
    model_name, root = doc.get("model", ""), doc.get("root", "")
    options, nodes = doc.get("options", {}), doc.get("nodes", [])
    if not (
        isinstance(model_name, str)
        and isinstance(root, str)
        and isinstance(options, dict)
        and isinstance(nodes, list)
    ):
        raise ModelError(
            "fault tree document needs a string 'model' and 'root', "
            "an object 'options' and a list 'nodes'"
        )
    include_hw_design = options.get("include_hw_design", False)
    if not isinstance(include_hw_design, bool):
        raise ModelError(f"option 'include_hw_design' is not true or false: {include_hw_design!r}")
    tree = FaultTree(model_name=model_name, root=root, include_hw_design=include_hw_design)
    for entry in nodes:
        if not isinstance(entry, dict):
            raise ModelError(f"fault tree node {entry!r} is not an object")
        node_id, kind, children = entry.get("id"), entry.get("kind"), entry.get("children", [])
        if not (
            isinstance(node_id, str)
            and all(isinstance(entry.get(key, ""), str) for key in _OPTIONAL_STRINGS)
            and isinstance(children, list)
            and all(isinstance(child, str) for child in children)
            and isinstance(entry.get("software", False), bool)
        ):
            raise ModelError(
                f"node {node_id!r}: its id, {', '.join(_OPTIONAL_STRINGS)} and children "
                "must be strings, and its software flag true or false"
            )
        try:
            if kind == "gate":
                node: Node = Gate(
                    id=node_id,
                    op=GateOp(entry.get("op")),
                    children=list(children),
                    label=entry.get("label", ""),
                    failure_for=entry.get("failure_for"),
                    dependency_for=entry.get("dependency_for"),
                    placeholder_for=entry.get("placeholder_for"),
                )
            elif kind == "event":
                node = BasicEvent(
                    id=node_id,
                    category=EventCategory(entry.get("category")),
                    label=entry.get("label", ""),
                    software=entry.get("software", False),
                )
            else:
                raise ModelError(f"node {node_id!r} has unknown kind {kind!r}")
        except ValueError as exc:
            raise ModelError(f"node {node_id!r}: {exc}") from None
        tree.add(node)
    tree.check_structure()
    return tree

"""Software common cause failure detection and injection.

Four trigger patterns are recognized:

1. a controller commanding two or more targets through one control action,
2. a component whose output feeds two or more digital components in its
   division (interdependency), with same-class duplicates merged across
   replicated divisions,
3. a declared shared external resource,
4. a design class instantiated in two or more divisions (shared design).

Types 1, 2 and 4 are software triggered; Type 3 is a hardware resource.
Detected groups become shared basic events injected next to every member's
independent failure event, so one group can defeat redundancy on its own.
"""

from __future__ import annotations

from itertools import islice

from .ftree import BasicEvent, EventCategory, FaultTree, Gate
from .model import ModelError, ModelIndex, SystemModel
from .stpa import UcaUifInstance

SOFTWARE_CCF_TYPES = (1, 2, 4)


class CcfGroup:
    """A software common cause failure group: its type, scope (``system`` or
    ``division``), trigger, failure-mode letter and member events; ``resha
    ccf --format json`` lists the fields that ``__init__`` sets, in its order."""

    def __init__(
        self, id: str, type: int, scope: str, trigger: str, failure_type: str | None = None,
        members: list[str] | None = None,
    ):
        self.id = id
        self.type = type
        self.scope = scope
        self.trigger = trigger
        self.failure_type = failure_type
        self.members = [] if members is None else members

    @property
    def software(self) -> bool:
        return self.type in SOFTWARE_CCF_TYPES

    def describe(self) -> str:
        letter = f" ({self.failure_type})" if self.failure_type else ""
        if self.type == 1:
            return f"shared commanding controller {self.trigger}{letter}"
        if self.type == 2:
            return f"interdependency on {self.trigger} output{letter}"
        if self.type == 3:
            return f"shared external resource {self.trigger}"
        return f"shared design {self.trigger} across divisions{letter}"


def _scope_for(idx: ModelIndex, component_ids: list[str]) -> str:
    divisions = {idx.division_of[c] for c in component_ids}
    return "system" if len(divisions) >= 2 else "division"


def detect_ccf_groups(model: SystemModel, instances: list[UcaUifInstance]) -> list[CcfGroup]:
    """Apply the four detection rules to an expanded model.

    Each control action forms its own Type 1 group per failure letter, so a
    controller with two commanding actions triggers two groups.
    Deterministic: output is sorted by (type, trigger, failure letter, id).
    """
    idx = model.index
    # Type 4: one design class with applicable instances in several divisions.
    # Type 2: an owner whose output feeds >= 2 digital components in its
    # division, merged by design class so replicated divisions share one group.
    shared_design: dict[tuple[str, str], list[UcaUifInstance]] = {}
    interdependent: dict[tuple[str, str], list[UcaUifInstance]] = {}
    feeds_two: dict[str, bool] = {}
    for instance in instances:
        owner = instance.owner
        key = (idx.components[owner].design_class, instance.type)
        shared_design.setdefault(key, []).append(instance)
        if owner not in feeds_two:
            # The walk stops at the second dependent.
            feeds_two[owner] = len(list(islice(idx.digital_dependents(owner), 2))) == 2
        if feeds_two[owner]:
            interdependent.setdefault(key, []).append(instance)

    groups: list[CcfGroup] = []
    for (class_id, failure_type), found in shared_design.items():
        if len({i.division for i in found}) < 2:
            continue
        groups.append(
            CcfGroup(
                id=f"T4:{class_id}:{failure_type}",
                type=4,
                scope="system",
                trigger=class_id,
                members=sorted(i.id for i in found),
                failure_type=failure_type,
            )
        )
    for (_, failure_type), found in interdependent.items():
        trigger = min(i.owner for i in found)
        groups.append(
            CcfGroup(
                id=f"T2:{trigger}:{failure_type}",
                type=2,
                scope="division",
                trigger=trigger,
                members=sorted(i.id for i in found),
                failure_type=failure_type,
            )
        )

    # Type 3: declared shared external resources.
    for resource in model.shared_resources:
        if resource.scope != "external":
            continue
        groups.append(
            CcfGroup(
                id=f"T3:{resource.id}",
                type=3,
                scope=_scope_for(idx, resource.dependents),
                trigger=resource.id,
                members=sorted(resource.dependents),
            )
        )

    # Type 1: one control action commanding >= 2 targets.
    for link in model.links():
        members = link.commanded_group()
        if not members:
            continue
        for app in link.applicability:
            groups.append(
                CcfGroup(
                    id=f"T1:{link.id}:{app.type}",
                    type=1,
                    scope=_scope_for(idx, members),
                    trigger=link.source,
                    members=list(members),
                    failure_type=app.type,
                )
            )

    return sorted(groups, key=lambda g: (g.type, g.trigger, g.failure_type or "", g.id))


def count_by_type(groups: list[CcfGroup]) -> dict[int, int]:
    """Groups per CCF type, with every type 1-4 present, in type order."""
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for group in groups:
        counts[group.type] += 1
    return counts


def inject_ccf_events(tree: FaultTree, groups: list[CcfGroup]) -> FaultTree:
    """Return a new tree with one shared basic event per group.

    Instance members attach the event beside the member event (under the
    owner's software gate); component members attach it under the
    component's failure gate.  A shared node with several parents models the
    common cause: the one event fails every member at once.  The new tree
    shares every node it does not change with the input tree, which is never
    modified.  Validation ensures every member of a validated model's groups
    has a place in the tree synthesized from it; a member with none means
    the tree came from another model.
    """
    nodes = tree.nodes
    # Each basic-event member's parent gates, in arena order, from one scan.
    parents: dict[str, list[str]] = {
        member: []
        for group in groups
        for member in group.members
        if isinstance(nodes.get(member), BasicEvent)
    }
    for node in nodes.values():
        if isinstance(node, Gate) and not parents.keys().isdisjoint(node.children):
            for child in node.children:
                if child in parents:
                    parents[child].append(node.id)
    events: dict[str, BasicEvent] = {}
    # Gate id -> event ids to append; attach drops repeats and ids a gate has.
    under: dict[str, list[str]] = {}
    for group in groups:
        event_id = f"ccf:{group.id}"
        for member in group.members:
            if member in parents:
                gate_ids = parents[member]
            elif f"fail:{member}" in nodes:
                gate_ids = [f"fail:{member}"]
            else:
                raise ModelError(
                    f"group '{group.id}' member '{member}' has no location in the fault tree"
                )
            for gate_id in gate_ids:
                under.setdefault(gate_id, []).append(event_id)
        if event_id not in nodes and event_id not in events:
            events[event_id] = BasicEvent(
                id=event_id,
                category=EventCategory.CCF,
                label=f"common cause: {group.describe()}",
                software=group.software,
            )
    return tree.attach(events.values(), under)

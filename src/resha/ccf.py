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

from dataclasses import dataclass, field

from .ftree import BasicEvent, EventCategory, FaultTree
from .model import (
    FailureModeType,
    ModelError,
    ModelIndex,
    RedundancyLevel,
    ResourceScope,
    SystemModel,
)
from .stpa import UcaUifInstance

SOFTWARE_CCF_TYPES = (1, 2, 4)


@dataclass
class CcfGroup:
    id: str
    ccf_type: int
    scope: RedundancyLevel
    trigger: str
    members: list[str] = field(default_factory=list)
    failure_type: FailureModeType | None = None

    @property
    def software(self) -> bool:
        return self.ccf_type in SOFTWARE_CCF_TYPES

    def describe(self) -> str:
        letter = f" ({self.failure_type.letter})" if self.failure_type else ""
        if self.ccf_type == 1:
            return f"shared commanding controller {self.trigger}{letter}"
        if self.ccf_type == 2:
            return f"interdependency on {self.trigger} output{letter}"
        if self.ccf_type == 3:
            return f"shared external resource {self.trigger}"
        return f"shared design {self.trigger} across divisions{letter}"


def _scope_for(idx: ModelIndex, component_ids: list[str]) -> RedundancyLevel:
    divisions = {idx.division_of.get(c) for c in component_ids}
    return RedundancyLevel.SYSTEM if len(divisions) >= 2 else RedundancyLevel.DIVISION


def detect_ccf_groups(model: SystemModel, instances: list[UcaUifInstance]) -> list[CcfGroup]:
    """Apply the four detection rules to an expanded model.

    Deterministic: output is sorted by (type, trigger, failure letter), and
    groups are deduplicated on (type, trigger, failure_type).
    """
    idx = ModelIndex(model)
    groups: dict[tuple[int, str, str], CcfGroup] = {}

    def emit(group: CcfGroup) -> None:
        key = (group.ccf_type, group.trigger, group.failure_type.letter if group.failure_type else "")
        if key not in groups:
            groups[key] = group

    # Type 4: one design class with applicable instances in several divisions.
    by_class: dict[tuple[str, str], list[UcaUifInstance]] = {}
    for instance in instances:
        owner = idx.components.get(instance.owner)
        if owner is None:
            continue
        by_class.setdefault((owner.design_class, instance.type.letter), []).append(instance)
    for (class_id, letter), found in sorted(by_class.items()):
        divisions = {i.division for i in found}
        if len(divisions) < 2:
            continue
        emit(
            CcfGroup(
                id=f"T4:{class_id}:{letter}",
                ccf_type=4,
                scope=RedundancyLevel.SYSTEM,
                trigger=class_id,
                members=sorted(i.id for i in found),
                failure_type=FailureModeType(letter),
            )
        )

    # Type 2: output feeding >= 2 digital components in the owner's division,
    # merged by design class so replicated divisions share one group.
    by_owner: dict[str, list[UcaUifInstance]] = {}
    for instance in instances:
        by_owner.setdefault(instance.owner, []).append(instance)
    merged: dict[tuple[str, str], list[UcaUifInstance]] = {}
    for owner_id, found in by_owner.items():
        component = idx.components.get(owner_id)
        if component is None:
            continue
        if len(idx.transitive_digital_dependents(owner_id)) < 2:
            continue
        for instance in found:
            merged.setdefault((component.design_class, instance.type.letter), []).append(instance)
    for (class_id, letter), found in sorted(merged.items()):
        trigger = min(i.owner for i in found)
        emit(
            CcfGroup(
                id=f"T2:{trigger}:{letter}",
                ccf_type=2,
                scope=RedundancyLevel.DIVISION,
                trigger=trigger,
                members=sorted(i.id for i in found),
                failure_type=FailureModeType(letter),
            )
        )

    # Type 3: declared shared external resources.
    for resource in model.shared_resources:
        if resource.scope is not ResourceScope.EXTERNAL:
            continue
        emit(
            CcfGroup(
                id=f"T3:{resource.id}",
                ccf_type=3,
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
            emit(
                CcfGroup(
                    id=f"T1:{link.id}:{app.type.letter}",
                    ccf_type=1,
                    scope=_scope_for(idx, members),
                    trigger=link.source,
                    members=list(members),
                    failure_type=app.type,
                )
            )

    return sorted(
        groups.values(),
        key=lambda g: (g.ccf_type, g.trigger, g.failure_type.letter if g.failure_type else ""),
    )


def count_by_type(groups: list[CcfGroup]) -> dict[int, int]:
    """Groups per CCF type, with every type 1-4 present, in type order."""
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for group in groups:
        counts[group.ccf_type] += 1
    return counts


def inject_ccf_events(tree: FaultTree, groups: list[CcfGroup]) -> FaultTree:
    """Return a new tree with one shared basic event per group.

    Instance members attach the event beside the member event (under the
    owner's software gate); component members attach it under the
    component's failure gate.  A shared node with several parents models the
    common cause: the one event fails every member at once.  Validation
    ensures every member of a validated model's groups has a place in the
    tree synthesized from it; a member with none means the tree came from
    another model.
    """
    out = tree.copy()
    parents = out.parents_of()

    for group in groups:
        event_id = f"ccf:{group.id}"
        # Insertion-ordered, so the gates keep the order they are first found in.
        parent_gates: dict[str, None] = {}
        for member in group.members:
            node = out.nodes.get(member)
            if isinstance(node, BasicEvent):
                parent_gates.update(dict.fromkeys(parents[member]))
                continue
            fail_gate = f"fail:{member}"
            if fail_gate in out.nodes:
                parent_gates[fail_gate] = None
                continue
            raise ModelError(
                f"group '{group.id}' member '{member}' has no location in the fault tree"
            )
        if event_id not in out.nodes:
            out.add(
                BasicEvent(
                    id=event_id,
                    category=EventCategory.CCF,
                    label=f"common cause: {group.describe()}",
                    software=group.software,
                )
            )
        for gate_id in parent_gates:
            gate = out.gate(gate_id)
            if event_id not in gate.children:
                gate.children.append(event_id)
    return out

"""Domain model for redundant control architectures.

A :class:`SystemModel` describes divisions of components wired by plain
dependency inputs and by explicit control-action / information-flow links,
plus the loss and hazard taxonomy the analysis traces back to.  The module
also provides structural validation, replication expansion, and one answer
to each graph question: ``ModelIndex.dependency_sources`` (what a component
depends on), ``ModelIndex.grouped_sources`` and ``ModelIndex.binds``
(which redundancy groups list which sources, and whether a group binds over
them) and ``depth_first`` (children-first order and cycles, for models and
trees).
Each model has one index, ``SystemModel.index``, which validation builds
over the expanded model and every later stage reads.  The index builds all
its tables when it is constructed, among them one map from each component
to the redundancy groups that list it, for both group levels.

A categorical value is the plain string that documents and artifacts
use: a component kind, technology, failure-mode letter, redundancy level
or logic, resource scope, or link kind (``control_action`` or
``information_flow``).  The tuples below list, in order, the words the
parser accepts for each but the link kind, and validation reports any
other word, so a model built in code is held to them too;
``STPA_CATEGORY_NAMES`` gives each failure-mode letter its STPA category.

A record takes one of two stdlib forms, both cheap to define when a
``resha`` process starts: a ``NamedTuple`` for the frozen leaves
(``SourceSpan``, ``Ref``, ``Loss``, ``Hazard``, ``DesignClass``,
``Applicability``), and for the rest a plain class whose ``__init__``
assigns its fields in order and which compares by identity.  A value built
once per component, link, instance or tree node is built with its class's
constructor, every field passed.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence

ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")

# Separator used when replication materializes copies of a division's
# components: a component `x` replicated into division `B` becomes `x__B`.
REPLICA_SEP = "__"


class ModelError(Exception):
    """Raised when an operation cannot proceed on a malformed model.

    ``span`` locates the fault in the model document when one is known.
    """

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.span = span


class SourceSpan(NamedTuple):
    """1-based location of a token in a model document."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


COMPONENT_KINDS = (
    "controller", "sensor", "calculator", "alarm", "converter", "conditioner",
    "power_supply", "comms", "display", "test_panel", "operator",
)
TECHNOLOGIES = ("digital", "analog", "human")
# Seven lettered failure modes for control actions and information flows:
#   A  missing when needed
#   B  provided when not needed
#   C  too early
#   D  too late
#   E  wrong order
#   F  applied too long or too much
#   G  stopped too early or applied too little
FAILURE_TYPES = ("A", "B", "C", "D", "E", "F", "G")
REDUNDANCY_LEVELS = ("system", "division", "module")
GROUP_LOGICS = ("all_must_fail", "any_misleads")
RESOURCE_SCOPES = ("internal", "external")

# The classic STPA control-action failure category of each failure-mode letter.
STPA_CATEGORY_NAMES: dict[str, str] = {
    "A": "missing_when_needed",
    "B": "provided_when_not_needed",
    "C": "wrong_timing_or_order",
    "D": "wrong_timing_or_order",
    "E": "wrong_timing_or_order",
    "F": "wrong_duration_or_magnitude",
    "G": "wrong_duration_or_magnitude",
}


class Ref(NamedTuple):
    """Reference to a component, optionally narrowed to one of its link ports."""

    component: str
    port: str | None = None
    span: SourceSpan | None = None


class Loss(NamedTuple):
    """A loss the analysis guards against, as the model document declares it."""

    id: str
    description: str
    span: SourceSpan | None = None


class Hazard(NamedTuple):
    """A system state that leads to the listed losses."""

    id: str
    description: str
    losses: tuple[str, ...]
    span: SourceSpan | None = None


class DesignClass(NamedTuple):
    """A design lineage; classes sharing a diversity tag are non-diverse."""

    id: str
    description: str
    diversity_tag: str
    span: SourceSpan | None = None


class Applicability(NamedTuple):
    """Marks one failure-mode type of a link, by its letter, as hazardous."""

    type: str
    hazards: tuple[str, ...]
    span: SourceSpan | None = None


class Link:
    """A named control action or information flow from one component to others;
    ``kind`` is ``"control_action"`` or ``"information_flow"``."""

    def __init__(
        self, id: str, kind: str, source: str, targets: list[str],
        applicability: list[Applicability] | None = None, span: SourceSpan | None = None,
    ):
        self.id = id
        self.kind = kind
        self.source = source
        self.targets = targets
        self.applicability = [] if applicability is None else applicability
        self.span = span

    def commanded_group(self) -> list[str]:
        """The sorted distinct targets when this link forms a Type 1 common
        cause group: a control action with applicability commanding two or
        more targets.  Empty otherwise."""
        targets = sorted(set(self.targets))
        if self.kind == "control_action" and self.applicability and len(targets) >= 2:
            return targets
        return []


class Component:
    """One element of a division, with its inputs and the links it issues."""

    def __init__(
        self, id: str, kind: str, tech: str, design_class: str, inputs: list[Ref] | None = None,
        feedback_inputs: list[Ref] | None = None, links: list[Link] | None = None,
        span: SourceSpan | None = None,
    ):
        self.id = id
        self.kind = kind
        self.tech = tech
        self.design_class = design_class
        self.inputs = [] if inputs is None else inputs
        self.feedback_inputs = [] if feedback_inputs is None else feedback_inputs
        self.links = [] if links is None else links
        self.span = span


class Division:
    """A redundant channel of components; ``replicates`` copies another division.
    ``replicated_from`` is set by expand_replication on materialized copies
    and is not part of the document syntax."""

    def __init__(
        self, id: str, components: list[Component] | None = None, replicates: str | None = None,
        replicated_from: str | None = None, span: SourceSpan | None = None,
    ):
        self.id = id
        self.components = [] if components is None else components
        self.replicates = replicates
        self.replicated_from = replicated_from
        self.span = span


class RedundancyGroup:
    """Members whose joint failure defeats the redundancy, combined by ``logic``."""

    def __init__(self, id: str, level: str, logic: str, members: list[str], span: SourceSpan | None = None):
        self.id = id
        self.level = level
        self.logic = logic
        self.members = members
        self.span = span


class SharedResource:
    """A resource, such as a power supply, that several components depend on."""

    def __init__(self, id: str, scope: str, dependents: list[str], span: SourceSpan | None = None):
        self.id = id
        self.scope = scope
        self.dependents = dependents
        self.span = span


class SystemModel:
    """A whole model document: hazards, design classes, divisions, groups and
    resources.  ``span`` is the document's start, where a missing system name
    or top event is reported."""

    def __init__(
        self, name: str, top_event: str, losses: list[Loss] | None = None,
        hazards: list[Hazard] | None = None, design_classes: list[DesignClass] | None = None,
        divisions: list[Division] | None = None, redundancy_groups: list[RedundancyGroup] | None = None,
        shared_resources: list[SharedResource] | None = None, span: SourceSpan | None = None,
    ):
        self.name = name
        self.top_event = top_event
        self.losses = [] if losses is None else losses
        self.hazards = [] if hazards is None else hazards
        self.design_classes = [] if design_classes is None else design_classes
        self.divisions = [] if divisions is None else divisions
        self.redundancy_groups = [] if redundancy_groups is None else redundancy_groups
        self.shared_resources = [] if shared_resources is None else shared_resources
        self.span = span

    def components(self) -> Iterator[Component]:
        for division in self.divisions:
            yield from division.components

    def links(self) -> Iterator[Link]:
        for component in self.components():
            yield from component.links

    @cached_property
    def index(self) -> ModelIndex:
        """This model's one index; see ModelIndex."""
        return ModelIndex(self)


class ModelIndex:
    """Lookup tables over one model; duplicate ids keep the first occurrence.

    Each model object has one index, ``SystemModel.index``.  The constructor
    builds every table, so the model must not be changed after it.  The
    index keeps no reference to the model, so the two form no cycle, and
    its per-component entries are tuples, which the cyclic collector stops
    tracking.
    """

    def __init__(self, model: SystemModel):
        self.redundancy_groups = model.redundancy_groups
        self.losses: dict[str, Loss] = {}
        self.hazards: dict[str, Hazard] = {}
        self.design_classes: dict[str, DesignClass] = {}
        self.divisions: dict[str, Division] = {}
        self.components: dict[str, Component] = {}
        self.division_of: dict[str, str] = {}
        in_division: dict[str, list[str]] = {}
        self.operator: Component | None = None
        # target id -> links naming it, in model.links() order, each once.
        self._targeting: dict[str, list[Link]] = {}
        for loss in model.losses:
            self.losses.setdefault(loss.id, loss)
        for hazard in model.hazards:
            self.hazards.setdefault(hazard.id, hazard)
        for dc in model.design_classes:
            self.design_classes.setdefault(dc.id, dc)
        for division in model.divisions:
            self.divisions.setdefault(division.id, division)
            for component in division.components:
                if component.id not in self.components:
                    self.components[component.id] = component
                    self.division_of[component.id] = division.id
                    in_division.setdefault(division.id, []).append(component.id)
                if self.operator is None and component.kind == "operator":
                    self.operator = component
                for link in component.links:
                    for target in dict.fromkeys(link.targets):
                        self._targeting.setdefault(target, []).append(link)
        self._sources = {cid: self._sources_of(c) for cid, c in self.components.items()}
        # source id -> ordered consumer ids (inverse of dependency edges).
        consumers: dict[str, dict[str, None]] = {cid: {} for cid in self.components}
        for consumer in model.components():
            for source in self.dependency_sources(consumer):
                if source in consumers:
                    consumers[source][consumer.id] = None
        self.downstream = {source: tuple(ids) for source, ids in consumers.items()}
        # id -> ascending positions of the redundancy groups that list it: a
        # division-level group lists every component of its member
        # divisions, any other group the ids it names.
        self.groups_of: dict[str, tuple[int, ...]] = {}
        for position, group in enumerate(model.redundancy_groups):
            listed: Iterable[str] = dict.fromkeys(group.members)
            if group.level == "division":
                listed = [cid for d in listed for cid in in_division.get(d, ())]
            for cid in listed:
                self.groups_of[cid] = self.groups_of.get(cid, ()) + (position,)

    def _sources_of(self, consumer: Component) -> tuple[str, ...]:
        sources = dict.fromkeys(ref.component for ref in consumer.inputs)
        feedback = {(ref.component, ref.port) for ref in consumer.feedback_inputs}
        for link in self._targeting.get(consumer.id, ()):
            if (link.source, None) not in feedback and (link.source, link.id) not in feedback:
                sources[link.source] = None
        return tuple(sources)

    def dependency_sources(self, consumer: Component) -> tuple[str, ...]:
        """Ordered, deduplicated upstream ids: inputs, then non-feedback link sources.

        Kept for the component the index lists under its id; a later
        duplicate's are computed afresh.
        """
        if self.components.get(consumer.id) is consumer:
            return self._sources[consumer.id]
        return self._sources_of(consumer)

    def digital_dependents(self, component_id: str) -> Iterator[str]:
        """Digital components in the same division reachable downstream,
        each yielded once, as the walk reaches it, so a caller can stop it early.

        The walk itself crosses any component; the start is never yielded.
        """
        division = self.division_of.get(component_id)
        down = self.downstream
        seen = {component_id}
        stack = [component_id] if component_id in down else []
        while stack:
            for nxt in down[stack.pop()]:
                if nxt in seen:
                    continue
                seen.add(nxt)
                stack.append(nxt)
                if (
                    self.components[nxt].tech == "digital"
                    and self.division_of[nxt] == division
                ):
                    yield nxt

    def grouped_sources(self, source_ids: Iterable[str]) -> dict[int, list[str]]:
        """Group position -> the sources that group lists, in source order,
        for each redundancy group that lists any of them, in group order."""
        grouped: dict[int, list[str]] = {}
        for source in source_ids:
            for position in self.groups_of.get(source, ()):
                grouped.setdefault(position, []).append(source)
        return dict(sorted(grouped.items())) if len(grouped) > 1 else grouped

    def binds(self, group: RedundancyGroup, listed: Sequence[str]) -> bool:
        """Whether ``group`` binds over sources it lists: a division-level
        group when they span at least two distinct member divisions, any
        other group when at least two are listed."""
        if group.level == "division":
            return len({self.division_of.get(s) for s in listed}) >= 2
        return len(listed) >= 2


def expand_replication(model: SystemModel) -> SystemModel:
    """Materialize ``replicates`` divisions as copies with suffixed ids.

    Component and link ids gain ``__<division>``; references between the
    source division's components, and their ports, are rewritten to the copies, while
    references leaving the division (design classes, other divisions'
    components) are kept verbatim.  Only what is renamed is new: each
    replica division and its components, links and renamed refs.  Every
    other division and leaf is the authored object, and replicas keep the
    source's spans.  Expanding an already-expanded model is a no-op, so the
    operation is idempotent.
    """
    by_id = {d.id: d for d in model.divisions}
    all_component_ids = {c.id for c in model.components()}
    divisions: list[Division] = []
    for division in model.divisions:
        source_id = division.replicates
        if source_id is None:
            divisions.append(division)
            continue
        if division.components:
            raise ModelError(
                f"division '{division.id}' replicates '{source_id}' but declares its own components",
                division.span,
            )
        source = by_id.get(source_id)
        if source is None:
            raise ModelError(
                f"division '{division.id}' replicates unknown division '{source_id}'", division.span
            )
        if source.replicates is not None:
            raise ModelError(
                f"division '{division.id}' replicates '{source_id}', which itself replicates "
                f"'{source.replicates}'; chained replication is not supported",
                division.span,
            )
        local_ids = {c.id for c in source.components}
        suffix = REPLICA_SEP + division.id

        def rename(identifier: str) -> str:
            return identifier + suffix if identifier in local_ids else identifier

        def rename_ref(ref: Ref) -> Ref:
            if ref.component not in local_ids:
                return ref
            port = None if ref.port is None else ref.port + suffix
            return Ref(ref.component + suffix, port, ref.span)

        components: list[Component] = []
        for component in source.components:
            clone_id = component.id + suffix
            if clone_id in all_component_ids:
                raise ModelError(
                    f"replicating '{source_id}' into '{division.id}' would duplicate id '{clone_id}'",
                    division.span,
                )
            all_component_ids.add(clone_id)
            # The authored applicability list is shared, not copied.
            links = [
                Link(
                    link.id + suffix,
                    link.kind,
                    clone_id,
                    [rename(t) for t in link.targets],
                    link.applicability,
                    link.span,
                )
                for link in component.links
            ]
            components.append(
                Component(
                    clone_id,
                    component.kind,
                    component.tech,
                    component.design_class,
                    [rename_ref(ref) for ref in component.inputs],
                    [rename_ref(ref) for ref in component.feedback_inputs],
                    links,
                    component.span,
                )
            )
        divisions.append(Division(division.id, components, None, source_id, division.span))
    return _copy(model, divisions)


def _copy(model: SystemModel, divisions: list[Division]) -> SystemModel:
    """A new model with ``divisions`` and every other field of ``model``."""
    return SystemModel(
        model.name, model.top_event, model.losses, model.hazards, model.design_classes, divisions,
        model.redundancy_groups, model.shared_resources, model.span,
    )


class Violation:
    """One validation finding: a code, a message and where in the document it is."""

    def __init__(self, code: str, message: str, span: SourceSpan | None):
        self.code = code
        self.message = message
        self.span = span

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.code}: {self.message}"


class ValidationReport:
    """Every violation that validation found in a model; empty means the model is valid."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "model OK"
        return "\n".join(str(v) for v in self.violations)


def _check_id(report: ValidationReport, identifier: str, what: str, span: SourceSpan | None) -> None:
    if not ID_RE.fullmatch(identifier):
        report.violations.append(
            Violation("bad-id", f"{what} id '{identifier}' does not match [A-Za-z][A-Za-z0-9_-]*", span)
        )


def depth_first(
    roots: Iterable[str], children: Callable[[str], Iterable[str]], known: Container[str]
) -> tuple[list[str], list[str] | None]:
    """Children-first order of the ``known`` nodes reachable from ``roots``,
    and the first cycle met as a path ``[a, ..., a]``, or None.

    The walk goes on past a cycle, so the order is complete, and uses an
    explicit stack, so chains of any length are safe.  A node whose children
    are an empty collection is finished as soon as it is reached, with no
    stack entry; it can lie on no cycle."""
    GREY, BLACK = 1, 2
    color: dict[str, int] = {}
    order: list[str] = []
    cycle: list[str] | None = None
    for root in roots:
        if root in color or root not in known:
            continue
        below = children(root)
        if not below:
            color[root] = BLACK
            order.append(root)
            continue
        color[root] = GREY
        path = [root]
        pending = [iter(below)]
        while pending:
            for nxt in pending[-1]:
                state = color.get(nxt)
                if state is None and nxt in known:
                    below = children(nxt)
                    if not below:
                        color[nxt] = BLACK
                        order.append(nxt)
                        continue
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(below))
                    break
                if state == GREY and cycle is None:
                    cycle = path[path.index(nxt):] + [nxt]
            else:
                node = path.pop()
                color[node] = BLACK
                order.append(node)
                pending.pop()
    return order, cycle


def validate_model(model: SystemModel) -> ValidationReport:
    """Structural validation.  Total: collects violations, never raises.

    Reference and cycle checks run against the replication-expanded model so
    that documents may reference replica components (``x__B``) before
    expansion.
    """
    return _validate_and_expand(model)[0]


def _validate_and_expand(model: SystemModel) -> tuple[ValidationReport, SystemModel]:
    """``validate_model`` plus the expanded model it checked.

    When expansion fails the report says so and a shallow copy of the
    authored model is checked and returned in its place: the index cached on
    the copy never sticks to the caller's model, which may still change.
    """
    report = ValidationReport()
    _validate_declarations(model, report)
    try:
        expanded = expand_replication(model)
    except ModelError as exc:
        report.violations.append(Violation("replication", str(exc), exc.span))
        expanded = _copy(model, model.divisions)
    _validate_references(expanded, report)
    return report, expanded


def _validate_declarations(model: SystemModel, report: ValidationReport) -> None:
    if not model.name:
        report.violations.append(Violation("missing-name", "model has no system name", model.span))
    if not model.top_event:
        report.violations.append(Violation("missing-top-event", "model has no top event", model.span))
    seen: dict[str, SourceSpan | None] = {}

    def declare(identifier: str, what: str, span: SourceSpan | None) -> None:
        _check_id(report, identifier, what, span)
        if identifier in seen:
            report.violations.append(
                Violation("duplicate-id", f"{what} id '{identifier}' already declared", span)
            )
        else:
            seen[identifier] = span

    def check_word(
        what: str, identifier: str, name: str, value: str, words: tuple[str, ...], span: SourceSpan | None
    ) -> None:
        if value not in words:
            choices = ", ".join(words)
            message = f"{what} '{identifier}' has unknown {name} '{value}' (one of: {choices})"
            report.violations.append(Violation("unknown-word", message, span))

    for loss in model.losses:
        declare(loss.id, "loss", loss.span)
    for hazard in model.hazards:
        declare(hazard.id, "hazard", hazard.span)
        if not hazard.losses:
            report.violations.append(
                Violation("hazard-no-loss", f"hazard '{hazard.id}' links no losses", hazard.span)
            )
    for dc in model.design_classes:
        declare(dc.id, "design_class", dc.span)
    for division in model.divisions:
        declare(division.id, "division", division.span)
    for component in model.components():
        declare(component.id, "component", component.span)
        check_word("component", component.id, "kind", component.kind, COMPONENT_KINDS, component.span)
        check_word("component", component.id, "tech", component.tech, TECHNOLOGIES, component.span)
    for link in model.links():
        declare(link.id, "link", link.span)
        check_word("link", link.id, "kind", link.kind, ("control_action", "information_flow"), link.span)
        declared: set[str] = set()
        for app in link.applicability:
            check_word("link", link.id, "type", app.type, FAILURE_TYPES, app.span or link.span)
            if app.type in declared:
                report.violations.append(
                    Violation(
                        "duplicate-applicability",
                        f"link '{link.id}' already declares type {app.type}",
                        app.span or link.span,
                    )
                )
            declared.add(app.type)
    for group in model.redundancy_groups:
        declare(group.id, "redundancy_group", group.span)
        check_word("redundancy_group", group.id, "level", group.level, REDUNDANCY_LEVELS, group.span)
        check_word("redundancy_group", group.id, "logic", group.logic, GROUP_LOGICS, group.span)
    for resource in model.shared_resources:
        declare(resource.id, "shared_resource", resource.span)
        check_word("shared_resource", resource.id, "scope", resource.scope, RESOURCE_SCOPES, resource.span)


def _validate_references(model: SystemModel, report: ValidationReport) -> None:
    idx = model.index

    def bad(code: str, message: str, span: SourceSpan | None) -> None:
        report.violations.append(Violation(code, message, span))

    def replica_division(component_id: str) -> Division | None:
        """The component's division when it is a replica, else None.  A
        replica keeps its source's span, so its ``replicates`` line locates it."""
        division = idx.divisions[idx.division_of[component_id]]
        return division if division.replicated_from is not None else None

    for hazard in model.hazards:
        for loss_id in hazard.losses:
            if loss_id not in idx.losses:
                bad("unknown-loss", f"hazard '{hazard.id}' links unknown loss '{loss_id}'", hazard.span)

    operators = [c for c in model.components() if c.kind == "operator"]
    if len(operators) != 1:
        span = operators[1].span if operators else model.span
        bad("operator-count", f"model declares {len(operators)} operator components, expected 1", span)
    for op in operators:
        if op.tech != "human":
            bad("operator-tech", f"operator '{op.id}' must have tech human", op.span)
        if not idx.dependency_sources(op):
            bad("operator-no-sources", f"operator '{op.id}' has no information sources", op.span)

    for component in model.components():
        if component.design_class not in idx.design_classes:
            bad(
                "unknown-class",
                f"component '{component.id}' references unknown design_class '{component.design_class}'",
                component.span,
            )
        for ref in list(component.inputs) + list(component.feedback_inputs):
            target = idx.components.get(ref.component)
            if target is None:
                bad(
                    "unknown-component",
                    f"component '{component.id}' references unknown component '{ref.component}'",
                    ref.span or component.span,
                )
            elif ref.port is not None and all(link.id != ref.port for link in target.links):
                bad(
                    "unknown-port",
                    f"component '{component.id}' references unknown port '{ref.port}' "
                    f"of '{ref.component}'",
                    ref.span or component.span,
                )
        for link in component.links:
            if not link.targets:
                bad("link-no-target", f"link '{link.id}' has no targets", link.span)
            for target_id in link.targets:
                if target_id not in idx.components:
                    bad(
                        "unknown-component",
                        f"link '{link.id}' targets unknown component '{target_id}'",
                        link.span,
                    )
            if link.kind == "control_action" and component.kind != "controller":
                bad(
                    "control-action-source",
                    f"control action '{link.id}' is sourced by non-controller '{component.id}'",
                    link.span,
                )
            if link.applicability and component.tech != "digital":
                bad(
                    "applicability-tech",
                    f"link '{link.id}' declares applicable failure types but its source "
                    f"'{component.id}' is not digital",
                    link.span,
                )
            for app in link.applicability:
                if not app.hazards:
                    bad(
                        "applicable-no-hazard",
                        f"link '{link.id}' type {app.type} is applicable but links no hazards",
                        app.span or link.span,
                    )
                for hazard_id in app.hazards:
                    if hazard_id not in idx.hazards:
                        bad(
                            "unknown-hazard",
                            f"link '{link.id}' type {app.type} references unknown hazard "
                            f"'{hazard_id}'",
                            app.span or link.span,
                        )

    groups = model.redundancy_groups
    # Group position -> the consumers that are not human-tech and at which
    # that any_misleads group binds, in component order.
    misled: dict[int, list[Component]] = {}
    if any(group.logic == "any_misleads" for group in groups):
        for consumer in model.components():
            if consumer.tech == "human":
                continue
            for position, listed in idx.grouped_sources(idx.dependency_sources(consumer)).items():
                group = groups[position]
                if group.logic == "any_misleads" and idx.binds(group, listed):
                    misled.setdefault(position, []).append(consumer)
    for position, group in enumerate(groups):
        if len(group.members) < 2:
            bad("group-size", f"redundancy_group '{group.id}' needs at least 2 members", group.span)
        for member in group.members:
            if group.level == "division":
                if member not in idx.divisions:
                    bad(
                        "unknown-division",
                        f"redundancy_group '{group.id}' references unknown division '{member}'",
                        group.span,
                    )
            elif member not in idx.components:
                bad(
                    "unknown-component",
                    f"redundancy_group '{group.id}' references unknown component '{member}'",
                    group.span,
                )
        for consumer in misled.get(position, ()):
            bad(
                "any-misleads-consumer",
                f"any_misleads group '{group.id}' converges at '{consumer.id}', "
                "which is not human-tech",
                group.span,
            )

    for resource in model.shared_resources:
        if len(resource.dependents) < 2:
            bad("resource-size", f"shared_resource '{resource.id}' needs at least 2 dependents", resource.span)
        for dependent in resource.dependents:
            if dependent not in idx.components:
                bad(
                    "unknown-component",
                    f"shared_resource '{resource.id}' lists unknown component '{dependent}'",
                    resource.span,
                )

    adjacency = {c.id: idx.dependency_sources(c) for c in model.components()}
    cycle = depth_first(adjacency, adjacency.__getitem__, adjacency)[1]
    if cycle:
        division = replica_division(cycle[0])
        span = division.span if division else idx.components[cycle[0]].span
        bad("dependency-cycle", f"dependency cycle: {' -> '.join(cycle)}", span)

    # Synthesis gives a ``fail:`` gate to exactly the components the operator
    # depends on.  Software instances attach under their owner's gate, and
    # Type 1 and Type 3 common cause events under each member's.
    if len(operators) != 1 or not adjacency[operators[0].id]:
        return
    upstream = set(depth_first(adjacency[operators[0].id], adjacency.__getitem__, adjacency)[0])

    # A replica division's components share one fix, its ``replicates`` line,
    # so their misses are reported once there: division id -> {component: role}.
    replica_misses: dict[str, dict[str, str]] = {}

    def not_upstream(component_id: str, role: str, span: SourceSpan | None, owner: str | None) -> None:
        if component_id in upstream or component_id not in idx.components:
            return
        division = replica_division(owner) if owner else None
        if division is not None:
            replica_misses.setdefault(division.id, {}).setdefault(component_id, role)
        else:
            bad("not-upstream", f"the top event does not depend on '{component_id}', {role}", span)

    for component in model.components():
        if any(link.applicability for link in component.links):
            not_upstream(component.id, "which owns applicable links", component.span, component.id)
    for link in model.links():
        for target in link.commanded_group():
            role = f"a common cause group member commanded by control action '{link.id}'"
            not_upstream(target, role, link.span, link.source)
    for resource in model.shared_resources:
        if resource.scope == "external":
            for dependent in resource.dependents:
                role = f"a dependent of external shared_resource '{resource.id}'"
                not_upstream(dependent, role, resource.span, None)
    for division_id, misses in replica_misses.items():
        (first, role), *more = misses.items()
        tail = f", nor on {len(more)} more components of division '{division_id}'" if more else ""
        span = idx.divisions[division_id].span
        bad("not-upstream", f"the top event does not depend on '{first}', {role}{tail}", span)

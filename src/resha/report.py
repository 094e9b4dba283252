"""Guidance findings, summary rendering, and artifact serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .ccf import CcfGroup, count_by_type
from .cutsets import CutSetCollection, FirstOrderReport
from .ftree import BasicEvent, BranchCensus, EventCategory, FaultTree, Gate, GateOp
from .model import (
    FailureModeType,
    ModelError,
    ModelIndex,
    SystemModel,
)
from .stpa import UcaUifInstance, instances_by_division, traceability_rows

FT_SCHEMA = "resha/1"

# Root causes to investigate per failure-mode type, keyed by letter.
CAUSE_MAP: dict[FailureModeType, str] = {
    FailureModeType.MISSING: (
        "output variable is unassigned after calculation, or the producing task "
        "halts before publishing its result"
    ),
    FailureModeType.UNNEEDED: (
        "activation logic fires on inappropriate boundary conditions of the module "
        "or an incorrect process model"
    ),
    FailureModeType.TOO_EARLY: (
        "scheduling releases the output before its input set is complete"
    ),
    FailureModeType.TOO_LATE: (
        "scheduling or communication delay releases the output after its validity window"
    ),
    FailureModeType.WRONG_ORDER: (
        "sequencing delivers updates out of order across redundant channels"
    ),
    FailureModeType.EXCESSIVE: (
        "setpoint variable is under or over the ideal limit, so the action runs "
        "past its intended envelope"
    ),
    FailureModeType.INSUFFICIENT: (
        "setpoint variable is under or over the ideal limit, so the action stops "
        "short of its intended envelope"
    ),
}


@dataclass
class DiversityFinding:
    """Design classes that share one platform lineage across divisions."""

    diversity_tag: str
    design_classes: list[str]
    divisions: list[str]

    def advice(self) -> str:
        classes = ", ".join(self.design_classes)
        return (
            f"design classes on shared platform '{self.diversity_tag}' span redundant "
            f"divisions ({classes}); qualify diverse implementations or take no "
            "redundancy credit for their software"
        )


@dataclass
class CouplingFinding:
    """One component's output coupled into several digital consumers."""

    trigger: str
    failure_types: list[str]
    dependents: list[str]

    def advice(self) -> str:
        return (
            f"output of {self.trigger} couples {len(self.dependents)} downstream digital "
            f"components (types {', '.join(self.failure_types)}); validate the shared "
            "input at each consumer or decouple the interfaces"
        )


@dataclass
class GuidanceReport:
    diversity_findings: list[DiversityFinding] = field(default_factory=list)
    coupling_findings: list[CouplingFinding] = field(default_factory=list)
    # The basic events that each defeat the redundant architecture alone.
    spof_entries: list[BasicEvent] = field(default_factory=list)
    letters_present: list[str] = field(default_factory=list)


def generate_guidance(
    model: SystemModel,
    groups: list[CcfGroup],
    first_order: FirstOrderReport,
    tree: FaultTree,
    instances: list[UcaUifInstance],
) -> GuidanceReport:
    idx = ModelIndex(model)
    instance_by_id = {i.id: i for i in instances}
    report = GuidanceReport()
    report.letters_present = sorted({i.type.letter for i in instances})

    by_tag: dict[str, list[CcfGroup]] = {}
    for group in groups:
        if group.ccf_type != 4:
            continue
        dc = idx.design_classes.get(group.trigger)
        tag = dc.diversity_tag if dc is not None else group.trigger
        by_tag.setdefault(tag, []).append(group)
    for tag, tag_groups in sorted(by_tag.items()):
        divisions: set[str] = set()
        for group in tag_groups:
            for member in group.members:
                instance = instance_by_id.get(member)
                if instance is not None:
                    divisions.add(instance.division)
        report.diversity_findings.append(
            DiversityFinding(
                diversity_tag=tag,
                design_classes=sorted({g.trigger for g in tag_groups}),
                divisions=sorted(divisions),
            )
        )

    by_trigger: dict[str, list[CcfGroup]] = {}
    for group in groups:
        if group.ccf_type == 2:
            by_trigger.setdefault(group.trigger, []).append(group)
    for trigger, trigger_groups in sorted(by_trigger.items()):
        report.coupling_findings.append(
            CouplingFinding(
                trigger=trigger,
                failure_types=sorted(
                    {g.failure_type.letter for g in trigger_groups if g.failure_type}
                ),
                dependents=idx.transitive_digital_dependents(trigger),
            )
        )

    report.spof_entries = [tree.nodes[e] for e in first_order.software + first_order.hardware]
    return report


def export_ft(tree: FaultTree) -> str:
    """Serialize a fault tree as a stable JSON document."""
    nodes = []
    for node in tree.nodes.values():
        if isinstance(node, Gate):
            entry: dict = {"id": node.id, "kind": "gate", "op": node.op.value}
            if node.label:
                entry["label"] = node.label
            entry["children"] = list(node.children)
            if node.failure_for is not None:
                entry["failure_for"] = node.failure_for
            if node.dependency_for is not None:
                entry["dependency_for"] = node.dependency_for
            if node.placeholder_for is not None:
                entry["placeholder_for"] = node.placeholder_for
        else:
            entry = {"id": node.id, "kind": "event", "category": node.category.value}
            if node.label:
                entry["label"] = node.label
            if node.software:
                entry["software"] = True
        nodes.append(entry)
    doc = {
        "schema": FT_SCHEMA,
        "model": tree.model_name,
        "options": {"include_hw_design": tree.include_hw_design},
        "root": tree.root,
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2) + "\n"


def import_ft(text: str) -> FaultTree:
    """Rebuild a fault tree from its JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"fault tree document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != FT_SCHEMA:
        raise ModelError(f"expected schema '{FT_SCHEMA}', got {doc.get('schema')!r}")
    options = doc.get("options") or {}
    tree = FaultTree(
        model_name=doc.get("model", ""),
        root=doc.get("root", ""),
        include_hw_design=bool(options.get("include_hw_design", False)),
    )
    for entry in doc.get("nodes", []):
        kind = entry.get("kind")
        if kind == "gate":
            tree.add(
                Gate(
                    id=entry["id"],
                    op=GateOp(entry["op"]),
                    children=list(entry.get("children", [])),
                    label=entry.get("label", ""),
                    failure_for=entry.get("failure_for"),
                    dependency_for=entry.get("dependency_for"),
                    placeholder_for=entry.get("placeholder_for"),
                )
            )
        elif kind == "event":
            tree.add(
                BasicEvent(
                    id=entry["id"],
                    category=EventCategory(entry["category"]),
                    label=entry.get("label", ""),
                    software=bool(entry.get("software", False)),
                )
            )
        else:
            raise ModelError(f"node {entry.get('id')!r} has unknown kind {kind!r}")
    tree.check_structure()
    return tree


def cutsets_csv(collection: CutSetCollection, tree: FaultTree) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["order", "members", "categories", "software"])
    # (id, category, software) per event index, built on first use.
    entries: dict[int, tuple[str, str, bool]] = {}

    def entry(i: int) -> tuple[str, str, bool]:
        event_id = collection.events[i]
        node = tree.nodes.get(event_id)
        if isinstance(node, BasicEvent):
            entries[i] = (event_id, node.category.value, node.software)
        else:
            entries[i] = (event_id, "?", False)
        return entries[i]

    def rows():
        for indices in collection.member_indices():
            ids, categories, software = [], [], True
            for i in indices:
                event_id, category, event_software = entries.get(i) or entry(i)
                ids.append(event_id)
                categories.append(category)
                software = software and event_software
            yield len(ids), ";".join(ids), ";".join(categories), "yes" if software else "no"

    writer.writerows(rows())
    return out.getvalue()


def ccf_csv(groups: list[CcfGroup]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group", "type", "scope", "trigger", "failure_type", "members"])
    for group in groups:
        writer.writerow(
            [
                group.id,
                group.ccf_type,
                group.scope.value,
                group.trigger,
                group.failure_type.letter if group.failure_type else "",
                ";".join(group.members),
            ]
        )
    return out.getvalue()


def traceability_csv(instances: list[UcaUifInstance], model: SystemModel) -> str:
    rows = traceability_rows(instances, model)
    out = io.StringIO()
    writer = csv.DictWriter(
        out,
        fieldnames=[
            "instance",
            "flavor",
            "type",
            "stpa_category",
            "owner",
            "link",
            "division",
            "hazards",
            "losses",
        ],
        lineterminator="\n",
    )
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def cut_set_counts(collection: CutSetCollection, first_order: FirstOrderReport) -> list[str]:
    """Count lines shared by the summary and ``resha cutsets`` text output."""
    truncated = (
        f" (truncated at order {collection.truncation_order})"
        if collection.truncation_order is not None
        else ""
    )
    return [
        f"Minimal cut sets: {len(collection)}{truncated}",
        *(f"Order {order}: {count}" for order, count in collection.order_index().items()),
        f"First-order software cut sets: {len(first_order.software)}",
        f"First-order hardware cut sets: {len(first_order.hardware)}",
    ]


@dataclass
class SummaryInput:
    """Everything the summary renderer needs, stage by stage."""

    model: SystemModel
    candidates: list[UcaUifInstance]
    instances: list[UcaUifInstance]
    census: BranchCensus
    groups: list[CcfGroup]
    collection: CutSetCollection
    first_order: FirstOrderReport
    guidance: GuidanceReport
    include_hw_design: bool = False


def render_summary(data: SummaryInput, fmt: str = "md") -> str:
    """Render the run summary; formats: ``md`` and ``txt``."""
    if fmt not in ("md", "txt"):
        raise ModelError(f"unknown summary format '{fmt}' (one of: md, txt)")
    md = fmt == "md"
    lines: list[str] = []

    def heading(text: str) -> None:
        if lines:
            lines.append("")
        if md:
            lines.append(f"## {text}")
        else:
            lines.append(text)
            lines.append("-" * len(text))

    def bullet(text: str) -> None:
        lines.append(f"- {text}" if md else f"  * {text}")

    title = f"Hazard analysis summary: {data.model.name}"
    lines.append(f"# {title}" if md else title)
    if not md:
        lines.append("=" * len(title))

    heading("Model")
    components = list(data.model.components())
    bullet(f"Divisions: {len(data.model.divisions)}")
    bullet(f"Components: {len(components)}")
    bullet(f"Links: {sum(1 for _ in data.model.links())}")
    bullet(f"Top event: {data.model.top_event}")

    heading("Interaction analysis")
    bullet(f"Candidates enumerated: {len(data.candidates)}")
    for division, found in sorted(instances_by_division(data.candidates).items()):
        bullet(f"Candidates in division {division}: {len(found)}")
    bullet(f"Applicable instances: {len(data.instances)}")
    for division, found in sorted(instances_by_division(data.instances).items()):
        bullet(f"Applicable in division {division}: {len(found)}")

    heading("Fault tree")
    bullet(f"Hardware stochastic basic events: {data.census.hw_stochastic}")
    bullet(f"Dependency failure branches: {data.census.dependency}")
    bullet(f"Software design branches: {data.census.sw_design}")
    bullet(f"Hardware design basic events: {data.census.hw_design}")
    bullet(f"Hardware design events included: {'yes' if data.include_hw_design else 'no'}")

    heading("Common cause failures")
    for ccf_type, count in count_by_type(data.groups).items():
        lines.append(f"Type {ccf_type} sCCF: {count}")
    lines.append(f"Total sCCF groups: {len(data.groups)}")

    heading("Minimal cut sets")
    lines.extend(cut_set_counts(data.collection, data.first_order))

    heading("Single points of failure")
    if not data.guidance.spof_entries:
        bullet("none found")
    for entry in data.guidance.spof_entries:
        origin = "software" if entry.software else "hardware"
        bullet(f"{entry.id} ({origin}): {entry.label}")

    heading("Diversity findings")
    if not data.guidance.diversity_findings:
        bullet("none found")
    for finding in data.guidance.diversity_findings:
        bullet(finding.advice())

    heading("Coupling findings")
    if not data.guidance.coupling_findings:
        bullet("none found")
    for finding in data.guidance.coupling_findings:
        bullet(finding.advice())

    heading("Cause guidance")
    for letter in data.guidance.letters_present:
        bullet(f"Type {letter}: {CAUSE_MAP[FailureModeType(letter)]}")

    return "\n".join(lines) + "\n"

"""Guidance findings, summary rendering, and artifact serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .ftree import BasicEvent, EventCategory, FaultTree, Gate, GateOp, Node
from .model import FailureModeType, ModelError, ModelIndex, SystemModel

if TYPE_CHECKING:
    from .ccf import CcfGroup
    from .cutsets import CutSetCollection, FirstOrderReport
    from .pipeline import AnalysisResult
    from .stpa import UcaUifInstance

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
            out += (',\n      "kind": "gate",\n      "op": ', q(node.op.value))
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
            out += (',\n      "kind": "event",\n      "category": ', q(node.category.value))
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
    ``export_ft`` writes as a string must be one: a ModelError names the
    node whose id, label, marker or child is not.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"fault tree document is not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != FT_SCHEMA:
        raise ModelError(f"expected schema '{FT_SCHEMA}', got {schema!r}")
    model_name, root = doc.get("model", ""), doc.get("root", "")
    options, nodes = doc.get("options") or {}, doc.get("nodes", [])
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
    tree = FaultTree(
        model_name=model_name,
        root=root,
        include_hw_design=bool(options.get("include_hw_design", False)),
    )
    for entry in nodes:
        if not isinstance(entry, dict):
            raise ModelError(f"fault tree node {entry!r} is not an object")
        node_id, kind, children = entry.get("id"), entry.get("kind"), entry.get("children", [])
        if not (
            isinstance(node_id, str)
            and all(isinstance(entry.get(key, ""), str) for key in _OPTIONAL_STRINGS)
            and isinstance(children, list)
            and all(isinstance(child, str) for child in children)
        ):
            raise ModelError(
                f"node {node_id!r}: its id, {', '.join(_OPTIONAL_STRINGS)} and children "
                "must be strings"
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
                    software=bool(entry.get("software", False)),
                )
            else:
                raise ModelError(f"node {node_id!r} has unknown kind {kind!r}")
        except ValueError as exc:
            raise ModelError(f"node {node_id!r}: {exc}") from None
        tree.add(node)
    tree.check_structure()
    return tree


# Characters that may make the csv module quote or refuse a field.  Which of
# them do depends on the Python version: 3.11 and 3.12 leave a lone "\r"
# bare and 3.13 quotes it; 3.10 refuses a NUL.
_CSV_SPECIAL = frozenset(',"\r\n\x00')


def cutsets_csv(collection: CutSetCollection, tree: FaultTree) -> str:
    """One row per minimal cut set: order, member ids, their categories, and
    whether every member is software.

    Rows follow ``CutSetCollection.walk``: a run's shared members are joined
    once, and each row adds its last member's fragments.  A row holding an
    id with a comma, a double quote, a carriage return, a line feed or a NUL
    (possible only in an imported tree) goes through ``csv.writer``, so
    quoting stays the csv module's decision.
    """
    ids, categories, software = collection.events, {}, set()
    for i in collection.members():
        node = tree.nodes.get(ids[i])
        categories[i] = node.category.value if isinstance(node, BasicEvent) else "?"
        if isinstance(node, BasicEvent) and node.software:
            software.add(i)
    special = {i for i in categories if not _CSV_SPECIAL.isdisjoint(ids[i])}
    # A row's category and flag after the shared members', for a run whose
    # shared members are all software and for any other run.
    tails_yes = {i: f"{c},{'yes' if i in software else 'no'}\n" for i, c in categories.items()}
    tails_no = {i: f"{c},no\n" for i, c in categories.items()}
    lines = ["order,members,categories,software\n"]
    for head, lasts in collection.walk():
        order = len(head) + 1
        head_ids = "".join([f"{ids[i]};" for i in head])
        head_categories = "".join([f"{categories[i]};" for i in head])
        tails = tails_yes if software.issuperset(head) else tails_no
        if not special or special.isdisjoint((*head, *lasts)):
            prefix, middle = f"{order},{head_ids}", f",{head_categories}"
            lines += [f"{prefix}{ids[i]}{middle}{tails[i]}" for i in lasts]
            continue
        for i in lasts:
            out = io.StringIO()
            flag = "yes" if software.issuperset((*head, i)) else "no"
            csv.writer(out, lineterminator="\n").writerow((order, head_ids + ids[i], head_categories + categories[i], flag))
            lines.append(out.getvalue())
    return "".join(lines)


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
    from .stpa import traceability_rows

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


def render_summary(result: AnalysisResult, fmt: str = "md") -> str:
    """Render the run summary of an analysis; formats: ``md`` and ``txt``."""
    from .ccf import count_by_type
    from .stpa import instances_by_division

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

    model = result.expanded
    title = f"Hazard analysis summary: {model.name}"
    lines.append(f"# {title}" if md else title)
    if not md:
        lines.append("=" * len(title))

    heading("Model")
    components = list(model.components())
    bullet(f"Divisions: {len(model.divisions)}")
    bullet(f"Components: {len(components)}")
    bullet(f"Links: {sum(1 for _ in model.links())}")
    bullet(f"Top event: {model.top_event}")

    heading("Interaction analysis")
    bullet(f"Candidates enumerated: {len(result.candidates)}")
    for division, found in sorted(instances_by_division(result.candidates).items()):
        bullet(f"Candidates in division {division}: {len(found)}")
    bullet(f"Applicable instances: {len(result.instances)}")
    for division, found in sorted(instances_by_division(result.instances).items()):
        bullet(f"Applicable in division {division}: {len(found)}")

    heading("Fault tree")
    bullet(f"Hardware stochastic basic events: {result.census.hw_stochastic}")
    bullet(f"Dependency failure branches: {result.census.dependency}")
    bullet(f"Software design branches: {result.census.sw_design}")
    bullet(f"Hardware design basic events: {result.census.hw_design}")
    bullet(f"Hardware design events included: {'yes' if result.options.include_hw_design else 'no'}")

    heading("Common cause failures")
    for ccf_type, count in count_by_type(result.groups).items():
        lines.append(f"Type {ccf_type} sCCF: {count}")
    lines.append(f"Total sCCF groups: {len(result.groups)}")

    heading("Minimal cut sets")
    lines.extend(cut_set_counts(result.collection, result.first_order))

    heading("Single points of failure")
    if not result.guidance.spof_entries:
        bullet("none found")
    for entry in result.guidance.spof_entries:
        origin = "software" if entry.software else "hardware"
        bullet(f"{entry.id} ({origin}): {entry.label}")

    heading("Diversity findings")
    if not result.guidance.diversity_findings:
        bullet("none found")
    for finding in result.guidance.diversity_findings:
        bullet(finding.advice())

    heading("Coupling findings")
    if not result.guidance.coupling_findings:
        bullet("none found")
    for finding in result.guidance.coupling_findings:
        bullet(finding.advice())

    heading("Cause guidance")
    for letter in result.guidance.letters_present:
        bullet(f"Type {letter}: {CAUSE_MAP[FailureModeType(letter)]}")

    return "\n".join(lines) + "\n"

r"""Guidance findings, summary rendering, and artifact serialization.

The CSV rule: ``ccf.csv`` and ``traceability.csv`` are built as string
tuples and joined with ``,`` and ``\n`` by ``csv_table``, which keeps the
joined text only when its ``,`` and ``\n`` counts show that no field holds
one and no ``"``, ``\r`` or NUL appears; otherwise ``csv.writer`` renders
the same rows.  ``cutsets_csv`` tests each event id once instead, so that
its rows can later be written as they are walked.  Either way the bytes are
``csv.writer(lineterminator="\n")``'s, whose quoting differs between
Python versions, and one set of special characters, ``_CSV_SPECIAL``,
decides when the csv module is asked.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .ftree import (
    EVENT_CATEGORY_NAMES,
    GATE_OP_NAMES,
    BasicEvent,
    EventCategory,
    FaultTree,
    Gate,
    GateOp,
    Node,
)
from .model import LETTERS, LEVEL_NAMES, STPA_CATEGORY_NAMES, FailureModeType, ModelError, SystemModel

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
    idx = model.index
    instance_by_id = {i.id: i for i in instances}
    report = GuidanceReport()
    report.letters_present = sorted({LETTERS[i.type] for i in instances})

    by_tag: dict[str, list[CcfGroup]] = {}
    for group in groups:
        if group.ccf_type != 4:
            continue
        by_tag.setdefault(idx.design_classes[group.trigger].diversity_tag, []).append(group)
    for tag, tag_groups in sorted(by_tag.items()):
        divisions = {instance_by_id[m].division for g in tag_groups for m in g.members}
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
                    {LETTERS[g.failure_type] for g in trigger_groups if g.failure_type}
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


# Characters that may make the csv module quote or refuse a field.  Which of
# them do depends on the Python version: 3.11 and 3.12 leave a lone "\r"
# bare and 3.13 quotes it; 3.10 refuses a NUL.
_CSV_SPECIAL = frozenset(',"\r\n\x00')
# Those of them that a plain-joined table may not hold at all; it holds ","
# and "\n" only as separators, which csv_table checks by counting.
_CSV_NEVER_BARE = tuple(sorted(_CSV_SPECIAL - {",", "\n"}))


def csv_table(rows: list[tuple[str, ...]]) -> str:
    r"""The text ``csv.writer(lineterminator="\n")`` writes for ``rows``,
    string tuples of two fields or more.

    The rows are joined with ``,`` and ``\n``.  That text is the csv
    module's own exactly when it holds one ``,`` per field boundary, one
    ``\n`` per row and none of ``_CSV_NEVER_BARE``, since then no field
    holds a special character; otherwise ``csv.writer`` renders the rows,
    so quoting, and refusing what cannot be written, stays the csv
    module's decision on every Python version.
    """
    if not rows:
        return ""
    text = "\n".join(map(",".join, rows)) + "\n"
    if (
        text.count(",") == sum(map(len, rows)) - len(rows)
        and text.count("\n") == len(rows)
        and not any(c in text for c in _CSV_NEVER_BARE)
    ):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


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
        categories[i] = EVENT_CATEGORY_NAMES[node.category] if isinstance(node, BasicEvent) else "?"
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
    """One row per sCCF group: id, type, scope, trigger, failure letter and
    members, written by ``csv_table``."""
    rows = [("group", "type", "scope", "trigger", "failure_type", "members")]
    rows += [
        (
            group.id,
            str(group.ccf_type),
            LEVEL_NAMES[group.scope],
            group.trigger,
            LETTERS[group.failure_type] if group.failure_type else "",
            ";".join(group.members),
        )
        for group in groups
    ]
    return csv_table(rows)


def traceability_csv(instances: list[UcaUifInstance], model: SystemModel) -> str:
    """One row per instance, with its hazards and, through them, its sorted
    losses, written by ``csv_table``."""
    from .stpa import FLAVOR_NAMES

    hazards = model.index.hazards
    # Each distinct hazard list's joined hazards and sorted losses, built once.
    joined: dict[tuple[str, ...], tuple[str, str]] = {}
    for instance in instances:
        key = tuple(instance.hazards)
        if key not in joined:
            losses = sorted({loss for h in key for loss in hazards[h].losses})
            joined[key] = (";".join(key), ";".join(losses))
    rows = [("instance", "flavor", "type", "stpa_category", "owner", "link", "division", "hazards", "losses")]
    rows += [
        (
            instance.id,
            FLAVOR_NAMES[instance.flavor],
            LETTERS[instance.type],
            STPA_CATEGORY_NAMES[instance.type],
            instance.owner,
            instance.link,
            instance.division,
            *joined[tuple(instance.hazards)],
        )
        for instance in instances
    ]
    return csv_table(rows)


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


def summary_lines(result: AnalysisResult) -> list[tuple[str, str]]:
    """The run summary of an analysis, once for every format, as ``(kind,
    text)`` lines; a kind is ``title``, ``heading``, ``bullet`` or ``line``."""
    from .ccf import count_by_type

    model, census, guidance = result.expanded, result.census, result.guidance
    lines = [
        ("title", f"Hazard analysis summary: {model.name}"),
        ("heading", "Model"),
        ("bullet", f"Divisions: {len(model.divisions)}"),
        ("bullet", f"Components: {sum(1 for _ in model.components())}"),
        ("bullet", f"Links: {sum(1 for _ in model.links())}"),
        ("bullet", f"Top event: {model.top_event}"),
        ("heading", "Interaction analysis"),
        ("bullet", f"Candidates enumerated: {len(result.candidates)}"),
    ]
    for division, count in sorted(Counter(c.division for c in result.candidates).items()):
        lines.append(("bullet", f"Candidates in division {division}: {count}"))
    lines.append(("bullet", f"Applicable instances: {len(result.instances)}"))
    for division, count in sorted(Counter(i.division for i in result.instances).items()):
        lines.append(("bullet", f"Applicable in division {division}: {count}"))
    lines += [
        ("heading", "Fault tree"),
        ("bullet", f"Hardware stochastic basic events: {census.hw_stochastic}"),
        ("bullet", f"Dependency failure branches: {census.dependency}"),
        ("bullet", f"Software design branches: {census.sw_design}"),
        ("bullet", f"Hardware design basic events: {census.hw_design}"),
        ("bullet", f"Hardware design events included: {'yes' if result.options.include_hw_design else 'no'}"),
        ("heading", "Common cause failures"),
        *(("line", f"Type {t} sCCF: {count}") for t, count in count_by_type(result.groups).items()),
        ("line", f"Total sCCF groups: {len(result.groups)}"),
        ("heading", "Minimal cut sets"),
        *(("line", text) for text in cut_set_counts(result.collection, result.first_order)),
    ]
    spof = [f"{e.id} ({'software' if e.software else 'hardware'}): {e.label}" for e in guidance.spof_entries]
    for heading, bullets in (
        ("Single points of failure", spof),
        ("Diversity findings", [f.advice() for f in guidance.diversity_findings]),
        ("Coupling findings", [f.advice() for f in guidance.coupling_findings]),
    ):
        lines.append(("heading", heading))
        lines += [("bullet", text) for text in bullets or ["none found"]]
    lines.append(("heading", "Cause guidance"))
    for letter in guidance.letters_present:
        lines.append(("bullet", f"Type {letter}: {CAUSE_MAP[FailureModeType(letter)]}"))
    return lines


def markup_summary(lines: list[tuple[str, str]], fmt: str) -> str:
    """Mark up ``summary_lines`` as ``md`` or ``txt``."""
    if fmt not in ("md", "txt"):
        raise ModelError(f"unknown summary format '{fmt}' (one of: md, txt)")
    md = fmt == "md"
    out: list[str] = []
    for kind, text in lines:
        if kind == "title":
            out += [f"# {text}"] if md else [text, "=" * len(text)]
        elif kind == "heading":
            out += ["", f"## {text}"] if md else ["", text, "-" * len(text)]
        elif kind == "bullet":
            out.append(f"- {text}" if md else f"  * {text}")
        else:
            out.append(text)
    return "\n".join(out) + "\n"


def render_summary(result: AnalysisResult, fmt: str = "md") -> str:
    """Render the run summary of an analysis; formats: ``md`` and ``txt``."""
    return markup_summary(summary_lines(result), fmt)

r"""Guidance findings, summary rendering, and the CSV artifacts.

``GuidanceReport`` holds each diversity and coupling finding as its one
line of advice, the text the summary prints under its heading.

The fault tree's JSON form, ``export_ft`` and ``import_ft``, lives in
``resha.ftree``; this module re-exports the two names, which
``benchmark/worker.py`` and ``benchmark/checks.py`` import from here.  A
command that only reads and writes trees (``synth``, ``integrate``, ``ccf``
in text or JSON) never loads this module.

The CSV rule: ``ccf.csv`` and ``traceability.csv`` are built as string
tuples and joined with ``,`` and ``\n`` by ``csv_table``, which keeps the
joined text only when its ``,`` and ``\n`` counts show that no field holds
one and no ``"``, ``\r`` or NUL appears; otherwise ``csv.writer`` renders
the same rows.  ``cutsets_csv`` tests each event id once against
``_CSV_SPECIAL`` instead, so that its rows can later be written as they are
walked, and sends the rows of a run that holds such an id through
``csv_table``.  Either way the bytes are ``csv.writer``'s, with
``lineterminator="\n"``, whose quoting differs between Python versions.
``csv_table`` alone imports the ``csv`` module, so a run whose fields need
no quoting never loads it.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from .ftree import EVENT_CATEGORY_NAMES, BasicEvent, FaultTree
from .ftree import export_ft, import_ft  # re-exported; see the module docstring
from .model import STPA_CATEGORY_NAMES, ModelError, SystemModel

if TYPE_CHECKING:
    from .ccf import CcfGroup
    from .cutsets import CutSetCollection, FirstOrderReport
    from .pipeline import AnalysisResult
    from .stpa import UcaUifInstance

# Root causes to investigate per failure-mode type, keyed by letter.
CAUSE_MAP: dict[str, str] = {
    "A": (
        "output variable is unassigned after calculation, or the producing task "
        "halts before publishing its result"
    ),
    "B": (
        "activation logic fires on inappropriate boundary conditions of the module "
        "or an incorrect process model"
    ),
    "C": (
        "scheduling releases the output before its input set is complete"
    ),
    "D": (
        "scheduling or communication delay releases the output after its validity window"
    ),
    "E": (
        "sequencing delivers updates out of order across redundant channels"
    ),
    "F": (
        "setpoint variable is under or over the ideal limit, so the action runs "
        "past its intended envelope"
    ),
    "G": (
        "setpoint variable is under or over the ideal limit, so the action stops "
        "short of its intended envelope"
    ),
}


class GuidanceReport:
    """The design guidance of an analysis: each diversity and coupling
    finding as its one line of advice, the single points of failure and the
    cause letters."""

    def __init__(self) -> None:
        self.diversity_findings: list[str] = []
        self.coupling_findings: list[str] = []
        # The basic events that each defeat the redundant architecture alone.
        self.spof_entries: list[BasicEvent] = []
        self.letters_present: list[str] = []


def generate_guidance(
    model: SystemModel,
    groups: list[CcfGroup],
    first_order: FirstOrderReport,
    tree: FaultTree,
    instances: list[UcaUifInstance],
) -> GuidanceReport:
    idx = model.index
    report = GuidanceReport()
    report.letters_present = sorted({i.type for i in instances})

    by_tag: dict[str, list[CcfGroup]] = {}
    for group in groups:
        if group.type != 4:
            continue
        by_tag.setdefault(idx.design_classes[group.trigger].diversity_tag, []).append(group)
    for tag, tag_groups in sorted(by_tag.items()):
        classes = ", ".join(sorted({g.trigger for g in tag_groups}))
        report.diversity_findings.append(
            f"design classes on shared platform '{tag}' span redundant divisions ({classes}); "
            "qualify diverse implementations or take no redundancy credit for their software"
        )

    by_trigger: dict[str, list[CcfGroup]] = {}
    for group in groups:
        if group.type == 2:
            by_trigger.setdefault(group.trigger, []).append(group)
    for trigger, trigger_groups in sorted(by_trigger.items()):
        types = ", ".join(sorted({g.failure_type for g in trigger_groups if g.failure_type}))
        dependents = len(idx.transitive_digital_dependents(trigger))
        report.coupling_findings.append(
            f"output of {trigger} couples {dependents} downstream digital components "
            f"(types {types}); validate the shared input at each consumer or decouple the interfaces"
        )

    report.spof_entries = [tree.nodes[e] for e in first_order.software + first_order.hardware]
    return report


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
    import csv
    import io

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def cutsets_csv(collection: CutSetCollection, tree: FaultTree) -> str:
    """One row per minimal cut set: order, member ids, their categories, and
    whether every member is software.

    Rows follow ``CutSetCollection.walk``: a run's shared members are joined
    once, and each row adds its last member's fragments.  The rows of a run
    that holds an id with a comma, a double quote, a carriage return, a line
    feed or a NUL (possible only in an imported tree) go through
    ``csv_table``, so quoting stays the csv module's decision.
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
        flags = {i: "yes" if software.issuperset((*head, i)) else "no" for i in lasts}
        rows = [(str(order), head_ids + ids[i], head_categories + categories[i], flags[i]) for i in lasts]
        lines.append(csv_table(rows))
    return "".join(lines)


def ccf_csv(groups: list[CcfGroup]) -> str:
    """One row per sCCF group: id, type, scope, trigger, failure letter and
    members, written by ``csv_table``."""
    rows = [("group", "type", "scope", "trigger", "failure_type", "members")]
    rows += [
        (
            group.id,
            str(group.type),
            group.scope,
            group.trigger,
            group.failure_type or "",
            ";".join(group.members),
        )
        for group in groups
    ]
    return csv_table(rows)


def traceability_csv(instances: list[UcaUifInstance], model: SystemModel) -> str:
    """One row per instance, with its hazards and, through them, its sorted
    losses, written by ``csv_table``."""
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
            instance.flavor,
            instance.type,
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
        ("Diversity findings", guidance.diversity_findings),
        ("Coupling findings", guidance.coupling_findings),
    ):
        lines.append(("heading", heading))
        lines += [("bullet", text) for text in bullets or ["none found"]]
    lines.append(("heading", "Cause guidance"))
    for letter in guidance.letters_present:
        lines.append(("bullet", f"Type {letter}: {CAUSE_MAP[letter]}"))
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

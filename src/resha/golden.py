"""Pinned expected values for the bundled case study, and their verification.

The golden file pins what the calibrated model must reproduce: branch
census, per-division interaction counts, common cause group counts, and
first-order results.  ``load_golden`` returns a golden file's pinned
values by metric name, and ``verify_golden`` recomputes every metric from
an analysis run and compares them field by field.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .ccf import count_by_type
from .model import ComponentKind, ModelError
from .pipeline import AnalysisResult, read_input
from .stpa import Flavor

GOLDEN_SCHEMA = "resha-golden/1"


@dataclass
class FieldResult:
    """One pinned metric beside the value recomputed from an analysis."""

    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def __str__(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        return f"{self.name}: expected {self.expected!r}, got {self.actual!r} [{status}]"


@dataclass
class GoldenReport:
    """The field-by-field comparison of an analysis with a golden record."""

    fields: list[FieldResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.fields)

    def mismatches(self) -> list[FieldResult]:
        return [f for f in self.fields if not f.ok]


def load_golden(path: Path) -> dict[str, object]:
    """The pinned values of a golden file by metric name; an entry written
    as ``{"value": v, ...}`` pins ``v``."""
    try:
        doc = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ModelError(f"golden file is not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != GOLDEN_SCHEMA:
        raise ModelError(f"expected schema '{GOLDEN_SCHEMA}', got {schema!r}")
    entries = doc.get("values", {})
    if not isinstance(entries, dict):
        raise ModelError(f"golden file needs an object 'values', got {entries!r}")
    values: dict[str, object] = {}
    for name, entry in entries.items():
        if isinstance(entry, dict) and "value" in entry:
            values[name] = entry["value"]
        else:
            values[name] = entry
    return values


def compute_metrics(result: AnalysisResult) -> dict[str, object]:
    """Flat metric map recomputed from one analysis run."""
    idx = result.expanded.index
    metrics: dict[str, object] = {}

    metrics["census.hw_stochastic"] = result.census.hw_stochastic
    metrics["census.dependency"] = result.census.dependency
    metrics["census.sw_design"] = result.census.sw_design
    metrics["census.hw_design"] = result.census.hw_design

    for division, count in Counter(c.division for c in result.candidates).items():
        metrics[f"stpa.candidates.{division}"] = count

    # Instances by division, flavor and owner kind; divisions in first-seen order.
    buckets: Counter[tuple[str, str]] = Counter()
    for instance in result.instances:
        kind = idx.components[instance.owner].kind
        if instance.flavor is Flavor.UCA:
            name = "uca"
        elif kind is ComponentKind.CALCULATOR:
            name = "uif_calculator"
        elif kind is ComponentKind.ALARM:
            name = "uif_alarm"
        else:
            name = "uif_other"
        buckets[instance.division, name] += 1
    for division in dict.fromkeys(division for division, _ in buckets):
        for name in ("uca", "uif_calculator", "uif_alarm", "uif_other"):
            metrics[f"stpa.{division}.{name}"] = buckets[division, name]

    counts = count_by_type(result.groups)
    for ccf_type in (1, 2, 3, 4):
        metrics[f"ccf.type{ccf_type}"] = counts[ccf_type]
    metrics["ccf.groups"] = len(result.groups)

    instance_by_id = {i.id: i for i in result.instances}
    type4_by_kind = {"controller": 0, "calculator": 0, "alarm": 0, "other": 0}
    for group in result.groups:
        if group.ccf_type != 4:
            continue
        kind = "other"
        for member in group.members:
            owner = idx.components[instance_by_id[member].owner]
            if owner.kind.value in type4_by_kind:
                kind = owner.kind.value
                break
        type4_by_kind[kind] += 1
    for kind, count in type4_by_kind.items():
        metrics[f"ccf.type4.{kind}_classes"] = count

    metrics["cutsets.first_order.software"] = len(result.first_order.software)
    metrics["cutsets.first_order.hardware"] = len(result.first_order.hardware)
    first_order_events = set(result.first_order.software)
    metrics["cutsets.first_order.division_triggers"] = sorted(
        {
            group.trigger
            for group in result.groups
            if group.ccf_type == 2 and f"ccf:{group.id}" in first_order_events
        }
    )
    return metrics


def verify_golden(result: AnalysisResult, values: dict[str, object]) -> GoldenReport:
    """Compare pinned values against recomputed metrics, field by field."""
    metrics = compute_metrics(result)
    report = GoldenReport()
    for name, expected in values.items():
        report.fields.append(FieldResult(name=name, expected=expected, actual=metrics.get(name)))
    return report

"""Pinned expected values for the bundled case study, and their verification.

The golden file pins what the calibrated model must reproduce: branch
census, per-division interaction counts, common cause group counts, and
first-order results.  ``verify_golden`` recomputes every metric from an
analysis run and reports a per-field comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .ccf import count_by_type
from .model import ComponentKind, ModelError
from .pipeline import AnalysisResult, read_input
from .stpa import Flavor, instances_by_division

GOLDEN_SCHEMA = "resha-golden/1"


@dataclass
class GoldenRecord:
    model: str
    values: dict[str, object]


@dataclass
class FieldResult:
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
    fields: list[FieldResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.fields)

    def mismatches(self) -> list[FieldResult]:
        return [f for f in self.fields if not f.ok]

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.fields)


def load_golden(path: Path) -> GoldenRecord:
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
    return GoldenRecord(model=doc.get("model", ""), values=values)


def compute_metrics(result: AnalysisResult) -> dict[str, object]:
    """Flat metric map recomputed from one analysis run."""
    idx = result.expanded.index
    metrics: dict[str, object] = {}

    metrics["census.hw_stochastic"] = result.census.hw_stochastic
    metrics["census.dependency"] = result.census.dependency
    metrics["census.sw_design"] = result.census.sw_design
    metrics["census.hw_design"] = result.census.hw_design

    for division, found in instances_by_division(result.candidates).items():
        metrics[f"stpa.candidates.{division}"] = len(found)

    for division, found in instances_by_division(result.instances).items():
        bucket = {"uca": 0, "uif_calculator": 0, "uif_alarm": 0, "uif_other": 0}
        for instance in found:
            owner = idx.components[instance.owner]
            if instance.flavor is Flavor.UCA:
                bucket["uca"] += 1
            elif owner.kind is ComponentKind.CALCULATOR:
                bucket["uif_calculator"] += 1
            elif owner.kind is ComponentKind.ALARM:
                bucket["uif_alarm"] += 1
            else:
                bucket["uif_other"] += 1
        for name, count in bucket.items():
            metrics[f"stpa.{division}.{name}"] = count

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


def verify_golden(result: AnalysisResult, golden: GoldenRecord) -> GoldenReport:
    """Compare pinned values against recomputed metrics, field by field."""
    metrics = compute_metrics(result)
    report = GoldenReport()
    for name in golden.values:
        report.fields.append(
            FieldResult(name=name, expected=golden.values[name], actual=metrics.get(name))
        )
    return report

"""Guidance findings, summary rendering, and artifact serialization."""

from __future__ import annotations

import csv
import dataclasses
import io

import pytest

from conftest import mk_tree
from resha.cutsets import first_order_cut_sets, minimal_cut_sets
from resha.ftree import EventCategory
from resha.model import FailureModeType, ModelError
from resha.report import (
    CAUSE_MAP,
    cutsets_csv,
    ccf_csv,
    export_ft,
    import_ft,
    render_summary,
    traceability_csv,
)

UNASSIGNED = "output variable is unassigned after calculation"
BOUNDARY = "inappropriate boundary conditions of the module or an incorrect process model"
SETPOINT = "setpoint variable is under or over the ideal limit"


def test_cause_phrases():
    assert UNASSIGNED in CAUSE_MAP[FailureModeType.MISSING]
    assert BOUNDARY in CAUSE_MAP[FailureModeType.UNNEEDED]
    assert SETPOINT in CAUSE_MAP[FailureModeType.EXCESSIVE]
    assert SETPOINT in CAUSE_MAP[FailureModeType.INSUFFICIENT]
    assert set(CAUSE_MAP) == set(FailureModeType)


def test_qiasp_diversity_finding(qiasp_result):
    findings = qiasp_result.guidance.diversity_findings
    assert len(findings) == 1
    finding = findings[0]
    assert finding.diversity_tag == "qiasp-plc"
    assert len(finding.design_classes) == 11
    assert finding.divisions == ["A", "B"]
    advice = finding.advice()
    assert "qiasp-plc" in advice
    assert "diverse implementations" in advice


def test_qiasp_coupling_findings(qiasp_result):
    findings = qiasp_result.guidance.coupling_findings
    assert [f.trigger for f in findings] == [
        "cet_calculator",
        "hjtc_calculator",
        "hjtc_power_controller",
        "rcsm_calculator",
        "rvl_calculator",
    ]
    for finding in findings:
        assert finding.failure_types == ["A", "F", "G"]
        assert len(finding.dependents) >= 2
        assert finding.trigger in finding.advice()


def test_qiasp_spof_entries(qiasp_result):
    entries = qiasp_result.guidance.spof_entries
    assert len(entries) == 44
    software = [e for e in entries if e.software]
    assert len(software) == 43
    hardware = [e for e in entries if not e.software]
    assert [e.id for e in hardware] == ["hw:operator_terminal"]


def test_qiasp_letters_present(qiasp_result):
    assert qiasp_result.guidance.letters_present == ["A", "B", "F", "G"]


REQUIRED_LINES = (
    "Type 1 sCCF: 0",
    "Type 2 sCCF: 15",
    "Type 3 sCCF: 0",
    "Type 4 sCCF: 28",
    "Total sCCF groups: 43",
    "Minimal cut sets: 2348",
    "Order 1: 44",
    "Order 2: 2304",
    "First-order software cut sets: 43",
    "First-order hardware cut sets: 1",
)


@pytest.mark.parametrize("fmt", ["md", "txt"])
def test_summary_required_lines(qiasp_result, fmt):
    text = render_summary(qiasp_result.summary_input(), fmt)
    lines = text.splitlines()
    for required in REQUIRED_LINES:
        assert required in lines, required
    for phrase in (UNASSIGNED, BOUNDARY, SETPOINT):
        assert phrase in text
    assert "Hazard analysis summary: QIAS-P" in lines[0]


def test_summary_formats_differ(qiasp_result):
    data = qiasp_result.summary_input()
    md = render_summary(data, "md")
    txt = render_summary(data, "txt")
    assert "## Model" in md
    assert "## Model" not in txt
    assert "Model\n-----" in txt
    assert render_summary(data, "md") == md


def test_summary_counts_sections(qiasp_result):
    md = render_summary(qiasp_result.summary_input(), "md")
    assert "Candidates in division A: 77" in md
    assert "Candidates in division B: 77" in md
    assert "Applicable in division A: 28" in md
    assert "Hardware stochastic basic events: 41" in md
    assert "Dependency failure branches: 33" in md
    assert "Software design branches: 26" in md


def test_summary_truncation_note(qiasp_result):
    tree = qiasp_result.injected_tree
    collection = minimal_cut_sets(tree, max_order=1)
    data = dataclasses.replace(
        qiasp_result.summary_input(),
        collection=collection,
        first_order=first_order_cut_sets(collection, tree),
    )
    text = render_summary(data, "txt")
    assert "Minimal cut sets: 44 (truncated at order 1)" in text


def test_summary_rejects_unknown_format(qiasp_result):
    with pytest.raises(ModelError, match="unknown summary format"):
        render_summary(qiasp_result.summary_input(), "html")


def test_export_import_round_trip(qiasp_result):
    tree = qiasp_result.injected_tree
    text = export_ft(tree)
    rebuilt = import_ft(text)
    assert list(rebuilt.nodes) == list(tree.nodes)
    assert rebuilt.nodes == tree.nodes
    assert rebuilt.root == tree.root
    assert rebuilt.model_name == tree.model_name
    assert export_ft(rebuilt) == text


def test_export_preserves_markers(qiasp_result):
    rebuilt = import_ft(export_ft(qiasp_result.hardware_tree))
    assert rebuilt.gate("sw:hjtc_calculator").placeholder_for == "hjtc_calculator"
    assert rebuilt.gate("dep:hjtc_calculator").dependency_for == "hjtc_calculator"
    assert rebuilt.gate("fail:hjtc_calculator").failure_for == "hjtc_calculator"


def test_import_rejects_bad_documents():
    with pytest.raises(ModelError, match="not valid JSON"):
        import_ft("{nope")
    with pytest.raises(ModelError, match="expected schema"):
        import_ft('{"schema": "other/9", "root": "top", "nodes": []}')
    bad_kind = (
        '{"schema": "resha/1", "root": "g", "nodes": ['
        '{"id": "g", "kind": "mystery"}]}'
    )
    with pytest.raises(ModelError, match="unknown kind"):
        import_ft(bad_kind)


def test_import_rejects_empty_and_placeholder():
    doc = (
        '{"schema": "resha/1", "root": "top", "nodes": ['
        '{"id": "top", "kind": "gate", "op": "or", "children": ["a", "ph"]},'
        '{"id": "a", "kind": "event", "category": "hw_stochastic"},'
        '{"id": "ph", "kind": "gate", "op": "and", "children": [], "placeholder_for": "c"}]}'
    )
    with pytest.raises(ModelError, match="gate 'ph' is empty and not a software placeholder"):
        import_ft(doc)
    placeholder = import_ft(doc.replace('"op": "and"', '"op": "or"')).gate("ph")
    assert placeholder.placeholder_for == "c" and not placeholder.children


def test_cutsets_csv(qiasp_result):
    text = cutsets_csv(qiasp_result.collection, qiasp_result.injected_tree)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["order", "members", "categories", "software"]
    assert len(rows) == 2349
    first = rows[1]
    assert first[0] == "1"
    assert ";" not in first[1]
    hw_row = next(r for r in rows[1:] if r[1] == "hw:operator_terminal")
    assert hw_row[2] == "hw_stochastic"
    assert hw_row[3] == "no"
    ccf_row = next(r for r in rows[1:] if r[1].startswith("ccf:"))
    assert ccf_row[2] == "ccf"
    assert ccf_row[3] == "yes"


def test_ccf_csv(qiasp_result):
    text = ccf_csv(qiasp_result.groups)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["group", "type", "scope", "trigger", "failure_type", "members"]
    assert len(rows) == 44
    t2 = next(r for r in rows[1:] if r[0] == "T2:hjtc_calculator:A")
    assert t2[1] == "2"
    assert t2[2] == "division"
    assert t2[3] == "hjtc_calculator"
    assert t2[4] == "A"
    assert "hjtc_level:A:A" in t2[5].split(";")


def test_traceability_csv(qiasp_result):
    text = traceability_csv(qiasp_result.instances, qiasp_result.expanded)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 57
    header = rows[0]
    assert header[0] == "instance"
    assert header[-1] == "losses"


def test_cutsets_csv_marks_mixed_sets_not_software():
    tree = mk_tree(
        ("and", "s", "h"),
        categories={"s": EventCategory.SW_UCA, "h": EventCategory.HW_STOCHASTIC},
    )
    text = cutsets_csv(minimal_cut_sets(tree), tree)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][3] == "no"

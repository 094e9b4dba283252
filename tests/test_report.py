"""Guidance findings, summary rendering, and artifact serialization."""

from __future__ import annotations

import csv
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_tree, plain, reference_cutsets_csv, reference_export_ft, replace
from resha.cutsets import CutSetCollection, first_order_cut_sets, minimal_cut_sets
from resha.ftree import BasicEvent, EventCategory, FaultTree, Gate, GateOp, export_ft, import_ft
from resha.model import FAILURE_TYPES, ModelError
from resha.report import (
    CAUSE_MAP,
    csv_table,
    cutsets_csv,
    ccf_csv,
    render_summary,
    traceability_csv,
)

UNASSIGNED = "output variable is unassigned after calculation"
BOUNDARY = "inappropriate boundary conditions of the module or an incorrect process model"
SETPOINT = "setpoint variable is under or over the ideal limit"


def test_cause_phrases():
    assert UNASSIGNED in CAUSE_MAP["A"]
    assert BOUNDARY in CAUSE_MAP["B"]
    assert SETPOINT in CAUSE_MAP["F"]
    assert SETPOINT in CAUSE_MAP["G"]
    assert tuple(CAUSE_MAP) == FAILURE_TYPES


def test_qiasp_diversity_finding(qiasp_result):
    findings = qiasp_result.guidance.diversity_findings
    assert len(findings) == 1
    match = re.fullmatch(
        r"design classes on shared platform 'qiasp-plc' span redundant divisions \((.+)\); "
        r"qualify diverse implementations or take no redundancy credit for their software",
        findings[0],
    )
    assert match
    classes = match[1].split(", ")
    assert len(classes) == 11
    assert classes == sorted(classes)


def test_qiasp_coupling_findings(qiasp_result):
    findings = qiasp_result.guidance.coupling_findings
    matches = [
        re.fullmatch(
            r"output of (\S+) couples (\d+) downstream digital components \(types A, F, G\); "
            r"validate the shared input at each consumer or decouple the interfaces",
            advice,
        )
        for advice in findings
    ]
    assert all(matches)
    assert [m[1] for m in matches] == [
        "cet_calculator",
        "hjtc_calculator",
        "hjtc_power_controller",
        "rcsm_calculator",
        "rvl_calculator",
    ]
    for m in matches:
        assert int(m[2]) >= 2


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
    text = render_summary(qiasp_result, fmt)
    lines = text.splitlines()
    for required in REQUIRED_LINES:
        assert required in lines, required
    for phrase in (UNASSIGNED, BOUNDARY, SETPOINT):
        assert phrase in text
    assert "Hazard analysis summary: QIAS-P" in lines[0]


def test_summary_formats_differ(qiasp_result):
    md = render_summary(qiasp_result, "md")
    txt = render_summary(qiasp_result, "txt")
    assert "## Model" in md
    assert "## Model" not in txt
    assert "Model\n-----" in txt
    assert render_summary(qiasp_result, "md") == md


def test_summary_counts_sections(qiasp_result):
    md = render_summary(qiasp_result, "md")
    assert "Candidates in division A: 77" in md
    assert "Candidates in division B: 77" in md
    assert "Applicable in division A: 28" in md
    assert "Hardware stochastic basic events: 41" in md
    assert "Dependency failure branches: 33" in md
    assert "Software design branches: 26" in md


def test_summary_truncation_note(qiasp_result):
    tree = qiasp_result.injected_tree
    collection = minimal_cut_sets(tree, max_order=1)
    result = replace(
        qiasp_result,
        collection=collection,
        first_order=first_order_cut_sets(collection, tree),
    )
    text = render_summary(result, "txt")
    assert "Minimal cut sets: 44 (truncated at order 1)" in text


def test_summary_rejects_unknown_format(qiasp_result):
    with pytest.raises(ModelError, match="unknown summary format"):
        render_summary(qiasp_result, "html")


def test_export_import_round_trip(qiasp_result):
    tree = qiasp_result.injected_tree
    text = export_ft(tree)
    rebuilt = import_ft(text)
    assert list(rebuilt.nodes) == list(tree.nodes)
    assert plain(rebuilt.nodes) == plain(tree.nodes)
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
    for text, message in (
        ("[]", "expected schema 'resha/1', got None"),
        ('{"schema": "resha/1", "model": 1}', "needs a string 'model'"),
        ('{"schema": "resha/1", "nodes": {}}', "a list 'nodes'"),
        ('{"schema": "resha/1", "nodes": ["top"]}', "node 'top' is not an object"),
        (
            '{"schema": "resha/1", "nodes": [{"id": "g", "kind": "gate", "op": "xor"}]}',
            "node 'g': 'xor' is not a valid GateOp",
        ),
        (
            '{"schema": "resha/1", "nodes": [{"id": "e", "kind": "event"}]}',
            "node 'e': None is not a valid EventCategory",
        ),
        (
            '{"schema": "resha/1", "nodes": [{"id": "e", "kind": "event", '
            '"category": "sw_uca", "software": "no"}]}',
            "node 'e': its id, label, failure_for, dependency_for, placeholder_for and children "
            "must be strings, and its software flag true or false",
        ),
        (
            '{"schema": "resha/1", "nodes": [{"id": "e", "kind": "event", "category": "ccf", '
            '"children": ["top"], "failure_for": "x"}]}',
            "event node 'e' has 'children', 'failure_for', which only the other kind of node carries",
        ),
        (
            '{"schema": "resha/1", "nodes": [{"id": "e", "kind": "event", "category": "ccf", "op": "or"}]}',
            "event node 'e' has 'op', which only the other kind of node carries",
        ),
        (
            '{"schema": "resha/1", "nodes": [{"id": "e", "kind": "event", "category": "ccf", '
            '"dependency_for": "x", "placeholder_for": "x"}]}',
            "event node 'e' has 'dependency_for', 'placeholder_for', which only the other kind of node carries",
        ),
        (
            '{"schema": "resha/1", "nodes": [{"id": "g", "kind": "gate", "op": "or", '
            '"category": "ccf", "software": false}]}',
            "gate node 'g' has 'category', 'software', which only the other kind of node carries",
        ),
        (
            '{"schema": "resha/1", "options": {"include_hw_design": "false"}, "nodes": []}',
            "option 'include_hw_design' is not true or false: 'false'",
        ),
        *(
            (
                f'{{"schema": "resha/1", "options": {options}, "nodes": []}}',
                "needs a string 'model' and 'root', an object 'options' and a list 'nodes'",
            )
            for options in ("[]", "false", "0", '""', "null")
        ),
    ):
        with pytest.raises(ModelError, match=re.escape(message)):
            import_ft(text)


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


# Characters that JSON escapes or csv quotes: non-ASCII (one outside the
# Basic Multilingual Plane), quotes, backslash, control characters and
# separators.
TEXT = st.text(alphabet='aZ0_-:.é漢\U0001F600\u2028"\\\x00\x01\x1f\x7f\t\b\f ,;\r\n', max_size=6)


@st.composite
def trees(draw) -> FaultTree:
    """Gates and events with arbitrary strings; gates may be empty and
    children may dangle, since rendering checks no structure."""
    tree = FaultTree(draw(TEXT), draw(TEXT), include_hw_design=draw(st.booleans()))
    for node_id in draw(st.lists(TEXT, unique=True, max_size=8)):
        if draw(st.booleans()):
            op, children = draw(st.sampled_from(GateOp)), draw(st.lists(TEXT, max_size=3))
            markers = [draw(st.none() | TEXT) for _ in range(3)]
            tree.add(Gate(node_id, op, children, draw(TEXT), *markers))
        else:
            category = draw(st.sampled_from(EventCategory))
            tree.add(BasicEvent(node_id, category, draw(TEXT), draw(st.booleans())))
    return tree


@st.composite
def collections(draw) -> tuple[CutSetCollection, FaultTree]:
    """A tree and cut sets over its nodes' ids and ids absent from it."""
    tree = draw(trees())
    ids = st.sampled_from(sorted(tree.nodes)) | TEXT if tree.nodes else TEXT
    events = draw(st.lists(ids, unique=True, min_size=1, max_size=6))
    drawn = draw(st.frozensets(st.integers(1, 2 ** len(events) - 1), max_size=6))
    # A family is minimal: keep the drawn sets that contain no other one.
    cuts = {cut for cut in drawn if not any(other != cut and other & cut == other for other in drawn)}
    singles = sum(cut for cut in cuts if cut.bit_count() == 1)
    return CutSetCollection(events, (singles, {cut for cut in cuts if cut.bit_count() > 1}, ())), tree


def fixed_tree() -> FaultTree:
    """An empty-children placeholder gate with every marker set, events
    with and without labels, and hardware design events included."""
    tree = FaultTree("m", "top", include_hw_design=True)
    tree.add(Gate("top", GateOp.AND, ["ph", "e"], "top gate", "c", "c", None))
    tree.add(Gate("ph", GateOp.OR, [], "", "p", "q", "r"))
    tree.add(BasicEvent("e", EventCategory.SW_UIF, "", software=True))
    tree.add(BasicEvent("h", EventCategory.HW_DESIGN, "design"))
    return tree


@settings(max_examples=150, deadline=None)
@given(trees())
def test_export_ft_matches_json_dumps(tree):
    assert export_ft(tree) == reference_export_ft(tree)


@pytest.mark.parametrize("tree", [FaultTree("", ""), fixed_tree()], ids=["no-nodes", "markers"])
def test_export_ft_matches_json_dumps_on_fixed_trees(tree):
    assert export_ft(tree) == reference_export_ft(tree)


def test_import_reads_true_flags():
    tree = fixed_tree()
    rebuilt = import_ft(export_ft(tree))
    assert rebuilt.include_hw_design is True and rebuilt.nodes["e"].software is True
    assert export_ft(rebuilt) == export_ft(tree)


def test_artifacts_match_their_references(qiasp_result):
    tree, collection = qiasp_result.injected_tree, qiasp_result.collection
    assert export_ft(tree) == reference_export_ft(tree)
    assert cutsets_csv(collection, tree) == reference_cutsets_csv(collection, tree)


def csv_outcome(render, collection: CutSetCollection, tree: FaultTree) -> str:
    """The rendered text, or the csv module's refusal: Python 3.10 writes no NUL."""
    try:
        return render(collection, tree)
    except csv.Error as exc:
        return f"csv.Error: {exc}"


@settings(max_examples=150, deadline=None)
@given(collections())
def test_cutsets_csv_matches_csv_writer(drawn):
    collection, tree = drawn
    assert csv_outcome(cutsets_csv, collection, tree) == csv_outcome(reference_cutsets_csv, collection, tree)


@pytest.mark.parametrize(
    "char", [",", '"', "\r", "\n", "\x00"], ids=["comma", "quote", "cr", "lf", "nul"]
)
def test_cutsets_csv_quotes_as_csv_writer_does(char):
    tree = fixed_tree()
    collection = CutSetCollection(["e", "h", f"a{char}b", "z"], (0b1000, {0b0110, 0b0101, 0b0011}, ()))
    # How csv.writer treats a lone "\r" or a NUL depends on the Python
    # version, so its output on this one is the reference.
    assert csv_outcome(cutsets_csv, collection, tree) == csv_outcome(reference_cutsets_csv, collection, tree)


def csv_writer_text(rows: list[tuple[str, ...]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def writer_outcome(render, rows: list[tuple[str, ...]]) -> str:
    """The rendered rows, or the csv module's refusal."""
    try:
        return render(rows)
    except csv.Error as exc:
        return f"csv.Error: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(TEXT, min_size=2, max_size=9).map(tuple), max_size=6))
def test_csv_table_matches_csv_writer(rows):
    # TEXT holds the csv module's special characters, ";", spaces and empty
    # fields, so both the joined text and csv.writer's rendering are drawn.
    assert writer_outcome(csv_table, rows) == writer_outcome(csv_writer_text, rows)


def _marked(rows: list[list[str]]) -> list[list[str]]:
    """The rows with a comma and a double quote added to the first row's id."""
    return [rows[0], [f'{rows[1][0]},x"y', *rows[1][1:]], *rows[2:]]


def test_ccf_csv_quotes_a_group_id_as_csv_writer_does(qiasp_result):
    groups = qiasp_result.groups[:3]
    rows = list(csv.reader(io.StringIO(ccf_csv(groups))))
    marked = [replace(groups[0], id=f'{groups[0].id},x"y'), *groups[1:]]
    text = ccf_csv(marked)
    assert text == csv_writer_text(_marked(rows))
    assert f'\n"{groups[0].id},x""y",2,' in text


def test_traceability_csv_quotes_an_instance_id_as_csv_writer_does(qiasp_result):
    instances, model = qiasp_result.instances[:3], qiasp_result.expanded
    rows = list(csv.reader(io.StringIO(traceability_csv(instances, model))))
    marked = [replace(instances[0], id=f'{instances[0].id},x"y'), *instances[1:]]
    assert traceability_csv(marked, model) == csv_writer_text(_marked(rows))


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", 3),
        ("label", 7),
        ("children", ["a", 1]),
        ("children", "ab"),
        ("failure_for", None),
        ("dependency_for", 2.5),
        ("placeholder_for", ["c"]),
    ],
)
def test_import_rejects_non_string_fields(field, value):
    doc = {
        "schema": "resha/1",
        "root": "top",
        "nodes": [
            {"id": "top", "kind": "gate", "op": "or", "children": ["a"]},
            {"id": "a", "kind": "event", "category": "hw_stochastic"},
        ],
    }
    doc["nodes"][0][field] = value
    with pytest.raises(ModelError, match=f"node {doc['nodes'][0]['id']!r}: its id, label,"):
        import_ft(json.dumps(doc))

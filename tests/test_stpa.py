"""Control structure and unsafe-interaction enumeration."""

from __future__ import annotations

import csv
from collections import Counter

from conftest import MINI_MODEL, instances_by_division
from resha.dsl import parse_model
from resha.model import (
    REPLICA_SEP,
    STPA_CATEGORY_NAMES,
    ModelIndex,
    expand_replication,
)
from resha.stpa import (
    apply_applicability,
    enumerate_candidates,
    extract_control_structure,
)
from resha.report import traceability_csv


def test_structure_edge_split(qiasp_result):
    links = qiasp_result.structure.links
    control = [link for link in links if link.kind == "control_action"]
    assert Counter(link.kind for link in links) == {
        "control_action": 2,
        "information_flow": 20,
    }
    assert {link.id for link in control} == {
        "heater_power",
        "heater_power__B",
    }
    # Control actions first, each kind in declaration order.
    assert links[:2] == control
    assert links[2:] == [link for link in qiasp_result.expanded.links() if link not in control]
    assert len(links) == 22


def test_structure_without_links_keeps_operator():
    text = (
        'system "s"\ntop_event "t"\n'
        'design_class DC-O "crew"\n'
        "division D {\n"
        "  component op kind: operator tech: human class: DC-O\n"
        "}\n"
    )
    structure = extract_control_structure(parse_model(text))
    assert structure.links == []
    assert structure.division_of == {"op": "D"}


def test_candidates_seven_per_link(qiasp_result):
    candidates = qiasp_result.candidates
    structure = qiasp_result.structure
    assert len(candidates) == 7 * len(structure.links)
    per_division: dict[str, int] = {}
    for candidate in candidates:
        per_division[candidate.division] = per_division.get(candidate.division, 0) + 1
        assert candidate.hazards == []
    assert per_division == {"A": 77, "B": 77}
    assert len({c.id for c in candidates}) == len(candidates)


def test_candidate_flavors_follow_link_kind(qiasp_result):
    flavors = {c.link: c.flavor for c in qiasp_result.candidates}
    assert flavors["heater_power"] == "uca"
    assert flavors["hjtc_level"] == "uif"
    assert flavors["icc_alert__B"] == "uif"


def test_applicability_counts_per_division(qiasp_result):
    model = qiasp_result.expanded
    by_division = instances_by_division(qiasp_result.instances)
    assert set(by_division) == {"A", "B"}
    idx = ModelIndex(model)
    for division, instances in by_division.items():
        assert len(instances) == 28, division
        kinds = Counter(idx.components[i.owner].kind for i in instances)
        assert kinds["controller"] == 3
        assert kinds["calculator"] == 15
        assert kinds["alarm"] == 10


def test_instances_sorted_and_typed(qiasp_result):
    instances = qiasp_result.instances
    keys = [(i.division, i.owner, i.type, i.id) for i in instances]
    assert keys == sorted(keys)
    controller = [i for i in instances if i.owner == "hjtc_power_controller"]
    assert [i.type for i in controller] == ["A", "F", "G"]
    assert all(i.flavor == "uca" for i in controller)
    alarm = [i for i in instances if i.owner == "icc_alarm"]
    assert [i.type for i in alarm] == ["A", "B"]


def test_stpa_category_mapping(qiasp_result):
    by_letter = {i.type: STPA_CATEGORY_NAMES[i.type] for i in qiasp_result.instances}
    assert by_letter["A"] == "missing_when_needed"
    assert by_letter["B"] == "provided_when_not_needed"
    assert by_letter["F"] == "wrong_duration_or_magnitude"
    assert by_letter["G"] == "wrong_duration_or_magnitude"


def test_divisions_match_type_for_type(qiasp_result):
    by_division = instances_by_division(qiasp_result.instances)

    def signature(instances):
        # Strip the replica suffix: heater_power__B -> heater_power.
        return sorted(
            (i.link.removesuffix(REPLICA_SEP + i.division), i.type) for i in instances
        )

    assert signature(by_division["A"]) == signature(by_division["B"])


def test_losses_for_controller_instance(qiasp_result):
    instance = next(
        i
        for i in qiasp_result.instances
        if i.owner == "hjtc_power_controller" and i.type == "A"
    )
    assert instance.hazards == ["H-2", "H-4"]
    (row,) = traceability_table([instance], qiasp_result.expanded)
    assert row["losses"] == "L-1;L-2;L-5"


def traceability_table(instances, model) -> list[dict[str, str]]:
    """The rows of ``traceability.csv``, read back by column name."""
    return list(csv.DictReader(traceability_csv(instances, model).splitlines()))


def test_traceability_rows(qiasp_result):
    rows = traceability_table(qiasp_result.instances, qiasp_result.expanded)
    assert len(rows) == 56
    columns = [
        "instance",
        "flavor",
        "type",
        "stpa_category",
        "owner",
        "link",
        "division",
        "hazards",
        "losses",
    ]
    assert all(list(row) == columns for row in rows)
    first = next(r for r in rows if r["instance"] == "heater_power:A:A")
    assert first["flavor"] == "uca"
    assert first["owner"] == "hjtc_power_controller"
    assert first["hazards"] == "H-2;H-4"
    assert first["losses"] == "L-1;L-2;L-5"


def test_describe_names_link_and_mode(qiasp_result):
    instance = next(i for i in qiasp_result.instances if i.id == "heater_power:A:A")
    text = instance.describe()
    assert "control action" in text
    assert "heater_power" in text
    assert "missing" in text


def test_mini_expansion_changes_nothing_for_stpa():
    model = parse_model(MINI_MODEL)
    expanded = expand_replication(model)
    a = apply_applicability(enumerate_candidates(extract_control_structure(model)), model)
    b = apply_applicability(
        enumerate_candidates(extract_control_structure(expanded)), expanded
    )
    assert [i.id for i in a] == [i.id for i in b] == ["drive:A:MAIN", "drive:F:MAIN"]

"""Golden record loading, metric computation, and verification."""

from __future__ import annotations

import json
import re

import pytest

from resha.golden import (
    GOLDEN_SCHEMA,
    compute_metrics,
    load_golden,
    verify_golden,
)
from resha.model import ModelError


def test_load_bundled_record(golden_path):
    values = load_golden(golden_path)
    assert json.loads(golden_path.read_text(encoding="utf-8"))["model"] == "QIAS-P"
    assert len(values) == 26
    assert values["census.hw_stochastic"] == 41
    assert values["ccf.type4"] == 28


def test_bundled_record_verifies(qiasp_result, golden_path):
    report = verify_golden(qiasp_result, load_golden(golden_path))
    assert report.ok, "\n".join(map(str, report.fields))
    assert len(report.fields) == 26
    assert report.mismatches() == []
    assert "[OK]" in str(report.fields[0])


def test_tampered_value_is_named(qiasp_result, golden_path):
    values = load_golden(golden_path)
    values["census.hw_stochastic"] = 42
    report = verify_golden(qiasp_result, values)
    assert not report.ok
    names = [f.name for f in report.mismatches()]
    assert names == ["census.hw_stochastic"]
    line = str(report.mismatches()[0])
    assert "expected 42" in line
    assert "got 41" in line
    assert "MISMATCH" in line


def test_unknown_field_compares_to_none(qiasp_result):
    report = verify_golden(qiasp_result, {"no.such.metric": 7})
    assert not report.ok
    assert report.fields[0].actual is None


def test_compute_metrics_spot_checks(qiasp_result):
    metrics = compute_metrics(qiasp_result)
    assert metrics["stpa.candidates.A"] == 77
    assert metrics["stpa.candidates.B"] == 77
    assert metrics["stpa.A.uca"] == 3
    assert metrics["stpa.A.uif_calculator"] == 15
    assert metrics["stpa.B.uif_alarm"] == 10
    assert metrics["stpa.B.uif_other"] == 0
    assert metrics["ccf.groups"] == 43
    assert metrics["ccf.type4.controller_classes"] == 3
    assert metrics["ccf.type4.calculator_classes"] == 15
    assert metrics["ccf.type4.alarm_classes"] == 10
    assert metrics["cutsets.first_order.software"] == 43
    assert metrics["cutsets.first_order.hardware"] == 1
    assert metrics["cutsets.first_order.division_triggers"] == [
        "cet_calculator",
        "hjtc_calculator",
        "hjtc_power_controller",
        "rcsm_calculator",
        "rvl_calculator",
    ]


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError, match="not valid JSON"):
        load_golden(path)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": "other/1", "values": {}}), encoding="utf-8")
    with pytest.raises(ModelError, match=GOLDEN_SCHEMA):
        load_golden(path)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "expected schema 'resha-golden/1', got None"),
        ("golden", "expected schema 'resha-golden/1', got None"),
        ({"schema": GOLDEN_SCHEMA, "values": [1]}, "needs an object 'values', got [1]"),
    ],
    ids=["list", "string", "values-list"],
)
def test_load_rejects_a_document_that_is_not_an_object(tmp_path, doc, message):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError, match=re.escape(message)):
        load_golden(path)


def test_load_accepts_bare_values(tmp_path):
    path = tmp_path / "bare.json"
    doc = {"schema": GOLDEN_SCHEMA, "model": "m", "values": {"census.hw_design": 0}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_golden(path) == {"census.hw_design": 0}

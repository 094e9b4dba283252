"""The analysis chain that ``AnalysisResult``'s fields declare is well formed,
so a slip in a stage declaration fails here rather than inside ``run_stages``;
and a run leaves no garbage that only the cyclic collector could free."""

from __future__ import annotations

import gc
import inspect
from dataclasses import fields
from importlib import import_module

import pytest

from conftest import scaled_qiasp
from resha.pipeline import STAGES, AnalysisResult, PipelineOptions, analyze_text, write_artifacts

# The fields the caller gives, or that ``analyze_model`` fills in itself.
GIVEN = ("model", "validation", "options")


def test_every_other_result_field_is_a_stage():
    assert [f.name for f in fields(AnalysisResult) if f.name not in GIVEN] == list(STAGES)


def test_each_stage_input_is_given_or_an_earlier_stage():
    available = {"model", *(f.name for f in fields(PipelineOptions))}
    unknown = []
    for name, (_, inputs) in STAGES.items():
        unknown.extend(f"{name}: {i}" for i in inputs if i not in available)
        available.add(name)
    assert unknown == []


def test_each_stage_function_resolves_and_takes_its_inputs():
    for qualified, inputs in STAGES.values():
        module, function = qualified.split(".")
        stage = getattr(import_module(f"resha.{module}"), function)
        inspect.signature(stage).bind(*inputs)


@pytest.mark.parametrize("divisions,max_order", [(2, None), (3, 2)])
def test_analysis_leaves_no_cyclic_garbage(qiasp_text, tmp_path, divisions, max_order):
    """Whatever a run builds is freed by reference counting alone."""
    text = qiasp_text if divisions == 2 else scaled_qiasp(qiasp_text, divisions)
    gc.collect()
    gc.disable()
    try:
        result = analyze_text(text, "qiasp.resha", PipelineOptions(max_order=max_order))
        write_artifacts(result, tmp_path)
        assert gc.collect() == 0
    finally:
        gc.enable()

"""The analysis chain that ``STAGES`` declares is well formed, and
``AnalysisResult`` takes each of its values, so a slip in a stage
declaration fails here rather than inside ``run_stages``;
a run leaves no garbage that only the cyclic collector could free, which is
what lets it run with the collector paused; and the README's library
example prints what its comments say."""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import re
from importlib import import_module
from pathlib import Path

import pytest

from resha.dsl import ParseError
from resha.pipeline import (
    STAGES,
    AnalysisResult,
    PipelineOptions,
    ValidationFailed,
    analyze_text,
    write_artifacts,
)
from test_artifacts import CASES, DIGESTS, _case_text, sha256

README = Path(__file__).resolve().parents[1] / "README.md"

# The fields the caller gives, or that ``analyze_model`` fills in itself.
GIVEN = ("model", "validation", "options")


def test_every_other_result_field_is_a_stage():
    parameters = inspect.signature(AnalysisResult).parameters
    assert [name for name in parameters if name not in GIVEN] == list(STAGES)


def test_each_stage_input_is_given_or_an_earlier_stage():
    available = {"model", *PipelineOptions._fields}
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


@pytest.mark.parametrize("case", CASES)
def test_analysis_leaves_no_cyclic_garbage(case, qiasp_text, tmp_path):
    """Whatever a run builds is freed by reference counting alone, on every
    pinned case, the benchmark's three in-process workloads among them."""
    text = _case_text(case, qiasp_text)
    gc.collect()
    gc.disable()
    try:
        result = analyze_text(text, "model.resha", CASES[case][1])
        write_artifacts(result, tmp_path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_collector_pass_starts_during_an_analysis(qiasp_text, tmp_path):
    text = _case_text("div8-order1", qiasp_text)
    options = CASES["div8-order1"][1]
    passes: list[int] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    # A pass between the two calls would fall outside the pause, so nothing
    # is allocated there, and the collector's counts start from zero.
    gc.collect()
    gc.callbacks.append(count)
    try:
        result = analyze_text(text, "model.resha", options)
        write_artifacts(result, tmp_path)
    finally:
        gc.callbacks.remove(count)
    assert passes == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_each_call_leaves_the_collector_as_it_found_it(qiasp_text, tmp_path, enabled):
    invalid = qiasp_text.replace(
        "    inputs: display_interface, display_interface__B\n",
        "    inputs: display_interface, display_interface__B, control_room_operator\n",
    )
    assert invalid != qiasp_text
    if not enabled:
        gc.disable()
    try:
        result = analyze_text(qiasp_text, "qiasp.resha")
        assert gc.isenabled() is enabled
        write_artifacts(result, tmp_path)
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            analyze_text('system "s"\nloss L-1 "open', "bad.resha")
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationFailed):
            analyze_text(invalid, "qiasp.resha")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_readme_library_example_prints_what_it_says():
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    stated = [
        "BranchCensus(hw_stochastic=41, hw_design=0, dependency=33, sw_design=26)",
        "43",
        "{1: 44, 2: 2304}",
    ]
    assert all(f"# {value}" in block for value in stated)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().split("\n", len(stated))
    assert lines[: len(stated)] == stated
    # The last print is the bundled model's summary.txt, and its newline.
    assert sha256(lines[-1].removesuffix("\n").encode()) == DIGESTS["bundled"]["summary.txt"]

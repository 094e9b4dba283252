"""Stage cost grows near-linearly with model size.

Each guard times the stages up to its goals on a generated model of size n
and of size 8n: CPU time with the cyclic collector held off, best of three,
the two sizes taking turns.  Linear work grows about 8x and quadratic work
about 64x, so the bound of 24x sits far from both and tolerates a noisy
host.  The models are parsed before timing; each timed run starts from the
authored model, so it builds its own expanded model and index.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable

from conftest import scaled_qiasp
from resha.dsl import parse_model
from resha.model import ModelIndex
from resha.pipeline import STAGES, run_stages

GROWTH_BOUND = 24.0

_HEADER = (
    'system "scale"\ntop_event "operator misled"\n'
    'loss L-1 "loss"\nhazard H-1 "hazard" losses: L-1\n'
    'design_class DC-C "calculator"\ndesign_class DC-S "probe"\ndesign_class DC-O "crew"\n'
)


def digital_chain_text(length: int) -> str:
    """Digital calculators c0 .. c<length-1> of one design class, each with
    an applicable information flow to the next; the last one informs the
    operator."""
    components = [
        f"  component c{i} kind: calculator tech: digital class: DC-C {{\n"
        f"    info_flow f{i} -> {f'c{i + 1}' if i + 1 < length else 'op'} {{\n"
        "      applicable: A hazards: H-1\n    }\n  }"
        for i in range(length)
    ]
    components.append("  component op kind: operator tech: human class: DC-O")
    return _HEADER + "division MAIN {\n" + "\n".join(components) + "\n}\n"


def fan_in_text(width: int) -> str:
    """Analog sensors s0 .. s<width-1>, all read directly by the operator."""
    components = [f"  component s{i} kind: sensor tech: analog class: DC-S" for i in range(width)]
    inputs = ", ".join(f"s{i}" for i in range(width))
    components.append(
        f"  component op kind: operator tech: human class: DC-O {{\n    inputs: {inputs}\n  }}"
    )
    return _HEADER + "division MAIN {\n" + "\n".join(components) + "\n}\n"


def sensor_pairs_text(pairs: int) -> str:
    """Analog sensor pairs s<i>a, s<i>b, each pair a module-level
    all_must_fail redundancy group p<i>, all read directly by the operator."""
    components = [
        f"  component s{i}{side} kind: sensor tech: analog class: DC-S"
        for i in range(pairs)
        for side in "ab"
    ]
    inputs = ", ".join(f"s{i}a, s{i}b" for i in range(pairs))
    components.append(
        f"  component op kind: operator tech: human class: DC-O {{\n    inputs: {inputs}\n  }}"
    )
    groups = "".join(
        f"redundancy_group p{i} level: module logic: all_must_fail members: s{i}a, s{i}b\n"
        for i in range(pairs)
    )
    return _HEADER + "division MAIN {\n" + "\n".join(components) + "\n}\n" + groups


def _cpu_seconds(function: Callable[..., object], *args: object) -> float:
    """CPU time of one call, with the cyclic collector held off."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        function(*args)
        return time.process_time() - start
    finally:
        gc.enable()


def _growth(text_for: Callable[[int], str], size: int, *goals: str, **options: object) -> float:
    """CPU time of the stages up to ``goals`` at 8 * size over that at size;
    ``options`` are the PipelineOptions values the stages read."""
    models = [parse_model(text_for(n)) for n in (size, 8 * size)]
    best = [float("inf"), float("inf")]
    for _ in range(3):
        for i, model in enumerate(models):
            values = {"model": model, **options}
            best[i] = min(best[i], _cpu_seconds(run_stages, values, *goals))
    return best[1] / best[0]


def test_digital_chain_detection_grows_linearly():
    # Type 2 asks whether each of the 2000 owners feeds two digital
    # components; a full downstream walk per owner made this quadratic.
    model = parse_model(digital_chain_text(4))
    groups = run_stages({"model": model}, "groups")["groups"]
    assert [g.id for g in groups if g.type == 2] == ["T2:c0:A"]
    assert _growth(digital_chain_text, 250, "groups") < GROWTH_BOUND


def test_wide_fan_in_validation_grows_linearly():
    # Deduplicating the operator's 8000 inputs by a list scan was quadratic.
    idx = ModelIndex(run_stages({"model": parse_model(fan_in_text(3))}, "expanded")["expanded"])
    assert list(idx.dependency_sources(idx.components["op"])) == ["s0", "s1", "s2"]
    assert _growth(fan_in_text, 1000, "expanded") < GROWTH_BOUND


def test_module_pair_synthesis_grows_linearly():
    # The root gate groups the operator's 16000 sources into 8000 pairs;
    # trying every group at every gate, and filtering the sources left after
    # each match, was quadratic.
    model = parse_model(sensor_pairs_text(2))
    tree = run_stages({"model": model, "include_hw_design": False}, "hardware_tree")["hardware_tree"]
    assert tree.nodes["top"].children == ["top:p0", "top:p1"]
    assert tree.nodes["top:p1"].children == ["fail:s1a", "fail:s1b"]
    assert _growth(sensor_pairs_text, 250, "hardware_tree", include_hw_design=False) < GROWTH_BOUND


def test_replicated_divisions_grow_linearly(qiasp_text):
    # Every replica copies division A, and every link yields seven
    # candidates; 3 against 24 divisions, through every stage at order 1.
    divisions = parse_model(scaled_qiasp(qiasp_text, 24)).divisions
    assert sum(d.replicates == "A" for d in divisions) == 23
    growth = _growth(
        lambda n: scaled_qiasp(qiasp_text, n), 3, *STAGES, include_hw_design=False, max_order=1
    )
    assert growth < GROWTH_BOUND

"""Per-object values are built by their constructors, field for field.

``expand_replication`` and ``apply_applicability`` build each replica and
each kept instance with its class's constructor (see the ``resha.model``
docstring).  The references below are the same two steps written with
``dataclasses.replace``, which carries every field, those that ``==``
ignores (``span``, ``replicated_from``) included.  The comparison walks
every dataclass field, so a constructor that drops or swaps one fails here
even where ``==`` would pass.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_analyzable_model, scaled_qiasp, serialize_model
from resha.dsl import parse_model
from resha.model import REPLICA_SEP, FailureModeType, LinkKind, SystemModel, expand_replication
from resha.pipeline import PipelineOptions, analyze_text, write_artifacts
from resha.stpa import (
    ControlStructure,
    Flavor,
    UcaUifInstance,
    apply_applicability,
    enumerate_candidates,
    extract_control_structure,
)


def reference_expand_replication(model: SystemModel) -> SystemModel:
    """``expand_replication`` as written with ``dataclasses.replace``."""
    by_id = {d.id: d for d in model.divisions}
    divisions = []
    for division in model.divisions:
        source_id = division.replicates
        if source_id is None:
            divisions.append(division)
            continue
        source = by_id[source_id]
        local_ids = {c.id for c in source.components}
        suffix = REPLICA_SEP + division.id

        def rename(identifier: str) -> str:
            return identifier + suffix if identifier in local_ids else identifier

        def rename_ref(ref):
            if ref.component not in local_ids:
                return ref
            port = None if ref.port is None else ref.port + suffix
            return replace(ref, component=ref.component + suffix, port=port)

        components = []
        for component in source.components:
            clone_id = component.id + suffix
            links = [
                replace(
                    link, id=link.id + suffix, source=clone_id, targets=[rename(t) for t in link.targets]
                )
                for link in component.links
            ]
            components.append(
                replace(
                    component,
                    id=clone_id,
                    inputs=[rename_ref(ref) for ref in component.inputs],
                    feedback_inputs=[rename_ref(ref) for ref in component.feedback_inputs],
                    links=links,
                )
            )
        divisions.append(
            replace(division, components=components, replicates=None, replicated_from=source_id)
        )
    return replace(model, divisions=divisions)


def reference_enumerate_candidates(structure: ControlStructure) -> list[UcaUifInstance]:
    """``enumerate_candidates`` as written with the ``letter`` property."""
    candidates = []
    for link in structure.links:
        flavor = Flavor.UCA if link.kind is LinkKind.CONTROL_ACTION else Flavor.UIF
        division = structure.division_of[link.source]
        for type_ in FailureModeType:
            candidates.append(
                UcaUifInstance(
                    id=f"{link.id}:{type_.letter}:{division}",
                    flavor=flavor,
                    type=type_,
                    owner=link.source,
                    link=link.id,
                    division=division,
                )
            )
    return candidates


def reference_apply_applicability(
    candidates: list[UcaUifInstance], model: SystemModel
) -> list[UcaUifInstance]:
    """``apply_applicability`` as written with ``dataclasses.replace``."""
    declared = {}
    for link in model.links():
        for app in link.applicability:
            declared[(link.id, app.type.letter)] = list(app.hazards)
    kept = []
    for candidate in candidates:
        hazards = declared.get((candidate.link, candidate.type.letter))
        if hazards is not None:
            kept.append(replace(candidate, hazards=hazards))
    kept.sort(key=lambda i: (i.division, i.owner, i.type.letter, i.id))
    return kept


def every_field(value: object) -> object:
    """A value's type and, for a dataclass, every field by name, recursively;
    fields that ``==`` ignores are included."""
    if dataclasses.is_dataclass(value):
        return (
            type(value),
            [(f.name, every_field(getattr(value, f.name))) for f in dataclasses.fields(value)],
        )
    if isinstance(value, list):
        return [every_field(item) for item in value]
    return (type(value), value)


def assert_matches_reference(model: SystemModel) -> None:
    expanded = expand_replication(model)
    reference = reference_expand_replication(model)
    assert every_field(expanded) == every_field(reference)
    # What replace shares stays shared: authored divisions, refs that are
    # not renamed, and every link's applicability list.
    authored = {id(ref) for c in model.components() for ref in c.inputs + c.feedback_inputs}
    for ours, theirs in zip(expanded.divisions, reference.divisions):
        assert (ours is theirs) == (theirs.replicated_from is None)
        for mine, other in zip(ours.components, theirs.components):
            for a, b in zip(mine.inputs + mine.feedback_inputs, other.inputs + other.feedback_inputs):
                assert (a is b) == (id(b) in authored)
            for a, b in zip(mine.links, other.links):
                assert a.applicability is b.applicability

    structure = extract_control_structure(expanded)
    candidates = enumerate_candidates(structure)
    reference_candidates = reference_enumerate_candidates(structure)
    assert every_field(candidates) == every_field(reference_candidates)
    instances = apply_applicability(candidates, expanded)
    reference_kept = reference_apply_applicability(reference_candidates, expanded)
    assert instances and every_field(instances) == every_field(reference_kept)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_constructors_match_replace_on_random_models(seed):
    model = random_analyzable_model(random.Random(seed))
    assert_matches_reference(model)
    # Parsed from text, the same model carries a span on every declaration.
    assert_matches_reference(parse_model(serialize_model(model), "random.resha"))


def test_constructors_match_replace_on_eight_divisions(qiasp_text):
    model = parse_model(scaled_qiasp(qiasp_text, 8), "div8.resha")
    assert_matches_reference(model)
    replicas = [d for d in expand_replication(model).divisions if d.replicated_from == "A"]
    assert len(replicas) == 7
    assert all(c.span is not None for d in replicas for c in d.components)


def _replace_calls(text: str, out_dir) -> int:
    """``dataclasses.replace`` calls in one ``analyze_text`` + ``write_artifacts``,
    counted through every ``resha`` module's ``replace`` binding."""
    original = dataclasses.replace
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataclasses, "replace", counting)
        bound = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("resha.") and getattr(module, "replace", None) is original
        ]
        assert bound, "no resha module binds dataclasses.replace"
        for module in bound:
            patch.setattr(module, "replace", counting)
        # Exact cut sets of 8 divisions are too many to write; order 1 suffices.
        write_artifacts(analyze_text(text, "spy.resha", PipelineOptions(max_order=1)), out_dir)
    return calls


def test_replace_calls_do_not_grow_with_divisions(qiasp_text, tmp_path):
    # Warm up, so every lazily imported stage module is loaded before patching.
    write_artifacts(analyze_text(qiasp_text, "warm.resha"), tmp_path / "warm")
    counts = [_replace_calls(scaled_qiasp(qiasp_text, n), tmp_path / str(n)) for n in (2, 8)]
    # The one call is expand_replication's final copy of the model.
    assert counts == [1, 1]

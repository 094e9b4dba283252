"""ModelIndex dependency lookups agree with their naive definitions.

``dependency_sources`` is the one place the index reads the links that
target a component and the component's feedback refs; the downstream
adjacency and the transitive digital dependents are built on it.  The naive
functions below scan the whole model on every call, the way the index once
did; the index answers from tables built once.  Both must agree on any
model, valid or not, including links that name a target twice.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_analyzable_model, random_model, scaled_qiasp
from resha.dsl import parse_model
from resha.model import (
    Component,
    Link,
    ModelIndex,
    SystemModel,
    Technology,
    expand_replication,
)


def naive_links_targeting(model: SystemModel, component_id: str) -> list[Link]:
    return [link for link in model.links() if component_id in link.targets]


def naive_is_feedback(consumer: Component, link: Link) -> bool:
    return any(
        ref.component == link.source and ref.port in (None, link.id)
        for ref in consumer.feedback_inputs
    )


def naive_dependency_sources(model: SystemModel, consumer: Component) -> list[str]:
    out: list[str] = []
    for ref in consumer.inputs:
        if ref.component not in out:
            out.append(ref.component)
    for link in naive_links_targeting(model, consumer.id):
        if naive_is_feedback(consumer, link):
            continue
        if link.source not in out:
            out.append(link.source)
    return out


def naive_downstream_adjacency(model: SystemModel) -> dict[str, list[str]]:
    down: dict[str, list[str]] = {c.id: [] for c in model.components()}
    for consumer in model.components():
        for source in naive_dependency_sources(model, consumer):
            if source in down and consumer.id not in down[source]:
                down[source].append(consumer.id)
    return down


def naive_transitive_digital_dependents(
    idx: ModelIndex, down: dict[str, list[str]], component_id: str
) -> list[str]:
    """Breadth-first walk over ``down``, the naive downstream adjacency."""
    division = idx.division_of.get(component_id)
    seen = {component_id}
    frontier = [component_id]
    collected: list[str] = []
    while frontier:
        current = frontier.pop(0)
        for nxt in down.get(current, []):
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
            comp = idx.components.get(nxt)
            if (
                comp is not None
                and comp.tech is Technology.DIGITAL
                and idx.division_of.get(nxt) == division
            ):
                collected.append(nxt)
    return sorted(collected)


def assert_index_matches_naive(model: SystemModel) -> None:
    idx = ModelIndex(model)
    targets = {t for link in model.links() for t in link.targets}
    ids = sorted({c.id for c in model.components()} | targets | {"no-such-component"})
    for component in model.components():
        assert idx.dependency_sources(component) == naive_dependency_sources(model, component)
    down = naive_downstream_adjacency(model)
    assert idx.downstream_adjacency() == down
    for component_id in ids:
        assert idx.transitive_digital_dependents(component_id) == (
            naive_transitive_digital_dependents(idx, down, component_id)
        )


def _rewire(model: SystemModel, rng: random.Random) -> SystemModel:
    """Add repeated and extra link targets, which may close cycles."""
    component_ids = [c.id for c in model.components()]
    for link in model.links():
        if link.targets and rng.random() < 0.5:
            link.targets.append(rng.choice(link.targets))
        if rng.random() < 0.3:
            extra = rng.choice(component_ids)
            link.targets.extend([extra, extra])
    return model


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_index_matches_naive_on_random_analyzable_models(seed):
    rng = random.Random(seed)
    model = expand_replication(random_analyzable_model(rng))
    assert_index_matches_naive(model)
    assert_index_matches_naive(_rewire(model, rng))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_index_matches_naive_on_unvalidated_models(seed):
    rng = random.Random(seed)
    assert_index_matches_naive(_rewire(random_model(rng), rng))


@pytest.mark.parametrize("divisions", [3, 8])
def test_index_matches_naive_on_scaled_qiasp(qiasp_text, divisions):
    model = expand_replication(parse_model(scaled_qiasp(qiasp_text, divisions)))
    assert len(model.divisions) == divisions + 1
    assert_index_matches_naive(model)


def test_link_naming_a_target_twice_is_listed_once():
    text = """\
system "twice"
top_event "t"
design_class DC "x"
division D {
  component ctrl kind: controller tech: digital class: DC {
    control_action go -> calc, calc, panel
  }
  component calc kind: calculator tech: digital class: DC {
    info_flow back -> ctrl, ctrl
    info_flow out -> panel, panel
  }
  component panel kind: display tech: digital class: DC {
    feedback: ctrl.go
  }
  component op kind: operator tech: human class: DC {
    inputs: panel
  }
}
"""
    model = parse_model(text)
    idx = ModelIndex(model)
    assert idx.dependency_sources(idx.components["calc"]) == ["ctrl"]
    assert idx.dependency_sources(idx.components["ctrl"]) == ["calc"]
    assert idx.dependency_sources(idx.components["panel"]) == ["calc"]
    assert idx.downstream_adjacency()["calc"] == ["ctrl", "panel"]
    assert idx.transitive_digital_dependents("ctrl") == ["calc", "panel"]
    assert_index_matches_naive(model)

"""ModelIndex dependency and group lookups agree with their naive
definitions, and one analysis builds one index.

``dependency_sources`` is the one place the index reads the links that
target a component and the component's feedback refs; the downstream
adjacency and the transitive digital dependents are built on it.  The naive
functions below scan the whole model on every call, the way the index once
did; the index answers from tables built once.  Both must agree on any
model, valid or not, including links that name a target twice and
components that reuse an id.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plain, random_analyzable_model, random_model, scaled_qiasp
from resha.dsl import parse_model
from resha.golden import compute_metrics
from resha.model import (
    COMPONENT_KINDS,
    GROUP_LOGICS,
    REDUNDANCY_LEVELS,
    TECHNOLOGIES,
    Component,
    Link,
    ModelIndex,
    RedundancyGroup,
    Ref,
    SystemModel,
    expand_replication,
    validate_model,
)
from resha.pipeline import analyze_text, write_artifacts


def naive_links_targeting(model: SystemModel, component_id: str) -> list[Link]:
    return [link for link in model.links() if component_id in link.targets]


def naive_is_feedback(consumer: Component, link: Link) -> bool:
    return any(
        ref.component == link.source and ref.port in (None, link.id)
        for ref in consumer.feedback_inputs
    )


def naive_dependency_sources(model: SystemModel, consumer: Component) -> tuple[str, ...]:
    out: list[str] = []
    for ref in consumer.inputs:
        if ref.component not in out:
            out.append(ref.component)
    for link in naive_links_targeting(model, consumer.id):
        if naive_is_feedback(consumer, link):
            continue
        if link.source not in out:
            out.append(link.source)
    return tuple(out)


def naive_downstream_adjacency(model: SystemModel) -> dict[str, tuple[str, ...]]:
    down: dict[str, tuple[str, ...]] = {c.id: () for c in model.components()}
    for consumer in model.components():
        for source in naive_dependency_sources(model, consumer):
            if source in down and consumer.id not in down[source]:
                down[source] += (consumer.id,)
    return down


def naive_transitive_digital_dependents(
    idx: ModelIndex, down: dict[str, tuple[str, ...]], component_id: str
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
                and comp.tech == "digital"
                and idx.division_of.get(nxt) == division
            ):
                collected.append(nxt)
    return sorted(collected)


def naive_bound_groups(
    model: SystemModel, source_ids: list[str]
) -> tuple[list[tuple[RedundancyGroup, list[str]]], list[str]]:
    """Scan every group in declared order: a division-level group lists a
    component whose first-listed division it names, any other group lists the
    ids it names.  A group takes the listed sources still loose and binds
    when they are two or more, a division-level group when they come from two
    or more divisions; then they are loose no more."""
    division_of: dict[str, str] = {}
    for division in model.divisions:
        for component in division.components:
            division_of.setdefault(component.id, division.id)
    bound: list[tuple[RedundancyGroup, list[str]]] = []
    loose = list(source_ids)
    for group in model.redundancy_groups:
        if group.level == "division":
            takes = [s for s in loose if s in division_of and division_of[s] in group.members]
            spread = {division_of[s] for s in takes}
        else:
            takes = [s for s in loose if s in group.members]
            spread = set(takes)
        if len(spread) >= 2:
            bound.append((group, takes))
            loose = [s for s in loose if s not in takes]
    return bound, loose


def assert_index_matches_naive(model: SystemModel) -> int:
    idx = ModelIndex(model)
    targets = {t for link in model.links() for t in link.targets}
    ids = sorted({c.id for c in model.components()} | targets | {"no-such-component"})
    for component in model.components():
        assert idx.dependency_sources(component) == naive_dependency_sources(model, component)
    down = naive_downstream_adjacency(model)
    assert idx.downstream == down
    for component_id in ids:
        walked = list(idx.digital_dependents(component_id))
        assert len(walked) == len(set(walked))
        assert sorted(walked) == naive_transitive_digital_dependents(idx, down, component_id)
    rng = random.Random(len(ids))
    pool = ids + [member for group in model.redundancy_groups for member in group.members]
    draws = [[source] for source in pool]
    draws += [[rng.choice(pool) for _ in range(rng.randint(0, 6))] for _ in range(20)]
    # Draws that hold every id two or more groups list, in a random order,
    # among random others, so that groups contend for a source.
    twice = [cid for cid, positions in idx.groups_of.items() if len(positions) >= 2]
    if twice:
        draws += [rng.sample(twice, len(twice)) + rng.sample(pool, min(4, len(pool))) for _ in range(5)]
    listed_twice = 0
    for sources in draws:
        sources = list(dict.fromkeys(sources))
        assert idx.bound_groups(sources) == naive_bound_groups(model, sources)
        listed_twice += any(len(idx.groups_of.get(s, ())) >= 2 for s in sources)
    return listed_twice


def _rewire(model: SystemModel, rng: random.Random) -> SystemModel:
    """Add repeated and extra link targets, which may close cycles, and
    redundancy groups of both levels that name components, divisions and
    unknown ids, some more than once, and some that an earlier group names."""
    component_ids = [c.id for c in model.components()]
    for link in model.links():
        if link.targets and rng.random() < 0.5:
            link.targets.append(rng.choice(link.targets))
        if rng.random() < 0.3:
            extra = rng.choice(component_ids)
            link.targets.extend([extra, extra])
    names = [*component_ids, *(d.id for d in model.divisions), "no-such-component"]
    for k in range(rng.randint(0, 3)):
        members = [rng.choice(names) for _ in range(rng.randint(1, 4))]
        if model.redundancy_groups and rng.random() < 0.5:
            # A member that an earlier group lists too.
            members.append(rng.choice(rng.choice(model.redundancy_groups).members))
        level = rng.choice(REDUNDANCY_LEVELS)
        model.redundancy_groups.append(
            RedundancyGroup(f"extra{k}", level, rng.choice(GROUP_LOGICS), members)
        )
    return model


def _reuse_ids(model: SystemModel, rng: random.Random) -> SystemModel:
    """Wire components to each other, then add later components that reuse
    earlier ids with wiring of their own."""
    components = list(model.components())
    if not components:
        components.append(Component("c0", "calculator", "digital", "DC-0"))
        model.divisions[0].components.append(components[0])
    ids = [c.id for c in components]
    for component in components:
        component.inputs.extend(Ref(rng.choice(ids)) for _ in range(rng.randint(0, 2)))
        if rng.random() < 0.3:
            component.feedback_inputs.append(Ref(rng.choice(ids)))
    for k, original in enumerate(rng.sample(components, rng.randint(1, len(components)))):
        twin = Component(
            original.id,
            rng.choice(COMPONENT_KINDS),
            rng.choice(TECHNOLOGIES),
            original.design_class,
            inputs=[Ref(rng.choice(ids)) for _ in range(rng.randint(0, 2))],
            feedback_inputs=[Ref(rng.choice(ids))] if rng.random() < 0.3 else [],
            links=[Link(f"twin{k}", "information_flow", original.id, [rng.choice(ids)])],
        )
        rng.choice(model.divisions).components.append(twin)
    return model


def _random_models(seed: int) -> list[SystemModel]:
    rng = random.Random(seed)
    return [
        _rewire(expand_replication(random_analyzable_model(rng)), rng),
        _rewire(_reuse_ids(random_model(rng), rng), rng),
    ]


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_index_matches_naive_with_reused_ids(seed):
    rng = random.Random(seed)
    model = _rewire(_reuse_ids(random_model(rng), rng), rng)
    components = list(model.components())
    assert len({c.id for c in components}) < len(components)
    assert_index_matches_naive(model)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_two_digital_dependents_agrees_with_the_full_walk(seed):
    for model in _random_models(seed):
        idx = ModelIndex(model)
        for component_id in [*idx.components, "no-such-component"]:
            first_two = list(islice(idx.digital_dependents(component_id), 2))
            assert (len(first_two) == 2) == (len(list(idx.digital_dependents(component_id))) >= 2)


def test_random_draws_hold_sources_that_two_groups_list():
    # The take rule decides only where two groups list one source.
    listed_twice = [assert_index_matches_naive(m) for seed in range(10) for m in _random_models(seed)]
    assert sum(count > 0 for count in listed_twice) >= 5


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
    assert idx.dependency_sources(idx.components["calc"]) == ("ctrl",)
    assert idx.dependency_sources(idx.components["ctrl"]) == ("calc",)
    assert idx.dependency_sources(idx.components["panel"]) == ("calc",)
    assert idx.downstream["calc"] == ("ctrl", "panel")
    assert sorted(idx.digital_dependents("ctrl")) == ["calc", "panel"]
    assert_index_matches_naive(model)


def _spy(monkeypatch, name: str) -> list:
    """Record the argument of every ``ModelIndex.<name>`` call, each of which takes one."""
    seen: list = []
    original = getattr(ModelIndex, name)

    def spy(self, arg):
        seen.append(arg)
        return original(self, arg)

    monkeypatch.setattr(ModelIndex, name, spy)
    return seen


def _analyze_and_write(text: str, out_dir):
    result = analyze_text(text)
    write_artifacts(result, out_dir)
    compute_metrics(result)
    return result


def test_one_index_per_analysis(qiasp_text, tmp_path, monkeypatch):
    # Every stage, the artifacts and the golden metrics read the index that
    # validation built over the expanded model.
    built = _spy(monkeypatch, "__init__")
    result = _analyze_and_write(qiasp_text, tmp_path)
    assert len(built) == 1
    assert built[0] is result.expanded


def test_dependency_sources_are_computed_once_per_component(qiasp_text, tmp_path, monkeypatch):
    computed = _spy(monkeypatch, "_sources_of")
    result = _analyze_and_write(qiasp_text, tmp_path)
    assert sorted(c.id for c in computed) == sorted(c.id for c in result.expanded.components())
    assert len(computed) == 42


BROKEN_REPLICATION = """\
system "repair"
top_event "t"
loss L-1 "l"
hazard H-1 "h" losses: L-1
design_class DC "d"
division A {
  component panel kind: display tech: analog class: DC {
    inputs: probe
  }
  component op kind: operator tech: human class: DC {
    inputs: panel
  }
}
division B replicates Z
"""


def test_a_model_repaired_in_place_validates_as_a_fresh_one():
    # Expansion fails, so validation checks the authored model's components;
    # an index cached on that model would miss the repair below.
    repaired_text = BROKEN_REPLICATION.replace(
        "division A {\n", "division A {\n  component probe kind: sensor tech: analog class: DC\n"
    )
    model = parse_model(BROKEN_REPLICATION)
    before = validate_model(model)
    assert [v.code for v in before.violations] == ["replication", "unknown-component"]
    (probe, *_) = parse_model(repaired_text).divisions[0].components
    model.divisions[0].components.insert(0, probe)
    after = validate_model(model)
    assert [v.code for v in after.violations] == ["replication"]
    assert plain(after.violations) == plain(validate_model(parse_model(repaired_text)).violations)

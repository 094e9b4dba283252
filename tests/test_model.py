"""Validation, replication expansion, and dependency-graph behavior."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MINI_MODEL,
    SYNTHESIS_MODEL,
    chain_text,
    extra_commanded_target_text,
    plain,
    random_model,
    replace,
    scaled_qiasp,
    serialize_model,
    unwired_owner_text,
    unwired_replica_text,
    unwired_resource_dependent_text,
)
from resha.dsl import ParseError, parse_model
from resha.ftree import export_ft
from resha.golden import compute_metrics
from resha.model import (
    COMPONENT_KINDS,
    FAILURE_TYPES,
    GROUP_LOGICS,
    REDUNDANCY_LEVELS,
    RESOURCE_SCOPES,
    TECHNOLOGIES,
    Component,
    DesignClass,
    Division,
    Hazard,
    Loss,
    ModelError,
    ModelIndex,
    RedundancyGroup,
    Ref,
    SharedResource,
    SourceSpan,
    SystemModel,
    Violation,
    depth_first,
    expand_replication,
    validate_model,
)
from resha.pipeline import (
    PipelineOptions,
    ValidationFailed,
    analyze_model,
    analyze_text,
    bundled_model_path,
)
from resha.report import ccf_csv, cutsets_csv, render_summary, traceability_csv


def _codes(model: SystemModel) -> set[str]:
    return {v.code for v in validate_model(model).violations}


def _shell(*components: Component, **kwargs) -> SystemModel:
    model = SystemModel(name="shell", top_event="top", **kwargs)
    model.losses = [Loss("L-1", "loss")]
    model.hazards = [Hazard("H-1", "hazard", ("L-1",))]
    model.design_classes = [DesignClass("DC", "class", "DC")]
    model.divisions = [Division(id="D", components=list(components))]
    return model


def _operator(cid: str = "op", inputs: list[str] | None = None) -> Component:
    return Component(
        id=cid,
        kind="operator",
        tech="human",
        design_class="DC",
        inputs=[Ref(i) for i in inputs or []],
    )


def _plain(cid: str, inputs: list[str] | None = None, tech="analog") -> Component:
    return Component(
        id=cid,
        kind="sensor",
        tech=tech,
        design_class="DC",
        inputs=[Ref(i) for i in inputs or []],
    )


def test_mini_model_validates_clean():
    report = validate_model(parse_model(MINI_MODEL))
    assert report.ok
    assert str(report) == "model OK"


def test_qiasp_model_validates_clean(qiasp_text):
    assert validate_model(parse_model(qiasp_text)).ok


def test_bad_id_flagged():
    model = _shell(_plain("ok"), _operator(inputs=["ok"]))
    model.losses.append(Loss("1bad", "loss"))
    assert "bad-id" in _codes(model)


def test_id_with_a_trailing_newline_is_bad():
    # ``$`` also matches before a final newline, so ids are matched whole.
    model = parse_model(MINI_MODEL, "mini.resha")
    loss = model.losses[0]
    model.losses[0] = replace(loss, id=loss.id + "\n")
    violations = validate_model(model).violations
    assert [v.span for v in violations if v.code == "bad-id"] == [loss.span]


_REPEATED_A = (
    'system "s"\ndivision A {\n  component c kind: controller tech: digital class: DC {\n'
    "    control_action x -> y {\n      applicable: A hazards: H-1\n"
    "      applicable: A hazards: H-2\n    }\n  }\n}\n"
)


@pytest.mark.parametrize(
    "text,code,line,column",
    [
        ('system "s"\nloss L-1 "x"\nloss L-1 "y"\n', "duplicate-id", 3, 6),
        ('loss L-1 "x"\n', "missing-name", 1, 1),
        (_REPEATED_A, "duplicate-applicability", 6, 19),
    ],
    ids=["duplicate-id", "missing-name", "duplicate-applicability"],
)
def test_documents_that_parse_break_a_rule_at_its_span(text, code, line, column):
    # The parser reads syntax only; validation reports each broken rule.
    violations = validate_model(parse_model(text, "doc.resha")).violations
    assert [v.span for v in violations if v.code == code] == [SourceSpan("doc.resha", line, column)]


def test_duplicate_id_flagged_across_kinds():
    model = _shell(_plain("dup"), _operator(inputs=["dup"]))
    model.losses.append(Loss("dup", "loss"))
    assert "duplicate-id" in _codes(model)


def test_hazard_without_losses_flagged():
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.hazards.append(Hazard("H-2", "floating hazard", ()))
    assert "hazard-no-loss" in _codes(model)


def test_hazard_unknown_loss_flagged():
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.hazards[0] = replace(model.hazards[0], losses=("L-9",))
    assert "unknown-loss" in _codes(model)


def test_operator_count_enforced():
    assert "operator-count" in _codes(_shell(_plain("a")))
    assert "operator-count" in _codes(_shell(_operator("op1"), _operator("op2")))


def test_operator_must_be_human():
    op = _operator()
    op.tech = "digital"
    assert "operator-tech" in _codes(_shell(op))


def test_operator_without_sources_flagged_at_its_span(qiasp_text):
    text = qiasp_text.replace("    inputs: operator_terminal\n", "", 1)
    assert text != qiasp_text
    report = validate_model(parse_model(text, "qiasp.resha"))
    [violation] = [v for v in report.violations if v.code == "operator-no-sources"]
    assert "control_room_operator" in violation.message
    assert str(violation.span).startswith("qiasp.resha:146:")
    assert report.violations == [violation]
    with pytest.raises(ValidationFailed):
        analyze_text(text, "qiasp.resha")


def test_unknown_references_flagged():
    model = _shell(_plain("a", inputs=["ghost"]), _operator(inputs=["a"]))
    assert "unknown-component" in _codes(model)
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.divisions[0].components[0].design_class = "DC-MISSING"
    assert "unknown-class" in _codes(model)


def test_unknown_port_flagged():
    producer = _plain("a")
    consumer = _plain("b")
    consumer.inputs = [Ref("a", "nope")]
    model = _shell(producer, consumer, _operator(inputs=["b"]))
    assert "unknown-port" in _codes(model)


def test_dependency_cycle_flagged():
    model = _shell(_plain("a", inputs=["b"]), _plain("b", inputs=["a"]), _operator(inputs=["a"]))
    cycles = [v for v in validate_model(model).violations if v.code == "dependency-cycle"]
    assert [v.message for v in cycles] == ["dependency cycle: a -> b -> a"]


def test_depth_first_orders_every_node_past_a_cycle():
    graph = {"a": ["b", "x"], "b": ["a", "c"], "c": [], "x": ["ghost"]}
    order, cycle = depth_first(graph, graph.__getitem__, graph)
    assert cycle == ["a", "b", "a"]
    assert order == ["c", "b", "x", "a"]


def recursive_depth_first(roots, graph, known):
    """``depth_first`` by plain recursion, every node through the same
    steps: the reference its stack walk must match."""
    color: dict[str, str] = {}
    order: list[str] = []
    path: list[str] = []
    cycles: list[list[str]] = []

    def visit(node: str) -> None:
        color[node] = "grey"
        path.append(node)
        for nxt in graph[node]:
            if nxt not in color and nxt in known:
                visit(nxt)
            elif color.get(nxt) == "grey":
                cycles.append(path[path.index(nxt):] + [nxt])
        path.pop()
        color[node] = "black"
        order.append(node)

    for root in roots:
        if root not in color and root in known:
            visit(root)
    return order, cycles[0] if cycles else None


@st.composite
def digraphs(draw):
    """Roots, adjacency lists and the known nodes of a small random digraph:
    leaves, self-loops, cycles, repeated edges and ids outside ``known``."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 10)))]
    node = st.sampled_from(ids)
    graph = {i: draw(st.lists(node, max_size=4)) for i in ids}
    known = set(draw(st.lists(node, unique=True)))
    return draw(st.lists(node, max_size=8)), graph, known


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.booleans())
def test_depth_first_matches_recursive_reference(drawn, as_tuples):
    roots, graph, known = drawn
    if as_tuples:
        graph = {node: tuple(children) for node, children in graph.items()}
    assert depth_first(roots, graph.__getitem__, known) == recursive_depth_first(roots, graph, known)


def test_group_rules():
    model = _shell(_plain("a"), _plain("b"), _operator(inputs=["a", "b"]))
    model.redundancy_groups = [
        RedundancyGroup("rg", "module", "all_must_fail", ["a"])
    ]
    assert "group-size" in _codes(model)
    model.redundancy_groups = [
        RedundancyGroup("rg", "division", "all_must_fail", ["D", "NOPE"])
    ]
    assert "unknown-division" in _codes(model)


def test_any_misleads_must_converge_on_human():
    hub = _plain("hub", inputs=["a", "b"])
    model = _shell(_plain("a"), _plain("b"), hub, _operator(inputs=["hub"]))
    model.redundancy_groups = [
        RedundancyGroup("rg", "module", "any_misleads", ["a", "b"])
    ]
    assert "any-misleads-consumer" in _codes(model)
    # Converging on the operator directly is legal.
    model = _shell(_plain("a"), _plain("b"), _operator(inputs=["a", "b"]))
    model.redundancy_groups = [
        RedundancyGroup("rg", "module", "any_misleads", ["a", "b"])
    ]
    assert validate_model(model).ok


def test_shared_resource_rules():
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.shared_resources = [SharedResource("sr", "external", ["a"])]
    assert "resource-size" in _codes(model)
    model.shared_resources = [SharedResource("sr", "external", ["a", "ghost"])]
    assert "unknown-component" in _codes(model)


def test_validate_is_total_on_random_models():
    for seed in range(40):
        model = random_model(random.Random(seed))
        validate_model(model)  # must not raise, whatever it finds


def test_expand_suffixes_ids_and_rewrites_refs(qiasp_text):
    model = parse_model(qiasp_text)
    expanded = expand_replication(model)
    idx = ModelIndex(expanded)
    assert "hjtc_calculator__B" in idx.components
    assert idx.division_of["hjtc_calculator__B"] == "B"
    replica_ctrl = idx.components["hjtc_power_controller__B"]
    assert replica_ctrl.design_class == "DC-HJTC-CTRL"  # class refs are not renamed
    assert replica_ctrl.feedback_inputs[0].component == "hjtc_calculator__B"
    replica_link = replica_ctrl.links[0]
    assert replica_link.id == "heater_power__B"
    assert replica_link.targets == ["hjtc_sensor_array__B"]
    division_b = idx.divisions["B"]
    assert division_b.replicates is None
    assert division_b.replicated_from == "A"
    assert len(division_b.components) == len(idx.divisions["A"].components) == 20


def test_expand_renames_the_port_of_a_local_reference():
    text = SYNTHESIS_MODEL.replace("feedback: calc_1\n", "feedback: calc_1.trim\n")
    assert text != SYNTHESIS_MODEL
    model = parse_model(text)
    assert validate_model(model).ok
    idx = ModelIndex(expand_replication(model))
    [ref] = idx.components["ctrl__B"].feedback_inputs
    assert (ref.component, ref.port) == ("calc_1__B", "trim__B")
    assert [link.id for link in idx.components["calc_1__B"].links] == ["level_1__B", "trim__B"]
    # The feedback link is dropped from the replica's sources, as from the source's.
    assert idx.dependency_sources(idx.components["ctrl"]) == ()
    assert idx.dependency_sources(idx.components["ctrl__B"]) == ()


def test_expand_is_idempotent(qiasp_text):
    model = parse_model(qiasp_text)
    once = expand_replication(model)
    twice = expand_replication(once)
    assert plain(once) == plain(twice)


def test_expand_builds_only_the_replicas(qiasp_text):
    model = parse_model(qiasp_text)
    expanded = expand_replication(model)
    for authored, division in zip(model.divisions, expanded.divisions, strict=True):
        assert (division is authored) == (authored.replicates is None)
    authored_b = next(d for d in model.divisions if d.replicates)
    division_a, division_b = (next(d for d in expanded.divisions if d.id == i) for i in "AB")
    for kind in ("losses", "hazards", "design_classes", "redundancy_groups", "shared_resources"):
        assert all(x is y for x, y in zip(getattr(expanded, kind), getattr(model, kind), strict=True))
    for source, replica in zip(division_a.components, division_b.components, strict=True):
        assert replica.span == source.span is not None
        for link, replica_link in zip(source.links, replica.links, strict=True):
            assert replica_link.span == link.span
            assert replica_link.targets is not link.targets
    assert division_b.span is authored_b.span


def test_model_leaves_are_frozen(qiasp_text):
    model = parse_model(qiasp_text)
    link = next(link for link in model.links() if link.applicability)
    ref = next(ref for c in model.components() for ref in c.inputs)
    for leaf, name in (
        (model.losses[0], "description"),
        (model.hazards[0], "losses"),
        (link.applicability[0], "hazards"),
        (ref, "component"),
        (ref.span, "line"),
    ):
        # A NamedTuple's fields are read-only properties.
        with pytest.raises(AttributeError):
            setattr(leaf, name, getattr(leaf, name))


def _leaves(value: object):
    """Every model leaf (a ``resha`` NamedTuple) reachable from ``value``."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        yield value
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    elif type(value).__module__ == "resha.model":
        for item in vars(value).values():
            yield from _leaves(item)


@pytest.mark.parametrize("divisions", [2, 3])
def test_model_leaves_are_hashable(qiasp_text, divisions):
    """A leaf holds no list, so it hashes and no list of its can be edited
    in place."""
    model = parse_model(scaled_qiasp(qiasp_text, divisions))
    expanded = expand_replication(model)
    for tree in (model, expanded):
        leaves = list(_leaves(tree))
        for leaf in leaves:
            hash(leaf)
        assert {type(leaf).__name__ for leaf in leaves} == {
            "SourceSpan", "Ref", "Loss", "Hazard", "DesignClass", "Applicability"
        }
    assert {type(h.losses) for h in model.hazards} == {tuple}
    assert {type(a.hazards) for link in expanded.links() for a in link.applicability} == {tuple}


@pytest.mark.parametrize("divisions", [2, 3])
def test_analysis_leaves_the_authored_model_unchanged(qiasp_text, divisions):
    text = scaled_qiasp(qiasp_text, divisions)
    model = parse_model(text)
    before = serialize_model(model)
    # The order bound keeps the 3-division run small; cut sets read only trees.
    result = analyze_model(model, PipelineOptions(max_order=2))
    assert result.model is model
    assert plain(model) == plain(parse_model(text))
    assert serialize_model(model) == before
    assert all(d.replicated_from is None for d in model.divisions)
    idx = ModelIndex(result.expanded)
    replicas = [d.id for d in model.divisions if d.replicates]
    assert len(replicas) == divisions - 1
    for division_id in replicas:
        replica = idx.components[f"hjtc_calculator__{division_id}"]
        assert replica.span == idx.components["hjtc_calculator"].span is not None


@pytest.mark.parametrize("consumer_first", [False, True])
def test_chain_longer_than_recursion_limit_analyses(consumer_first):
    length = sys.getrecursionlimit() + 100
    model = parse_model(chain_text(length, consumer_first))
    assert validate_model(model).ok
    result = analyze_model(model)
    assert result.collection.order_index() == {1: length}


def _not_upstream(text: str, file_name: str, component_id: str) -> Violation:
    """The one violation naming ``component_id``, which must be ``not-upstream``."""
    report = validate_model(parse_model(text, file_name))
    assert {v.code for v in report.violations} == {"not-upstream"}
    [violation] = [v for v in report.violations if f"'{component_id}'" in v.message]
    return violation


def test_unwired_replica_fails_at_the_owner_component(qiasp_text):
    text = unwired_replica_text(qiasp_text)
    # The replica's fix is in its ``replicates`` line, not in division A, so
    # its eleven unwired owners are reported once there.
    [violation] = validate_model(parse_model(text, "unwired.resha")).violations
    line = text.splitlines().index("division C replicates A") + 1
    assert (violation.code, violation.span) == ("not-upstream", SourceSpan("unwired.resha", line, 10))
    assert violation.message == (
        "the top event does not depend on 'hjtc_power_controller__C', which owns applicable "
        "links, nor on 10 more components of division 'C'"
    )
    with pytest.raises(ValidationFailed):
        analyze_text(text, "unwired.resha")


def test_unwired_authored_owner_fails_at_its_component(qiasp_text):
    text = unwired_owner_text(qiasp_text)
    violation = _not_upstream(text, "cut.resha", "hjtc_power_controller")
    owner = next(c for c in parse_model(text, "cut.resha").components() if c.id == "hjtc_power_controller")
    assert violation.span == owner.span is not None
    assert "owns applicable links" in violation.message


def test_unwired_commanded_target_fails_at_its_link(qiasp_text):
    text = extra_commanded_target_text(qiasp_text)
    link = next(link for link in parse_model(text, "t1.resha").links() if link.id == "heater_power")
    assert link.commanded_group() == ["hjtc_sensor_array", "spare_heater"]
    assert _not_upstream(text, "t1.resha", "spare_heater").span == link.span is not None
    line = text.splitlines().index("division B replicates A") + 1
    replica = _not_upstream(text, "t1.resha", "spare_heater__B")
    assert replica.span == SourceSpan("t1.resha", line, len("division ") + 1)


def test_unwired_external_dependent_fails_at_its_resource(qiasp_text):
    text = unwired_resource_dependent_text(qiasp_text)
    [resource] = parse_model(text, "t3.resha").shared_resources
    assert _not_upstream(text, "t3.resha", "spare_psu").span == resource.span is not None
    # An internal resource forms no group, so an unwired dependent is harmless.
    internal = text.replace("scope: external", "scope: internal")
    assert validate_model(parse_model(internal)).ok
    analyze_text(internal, options=PipelineOptions(max_order=1))


def test_applicable_without_hazards_flagged():
    model = parse_model(MINI_MODEL)
    link = model.divisions[0].components[0].links[0]
    link.applicability[0] = replace(link.applicability[0], hazards=())
    violations = validate_model(model).violations
    assert [(v.code, v.span) for v in violations] == [("applicable-no-hazard", link.applicability[0].span)]


# Each categorical field: the declaration that holds it and the words it takes.
_WORDS = [
    ("component", "kind", COMPONENT_KINDS),
    ("component", "tech", TECHNOLOGIES),
    ("link", "kind", ("control_action", "information_flow")),
    ("link", "type", FAILURE_TYPES),
    ("redundancy_group", "level", REDUNDANCY_LEVELS),
    ("redundancy_group", "logic", GROUP_LOGICS),
    ("shared_resource", "scope", RESOURCE_SCOPES),
]


@pytest.mark.parametrize("what, name, words", _WORDS, ids=[f"{what}-{name}" for what, name, _ in _WORDS])
def test_a_misspelt_word_is_a_violation_listing_the_words(qiasp_text, what, name, words):
    """A model built in code bypasses the parser's word check; validation
    reports the misspelt word once, at its declaration."""
    model = parse_model(qiasp_text + "shared_resource ext_pwr scope: external dependents: power_supply\n")
    owner = {
        "component": next(model.components()),
        "link": next(link for link in model.links() if link.applicability),
        "redundancy_group": model.redundancy_groups[0],
        "shared_resource": model.shared_resources[0],
    }[what]
    span = owner.span
    if name == "type":
        owner.applicability[0] = replace(owner.applicability[0], type="all_must_fial")
        span = owner.applicability[0].span
    else:
        setattr(owner, name, "all_must_fial")
    unknown = [(v.message, v.span) for v in validate_model(model).violations if v.code == "unknown-word"]
    choices = ", ".join(words)
    assert unknown == [(f"{what} '{owner.id}' has unknown {name} 'all_must_fial' (one of: {choices})", span)]


_QIASP = bundled_model_path().read_text(encoding="utf-8")
_MUTATION_BASES = (_QIASP, scaled_qiasp(_QIASP, 3))


@st.composite
def _mutated_texts(draw) -> str:
    """A bundled or 3-division text after 1-3 line deletions, line
    duplications or swaps of two words anywhere in the text."""
    lines = [line.split(" ") for line in draw(st.sampled_from(_MUTATION_BASES)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap")))
        if edit == "delete":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, list(lines[at]))
        else:
            other = draw(st.integers(0, len(lines) - 1))
            i, j = draw(st.integers(0, len(lines[at]) - 1)), draw(st.integers(0, len(lines[other]) - 1))
            lines[at][i], lines[other][j] = lines[other][j], lines[at][i]
    return "\n".join(" ".join(words) for words in lines) + "\n"


@settings(max_examples=200, deadline=None)
@example(unwired_owner_text(_QIASP))
@example(extra_commanded_target_text(_QIASP))
@example(unwired_resource_dependent_text(_QIASP))
@given(_mutated_texts())
def test_a_model_that_validates_analyses(text):
    # Validation owns every model precondition of the stages and of the
    # readers of their results.
    try:
        model = parse_model(text, "mutant.resha")
    except ParseError:
        return
    if validate_model(model).ok:
        result = analyze_model(model, PipelineOptions(max_order=2))
        export_ft(result.injected_tree)
        cutsets_csv(result.collection, result.injected_tree)
        ccf_csv(result.groups)
        traceability_csv(result.instances, result.expanded)
        render_summary(result, "md")
        render_summary(result, "txt")
        compute_metrics(result)


def test_expand_unknown_source_errors():
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.divisions.append(Division(id="R", replicates="GHOST"))
    with pytest.raises(ModelError, match="unknown division"):
        expand_replication(model)


def test_expand_chained_replication_errors():
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.divisions.append(Division(id="R1", replicates="D"))
    model.divisions.append(Division(id="R2", replicates="R1"))
    with pytest.raises(ModelError, match="chained"):
        expand_replication(model)


def test_expand_rejects_replica_with_components():
    model = _shell(_plain("a"), _operator(inputs=["a"]))
    model.divisions.append(Division(id="R", replicates="D", components=[_plain("x")]))
    with pytest.raises(ModelError, match="declares its own components"):
        expand_replication(model)
    assert [v.code for v in validate_model(model).violations] == ["replication"]


@pytest.mark.parametrize(
    "extra,message",
    [
        ("division R replicates GHOST\n", "unknown division 'GHOST'"),
        ("division R1 replicates MAIN\ndivision R replicates R1\n", "chained replication"),
        (
            "division X {\n  component probe__R kind: sensor tech: analog class: DC-S\n}\n"
            "division R replicates MAIN\n",
            "would duplicate id 'probe__R'",
        ),
    ],
    ids=["unknown-source", "chained", "id-collision"],
)
def test_replication_violation_is_reported_once_at_the_replica(extra, message):
    text = MINI_MODEL + extra
    model = parse_model(text, "doc.resha")
    replica = next(d for d in model.divisions if d.id == "R")
    violations = [v for v in validate_model(model).violations if v.code == "replication"]
    assert len(violations) == 1
    assert message in violations[0].message
    assert violations[0].span == replica.span
    assert str(violations[0]).startswith(f"doc.resha:{replica.span.line}:{replica.span.column}: ")


def test_expand_detects_id_collision():
    model = _shell(_plain("a"), _plain("a__R"), _operator(inputs=["a"]))
    model.divisions.append(Division(id="R", replicates="D"))
    with pytest.raises(ModelError, match="duplicate id"):
        expand_replication(model)


def test_dependency_sources_exclude_feedback(qiasp_text):
    expanded = expand_replication(parse_model(qiasp_text))
    idx = ModelIndex(expanded)
    ctrl = idx.components["hjtc_power_controller"]
    assert idx.dependency_sources(ctrl) == ()
    array = idx.components["hjtc_sensor_array"]
    assert idx.dependency_sources(array) == ("hjtc_power_controller",)
    display = idx.components["display_interface"]
    assert idx.dependency_sources(display) == (
        "power_supply",
        "hjtc_alarm",
        "cet_alarm",
        "rvl_alarm",
        "rcsm_alarm",
        "icc_alarm",
    )


def test_digital_dependents(qiasp_text):
    expanded = expand_replication(parse_model(qiasp_text))
    idx = ModelIndex(expanded)
    assert sorted(idx.digital_dependents("cet_calculator")) == ["cet_alarm", "icc_alarm"]
    assert sorted(idx.digital_dependents("icc_calculator")) == ["icc_alarm"]
    assert "hjtc_calculator" in idx.digital_dependents("hjtc_power_controller")
    # Same-division scope: the replica's dependents stay inside division B.
    assert all(
        dep.endswith("__B") for dep in idx.digital_dependents("cet_calculator__B")
    )


def test_group_binding_division_level(qiasp_text):
    expanded = expand_replication(parse_model(qiasp_text))
    idx = ModelIndex(expanded)
    group = expanded.redundancy_groups[0]
    both = idx.grouped_sources(["display_interface", "display_interface__B"])
    assert both == {0: ["display_interface", "display_interface__B"]}
    assert idx.binds(group, both[0])
    # A single member division does not bind.
    one = idx.grouped_sources(["display_interface", "power_supply"])
    assert one == {0: ["display_interface", "power_supply"]}
    assert not idx.binds(group, one[0])
    # A component outside every group's divisions is listed by none.
    assert idx.grouped_sources(["nowhere"]) == {}

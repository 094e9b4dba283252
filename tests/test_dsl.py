"""Parser, serializer, spans, and round-trip properties."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_MODEL, random_model, serialize_model
from resha.dsl import ParseError, parse_model
from resha.model import ComponentKind, FailureModeType, LinkKind, Technology, validate_model
from resha.pipeline import bundled_model_path


def test_parse_mini_structure():
    model = parse_model(MINI_MODEL, "mini.resha")
    assert model.name == "mini"
    assert model.top_event == "operator misled"
    assert [loss.id for loss in model.losses] == ["L-1"]
    assert model.hazards[0].losses == ["L-1"]
    division = model.divisions[0]
    assert division.id == "MAIN"
    ctrl = division.components[0]
    assert ctrl.kind is ComponentKind.CONTROLLER
    assert ctrl.tech is Technology.DIGITAL
    link = ctrl.links[0]
    assert link.kind is LinkKind.CONTROL_ACTION
    assert link.source == "ctrl"
    assert link.targets == ["probe"]
    assert [a.type for a in link.applicability] == [
        FailureModeType.MISSING,
        FailureModeType.EXCESSIVE,
    ]
    assert link.applicability[0].hazards == ["H-1"]


def test_parse_attaches_spans():
    model = parse_model(MINI_MODEL, "mini.resha")
    ctrl = model.divisions[0].components[0]
    assert ctrl.span is not None
    assert ctrl.span.file == "mini.resha"
    line_text = MINI_MODEL.splitlines()[ctrl.span.line - 1]
    assert line_text[ctrl.span.column - 1 :].startswith("ctrl")


def test_design_class_diversity_defaults_to_id():
    model = parse_model(MINI_MODEL)
    by_id = {dc.id: dc for dc in model.design_classes}
    assert by_id["DC-C"].diversity_tag == "plat"
    assert by_id["DC-S"].diversity_tag == "DC-S"


def test_replicates_form():
    text = 'system "s"\ntop_event "t"\n\ndivision A\ndivision B replicates A\n'
    model = parse_model(text)
    assert model.divisions[0].components == []
    assert model.divisions[0].replicates is None
    assert model.divisions[1].replicates == "A"


@pytest.mark.parametrize(
    "text,line,column,fragment",
    [
        ('system "s"\nbogus x\n', 2, 1, "unknown statement"),
        ('system "s"\nloss L-1 "x" %\n', 2, 14, "unexpected character"),
        ('system "s"\nloss L-1 "open\n', 2, 10, "unterminated string"),
        ('system "s"\nloss L-1 "a\\q"\n', 2, 12, "unsupported escape"),
        ('system "s"\nsystem "again"\n', 2, 8, "declared twice"),
        ('system "s"\nloss L-1 "x" extra\n', 2, 14, "unexpected trailing tokens"),
        ('system "s"\ndivision A {\n', 2, 13, "unexpected end of document"),
        (
            'system "s"\ndivision A {\n  component c kind: widget tech: digital class: DC\n}\n',
            3,
            21,
            "unknown component kind",
        ),
        (
            'system "s"\ndivision A {\n  component c kind: sensor tech: steam class: DC\n}\n',
            3,
            34,
            "unknown technology",
        ),
        (
            'system "s"\ndivision A {\n  component c kind: sensor tech: analog color: red\n}\n',
            3,
            41,
            "unknown component key",
        ),
        (
            'system "s"\ndivision A {\n  component c kind: controller tech: digital class: DC {\n'
            "    control_action x -> y {\n      applicable: Z hazards: H-1\n",
            5,
            19,
            "unknown failure type",
        ),
        (
            'system "s"\ndivision A {\n  component c kind: controller tech: digital class: DC {\n'
            "    control_action x -> y {\n      applicable: A\n",
            5,
            20,
            "expected 'hazards'",
        ),
        ('system "s"\nredundancy_group g level: division logic: all_must_fail\n', 2, 18, "missing 'members'"),
        ('system "s"\nredundancy_group g level: tower logic: all_must_fail members: a, b\n', 2, 27, "unknown redundancy level"),
        ('system "s"\nshared_resource r scope: sideways dependents: a, b\n', 2, 26, "unknown resource scope"),
        ('system "s"\nloss L-1 "ab\\\n', 2, 10, "unterminated string"),
        ('system "s"\ndivision A\ndivision B replicates A {\n', 3, 25, "unexpected trailing tokens"),
        ('system "s"\nredundancy_group g level: division level: division\n', 2, 36, "duplicate key 'level'"),
        ('system "s"\nredundancy_group g level: division colour: red\n', 2, 36, "unknown redundancy_group key"),
        ('system "s"\nredundancy_group g members: a, b logic: all_must_fail\n', 2, 18, "missing 'level'"),
        ('system "s"\nshared_resource r scope: internal scope: external\n', 2, 35, "duplicate key 'scope'"),
        ('system "s"\nshared_resource r scope: internal colour: red\n', 2, 35, "unknown shared_resource key"),
        ('system "s"\nshared_resource r scope: internal\n', 2, 17, "missing 'dependents'"),
    ],
)
def test_parse_errors_carry_spans(text, line, column, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text, "doc.resha")
    assert fragment in err.value.message
    assert err.value.span.file == "doc.resha"
    assert err.value.span.line == line
    assert err.value.span.column == column


def test_string_escapes_round_trip():
    text = 'system "has \\"quotes\\" and \\\\slash"\ntop_event "t"\n'
    model = parse_model(text)
    assert model.name == 'has "quotes" and \\slash'
    assert parse_model(serialize_model(model)) == model


@settings(max_examples=150, deadline=None)
@given(st.text(st.sampled_from(["a", "n", "r", " ", "#", "\n", "\r", '"', "\\"]), max_size=16))
def test_descriptions_with_line_breaks_round_trip(description):
    model = parse_model(MINI_MODEL)
    loss = replace(model.losses[0], description=description)
    model = replace(model, name=description, losses=[loss] + model.losses[1:])
    assert parse_model(serialize_model(model)) == model


def test_line_break_escapes_decode():
    model = parse_model('system "two\\nlines\\r\\n"\n')
    assert model.name == "two\nlines\r\n"


@pytest.mark.parametrize(
    "text,name,loss",
    [
        ('system "s"  \ntop_event "t"\t\nloss L-1 "x" \t \n', "s", "x"),
        ('system "s"\nloss L-1 "a\\\\q"\n', "s", "a\\q"),
    ],
)
def test_documents_that_parse(text, name, loss):
    model = parse_model(text)
    assert model.name == name
    assert model.losses[0].description == loss


# Characters that str.splitlines breaks at but that do not end a line here.
_NOT_LINE_ENDS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS)
def test_only_newline_characters_end_a_line(char):
    text = f'system "s"{char}\nloss L-1 "x"\nloss L-1 "y"\n'
    [duplicate] = [v for v in validate_model(parse_model(text)).violations if v.code == "duplicate-id"]
    assert (duplicate.span.line, duplicate.span.column) == (3, 6)


@pytest.mark.parametrize("char", _NOT_LINE_ENDS)
def test_line_separators_are_string_content(char):
    model = parse_model(f'system "s"\nloss L-1 "a{char}b"\n')
    assert model.losses[0].description == f"a{char}b"
    assert parse_model(serialize_model(model)) == model


def test_comments_and_blank_lines_ignored():
    text = '# leading comment\nsystem "s"  # trailing\n\n\ntop_event "t"\n'
    model = parse_model(text)
    assert model.name == "s"
    assert model.top_event == "t"


def test_arrow_without_spaces():
    text = (
        'system "s"\ndivision A {\n'
        "  component c kind: controller tech: digital class: DC {\n"
        "    control_action go->t1,t2\n  }\n}\n"
    )
    model = parse_model(text)
    assert model.divisions[0].components[0].links[0].targets == ["t1", "t2"]


def test_ref_ports_parse():
    text = (
        'system "s"\ndivision A {\n'
        "  component c kind: sensor tech: analog class: DC {\n"
        "    inputs: a, b.port1\n    feedback: d.port2\n  }\n}\n"
    )
    component = parse_model(text).divisions[0].components[0]
    assert [str(r) for r in component.inputs] == ["a", "b.port1"]
    assert component.feedback_inputs[0].port == "port2"


def test_serialize_is_deterministic(qiasp_text):
    model = parse_model(qiasp_text)
    assert serialize_model(model) == serialize_model(model)


def test_round_trip_mini_and_qiasp(qiasp_text):
    for text in (MINI_MODEL, qiasp_text):
        model = parse_model(text)
        rendered = serialize_model(model)
        reparsed = parse_model(rendered)
        assert reparsed == model
        # Canonical form is a fixed point.
        assert serialize_model(reparsed) == rendered


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_models(seed):
    model = random_model(random.Random(seed))
    rendered = serialize_model(model)
    assert parse_model(rendered) == model
    assert serialize_model(parse_model(rendered)) == rendered


_MUTATION_CHARS = ' \t\n\r{}:,."\\#->aZ0_\f\u2028'


def _mutated_text(rng: random.Random, bundled: bool) -> str:
    """The bundled text or a random model's, with one to four character edits."""
    text = bundled_model_path().read_text(encoding="utf-8") if bundled else serialize_model(random_model(rng))
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            chars.insert(at, rng.choice(_MUTATION_CHARS))
        elif at < len(chars):
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = rng.choice(_MUTATION_CHARS)
    return "".join(chars)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_mutated_documents_fail_only_with_parse_error(seed, bundled):
    try:
        model = parse_model(_mutated_text(random.Random(seed), bundled))
    except ParseError:
        return
    assert parse_model(serialize_model(model)) == model


def _spans(node) -> list[str]:
    """Every span set on a model object and the objects it holds, depth first."""
    if isinstance(node, list):
        return [span for item in node for span in _spans(item)]
    if not is_dataclass(node):
        return []
    found = [str(node.span)]
    for f in fields(node):
        if f.name != "span":
            found.extend(_spans(getattr(node, f.name)))
    return found


def _parse_outcome(text: str) -> str:
    try:
        model = parse_model(text, "m.resha")
    except ParseError as err:
        return f"error {err.message!r} at {err.span.file}:{err.span.line}:{err.span.column}"
    return f"model {model!r} spans {_spans(model)}"


# SHA-256 of the outcomes of seeds 0-999 of the mutation process above, each
# seed on the bundled text and on a random model's.  The mutations insert
# whitespace at line ends too.  A change to the tokenizer or the parser leaves
# the digest as it is; a change to the language edits it and says why.
PARSE_OUTCOMES_SHA256 = "5921ae6386c0b9e3dbd3ff2ddb3ab0a2a667379425d3177f74d7ff768ea37c2d"


def test_mutated_document_outcomes_are_pinned():
    outcomes = [
        _parse_outcome(_mutated_text(random.Random(seed), bundled))
        for seed in range(1000)
        for bundled in (True, False)
    ]
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == PARSE_OUTCOMES_SHA256


_LONG = 200_000


@pytest.mark.parametrize(
    "line,error",
    [
        ('loss L-1 "x"' + " " * _LONG, None),
        ('loss L-1 "x" #' + "c" * _LONG, None),
        ('loss L-1 "' + "s" * _LONG + '"', None),
        ('loss L-1 "' + "s" * _LONG, "unterminated string"),
        ('hazard H-1 "h" losses: ' + ", ".join(f"L-{i}" for i in range(50_000)), None),
    ],
    ids=["trailing-spaces", "comment", "string", "unterminated-string", "id-list"],
)
def test_long_lines_parse_in_linear_time(line, error):
    """A scan that restarts at each character would take minutes on these lines."""
    text = f'system "s"\n{line}\n'
    start = time.process_time()
    if error is None:
        parse_model(text)
    else:
        with pytest.raises(ParseError, match=error):
            parse_model(text)
    assert time.process_time() - start < 1.0

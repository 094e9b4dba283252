"""Line-oriented model description language.

Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line, and each line holds one
statement.  ``{`` opens a nested block and must end its line, ``}`` closes it
on a line of its own.  A line is read left to right as these tokens:

- whitespace: space, tab, ``\\f``, ``\\v``, ``\\x1c``-``\\x1e``, ``\\x85``,
  ``\\u2028`` and ``\\u2029``, skipped;
- comment: ``#`` to the end of the line, skipped;
- string: double-quoted, with ``\\"``, ``\\\\``, ``\\n`` and ``\\r`` escapes,
  closed on its own line; the whitespace characters above are content
  inside it;
- arrow: ``->``;
- punct: one of ``{ } : , .``;
- word: ``[A-Za-z]`` then letters, digits, ``_`` and any ``-`` that does not
  open an arrow.

Any other character is an error.  Ids are words.  The parser reads syntax
only: a reused id, a repeated ``applicable:`` letter or a missing ``system``
line parses, and ``validate_model`` reports it, as it does every rule of the
model.  A second ``system`` or ``top_event`` line is a syntax error, since it
would overwrite the first.

Replica components produced by division replication carry a ``__<division>``
suffix; documents may reference them (for example ``display_interface__B``)
ahead of expansion.

``parse_model`` and ``serialize_model`` are inverse enough that
``parse_model(serialize_model(m)) == m`` for any parsed model, and
serialization is byte-identical across runs.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .model import (
    Applicability,
    Component,
    ComponentKind,
    DesignClass,
    Division,
    FailureModeType,
    GroupLogic,
    Hazard,
    Link,
    LinkKind,
    Loss,
    RedundancyGroup,
    RedundancyLevel,
    Ref,
    ResourceScope,
    SharedResource,
    SourceSpan,
    SystemModel,
    Technology,
)

_LINE_END_RE = re.compile(r"\r\n|\r|\n")
_TOKEN_RE = re.compile(
    r"""(?P<space>[ \t\f\v\x1c-\x1e\x85\u2028\u2029]+)
    |(?P<comment>\#.*)
    |(?P<string>"(?P<body>[^"\\]*(?:\\.[^"\\]*)*)(?P<close>")?)
    |(?P<arrow>->)
    |(?P<punct>[{}:,.])
    |(?P<word>[A-Za-z][A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]*)*)
    |(?P<other>.)""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}
_LINK_KINDS = {"control_action": LinkKind.CONTROL_ACTION, "info_flow": LinkKind.INFORMATION_FLOW}


class ParseError(Exception):
    """Syntax error, located by a source span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class Token(NamedTuple):
    kind: str  # word | string | arrow | punct
    text: str  # decoded value for strings
    file: str
    line: int
    column: int
    end: int  # column just past the token

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.column)


def _tokenize_line(text: str, lineno: int, file_name: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind in ("space", "comment"):
            continue
        value = match.group()
        column = match.start() + 1
        if kind == "string":
            for escape in _ESCAPE_RE.finditer(text, match.start("body"), match.end("body")):
                if escape[1] not in _ESCAPES:
                    where = SourceSpan(file_name, lineno, escape.start() + 1)
                    raise ParseError(f"unsupported escape '\\{escape[1]}'", where)
            if match["close"] is None:
                raise ParseError("unterminated string", SourceSpan(file_name, lineno, column))
            value = _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], match["body"])
        elif kind == "other":
            raise ParseError(f"unexpected character {value!r}", SourceSpan(file_name, lineno, column))
        tokens.append(Token(kind, value, file_name, lineno, column, match.end() + 1))
    return tokens


class _Line:
    """Cursor over one line's tokens."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def end_span(self) -> SourceSpan:
        last = self.tokens[-1]
        return SourceSpan(last.file, last.line, last.end)

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        span = token.span if token else self.end_span()
        return ParseError(message, span)

    def opt(self, kind: str, text: str | None = None) -> Token | None:
        """Consume the next token if it has this kind and, when given, text."""
        token = self.peek()
        if token is None or token.kind != kind or text not in (None, token.text):
            return None
        self.pos += 1
        return token

    def expect(self, kind: str, what: str | None = None, text: str | None = None) -> Token:
        token = self.opt(kind, text)
        if token is None:
            raise self.fail(f"expected {what or repr(text)}")
        return token

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.fail("unexpected trailing tokens")

    def id_list(self, what: str) -> list[Token]:
        items = [self.expect("word", what)]
        while self.opt("punct", ","):
            items.append(self.expect("word", what))
        return items

    def ref_list(self) -> list[Ref]:
        refs: list[Ref] = []
        while True:
            comp = self.expect("word", "component reference")
            port: str | None = None
            if self.opt("punct", "."):
                port = self.expect("word", "port name").text
            refs.append(Ref(comp.text, port, span=comp.span))
            if not self.opt("punct", ","):
                return refs


def _enum_value(enum_cls, token: Token, what: str):
    try:
        return enum_cls(token.text)
    except ValueError:
        choices = ", ".join(member.value for member in enum_cls)
        raise ParseError(f"unknown {what} '{token.text}' (one of: {choices})", token.span) from None


def _keyed(
    line: _Line, ident: Token, statement: str, readers: dict[str, Callable[[], object]]
) -> dict[str, object]:
    """Read ``key: value`` pairs to the end of the line, each key once and all required.

    Each reader consumes one value from ``line``.
    """
    names = [f"'{key}'" for key in readers]
    what = f"{', '.join(names[:-1])} or {names[-1]}"
    values: dict[str, object] = {}
    while not line.at_end():
        key = line.expect("word", what)
        line.expect("punct", text=":")
        if key.text in values:
            raise ParseError(f"duplicate key '{key.text}'", key.span)
        if key.text not in readers:
            raise ParseError(f"unknown {statement} key '{key.text}'", key.span)
        values[key.text] = readers[key.text]()
    for key in readers:
        if key not in values:
            raise ParseError(f"{statement} '{ident.text}' is missing '{key}'", ident.span)
    return values


class _Parser:
    def __init__(self, lines: list[list[Token]], file_name: str):
        self.lines = lines
        self.pos = 0
        self.model = SystemModel(name="", top_event="", span=SourceSpan(file_name, 1, 1))
        self.saw_system = False
        self.saw_top_event = False
        self.statements = {
            "system": self._system,
            "top_event": self._top_event,
            "loss": self._loss,
            "hazard": self._hazard,
            "design_class": self._design_class,
            "division": self._division,
            "redundancy_group": self._redundancy_group,
            "shared_resource": self._shared_resource,
        }

    def parse(self) -> SystemModel:
        while self.pos < len(self.lines):
            line = self._next_line()
            head = line.expect("word", "statement")
            handler = self.statements.get(head.text)
            if handler is None:
                raise ParseError(f"unknown statement '{head.text}'", head.span)
            handler(line)
        return self.model

    def _next_line(self) -> _Line:
        if self.pos >= len(self.lines):
            span = _Line(self.lines[-1]).end_span()
            raise ParseError("unexpected end of document inside block", span)
        line = _Line(self.lines[self.pos])
        self.pos += 1
        return line

    def _block(self, line: _Line) -> Iterator[_Line]:
        """End a statement; if it opened ``{``, yield the block's lines up to the lone ``}``.

        Nothing is read until the caller iterates.
        """
        opened = line.opt("punct", "{")
        line.expect_end()
        if opened is None:
            return
        while True:
            inner = self._next_line()
            if inner.opt("punct", "}"):
                inner.expect_end()
                return
            yield inner

    def _system(self, line: _Line) -> None:
        if self.saw_system:
            raise line.fail("'system' declared twice")
        self.saw_system = True
        self.model.name = line.expect("string", "system name").text
        line.expect_end()

    def _top_event(self, line: _Line) -> None:
        if self.saw_top_event:
            raise line.fail("'top_event' declared twice")
        self.saw_top_event = True
        self.model.top_event = line.expect("string", "top event description").text
        line.expect_end()

    def _loss(self, line: _Line) -> None:
        ident = line.expect("word", "loss id")
        desc = line.expect("string", "loss description")
        line.expect_end()
        self.model.losses.append(Loss(ident.text, desc.text, span=ident.span))

    def _hazard(self, line: _Line) -> None:
        ident = line.expect("word", "hazard id")
        desc = line.expect("string", "hazard description")
        line.expect("word", text="losses")
        line.expect("punct", text=":")
        losses = [t.text for t in line.id_list("loss id")]
        line.expect_end()
        self.model.hazards.append(Hazard(ident.text, desc.text, losses, span=ident.span))

    def _design_class(self, line: _Line) -> None:
        ident = line.expect("word", "design_class id")
        desc = line.expect("string", "design_class description")
        tag = ""
        if not line.at_end():
            line.expect("word", text="diversity")
            line.expect("punct", text=":")
            tag = line.expect("word", "diversity tag").text
        line.expect_end()
        self.model.design_classes.append(DesignClass(ident.text, desc.text, tag, span=ident.span))

    def _division(self, line: _Line) -> None:
        ident = line.expect("word", "division id")
        division = Division(ident.text, span=ident.span)
        if line.opt("word", "replicates"):
            division.replicates = line.expect("word", "division id").text
            line.expect_end()
        for inner in self._block(line):
            inner.expect("word", text="component")
            division.components.append(self._component(inner))
        self.model.divisions.append(division)

    def _component(self, line: _Line) -> Component:
        ident = line.expect("word", "component id")
        fields: dict[str, Token] = {}
        while len(fields) < 3:
            key = line.expect("word", "'kind', 'tech' or 'class'")
            if key.text not in ("kind", "tech", "class"):
                raise ParseError(f"unknown component key '{key.text}'", key.span)
            if key.text in fields:
                raise ParseError(f"duplicate component key '{key.text}'", key.span)
            line.expect("punct", text=":")
            fields[key.text] = line.expect("word", f"{key.text} value")
        component = Component(
            id=ident.text,
            kind=_enum_value(ComponentKind, fields["kind"], "component kind"),
            tech=_enum_value(Technology, fields["tech"], "technology"),
            design_class=fields["class"].text,
            span=ident.span,
        )
        for inner in self._block(line):
            key = inner.expect("word", "'control_action', 'info_flow', 'inputs' or 'feedback'")
            if key.text in _LINK_KINDS:
                component.links.append(self._link(inner, _LINK_KINDS[key.text], component.id))
            elif key.text in ("inputs", "feedback"):
                inner.expect("punct", text=":")
                refs = component.inputs if key.text == "inputs" else component.feedback_inputs
                refs.extend(inner.ref_list())
                inner.expect_end()
            else:
                raise ParseError(f"unknown component block statement '{key.text}'", key.span)
        return component

    def _link(self, line: _Line, kind: LinkKind, source: str) -> Link:
        ident = line.expect("word", "link id")
        line.expect("arrow", "'->'")
        targets = [t.text for t in line.id_list("target component id")]
        link = Link(ident.text, kind, source, targets, span=ident.span)
        for inner in self._block(line):
            inner.expect("word", text="applicable")
            inner.expect("punct", text=":")
            letter = inner.expect("word", "failure type letter")
            type_ = _enum_value(FailureModeType, letter, "failure type")
            inner.expect("word", text="hazards")
            inner.expect("punct", text=":")
            hazards = [t.text for t in inner.id_list("hazard id")]
            inner.expect_end()
            link.applicability.append(Applicability(type_, hazards, span=letter.span))
        return link

    def _redundancy_group(self, line: _Line) -> None:
        ident = line.expect("word", "redundancy_group id")
        fields = _keyed(
            line,
            ident,
            "redundancy_group",
            {
                "level": lambda: _enum_value(
                    RedundancyLevel, line.expect("word", "level"), "redundancy level"
                ),
                "logic": lambda: _enum_value(GroupLogic, line.expect("word", "logic"), "group logic"),
                "members": lambda: [t.text for t in line.id_list("member id")],
            },
        )
        self.model.redundancy_groups.append(RedundancyGroup(ident.text, span=ident.span, **fields))

    def _shared_resource(self, line: _Line) -> None:
        ident = line.expect("word", "shared_resource id")
        fields = _keyed(
            line,
            ident,
            "shared_resource",
            {
                "scope": lambda: _enum_value(ResourceScope, line.expect("word", "scope"), "resource scope"),
                "dependents": lambda: [t.text for t in line.id_list("component id")],
            },
        )
        self.model.shared_resources.append(SharedResource(ident.text, span=ident.span, **fields))


def parse_model(text: str, file_name: str = "<model>") -> SystemModel:
    """Parse a document into a SystemModel; raise ParseError with a span."""
    lines: list[list[Token]] = []
    for lineno, raw in enumerate(_LINE_END_RE.split(text), start=1):
        tokens = _tokenize_line(raw, lineno, file_name)
        if tokens:
            lines.append(tokens)
    return _Parser(lines, file_name).parse()


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")


def _serialize_link(link: Link, indent: str) -> list[str]:
    keyword = "control_action" if link.kind is LinkKind.CONTROL_ACTION else "info_flow"
    head = f"{indent}{keyword} {link.id} -> {', '.join(link.targets)}"
    if not link.applicability:
        return [head]
    lines = [head + " {"]
    for app in link.applicability:
        lines.append(f"{indent}  applicable: {app.type.letter} hazards: {', '.join(app.hazards)}")
    lines.append(indent + "}")
    return lines


def _serialize_component(component: Component, indent: str) -> list[str]:
    head = (
        f"{indent}component {component.id} kind: {component.kind.value} "
        f"tech: {component.tech.value} class: {component.design_class}"
    )
    body: list[str] = []
    for link in component.links:
        body.extend(_serialize_link(link, indent + "  "))
    if component.inputs:
        body.append(f"{indent}  inputs: {', '.join(str(r) for r in component.inputs)}")
    if component.feedback_inputs:
        body.append(f"{indent}  feedback: {', '.join(str(r) for r in component.feedback_inputs)}")
    if not body:
        return [head]
    return [head + " {"] + body + [indent + "}"]


def serialize_model(model: SystemModel) -> str:
    """Render a model in canonical form.  Pure function of the model."""
    out: list[str] = [f'system "{_escape(model.name)}"', f'top_event "{_escape(model.top_event)}"']

    def section(lines: list[str]) -> None:
        if lines:
            out.append("")
            out.extend(lines)

    section([f'loss {loss.id} "{_escape(loss.description)}"' for loss in model.losses])
    section(
        [
            f'hazard {h.id} "{_escape(h.description)}" losses: {", ".join(h.losses)}'
            for h in model.hazards
        ]
    )
    class_lines = []
    for dc in model.design_classes:
        line = f'design_class {dc.id} "{_escape(dc.description)}"'
        if dc.diversity_tag != dc.id:
            line += f" diversity: {dc.diversity_tag}"
        class_lines.append(line)
    section(class_lines)
    for division in model.divisions:
        lines: list[str] = []
        if division.replicates is not None:
            lines.append(f"division {division.id} replicates {division.replicates}")
        elif not division.components:
            lines.append(f"division {division.id}")
        else:
            lines.append(f"division {division.id} {{")
            for component in division.components:
                lines.extend(_serialize_component(component, "  "))
            lines.append("}")
        section(lines)
    section(
        [
            f"redundancy_group {g.id} level: {g.level.value} logic: {g.logic.value} "
            f"members: {', '.join(g.members)}"
            for g in model.redundancy_groups
        ]
    )
    section(
        [
            f"shared_resource {r.id} scope: {r.scope.value} dependents: {', '.join(r.dependents)}"
            for r in model.shared_resources
        ]
    )
    return "\n".join(out) + "\n"

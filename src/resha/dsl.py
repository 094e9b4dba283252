"""Line-oriented model description language.

Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line, and each line holds one
statement.  ``{`` opens a nested block and must end its line, ``}`` closes it
on a line of its own.  A line is scanned left to right with one regular
expression match per token, which also takes the whitespace before the
token; a comment or the end of the line ends the scan.  The tokens are:

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
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator

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

# One match per token, whitespace before it included.  ``end`` also matches at
# the line's end, so ``other`` never takes back a trailing whitespace character.
_TOKEN_RE = re.compile(
    r"""[ \t\f\v\x1c-\x1e\x85\u2028\u2029]*
    (?:(?P<word>[A-Za-z][A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]*)*)
    |(?P<punct>[{}:,.])
    |(?P<string>"(?P<body>[^"\\]*(?:\\.[^"\\]*)*)(?P<close>")?)
    |(?P<arrow>->)
    |(?P<end>\#|\Z)
    |(?P<other>.))""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}
# Each enum's members by value: a dict lookup is cheaper than calling the enum.
_MEMBERS = {
    enum_cls: {member.value: member for member in enum_cls}
    for enum_cls in (ComponentKind, Technology, FailureModeType, RedundancyLevel, GroupLogic, ResourceScope)
}
_LINK_KINDS = {"control_action": LinkKind.CONTROL_ACTION, "info_flow": LinkKind.INFORMATION_FLOW}


class ParseError(Exception):
    """Syntax error, located by a source span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


# kind (word, string, arrow, punct or end), text (decoded for strings) and column
Token = tuple[str, str, int]


def _tokenize_line(text: str, lineno: int, file_name: str) -> list[Token]:
    """The line's tokens and an ``end`` token just past the last one, or none at all."""
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "end":
            break
        value = match[kind]
        column = match.start(kind) + 1
        if kind == "string":
            value = match["body"]
            if "\\" in value:
                for escape in _ESCAPE_RE.finditer(text, match.start("body"), match.end("body")):
                    if escape[1] not in _ESCAPES:
                        where = SourceSpan(file_name, lineno, escape.start() + 1)
                        raise ParseError(f"unsupported escape '\\{escape[1]}'", where)
                value = _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], value)
            if match["close"] is None:
                raise ParseError("unterminated string", SourceSpan(file_name, lineno, column))
        elif kind == "other":
            raise ParseError(f"unexpected character {value!r}", SourceSpan(file_name, lineno, column))
        tokens.append((kind, value, column))
    if tokens:
        tokens.append(("end", "", match.start() + 1))
    return tokens


class _Line:
    """Cursor over one line's tokens, which close with an ``end`` token."""

    def __init__(self, tokens: list[Token], lineno: int, file_name: str):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.file_name = file_name

    def span(self, token: Token) -> SourceSpan:
        return SourceSpan(self.file_name, self.lineno, token[2])

    def at_end(self) -> bool:
        return self.tokens[self.pos][0] == "end"

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.span(self.tokens[self.pos]))

    def opt(self, kind: str, text: str | None = None) -> Token | None:
        """Consume the next token if it has this kind and, when given, text."""
        token = self.tokens[self.pos]
        if token[0] != kind or text is not None and token[1] != text:
            return None
        self.pos += 1
        return token

    def expect(self, kind: str, what: str | None = None, text: str | None = None) -> Token:
        token = self.tokens[self.pos]
        if token[0] != kind or text is not None and token[1] != text:
            raise self.fail(f"expected {what or repr(text)}")
        self.pos += 1
        return token

    def expect_end(self) -> None:
        if self.tokens[self.pos][0] != "end":
            raise self.fail("unexpected trailing tokens")

    def id_list(self, what: str) -> list[str]:
        items = [self.expect("word", what)[1]]
        while self.opt("punct", ","):
            items.append(self.expect("word", what)[1])
        return items

    def ref_list(self) -> list[Ref]:
        refs: list[Ref] = []
        while True:
            comp = self.expect("word", "component reference")
            port: str | None = None
            if self.opt("punct", "."):
                port = self.expect("word", "port name")[1]
            refs.append(Ref(comp[1], port, span=self.span(comp)))
            if not self.opt("punct", ","):
                return refs


def _enum_value(enum_cls, line: _Line, token: Token, what: str):
    member = _MEMBERS[enum_cls].get(token[1])
    if member is None:
        choices = ", ".join(choice.value for choice in enum_cls)
        raise ParseError(f"unknown {what} '{token[1]}' (one of: {choices})", line.span(token))
    return member


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
        if key[1] in values:
            raise ParseError(f"duplicate key '{key[1]}'", line.span(key))
        if key[1] not in readers:
            raise ParseError(f"unknown {statement} key '{key[1]}'", line.span(key))
        values[key[1]] = readers[key[1]]()
    for key in readers:
        if key not in values:
            raise ParseError(f"{statement} '{ident[1]}' is missing '{key}'", line.span(ident))
    return values


class _Parser:
    def __init__(self, lines: list[_Line], file_name: str):
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
            handler = self.statements.get(head[1])
            if handler is None:
                raise ParseError(f"unknown statement '{head[1]}'", line.span(head))
            handler(line)
        return self.model

    def _next_line(self) -> _Line:
        if self.pos >= len(self.lines):
            last = self.lines[-1]
            raise ParseError("unexpected end of document inside block", last.span(last.tokens[-1]))
        line = self.lines[self.pos]
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
        self.model.name = line.expect("string", "system name")[1]
        line.expect_end()

    def _top_event(self, line: _Line) -> None:
        if self.saw_top_event:
            raise line.fail("'top_event' declared twice")
        self.saw_top_event = True
        self.model.top_event = line.expect("string", "top event description")[1]
        line.expect_end()

    def _loss(self, line: _Line) -> None:
        ident = line.expect("word", "loss id")
        desc = line.expect("string", "loss description")
        line.expect_end()
        self.model.losses.append(Loss(ident[1], desc[1], span=line.span(ident)))

    def _hazard(self, line: _Line) -> None:
        ident = line.expect("word", "hazard id")
        desc = line.expect("string", "hazard description")
        line.expect("word", text="losses")
        line.expect("punct", text=":")
        losses = line.id_list("loss id")
        line.expect_end()
        self.model.hazards.append(Hazard(ident[1], desc[1], losses, span=line.span(ident)))

    def _design_class(self, line: _Line) -> None:
        ident = line.expect("word", "design_class id")
        desc = line.expect("string", "design_class description")
        tag = ""
        if not line.at_end():
            line.expect("word", text="diversity")
            line.expect("punct", text=":")
            tag = line.expect("word", "diversity tag")[1]
        line.expect_end()
        self.model.design_classes.append(DesignClass(ident[1], desc[1], tag, span=line.span(ident)))

    def _division(self, line: _Line) -> None:
        ident = line.expect("word", "division id")
        division = Division(ident[1], span=line.span(ident))
        if line.opt("word", "replicates"):
            division.replicates = line.expect("word", "division id")[1]
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
            if key[1] not in ("kind", "tech", "class"):
                raise ParseError(f"unknown component key '{key[1]}'", line.span(key))
            if key[1] in fields:
                raise ParseError(f"duplicate component key '{key[1]}'", line.span(key))
            line.expect("punct", text=":")
            fields[key[1]] = line.expect("word", f"{key[1]} value")
        component = Component(
            id=ident[1],
            kind=_enum_value(ComponentKind, line, fields["kind"], "component kind"),
            tech=_enum_value(Technology, line, fields["tech"], "technology"),
            design_class=fields["class"][1],
            span=line.span(ident),
        )
        for inner in self._block(line):
            key = inner.expect("word", "'control_action', 'info_flow', 'inputs' or 'feedback'")
            if key[1] in _LINK_KINDS:
                component.links.append(self._link(inner, _LINK_KINDS[key[1]], component.id))
            elif key[1] in ("inputs", "feedback"):
                inner.expect("punct", text=":")
                refs = component.inputs if key[1] == "inputs" else component.feedback_inputs
                refs.extend(inner.ref_list())
                inner.expect_end()
            else:
                raise ParseError(f"unknown component block statement '{key[1]}'", inner.span(key))
        return component

    def _link(self, line: _Line, kind: LinkKind, source: str) -> Link:
        ident = line.expect("word", "link id")
        line.expect("arrow", "'->'")
        targets = line.id_list("target component id")
        link = Link(ident[1], kind, source, targets, span=line.span(ident))
        for inner in self._block(line):
            inner.expect("word", text="applicable")
            inner.expect("punct", text=":")
            letter = inner.expect("word", "failure type letter")
            type_ = _enum_value(FailureModeType, inner, letter, "failure type")
            inner.expect("word", text="hazards")
            inner.expect("punct", text=":")
            hazards = inner.id_list("hazard id")
            inner.expect_end()
            link.applicability.append(Applicability(type_, hazards, span=inner.span(letter)))
        return link

    def _redundancy_group(self, line: _Line) -> None:
        ident = line.expect("word", "redundancy_group id")
        fields = _keyed(
            line,
            ident,
            "redundancy_group",
            {
                "level": lambda: _enum_value(
                    RedundancyLevel, line, line.expect("word", "level"), "redundancy level"
                ),
                "logic": lambda: _enum_value(GroupLogic, line, line.expect("word", "logic"), "group logic"),
                "members": lambda: line.id_list("member id"),
            },
        )
        self.model.redundancy_groups.append(RedundancyGroup(ident[1], span=line.span(ident), **fields))

    def _shared_resource(self, line: _Line) -> None:
        ident = line.expect("word", "shared_resource id")
        fields = _keyed(
            line,
            ident,
            "shared_resource",
            {
                "scope": lambda: _enum_value(ResourceScope, line, line.expect("word", "scope"), "resource scope"),
                "dependents": lambda: line.id_list("component id"),
            },
        )
        self.model.shared_resources.append(SharedResource(ident[1], span=line.span(ident), **fields))


def parse_model(text: str, file_name: str = "<model>") -> SystemModel:
    """Parse a document into a SystemModel; raise ParseError with a span."""
    lines: list[_Line] = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        tokens = _tokenize_line(raw, lineno, file_name)
        if tokens:
            lines.append(_Line(tokens, lineno, file_name))
    return _Parser(lines, file_name).parse()


"""Line-oriented model description language.

Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line, and each line holds one
statement.  ``{`` opens a nested block and must end its line, ``}`` closes it
on a line of its own.  The document is scanned once, left to right, with one
regular expression match per token, which also takes the whitespace before
the token; a comment runs to the end of its line, and a line that holds
tokens gets an ``end`` token just past its last one.  Every token is read before
the first statement is, so a bad character anywhere is the error reported.
The parser then reads the tokens through one cursor, a statement to a
line.  The tokens are:

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
from collections.abc import Callable

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

# One match per token, whitespace before it included.  ``end`` takes a comment
# and the newline, or the text's end, so ``other`` never takes back trailing
# whitespace, and neither a string nor an escape reaches past its line.
_TOKEN_RE = re.compile(
    r"""[ \t\f\v\x1c-\x1e\x85\u2028\u2029]*
    (?:(?P<word>[A-Za-z][A-Za-z0-9_-]*(?!(?<=-)>))
    |(?P<punct>[{}:,.]|->)
    |(?P<string>"(?P<body>[^"\\\n]*(?:\\.[^"\\\n]*)*)(?P<close>")?)
    |(?P<end>(?:\#[^\n]*)?(?:\n|\Z))
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


# kind (word, string, end, or the mark itself for punctuation and ``->``), text
# (decoded for strings), column and line
Token = tuple[str, str, int, int]


def _tokenize(text: str, file_name: str) -> list[Token]:
    """Every line's tokens, and after a line's last one an ``end`` token just past it."""
    tokens: list[Token] = []
    append = tokens.append
    lineno = 1
    base = -1  # the line's first offset less one: a column is an offset less base
    first = 0  # the line's first token, if it has one
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "word":
            append(("word", match["word"], match.start(kind) - base, lineno))
        elif kind == "punct":
            value = match["punct"]
            append((value, value, match.start(kind) - base, lineno))
        elif kind == "end":
            if len(tokens) > first:
                append(("end", "", match.start() - base, lineno))
                first = len(tokens)
            lineno += 1
            base = match.end() - 1
        elif kind == "string":
            column = match.start(kind) - base
            value = match["body"]
            if "\\" in value:
                for escape in _ESCAPE_RE.finditer(text, match.start("body"), match.end("body")):
                    if escape[1] not in _ESCAPES:
                        where = SourceSpan(file_name, lineno, escape.start() - base)
                        raise ParseError(f"unsupported escape '\\{escape[1]}'", where)
                value = _ESCAPE_RE.sub(lambda escape: _ESCAPES[escape[1]], value)
            if match["close"] is None:
                raise ParseError("unterminated string", SourceSpan(file_name, lineno, column))
            append(("string", value, column, lineno))
        else:
            where = SourceSpan(file_name, lineno, match.start(kind) - base)
            raise ParseError(f"unexpected character {match[kind]!r}", where)
    return tokens


class _Parser:
    """Cursor over a document's tokens; each statement reads one line, to its ``end``."""

    def __init__(self, tokens: list[Token], file_name: str):
        self.tokens = tokens
        self.pos = 0
        self.file_name = file_name
        self.model = SystemModel(name="", top_event="", span=SourceSpan(file_name, 1, 1))
        self.saw_system = False
        self.saw_top_event = False

    def parse(self) -> SystemModel:
        while self.pos < len(self.tokens):
            head = self.expect("word", "statement")
            handler = self.STATEMENTS.get(head[1])
            if handler is None:
                raise ParseError(f"unknown statement '{head[1]}'", self.span(head))
            handler(self)
        return self.model

    def span(self, token: Token) -> SourceSpan:
        return SourceSpan(self.file_name, token[3], token[2])

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

    def expect(self, kind: str, what: str | None = None) -> Token:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise self.fail(f"expected {what or repr(kind)}")
        self.pos += 1
        return token

    def keyword(self, text: str) -> None:
        token = self.tokens[self.pos]
        if token[1] != text or token[0] != "word":
            raise self.fail(f"expected {text!r}")
        self.pos += 1

    def expect_end(self) -> None:
        """Consume the line's ``end``, so the cursor stands at the next line."""
        if self.tokens[self.pos][0] != "end":
            raise self.fail("unexpected trailing tokens")
        self.pos += 1

    def opens_block(self) -> bool:
        """End a statement's line; whether it opened ``{``."""
        opened = self.opt("{")
        self.expect_end()
        return opened is not None

    def in_block(self) -> bool:
        """Whether the next line belongs to the open block; its lone ``}`` is read and closes it."""
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of document inside block", self.span(self.tokens[-1]))
        if self.opt("}"):
            self.expect_end()
            return False
        return True

    def id_list(self, what: str) -> list[str]:
        items = [self.expect("word", what)[1]]
        while self.opt(","):
            items.append(self.expect("word", what)[1])
        return items

    def ref_list(self) -> list[Ref]:
        refs: list[Ref] = []
        while True:
            comp = self.expect("word", "component reference")
            port: str | None = None
            if self.opt("."):
                port = self.expect("word", "port name")[1]
            refs.append(Ref(comp[1], port, span=self.span(comp)))
            if not self.opt(","):
                return refs

    def enum_value(self, enum_cls, token: Token, what: str):
        member = _MEMBERS[enum_cls].get(token[1])
        if member is None:
            choices = ", ".join(choice.value for choice in enum_cls)
            raise ParseError(f"unknown {what} '{token[1]}' (one of: {choices})", self.span(token))
        return member

    def keyed(self, ident: Token, statement: str, readers: dict[str, Callable[[], object]]) -> dict[str, object]:
        """Read ``key: value`` pairs to the line's end, each key once and all required, by its reader."""
        names = [f"'{key}'" for key in readers]
        what = f"{', '.join(names[:-1])} or {names[-1]}"
        values: dict[str, object] = {}
        while not self.at_end():
            key = self.expect("word", what)
            self.expect(":")
            if key[1] in values:
                raise ParseError(f"duplicate key '{key[1]}'", self.span(key))
            if key[1] not in readers:
                raise ParseError(f"unknown {statement} key '{key[1]}'", self.span(key))
            values[key[1]] = readers[key[1]]()
        for key in readers:
            if key not in values:
                raise ParseError(f"{statement} '{ident[1]}' is missing '{key}'", self.span(ident))
        self.expect_end()
        return values

    def _system(self) -> None:
        if self.saw_system:
            raise self.fail("'system' declared twice")
        self.saw_system = True
        self.model.name = self.expect("string", "system name")[1]
        self.expect_end()

    def _top_event(self) -> None:
        if self.saw_top_event:
            raise self.fail("'top_event' declared twice")
        self.saw_top_event = True
        self.model.top_event = self.expect("string", "top event description")[1]
        self.expect_end()

    def _loss(self) -> None:
        ident = self.expect("word", "loss id")
        desc = self.expect("string", "loss description")
        self.expect_end()
        self.model.losses.append(Loss(ident[1], desc[1], span=self.span(ident)))

    def _hazard(self) -> None:
        ident = self.expect("word", "hazard id")
        desc = self.expect("string", "hazard description")
        self.keyword("losses")
        self.expect(":")
        losses = self.id_list("loss id")
        self.expect_end()
        self.model.hazards.append(Hazard(ident[1], desc[1], losses, span=self.span(ident)))

    def _design_class(self) -> None:
        ident = self.expect("word", "design_class id")
        desc = self.expect("string", "design_class description")
        # A class without a diversity tag is its own lineage.
        tag = ident[1]
        if not self.at_end():
            self.keyword("diversity")
            self.expect(":")
            tag = self.expect("word", "diversity tag")[1]
        self.expect_end()
        self.model.design_classes.append(DesignClass(ident[1], desc[1], tag, span=self.span(ident)))

    def _division(self) -> None:
        ident = self.expect("word", "division id")
        division = Division(ident[1], span=self.span(ident))
        if self.opt("word", "replicates"):
            division.replicates = self.expect("word", "division id")[1]
            self.expect_end()
        elif self.opens_block():
            while self.in_block():
                self.keyword("component")
                division.components.append(self._component())
        self.model.divisions.append(division)

    def _component(self) -> Component:
        ident = self.expect("word", "component id")
        fields: dict[str, Token] = {}
        while len(fields) < 3:
            key = self.expect("word", "'kind', 'tech' or 'class'")
            if key[1] not in ("kind", "tech", "class"):
                raise ParseError(f"unknown component key '{key[1]}'", self.span(key))
            if key[1] in fields:
                raise ParseError(f"duplicate component key '{key[1]}'", self.span(key))
            self.expect(":")
            fields[key[1]] = self.expect("word", f"{key[1]} value")
        component = Component(
            id=ident[1],
            kind=self.enum_value(ComponentKind, fields["kind"], "component kind"),
            tech=self.enum_value(Technology, fields["tech"], "technology"),
            design_class=fields["class"][1],
            span=self.span(ident),
        )
        if self.opens_block():
            while self.in_block():
                key = self.expect("word", "'control_action', 'info_flow', 'inputs' or 'feedback'")
                if key[1] in _LINK_KINDS:
                    component.links.append(self._link(_LINK_KINDS[key[1]], component.id))
                elif key[1] in ("inputs", "feedback"):
                    self.expect(":")
                    refs = component.inputs if key[1] == "inputs" else component.feedback_inputs
                    refs.extend(self.ref_list())
                    self.expect_end()
                else:
                    raise ParseError(f"unknown component block statement '{key[1]}'", self.span(key))
        return component

    def _link(self, kind: LinkKind, source: str) -> Link:
        ident = self.expect("word", "link id")
        self.expect("->")
        targets = self.id_list("target component id")
        link = Link(ident[1], kind, source, targets, span=self.span(ident))
        if self.opens_block():
            while self.in_block():
                self.keyword("applicable")
                self.expect(":")
                letter = self.expect("word", "failure type letter")
                type_ = self.enum_value(FailureModeType, letter, "failure type")
                self.keyword("hazards")
                self.expect(":")
                hazards = self.id_list("hazard id")
                self.expect_end()
                link.applicability.append(Applicability(type_, hazards, span=self.span(letter)))
        return link

    def _redundancy_group(self) -> None:
        ident = self.expect("word", "redundancy_group id")
        fields = self.keyed(
            ident,
            "redundancy_group",
            {
                "level": lambda: self.enum_value(RedundancyLevel, self.expect("word", "level"), "redundancy level"),
                "logic": lambda: self.enum_value(GroupLogic, self.expect("word", "logic"), "group logic"),
                "members": lambda: self.id_list("member id"),
            },
        )
        self.model.redundancy_groups.append(RedundancyGroup(ident[1], span=self.span(ident), **fields))

    def _shared_resource(self) -> None:
        ident = self.expect("word", "shared_resource id")
        fields = self.keyed(
            ident,
            "shared_resource",
            {
                "scope": lambda: self.enum_value(ResourceScope, self.expect("word", "scope"), "resource scope"),
                "dependents": lambda: self.id_list("component id"),
            },
        )
        self.model.shared_resources.append(SharedResource(ident[1], span=self.span(ident), **fields))

    # A class-level table of plain functions: a table of bound methods on the
    # parser would hold it in a reference cycle with everything it built.
    STATEMENTS = {
        "system": _system,
        "top_event": _top_event,
        "loss": _loss,
        "hazard": _hazard,
        "design_class": _design_class,
        "division": _division,
        "redundancy_group": _redundancy_group,
        "shared_resource": _shared_resource,
    }


def parse_model(text: str, file_name: str = "<model>") -> SystemModel:
    """Parse a document into a SystemModel; raise ParseError with a span."""
    tokens = _tokenize(text.replace("\r\n", "\n").replace("\r", "\n"), file_name)
    return _Parser(tokens, file_name).parse()

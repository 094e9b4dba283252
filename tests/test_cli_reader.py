"""The plain command-line reader: wherever ``read_plain`` accepts a command
line, its namespace is the one argparse builds from it; and it declines
every form that only argparse reads (help, ``--flag=value``, abbreviations,
``--``, a value that starts with ``-``, a wrong positional count, a missing
required flag and a value that the flag's type or choices refuse)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resha.cli import COMMANDS, build_parser, read_plain

# Values that do not start with "-": empty, spaced, non-ASCII, "=" inside.
TEXT_VALUES = ["m.resha", "out dir/x.json", "", " ", "ü.resha", "x=y", "+", "a-b"]
# What ``int`` reads: signs, spaces, underscores, non-ASCII digits
# (Arabic-Indic, Devanagari, fullwidth).
INT_VALUES = ["1", "2", "0", " 3", "+1", "1_0", "٣", "१", "３", " -1"]
BAD_INT_VALUES = ["x", "", "1.5", "one", "1 1"]


def _flags(command: str) -> dict[str, dict]:
    return {flag: options for flag, options in COMMANDS[command][2] if flag.startswith("--")}


def _positionals(command: str) -> list[str]:
    return ["model", *(flag for flag, _ in COMMANDS[command][2] if not flag.startswith("-"))]


def _values(options: dict) -> st.SearchStrategy[str]:
    if "choices" in options:
        return st.sampled_from(options["choices"])
    return st.sampled_from(INT_VALUES if options.get("type") is int else TEXT_VALUES)


@st.composite
def plain_pieces(draw, command: str) -> list[list[str]]:
    """A plain command line after ``command``, as pieces (a positional, a
    ``store_true`` flag, or a flag and its value) in any order; flags may
    repeat, and every required flag is given."""
    flags = _flags(command)
    pieces = [[draw(st.sampled_from(TEXT_VALUES))] for _ in _positionals(command)]
    given_flags = draw(st.lists(st.sampled_from(sorted(flags)), max_size=6)) if flags else []
    given_flags += [flag for flag, options in flags.items() if options.get("required")]
    for flag in given_flags:
        options = flags[flag]
        pieces.append([flag] if options.get("action") == "store_true" else [flag, draw(_values(options))])
    return draw(st.permutations(pieces))


def _flatten(command: str, pieces: list[list[str]]) -> list[str]:
    return [command, *(token for piece in pieces for token in piece)]


def _argparse_vars(argv: list[str]) -> dict:
    return vars(build_parser().parse_args(argv))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", list(COMMANDS))
def test_reader_accepts_a_plain_command_line_as_argparse_reads_it(command, data):
    argv = _flatten(command, data.draw(plain_pieces(command)))
    args = read_plain(argv)
    assert args is not None, argv
    assert vars(args) == _argparse_vars(argv)


@st.composite
def declined_pieces(draw, command: str) -> list[list[str]]:
    """A plain command line with one change that makes it not plain."""
    pieces = draw(plain_pieces(command))
    flags = _flags(command)
    valued = sorted(flag for flag, options in flags.items() if options.get("action") != "store_true")
    abbreviations = sorted(
        {flag[:end] for flag in flags for end in range(3, len(flag))} - set(flags)
    )
    changes = [
        [["-h"]],
        [["--help"]],
        [["--"]],
        [["-1"]],
        [["--bogus"]],
        [[draw(st.sampled_from(TEXT_VALUES))]],  # one positional too many
        [[f"{flag}={draw(_values(flags[flag]))}"] for flag in valued],
        [[flag, "-1"] for flag in valued],
        [[abbreviation, "1"] for abbreviation in abbreviations],
        [[flag, draw(st.sampled_from(BAD_INT_VALUES))] for flag in valued if flags[flag].get("type") is int],
        [[flag, "bogus"] for flag in valued if "choices" in flags[flag]],
    ]
    # One positional too few, or a required flag left out.
    drops = [[piece for piece in pieces if piece is not dropped] for dropped in pieces if dropped[0][:1] != "-"]
    drops += [
        [piece for piece in pieces if piece[0] != flag] for flag, options in flags.items() if options.get("required")
    ]
    if draw(st.booleans()):
        return draw(st.sampled_from(drops))
    kept = list(pieces)
    kept.insert(draw(st.integers(0, len(kept))), draw(st.sampled_from([c for change in changes for c in change])))
    return kept


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", list(COMMANDS))
def test_reader_declines_what_only_argparse_reads(command, data):
    argv = _flatten(command, data.draw(declined_pieces(command)))
    assert read_plain(argv) is None, argv


def _token_pool(command: str) -> list[str]:
    flags = _flags(command)
    prefixes = {flag[:end] for flag in flags for end in range(2, len(flag))}
    return sorted(
        {*flags, *prefixes, *TEXT_VALUES, *INT_VALUES, *BAD_INT_VALUES, *COMMANDS}
        | {"-h", "--help", "--", "-", "-1", "--bogus", "text", "csv", "json", "md", "txt"}
        | {f"{flag}=1" for flag in flags}
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", list(COMMANDS))
def test_reader_accepts_nothing_that_argparse_reads_otherwise(command, data):
    """Any mix of tokens: if the reader accepts it, argparse accepts it too,
    with the same namespace (argparse exits on anything it refuses)."""
    argv = [command, *data.draw(st.lists(st.sampled_from(_token_pool(command)), max_size=8))]
    args = read_plain(argv)
    if args is not None:
        assert vars(args) == _argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus", "m.resha"],
        ["-h"],
        ["--help", "validate", "m.resha"],
        ["validate"],
        ["validate", "m.resha", "extra"],
        ["verify-golden", "m.resha"],
        ["pipeline", "m.resha"],
        ["cutsets", "m.resha", "--max-order=1"],
        ["cutsets", "m.resha", "--max", "1"],
        ["cutsets", "--", "m.resha"],
        ["cutsets", "m.resha", "--max-order", "-1"],
        ["cutsets", "m.resha", "--max-order"],
        ["stpa", "m.resha", "--format", "md"],
    ],
)
def test_reader_declines_the_argparse_forms(argv):
    assert read_plain(argv) is None

"""Command line interface.

Exit codes: 0 success, 1 analysis findings (validation violations, golden
mismatches), 2 usage, parse, or input errors.  Every subcommand that reads
a model validates it first; on any violation ``main`` prints each one at
its ``file:line:col``, then their count, and exits 1.  A model that
validates exits 2 only on another input: an ``--ft`` tree that does not
fit it, a malformed golden file, or a file that is missing or not UTF-8.
Each subcommand runs the stages that ``pipeline.STAGES`` declares, up to
the value it prints.  Stages chain through files: ``synth`` and
``integrate`` write fault-tree JSON that ``integrate``, ``ccf`` and
``cutsets`` accept back via ``--ft``; the imported tree stands in for the
stage it replaces, so no stage upstream of it runs but validation.  Set
``RESHA_NO_COLOR`` to disable ANSI color on terminals.

Each ``resha`` process pays for every module it imports, so this module
loads only what every subcommand uses: a command imports its writers (and
``verify-golden`` its ``golden`` module) when it runs, and ``run_stages``
imports each stage's module.  Trees are read and written by ``ftree``, so
``report`` loads only for the CSV and summary writers: ``synth``,
``integrate`` and ``ccf`` in text or JSON never import it.  No record
class is a dataclass, so a command loads neither ``dataclasses`` nor
``inspect``: importing the one loads the other, and each decorated class
compiles its methods with ``exec``, together 10-14 ms per process (Python
3.11.7, 2-core host).

``main`` reads a plain command line itself (``read_plain``): a known
command, then only exact ``--flag`` tokens from its ``COMMANDS`` entry,
each followed by one value that does not start with ``-`` (a
``store_true`` flag takes none), and exactly the positionals it declares.
The reader applies each flag's ``type``, ``choices``, ``default`` and
``required`` from that table, the one ``build_parser`` reads, and builds
the namespace argparse would.  Any other command line (help, a usage
error, ``--flag=value``, an abbreviation, ``--``, a value such as ``-1``,
a wrong positional count) goes to ``build_parser``, the one place that
imports ``argparse``, so every help text and usage message is argparse's.
A plain command thus loads neither ``argparse`` nor the ``gettext`` and
``locale`` it brings, about 3.5 ms per process on the host above.
``build_parser`` builds the named command's parser alone, and every parser
only for top-level help and for a missing or unknown command.

A ``resha`` process (``python -m resha.cli`` or the installed ``resha``)
enters through ``entry``, which runs ``main`` and then, whether ``main``
returns or raises (argparse raises ``SystemExit`` on a usage error),
freezes the collector (``gc.freeze``): every object still alive moves to
the permanent generation, which the collector's passes at interpreter
shutdown skip.  Nothing else changes at exit: reference counting still
frees what module teardown releases, ``atexit`` handlers run, stdout and
stderr are flushed, and every file a command writes is closed before
``main`` returns.  Python does not promise to finalize objects that are
still alive at exit, so the freeze skips only work that no command relies
on.  ``main`` itself leaves the collector alone, so a test or library
caller that runs it in process finds the collector as it left it.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .dsl import ParseError, parse_model
from .model import ModelError, SystemModel
from .pipeline import PipelineOptions, ValidationFailed, analyze_model, read_input
from .pipeline import run_pipeline, run_stages

if TYPE_CHECKING:
    import argparse


def _color_enabled(stream) -> bool:
    if os.environ.get("RESHA_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _style(text: str, code: str, stream) -> str:
    if _color_enabled(stream):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_model(path: str) -> SystemModel:
    return parse_model(read_input(path), path)


def _options(args) -> PipelineOptions:
    return PipelineOptions(**{n: getattr(args, n) for n in PipelineOptions._fields if hasattr(args, n)})


def _run(args, *goals: str, ft_replaces: str | None = None) -> dict:
    """Validate the model, then run the stages the goals need on it, with
    ``--ft`` in place of ``ft_replaces``."""
    values = run_stages({"model": _load_model(args.model), **_options(args)._asdict()}, "expanded")
    if getattr(args, "ft", None):
        from .ftree import import_ft

        values[ft_replaces] = import_ft(read_input(args.ft))
    return run_stages(values, *goals)


def cmd_validate(args) -> int:
    _run(args)
    print(_style("model OK", "32", sys.stdout))
    return 0


def cmd_stpa(args) -> int:
    import json

    values = _run(args, "candidates", "instances")
    candidates, instances = values["candidates"], values["instances"]
    if args.format == "csv":
        from .report import traceability_csv

        _emit(traceability_csv(instances, values["expanded"]), args.out)
    elif args.format == "json":
        payload = {"candidates": len(candidates), "instances": [vars(i) for i in instances]}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"candidates: {len(candidates)}", f"applicable: {len(instances)}"]
        lines += [
            f"{i.id}  {i.flavor}  type {i.type}  owner {i.owner}  "
            f"hazards {','.join(i.hazards)}"
            for i in instances
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    from .ftree import export_ft

    values = _run(args, "hardware_tree", "census")
    _emit(export_ft(values["hardware_tree"]), args.out)
    census = values["census"]
    print(
        f"synthesized: {census.hw_stochastic} hw stochastic, {census.dependency} dependency, "
        f"{census.sw_design} sw design, {census.hw_design} hw design",
        file=sys.stderr,
    )
    return 0


def cmd_integrate(args) -> int:
    from .ftree import export_ft

    values = _run(args, "integrated_tree", ft_replaces="hardware_tree")
    _emit(export_ft(values["integrated_tree"]), args.out)
    print(f"integrated {len(values['instances'])} software instances", file=sys.stderr)
    return 0


def cmd_ccf(args) -> int:
    import json

    from .ccf import count_by_type
    from .ftree import export_ft

    values = _run(args, "groups", ft_replaces="integrated_tree")
    groups = values["groups"]
    if args.tree_out:
        injected = run_stages(values, "injected_tree")["injected_tree"]
        Path(args.tree_out).write_text(export_ft(injected), encoding="utf-8")
    if args.format == "csv":
        from .report import ccf_csv

        _emit(ccf_csv(groups), args.out)
    elif args.format == "json":
        _emit(json.dumps([vars(g) for g in groups], indent=2) + "\n", args.out)
    else:
        counts = count_by_type(groups)
        lines = [f"Type {t} sCCF: {n}" for t, n in counts.items()]
        lines += [f"{g.id}  trigger {g.trigger}  members {len(g.members)}" for g in groups]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_cutsets(args) -> int:
    from .report import cut_set_counts, cutsets_csv

    # The CSV lists the cut sets alone; only the text adds the first-order counts.
    goals = ("collection",) if args.format == "csv" else ("collection", "first_order")
    values = _run(args, *goals, ft_replaces="injected_tree")
    collection = values["collection"]
    if args.format == "csv":
        _emit(cutsets_csv(collection, values["injected_tree"]), args.out)
    else:
        ids, lines = collection.events, []
        for head, lasts in collection.walk():
            prefix = f"order {len(head) + 1}: " + "".join([f"{ids[i]} " for i in head])
            lines += [prefix + ids[i] for i in lasts]
        lines += cut_set_counts(collection, values["first_order"])
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_report(args) -> int:
    from .report import render_summary

    result = analyze_model(_load_model(args.model), _options(args))
    _emit(render_summary(result, args.format), args.out)
    return 0


def cmd_pipeline(args) -> int:
    result, paths = run_pipeline(Path(args.model), Path(args.out_dir), _options(args))
    for path in paths:
        print(f"wrote {path}")
    print(
        f"analysis complete: {len(result.instances)} instances, {len(result.groups)} CCF groups, "
        f"{len(result.collection)} minimal cut sets"
    )
    return 0


def cmd_verify_golden(args) -> int:
    from .golden import load_golden, verify_golden

    result = analyze_model(_load_model(args.model))
    report = verify_golden(result, load_golden(Path(args.golden)))
    for field_result in report.fields:
        code = "32" if field_result.ok else "31"
        print(_style(str(field_result), code, sys.stdout))
    if report.ok:
        print(_style(f"golden OK ({len(report.fields)} fields)", "32", sys.stdout))
        return 0
    print(_style(f"golden FAILED ({len(report.mismatches())} mismatches)", "31", sys.stdout))
    return 1


def _arg(flag: str, **options) -> tuple[str, dict]:
    return flag, options


_HW_DESIGN = _arg("--include-hw-design", action="store_true")
_MAX_ORDER = _arg("--max-order", type=int, default=None)
_FORMATS = _arg("--format", choices=("text", "csv", "json"), default="text")
_FT_OUT = _arg("--out", help="write fault-tree JSON to a file")

# name -> (function, help, the arguments after ``model``)
COMMANDS = {
    "validate": (cmd_validate, "check a model document", []),
    "stpa": (
        cmd_stpa,
        "enumerate unsafe control actions and information flows",
        [_FORMATS, _arg("--out", help="write output to a file instead of stdout")],
    ),
    "synth": (cmd_synth, "synthesize the hardware fault tree", [_HW_DESIGN, _FT_OUT]),
    "integrate": (
        cmd_integrate,
        "attach software instances to the fault tree",
        [_arg("--ft", help="hardware fault-tree JSON from a previous synth run"), _HW_DESIGN, _FT_OUT],
    ),
    "ccf": (
        cmd_ccf,
        "detect common cause failure groups",
        [
            _FORMATS,
            _arg("--ft", help="integrated fault-tree JSON to inject into"),
            _HW_DESIGN,
            _arg("--tree-out", help="also write the injected fault-tree JSON here"),
            _arg("--out", help="write group listing to a file"),
        ],
    ),
    "cutsets": (
        cmd_cutsets,
        "compute minimal cut sets",
        [
            _arg("--ft", help="injected fault-tree JSON from a previous ccf run"),
            _HW_DESIGN,
            _MAX_ORDER,
            _arg("--format", choices=("text", "csv"), default="text"),
            _arg("--out", help="write output to a file"),
        ],
    ),
    "report": (
        cmd_report,
        "render the analysis summary",
        [
            _arg("--format", choices=("md", "txt"), default="md"),
            _HW_DESIGN,
            _MAX_ORDER,
            _arg("--out", help="write summary to a file"),
        ],
    ),
    "pipeline": (
        cmd_pipeline,
        "run every stage and write all artifacts",
        [_arg("--out-dir", required=True), _HW_DESIGN, _MAX_ORDER],
    ),
    "verify-golden": (cmd_verify_golden, "check pinned expected values", [_arg("golden", help="golden JSON file")]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command``'s alone (argparse
    passes each help string through ``gettext``); its usage names them all."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="resha",
        description="Model-driven hazard analysis for redundant control architectures",
    )
    names = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (func, help_, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            p.set_defaults(func=func)
            p.add_argument("model", help="model document (.resha)")
            for flag, options in arguments:
                p.add_argument(flag, **options)
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``build_parser`` gives for a plain command line, or
    None for any other.  Plain is a command, then its exact ``--flag`` tokens,
    each but a ``store_true`` one followed by a value that does not start
    with ``-`` and that the flag's ``type`` and ``choices`` accept, and
    exactly its positionals; every ``required`` flag is given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    flags = {flag: options for flag, options in arguments if flag.startswith("--")}
    values: dict[str, object] = {}
    positionals: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        options = flags.get(token)
        if options is None:
            return None
        if options.get("action") == "store_true":
            values[_dest(token)] = True
            continue
        value = next(tokens, "-")  # a flag at the end has no value
        if value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[_dest(token)] = value
    names = ["model", *(flag for flag, _ in arguments if flag not in flags)]
    if len(positionals) != len(names):
        return None
    for flag, options in flags.items():
        if options.get("required") and _dest(flag) not in values:
            return None
        unset = False if options.get("action") == "store_true" else None
        values.setdefault(_dest(flag), options.get("default", unset))
    return SimpleNamespace(command=argv[0], func=func, **dict(zip(names, positionals)), **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_plain(argv)
    if args is None:
        # Help and errors about the command itself list every subparser.
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailed as exc:
        for violation in exc.report.violations:
            print(_style(str(violation), "31", sys.stderr), file=sys.stderr)
        print(f"{len(exc.report.violations)} violation(s)", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Run ``main`` as the ``resha`` process, then freeze the collector as
    the module docstring says; return ``main``'s exit code."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())

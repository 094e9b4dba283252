"""Import cost: each subcommand loads only the modules of the stages it runs,
the ``csv`` module only when a field needs quoting, neither
``dataclasses`` nor ``inspect``, and ``argparse`` (with ``gettext`` and
``locale``) only for help and usage errors; and the package resolves its
public names on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bundled_golden_path
import resha
from resha.cli import main
from resha.pipeline import bundled_model_path

SUBMODULES = ("ccf", "cutsets", "dsl", "ftree", "model", "pipeline", "report", "stpa")

# Runs ``resha ARGS`` as ``python -m resha.cli`` does, then prints its exit
# code, the ``resha.*`` modules it loaded and which of ``OPTIONAL`` it
# loaded.  The CLI itself runs as ``__main__``.
OPTIONAL = ("argparse", "csv", "dataclasses", "gettext", "inspect", "locale")
PROBE = f"""
import json, runpy, sys
sys.argv = ["resha", *sys.argv[1:]]
code = None
try:
    runpy.run_module("resha.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
optional = [m for m in {OPTIONAL!r} if m in sys.modules]
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("resha.")), optional]))
"""

VALIDATE = {"dsl", "model", "pipeline"}
EVERY_STAGE = {*VALIDATE, "ftree", "report", "stpa", "ccf", "cutsets"}

# subcommand arguments (MODEL, GOLDEN and the trees from ``trees`` filled in
# by name) -> the modules that subcommand loads.  Trees are read and written
# by ``ftree``, so only the CSV and summary writers load ``report``.
MODULE_SETS = [
    (["validate", "MODEL"], VALIDATE),
    (["stpa", "MODEL", "--out", "out.txt"], VALIDATE | {"stpa"}),
    (["stpa", "MODEL", "--format", "json", "--out", "out.json"], VALIDATE | {"stpa"}),
    (["stpa", "MODEL", "--format", "csv", "--out", "out.csv"], VALIDATE | {"ftree", "stpa", "report"}),
    (["synth", "MODEL", "--out", "out.json"], VALIDATE | {"ftree"}),
    (["integrate", "MODEL", "--ft", "hw.json", "--out", "out.json"], VALIDATE | {"ftree", "stpa"}),
    (
        ["ccf", "MODEL", "--ft", "int.json", "--tree-out", "out.json", "--out", "out.txt"],
        VALIDATE | {"ftree", "stpa", "ccf"},
    ),
    (
        ["ccf", "MODEL", "--ft", "int.json", "--format", "csv", "--out", "out.csv"],
        VALIDATE | {"ftree", "stpa", "ccf", "report"},
    ),
    (["cutsets", "MODEL", "--ft", "inj.json", "--out", "out.txt"], VALIDATE | {"ftree", "report", "cutsets"}),
    (
        ["cutsets", "MODEL", "--ft", "inj.json", "--format", "csv", "--out", "out.csv"],
        VALIDATE | {"ftree", "report", "cutsets"},
    ),
    (["pipeline", "MODEL", "--out-dir", "out"], EVERY_STAGE),
    (["report", "MODEL", "--out", "out.md"], EVERY_STAGE),
    (["verify-golden", "MODEL", "GOLDEN"], EVERY_STAGE | {"golden"}),
]


def _run(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(resha.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def trees(tmp_path_factory) -> Path:
    """A directory holding the synth, integrate and ccf trees of the bundled model."""
    root = tmp_path_factory.mktemp("trees")
    model = str(bundled_model_path())
    assert main(["synth", model, "--out", str(root / "hw.json")]) == 0
    assert main(["integrate", model, "--ft", str(root / "hw.json"), "--out", str(root / "int.json")]) == 0
    assert main(["ccf", model, "--ft", str(root / "int.json"), "--tree-out", str(root / "inj.json")]) == 0
    return root


def _case_id(args: list[str]) -> str:
    """The subcommand, and its ``--format`` when one is given."""
    if "--format" in args:
        return f"{args[0]}-{args[args.index('--format') + 1]}"
    return args[0]


def _probe(args: list[str], cwd: Path) -> tuple[int, list[str], list[str]]:
    """``resha ARGS``'s exit code, ``resha.*`` modules and ``OPTIONAL``
    modules, with MODEL and GOLDEN filled in."""
    names = {"MODEL": str(bundled_model_path()), "GOLDEN": str(bundled_golden_path())}
    proc = _run(PROBE, *(names.get(arg, arg) for arg in args), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("args, modules", MODULE_SETS, ids=[_case_id(args) for args, _ in MODULE_SETS])
def test_subcommand_loads_only_its_stages(args, modules, trees):
    code, loaded, optional = _probe(args, trees)
    assert code == 0
    assert loaded == sorted(f"resha.{module}" for module in modules)
    # No field of the bundled model needs quoting, so no writer asks csv;
    # no record class needs dataclasses, which would load inspect; and a
    # plain command line is read without argparse, gettext and locale.
    assert optional == []


@pytest.mark.parametrize(
    "args, code",
    [(["cutsets", "--help"], 0), (["validate"], 2)],
    ids=["help", "usage-error"],
)
def test_help_and_usage_errors_load_argparse(args, code, tmp_path):
    """Only argparse prints help and usage errors, so these load it."""
    exit_code, _, optional = _probe(args, tmp_path)
    assert exit_code == code
    assert "argparse" in optional


def test_bare_import_loads_no_submodule(tmp_path):
    code = (
        "import json, sys, resha\n"
        "before = sorted(m for m in sys.modules if m.startswith('resha.'))\n"
        f"reached = [getattr(resha, name).__name__ for name in {SUBMODULES!r}]\n"
        "unused = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps([before, reached, unused]))\n"
    )
    proc = _run(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [f"resha.{name}" for name in SUBMODULES], []]


def test_public_names_are_their_modules_attributes():
    assert len(resha.__all__) == 41
    for name in resha.__all__:
        module = importlib.import_module(f"resha.{resha._MODULE_OF[name]}")
        assert getattr(resha, name) is getattr(module, name)
    star: dict[str, object] = {}
    exec("from resha import *", star)
    assert sorted(set(star) - {"__builtins__"}) == resha.__all__


# ``serialize_model`` lives in the tests' conftest; the package must not
# re-export it.
@pytest.mark.parametrize("name", ["golden_record", "serialize_model"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(resha, name)

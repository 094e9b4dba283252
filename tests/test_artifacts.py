"""The bytes of every artifact, pinned by SHA-256.

``write_artifacts`` runs on the bundled model, on scaled variants of it and
on ``SYNTHESIS_MODEL``, which takes the synthesis branches the bundled model
does not, and each of the six files must hash to the literal table below.
A change that means to alter an artifact edits this table and says why;
nothing regenerates it.  Where a case is a benchmark workload, the order-invariant
digests (all but ``ft.json``, whose node order follows the document) must
also equal ``benchmark/expected.json``.  The same digests, and those of the
CLI listings pinned in ``test_cli.py``, hold under every interpreter listed
in ``RESHA_EXTRA_PYTHONS``; each of them compiles the package with warnings
as errors, and reports each malformed document in ``MALFORMED`` with this
interpreter's exit code and stderr bytes.  Renaming the components
changes no row of ``cutsets.csv`` or ``ccf.csv`` beyond the names.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import SYNTHESIS_MODEL, scaled_qiasp
from resha.dsl import parse_model
from resha.model import REPLICA_SEP, RedundancyLevel, SystemModel
from resha.pipeline import PipelineOptions, analyze_model, analyze_text, bundled_model_path, write_artifacts
from resha.report import ccf_csv, cutsets_csv
from test_cli import LISTING_DIGESTS

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_JSON = ROOT / "benchmark" / "expected.json"

# case -> (divisions of the bundled model, or a model text; options;
#          benchmark workload or None)
CASES = {
    "bundled": (2, PipelineOptions(), "qiasp-exact"),
    "bundled-order2": (2, PipelineOptions(max_order=2), None),
    "bundled-hw-design": (2, PipelineOptions(include_hw_design=True), None),
    "div3-order2": (3, PipelineOptions(max_order=2), "div3-order2"),
    "div8-order1": (8, PipelineOptions(max_order=1), "div8-order1"),
    "synthesis": (SYNTHESIS_MODEL, PipelineOptions(), None),
    "synthesis-hw-design": (SYNTHESIS_MODEL, PipelineOptions(include_hw_design=True), None),
}

QIASP_CUTSETS = "870a28b3a70488d063e1ea086eb8670375bebb906b9d8b11236134643d5a9c45"
QIASP_CCF = "c7df1ff06a01e027336478805081061350e66ad8066c0a2d527a261e33171063"
QIASP_TRACEABILITY = "f8826f9b3af86a758e83d502c06b772c24380d7b0ad85934fea3adb64134a5f4"
SINGLETONS_CUTSETS = "214fc6a18e60baec1c6382c87052e07778dc6bcab807f749c6f770bf939bd05d"
SYNTHESIS_CCF = "d17fcff733a337e467c427ae040f691d4082d93b3b7920c840d95a0f2ac9df08"
SYNTHESIS_TRACEABILITY = "9d2391b28e8a07782c789c32d6ce23fc2c515a0ed68473a7ac24e81fcaf65312"

DIGESTS = {
    "bundled": {
        "ft.json": "e7e32ed961d46b9b41fb54ea3b09ae8f6caeaac487e8db62c767fb39ffa390aa",
        "cutsets.csv": QIASP_CUTSETS,
        "ccf.csv": QIASP_CCF,
        "traceability.csv": QIASP_TRACEABILITY,
        "summary.md": "8e80fd9e11fc908a5bd9e7fe210016840a3f5a17bf98de0c42e1fa9dbf567008",
        "summary.txt": "58bdf5d0493ec99d841731a589988be3001b7fd17f6b81e46d780ab80f874631",
    },
    "bundled-order2": {
        "ft.json": "e7e32ed961d46b9b41fb54ea3b09ae8f6caeaac487e8db62c767fb39ffa390aa",
        "cutsets.csv": QIASP_CUTSETS,
        "ccf.csv": QIASP_CCF,
        "traceability.csv": QIASP_TRACEABILITY,
        "summary.md": "c32c868ab6d1b99499e210e8f275c47cc7c9ab6a238d4f327cdb8967dc384367",
        "summary.txt": "df139175f04ae5b79d0ce9444741dee86ce5b1bd6fef1396bf1d0e229255ac40",
    },
    "bundled-hw-design": {
        "ft.json": "484269d08a3889a9916906f6c0bf4c8dd96152bcc27da4cbba6f36ee3a45a675",
        "cutsets.csv": "d8504fab648226c342cc648f03089b8bb71bfbda4152fd9cb3261929959a44d8",
        "ccf.csv": QIASP_CCF,
        "traceability.csv": QIASP_TRACEABILITY,
        "summary.md": "ea65e5e725ec07195596e88fd2c5df30c67b7c6fb5fb1ff3fa994ed7a75bce72",
        "summary.txt": "1ca5af624bfa2742813b339f108475a1b537b67dcd8c619bfbfc2d16beaed58d",
    },
    "div3-order2": {
        "ft.json": "40d59f68ef43719f5e61aa31fd17ae4514345cad370a6f631c51b71cce947997",
        "cutsets.csv": SINGLETONS_CUTSETS,
        "ccf.csv": "39b5641e741d2983e4c8f87d28dcfa0a48a8dc5f85eb52f8a7cb4f21ee1a9dfe",
        "traceability.csv": "d0e986c419cdfab1ddb7aedec385d69bd498fa61467c8ccb3f652216798c3633",
        "summary.md": "5628b4744d8a948dc71be9fbae0ccadb726a70d53f7b980b6d4efeb23cd40250",
        "summary.txt": "2fafd897b79aa3c805b166459f08574f857cb7991f5604b4f3e1b79e32a33fd6",
    },
    "div8-order1": {
        "ft.json": "c7562baa54a64d7360e14901782e4c3785a14bff76048416e7b44d78058422b8",
        "cutsets.csv": SINGLETONS_CUTSETS,
        "ccf.csv": "bdaa3eee39149508a4164942da1df114e728a402a2fac3a9696011121b86eb62",
        "traceability.csv": "46d11c6bcf8f3b0b6157d6252bb6c54ba5755bdf718dfdc6ef226bbcaa380c52",
        "summary.md": "ebdfebd45392c3476cf6052b341531b41aabfb4be015b9db864d19f3b02a0da1",
        "summary.txt": "9da832cb0bee9fa590ad4dfa63b6556ce2242f630682d4da3318d05c339a43d0",
    },
    "synthesis": {
        "ft.json": "5ca728dd2c77f98864923cc28f7d90ad6be8ff79fb8e008f261027bf6c0e2a2f",
        "cutsets.csv": "e26c2f23a586dbab325cd93f886dd8fade58c5840e1aec09f10618dd7a3afb80",
        "ccf.csv": SYNTHESIS_CCF,
        "traceability.csv": SYNTHESIS_TRACEABILITY,
        "summary.md": "b3f35c97c30b1da2b5a7411960a2c62a98c0d48740ee62399510ac4fe72969af",
        "summary.txt": "4022f5f303db93edd5fab9a158f328a6c503924f53cec6a44dcba9a1bb2f53d4",
    },
    "synthesis-hw-design": {
        "ft.json": "1ebd8a5f04b413d077494b9801adeb0ce98664e9de3939a9e7b28cdc24e0b044",
        "cutsets.csv": "767c656f55cdddb6a1c2c9001214a48c21baf59f6623a95ce8ec43b3aacddbde",
        "ccf.csv": SYNTHESIS_CCF,
        "traceability.csv": SYNTHESIS_TRACEABILITY,
        "summary.md": "bf7bb675932b9c76149834ea5adf05b13d44c862ac02310292bce75a418d090d",
        "summary.txt": "b4c74edb81f62702844def7c27695e3363cc07bf7011a37517ef7b94b1979a19",
    },
}

# ``cutsets.csv`` of the exact 3-division variant: 110,636 rows.
THREE_DIVISIONS_EXACT_CUTSETS = "2363e224e1f3d6056ae578a35c5cf98fbab90986cf98308c772d1a6b5f6caab2"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case_text(case: str, qiasp_text: str) -> str:
    model = CASES[case][0]
    return model if isinstance(model, str) else scaled_qiasp(qiasp_text, model)


@pytest.mark.parametrize("case", CASES)
def test_artifact_bytes_are_pinned(case, qiasp_text, tmp_path):
    result = analyze_text(_case_text(case, qiasp_text), "model.resha", CASES[case][1])
    paths = write_artifacts(result, tmp_path)
    assert {path.name: sha256(path.read_bytes()) for path in paths} == DIGESTS[case]


@pytest.mark.parametrize("case", [case for case, (_, _, workload) in CASES.items() if workload])
def test_pinned_digests_agree_with_the_benchmark(case):
    expected = json.loads(EXPECTED_JSON.read_text(encoding="utf-8"))[CASES[case][2]]
    order_invariant = {name: digest for name, digest in expected.items() if ":" not in name}
    assert order_invariant == {name: DIGESTS[case][name] for name in order_invariant}


def test_three_divisions_exact_cutsets_csv_is_pinned(qiasp_text):
    result = analyze_text(scaled_qiasp(qiasp_text, 3), "qiasp3.resha")
    csv_text = cutsets_csv(result.collection, result.injected_tree)
    assert sha256(csv_text.encode("utf-8")) == THREE_DIVISIONS_EXACT_CUTSETS


EXTRA_PYTHONS = [path for path in os.environ.get("RESHA_EXTRA_PYTHONS", "").split(os.pathsep) if path]

# Documents that end at an edge of the tokenizer's one scan, by file name.
MALFORMED = {
    "unterminated-at-eof.resha": 'system "s"\nloss L-1 "open',
    "bad-escape.resha": 'system "a\\qb"\n',
    "lone-cr.resha": 'system "s"\rtop_event "t"\rbogus x\r',
    "ls-in-string.resha": 'system "a\u2028b"\ntop_event "t\u2029"\n',
    "ls-outside.resha": 'system "s"\u2028\nloss\u2028L-1 "x" %\n',
    "comment-after-token.resha": 'system "s"# c\nloss L-1"x"#c\ntop_event# c\n',
    "trailing-whitespace.resha": 'system "s" \t\ndivision \x0b\n',
    "dash-before-arrow.resha": 'system "s"\nloss L-->x "d"\n',
}


def _validate_outcomes(python: str, directory: Path, env: dict[str, str]) -> dict[str, tuple[int, bytes]]:
    """Exit code and stderr of ``resha validate`` on each malformed document."""
    outcomes = {}
    for name in MALFORMED:
        args = [python, "-m", "resha.cli", "validate", name]
        proc = subprocess.run(args, capture_output=True, env=env, cwd=directory)
        outcomes[name] = (proc.returncode, proc.stderr)
    return outcomes


@pytest.mark.skipif(not EXTRA_PYTHONS, reason="RESHA_EXTRA_PYTHONS lists no interpreter")
@pytest.mark.parametrize("python", EXTRA_PYTHONS)
def test_artifact_bytes_agree_under_other_interpreters(python, qiasp_text, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # A regular expression literal is where 3.12 and later warn of an invalid escape.
    compiled = subprocess.run(
        [python, "-W", "error", "-m", "compileall", "-q", str(ROOT / "src" / "resha")],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPYCACHEPREFIX": str(tmp_path / "pycache")},
    )
    assert compiled.returncode == 0, compiled.stdout + compiled.stderr
    for name, text in MALFORMED.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    assert _validate_outcomes(python, tmp_path, env) == _validate_outcomes(sys.executable, tmp_path, env)
    for case, (_, options, _) in CASES.items():
        model_path = tmp_path / f"{case}.resha"
        model_path.write_text(_case_text(case, qiasp_text), encoding="utf-8")
        out_dir = tmp_path / case
        args = [python, "-m", "resha.cli", "pipeline", str(model_path), "--out-dir", str(out_dir)]
        if options.include_hw_design:
            args.append("--include-hw-design")
        if options.max_order is not None:
            args += ["--max-order", str(options.max_order)]
        proc = subprocess.run(args, capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, (case, proc.stderr)
        digests = {path.name: sha256(path.read_bytes()) for path in out_dir.iterdir()}
        assert digests == DIGESTS[case], case
    # The CLI listings on the bundled model, written to stdout.
    for command, digest in LISTING_DIGESTS.items():
        name, *options = command.split()
        args = [python, "-m", "resha.cli", name, str(bundled_model_path()), *options]
        proc = subprocess.run(args, capture_output=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, (command, proc.stderr)
        assert sha256(proc.stdout) == digest, command


PREFIX = "zz_"


def _prefixed_components(text: str) -> SystemModel:
    """The parsed model with every component id prefixed wherever it is
    named: component ids, refs, link sources and targets, module-level group
    members and resource dependents, and the replica ids among them."""
    model = parse_model(text)
    ids = {c.id for c in model.components()}

    def new(name: str) -> str:
        base, sep, _ = name.rpartition(REPLICA_SEP)
        return PREFIX + name if name in ids or (sep and base in ids) else name

    for component in model.components():
        component.id = new(component.id)
        component.inputs = [replace(ref, component=new(ref.component)) for ref in component.inputs]
        component.feedback_inputs = [
            replace(ref, component=new(ref.component)) for ref in component.feedback_inputs
        ]
        for link in component.links:
            link.source = new(link.source)
            link.targets = [new(target) for target in link.targets]
    for group in model.redundancy_groups:
        if group.level is not RedundancyLevel.DIVISION:
            group.members = [new(member) for member in group.members]
    for resource in model.shared_resources:
        resource.dependents = [new(dependent) for dependent in resource.dependents]
    return model


@pytest.mark.parametrize("max_order", [None, 2])
def test_renaming_components_changes_only_the_names(qiasp_text, max_order):
    options = PipelineOptions(max_order=max_order)
    original = analyze_text(qiasp_text, "qiasp.resha", options)
    renamed = analyze_model(_prefixed_components(qiasp_text), options)
    assert renamed.collection.order_index() == original.collection.order_index()
    assert len(renamed.groups) == len(original.groups)
    # Map renamed ids back token by token; a token that names no renamed
    # component, such as a division or a failure type, stays as it is.
    back = {PREFIX + c.id: c.id for c in original.expanded.components()}
    assert set(back) == {c.id for c in renamed.expanded.components()}

    def rows(text: str) -> Counter[str]:
        tokens = (re.split(r"([:;,])", line) for line in text.splitlines())
        return Counter("".join(back.get(t, t) for t in line) for line in tokens)

    for render in (
        lambda result: cutsets_csv(result.collection, result.injected_tree),
        lambda result: ccf_csv(result.groups),
    ):
        renamed_text, original_text = render(renamed), render(original)
        assert PREFIX in renamed_text and PREFIX not in original_text
        assert rows(renamed_text) == rows(original_text)

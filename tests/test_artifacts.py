"""The bytes of every artifact, pinned by SHA-256.

``write_artifacts`` runs on the bundled model and on scaled variants of it,
and each of the six files must hash to the literal table below.  A change
that means to alter an artifact edits this table and says why; nothing
regenerates it.  Where a case is a benchmark workload, the order-invariant
digests (all but ``ft.json``, whose node order follows the document) must
also equal ``benchmark/expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import scaled_qiasp
from resha.pipeline import PipelineOptions, analyze_text, write_artifacts
from resha.report import cutsets_csv

EXPECTED_JSON = Path(__file__).resolve().parents[1] / "benchmark" / "expected.json"

# case -> (divisions, options, benchmark workload or None)
CASES = {
    "bundled": (2, PipelineOptions(), "qiasp-exact"),
    "bundled-order2": (2, PipelineOptions(max_order=2), None),
    "bundled-hw-design": (2, PipelineOptions(include_hw_design=True), None),
    "div3-order2": (3, PipelineOptions(max_order=2), "div3-order2"),
    "div8-order1": (8, PipelineOptions(max_order=1), "div8-order1"),
}

QIASP_CUTSETS = "870a28b3a70488d063e1ea086eb8670375bebb906b9d8b11236134643d5a9c45"
QIASP_CCF = "c7df1ff06a01e027336478805081061350e66ad8066c0a2d527a261e33171063"
QIASP_TRACEABILITY = "f8826f9b3af86a758e83d502c06b772c24380d7b0ad85934fea3adb64134a5f4"
SINGLETONS_CUTSETS = "214fc6a18e60baec1c6382c87052e07778dc6bcab807f749c6f770bf939bd05d"

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
}

# ``cutsets.csv`` of the exact 3-division variant: 110,636 rows.
THREE_DIVISIONS_EXACT_CUTSETS = "2363e224e1f3d6056ae578a35c5cf98fbab90986cf98308c772d1a6b5f6caab2"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_artifact_bytes_are_pinned(case, qiasp_text, tmp_path):
    divisions, options, _ = CASES[case]
    result = analyze_text(scaled_qiasp(qiasp_text, divisions), "qiasp.resha", options)
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

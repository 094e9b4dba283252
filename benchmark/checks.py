"""Output checks shared by the worker and run.py.

Five artifacts are independent of the document's declaration order and are
compared by SHA-256 against ``expected.json``.  ``ft.json`` follows the
document order, so it is read back with ``report.import_ft`` and compared
by structure: node ids, gate ops and child sets.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

from resha.ftree import FaultTree, Gate
from resha.report import import_ft

from workloads import CCF_GROUPS, INSTANCES_PER_DIVISION, Workload

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DIGESTED_ARTIFACTS = ("cutsets.csv", "ccf.csv", "traceability.csv", "summary.md", "summary.txt")
FT_STRUCTURE = "ft.json:structure"


def load_expected() -> dict[str, dict[str, str]]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_structure_digest(tree: FaultTree) -> str:
    """Digest of node ids, gate ops and child sets; independent of node order."""
    rows = sorted(
        [node.id, node.op.value, sorted(node.children)] if isinstance(node, Gate) else [node.id]
        for node in tree.nodes.values()
    )
    return sha256(json.dumps([tree.root, rows]).encode())


def read_tree(path: Path) -> FaultTree:
    return import_ft(Path(path).read_text(encoding="utf-8"))


def digest_mismatches(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [
        f"{name}: digest {actual.get(name, 'missing')[:12]} != expected {digest[:12]}"
        for name, digest in expected.items()
        if actual.get(name) != digest
    ]


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """Digests of the order-invariant artifacts in a pipeline output directory."""
    return {name: sha256((Path(out_dir) / name).read_bytes()) for name in DIGESTED_ARTIFACTS}


def pipeline_digests(out_dir: Path) -> dict[str, str]:
    """``artifact_digests`` plus the structure digest of ``ft.json``."""
    digests = artifact_digests(out_dir)
    digests[FT_STRUCTURE] = tree_structure_digest(read_tree(Path(out_dir) / "ft.json"))
    return digests


def count_mismatches(
    workload: Workload, instances: int, groups: int, order_index: dict[int, int]
) -> list[str]:
    expected = (
        INSTANCES_PER_DIVISION * workload.divisions,
        CCF_GROUPS,
        workload.expected_order_index(),
    )
    actual = (instances, groups, order_index)
    names = ("instances", "ccf groups", "order index")
    return [f"{n}: {a} != expected {e}" for n, a, e in zip(names, actual, expected) if a != e]


def read_cut_sets(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row["members"].split(";") for row in csv.DictReader(handle)]


def soundness_problems(
    tree: FaultTree, cut_sets: list[list[str]], rng: random.Random, sample: int
) -> list[str]:
    """Each sampled set must fail the top and stop doing so without any one member.

    Uses only ``FaultTree.evaluate``, never the cut-set engine.  All sets are
    checked when there are at most ``sample`` of them.
    """
    chosen = cut_sets if len(cut_sets) <= sample else rng.sample(cut_sets, sample)
    problems = []
    for cut in chosen:
        failed = set(cut)
        if not tree.evaluate(failed):
            problems.append(f"cut set {cut} does not fail the top event")
            continue
        for member in cut:
            if tree.evaluate(failed - {member}):
                problems.append(f"cut set {cut} is not minimal: top fails without {member}")
                break
    return problems

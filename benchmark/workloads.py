"""Seeded model documents for the benchmark workloads.

Every workload starts from the bundled QIAS-P text.  The seed shuffles the
order of the ``design_class`` lines and of division A's component blocks;
the analysis must give the same counts, groups, cut sets and artifact bytes
(``ft.json`` aside, whose node order follows the document) for every seed.
Scaled workloads add replicated divisions in three text edits:

- ``division X replicates A`` after ``division B replicates A``;
- ``X`` appended to the redundancy group's ``members:``;
- ``display_interface__X`` appended to ``operator_terminal``'s ``inputs:``,
  without which the new division is not upstream of the operator and
  software integration fails.

The generator is plain text manipulation and imports nothing from resha.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED_MODEL = SRC / "resha" / "data" / "qiasp.resha"
BUNDLED_GOLDEN = SRC / "resha" / "data" / "qiasp.golden.json"

INSTANCES_PER_DIVISION = 28
CCF_GROUPS = 43


@dataclass(frozen=True)
class Workload:
    name: str
    divisions: int
    max_order: int | None
    # Runs the stage commands as child processes instead of in process.
    cli: bool = False
    # The expected.json entry its pipeline artifacts must match.
    reference: str | None = None

    @property
    def artifacts(self) -> str:
        return self.reference or self.name

    def expected_order_index(self) -> dict[int, int]:
        if self.max_order is None and self.divisions == 2:
            return {1: 44, 2: 2304}
        if self.max_order is not None and self.max_order <= 2:
            return {1: 44}
        raise ValueError(f"no pinned order index for workload '{self.name}'")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qiasp-exact", divisions=2, max_order=None),
        Workload("div3-order2", divisions=3, max_order=2),
        Workload("div8-order1", divisions=8, max_order=1),
        Workload("cli-chain", divisions=2, max_order=None, cli=True, reference="qiasp-exact"),
    )
}


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"expected exactly one {old!r} in the bundled model")
    return text.replace(old, new)


def _component_blocks(body: list[str]) -> list[list[str]]:
    """Split a division body into component blocks (one or more lines each)."""
    blocks: list[list[str]] = []
    current: list[str] = []
    depth = 0
    for line in body:
        if depth == 0:
            if not line.startswith("  component "):
                raise ValueError(f"unexpected line in division A: {line!r}")
            current = [line]
        else:
            current.append(line)
        depth += line.count("{") - line.count("}")
        if depth == 0:
            blocks.append(current)
    if depth:
        raise ValueError("unbalanced braces in division A")
    return blocks


def shuffle_model(text: str, rng: random.Random) -> str:
    """Shuffle design_class lines and division A's component blocks."""
    lines = text.split("\n")
    classes = [i for i, line in enumerate(lines) if line.startswith("design_class ")]
    if not classes or classes != list(range(classes[0], classes[-1] + 1)):
        raise ValueError("design_class lines are not one contiguous block")
    shuffled = [lines[i] for i in classes]
    rng.shuffle(shuffled)
    lines[classes[0] : classes[-1] + 1] = shuffled

    start = lines.index("division A {") + 1
    end = lines.index("}", start)
    blocks = _component_blocks(lines[start:end])
    rng.shuffle(blocks)
    lines[start:end] = [line for block in blocks for line in block]
    return "\n".join(lines)


def scale_model(text: str, divisions: int) -> str:
    """Add replicas of division A until there are ``divisions`` divisions."""
    if not 2 <= divisions <= 26:
        raise ValueError(f"divisions must be in 2..26, got {divisions}")
    extra = string.ascii_uppercase[2:divisions]
    if not extra:
        return text
    text = _replace_once(
        text,
        "division B replicates A\n",
        "division B replicates A\n" + "".join(f"division {d} replicates A\n" for d in extra),
    )
    text = _replace_once(text, "members: A, B", "members: A, B" + "".join(f", {d}" for d in extra))
    return _replace_once(
        text,
        "inputs: display_interface, display_interface__B",
        "inputs: display_interface, display_interface__B"
        + "".join(f", display_interface__{d}" for d in extra),
    )


def model_text(workload: Workload, seed: int) -> str:
    """The document a workload analyses under a seed; a pure function of both."""
    text = BUNDLED_MODEL.read_text(encoding="utf-8")
    return scale_model(shuffle_model(text, random.Random(seed)), workload.divisions)

"""Control-structure extraction and unsafe-interaction enumeration.

Candidates are generated exhaustively, seven failure-mode types per link
(control actions yield unsafe control actions, information flows yield
unsafe information flows), then filtered down to the types the model marks
applicable.  Every kept instance traces to at least one hazard and,
transitively, its losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import (
    LETTERS,
    FailureModeType,
    Link,
    LinkKind,
    SystemModel,
)

_TYPE_PHRASE = {
    FailureModeType.MISSING: "missing when needed",
    FailureModeType.UNNEEDED: "provided when not needed",
    FailureModeType.TOO_EARLY: "provided too early",
    FailureModeType.TOO_LATE: "provided too late",
    FailureModeType.WRONG_ORDER: "provided out of order",
    FailureModeType.EXCESSIVE: "applied too long or too much",
    FailureModeType.INSUFFICIENT: "stopped too early or applied too little",
}


class Flavor(str, Enum):
    UCA = "uca"
    UIF = "uif"


# Each member's string, read in place of ``member.value`` (see ``resha.model``).
FLAVOR_NAMES: dict[Flavor, str] = {f: f.value for f in Flavor}


@dataclass
class ControlStructure:
    """The model's links, control actions first and in declaration order
    within each kind; wiring that carries no link stays out."""

    links: list[Link]
    division_of: dict[str, str]


def extract_control_structure(model: SystemModel) -> ControlStructure:
    # sorted is stable, so each kind keeps its declaration order.
    links = sorted(model.links(), key=lambda link: link.kind is not LinkKind.CONTROL_ACTION)
    return ControlStructure(links, model.index.division_of)


@dataclass
class UcaUifInstance:
    """One (link, failure-mode type) pair; an unsafe control action or flow."""

    id: str
    flavor: Flavor
    type: FailureModeType
    owner: str
    link: str
    division: str
    hazards: list[str] = field(default_factory=list)

    def describe(self) -> str:
        noun = "control action" if self.flavor is Flavor.UCA else "information flow"
        return f"{noun} {self.link} {_TYPE_PHRASE[self.type]}"


# Every failure-mode type with its letter, in declaration order.
_TYPE_LETTERS = tuple(LETTERS.items())


def enumerate_candidates(structure: ControlStructure) -> list[UcaUifInstance]:
    """All seven types for every link, unfiltered (hazards left empty)."""
    candidates: list[UcaUifInstance] = []
    for link in structure.links:
        flavor = Flavor.UCA if link.kind is LinkKind.CONTROL_ACTION else Flavor.UIF
        division = structure.division_of[link.source]
        for type_, letter in _TYPE_LETTERS:
            candidates.append(
                UcaUifInstance(f"{link.id}:{letter}:{division}", flavor, type_, link.source, link.id, division)
            )
    return candidates


def apply_applicability(
    candidates: list[UcaUifInstance], model: SystemModel
) -> list[UcaUifInstance]:
    """Keep candidates whose type the owning link marks applicable.

    Kept instances carry their hazard ids.  Output is sorted by (division,
    owner, type letter) and is deterministic.
    """
    declared: dict[tuple[str, FailureModeType], list[str]] = {}
    for link in model.links():
        for app in link.applicability:
            declared[(link.id, app.type)] = list(app.hazards)
    kept: list[UcaUifInstance] = []
    for c in candidates:
        hazards = declared.get((c.link, c.type))
        if hazards is not None:
            kept.append(UcaUifInstance(c.id, c.flavor, c.type, c.owner, c.link, c.division, hazards))
    kept.sort(key=lambda i: (i.division, i.owner, LETTERS[i.type], i.id))
    return kept


def instances_by_division(instances: list[UcaUifInstance]) -> dict[str, list[UcaUifInstance]]:
    out: dict[str, list[UcaUifInstance]] = {}
    for instance in instances:
        out.setdefault(instance.division, []).append(instance)
    return out

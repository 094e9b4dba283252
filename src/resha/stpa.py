"""Control-structure extraction and unsafe-interaction enumeration.

Candidates are generated exhaustively, seven failure-mode types per link
(control actions yield unsafe control actions, information flows yield
unsafe information flows), then filtered down to the types the model marks
applicable.  Every kept instance traces to at least one hazard and,
transitively, its losses.
"""

from __future__ import annotations

from .model import FAILURE_TYPES, Link, SystemModel

# Each failure-mode letter's phrase in an instance description.
_TYPE_PHRASE = {
    "A": "missing when needed",
    "B": "provided when not needed",
    "C": "provided too early",
    "D": "provided too late",
    "E": "provided out of order",
    "F": "applied too long or too much",
    "G": "stopped too early or applied too little",
}


class ControlStructure:
    """The model's links, control actions first and in declaration order
    within each kind; wiring that carries no link stays out."""

    def __init__(self, links: list[Link], division_of: dict[str, str]):
        self.links = links
        self.division_of = division_of


def extract_control_structure(model: SystemModel) -> ControlStructure:
    # sorted is stable, so each kind keeps its declaration order.
    links = sorted(model.links(), key=lambda link: link.kind != "control_action")
    return ControlStructure(links, model.index.division_of)


class UcaUifInstance:
    """One (link, failure-mode letter) pair; an unsafe control action
    (flavor ``uca``) or information flow (``uif``).  ``resha stpa --format
    json`` lists the fields that ``__init__`` sets, in its order."""

    def __init__(
        self, id: str, flavor: str, type: str, owner: str, link: str, division: str,
        hazards: list[str] | None = None,
    ):
        self.id = id
        self.flavor = flavor
        self.type = type
        self.owner = owner
        self.link = link
        self.division = division
        self.hazards = [] if hazards is None else hazards

    def describe(self) -> str:
        noun = "control action" if self.flavor == "uca" else "information flow"
        return f"{noun} {self.link} {_TYPE_PHRASE[self.type]}"


def enumerate_candidates(structure: ControlStructure) -> list[UcaUifInstance]:
    """All seven types for every link, unfiltered (hazards left empty)."""
    candidates: list[UcaUifInstance] = []
    for link in structure.links:
        flavor = "uca" if link.kind == "control_action" else "uif"
        division = structure.division_of[link.source]
        for letter in FAILURE_TYPES:
            candidates.append(
                UcaUifInstance(f"{link.id}:{letter}:{division}", flavor, letter, link.source, link.id, division)
            )
    return candidates


def apply_applicability(
    candidates: list[UcaUifInstance], model: SystemModel
) -> list[UcaUifInstance]:
    """Keep candidates whose type the owning link marks applicable.

    Kept instances carry their hazard ids.  Output is sorted by (division,
    owner, type letter) and is deterministic.
    """
    declared: dict[tuple[str, str], list[str]] = {}
    for link in model.links():
        for app in link.applicability:
            declared[(link.id, app.type)] = list(app.hazards)
    kept: list[UcaUifInstance] = []
    for c in candidates:
        hazards = declared.get((c.link, c.type))
        if hazards is not None:
            kept.append(UcaUifInstance(c.id, c.flavor, c.type, c.owner, c.link, c.division, hazards))
    kept.sort(key=lambda i: (i.division, i.owner, i.type, i.id))
    return kept

"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import csv
import io
import json
import random
import string
from enum import Enum
from functools import cached_property
from pathlib import Path

import pytest

from resha.cutsets import CutSetCollection
from resha.ftree import BasicEvent, BranchCensus, EventCategory, FaultTree, Gate, GateOp
from resha.model import (
    COMPONENT_KINDS,
    FAILURE_TYPES,
    GROUP_LOGICS,
    REDUNDANCY_LEVELS,
    RESOURCE_SCOPES,
    TECHNOLOGIES,
    Applicability,
    Component,
    DesignClass,
    Division,
    Hazard,
    Link,
    Loss,
    RedundancyGroup,
    Ref,
    SharedResource,
    SystemModel,
    validate_model,
)
from resha.pipeline import analyze_text, bundled_model_path
from resha.stpa import UcaUifInstance
from reference_cutsets import ReferenceCollection

MINI_MODEL = """\
system "mini"
top_event "operator misled"

loss L-1 "equipment damage"
hazard H-1 "false reading" losses: L-1

design_class DC-C "control logic" diversity: plat
design_class DC-S "probe assembly"
design_class DC-D "panel"
design_class DC-O "crew"

division MAIN {
  component ctrl kind: controller tech: digital class: DC-C {
    control_action drive -> probe {
      applicable: A hazards: H-1
      applicable: F hazards: H-1
    }
  }
  component probe kind: sensor tech: analog class: DC-S
  component panel kind: display tech: analog class: DC-D {
    inputs: probe
  }
  component op kind: operator tech: human class: DC-O {
    inputs: panel
  }
}
"""

# Takes the hardware synthesis branches that the bundled model does not:
# module-level all_must_fail (``probes`` under ``dep:calc_1``) and
# any_misleads (``calcs`` under the root) sub-gates, internal and external
# shared resources referenced from several dependency gates, a component
# whose dependency gate holds only resource leaves, and a ``feedback:``
# input that drops the ``trim`` link from ``ctrl``'s sources.
SYNTHESIS_MODEL = """\
system "synthesis"
top_event "operator misled"

loss L-1 "equipment damage"
hazard H-1 "false reading" losses: L-1
hazard H-2 "missing reading" losses: L-1

design_class DC-C "control logic" diversity: plat
design_class DC-S "probe assembly"
design_class DC-K "calculation logic" diversity: plat
design_class DC-P "power supply"
design_class DC-D "panel"
design_class DC-O "crew"

division A {
  component ctrl kind: controller tech: digital class: DC-C {
    control_action drive -> probe_1, probe_2 {
      applicable: A hazards: H-2
      applicable: F hazards: H-1
    }
    feedback: calc_1
  }
  component probe_1 kind: sensor tech: analog class: DC-S
  component probe_2 kind: sensor tech: analog class: DC-S
  component probe_3 kind: sensor tech: analog class: DC-S
  component psu kind: power_supply tech: analog class: DC-P
  component calc_1 kind: calculator tech: digital class: DC-K {
    info_flow level_1 -> panel {
      applicable: A hazards: H-2
      applicable: B hazards: H-1
    }
    info_flow trim -> ctrl {
      applicable: F hazards: H-1
    }
    inputs: probe_1, probe_3, probe_2
  }
  component calc_2 kind: calculator tech: digital class: DC-K {
    inputs: probe_2, psu
  }
  component panel kind: display tech: analog class: DC-D {
    inputs: psu
  }
}

division B replicates A

division MCR {
  component op kind: operator tech: human class: DC-O {
    inputs: panel, calc_1, calc_2, panel__B
  }
}

redundancy_group probes level: module logic: all_must_fail members: probe_1, probe_2
redundancy_group calcs level: module logic: any_misleads members: calc_1, calc_2
redundancy_group panels level: division logic: all_must_fail members: A, B
shared_resource mains scope: external dependents: psu, psu__B, probe_3
shared_resource rack scope: internal dependents: probe_1, probe_2, probe_3, panel
"""


def scaled_qiasp(text: str, divisions: int) -> str:
    """The bundled model with replicas C, D, ... of division A, up to
    ``divisions`` divisions, added by three text edits: one ``replicates``
    line per replica, the replica in the redundancy group's ``members:``,
    and its ``display_interface`` in the operator terminal's ``inputs:``."""
    extra = string.ascii_uppercase[2:divisions]
    for old, new in (
        (
            "division B replicates A\n",
            "division B replicates A\n" + "".join(f"division {d} replicates A\n" for d in extra),
        ),
        ("members: A, B", "members: A, B" + "".join(f", {d}" for d in extra)),
        (
            "inputs: display_interface, display_interface__B",
            "inputs: display_interface, display_interface__B"
            + "".join(f", display_interface__{d}" for d in extra),
        ),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def unwired_replica_text(text: str) -> str:
    """The bundled model with a replica C of division A in the redundancy
    group, but without ``display_interface__C`` in the operator terminal's
    ``inputs:``, so the top event depends on nothing in division C."""
    for old, new in (
        ("division B replicates A\n", "division B replicates A\ndivision C replicates A\n"),
        ("members: A, B", "members: A, B, C"),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def unwired_owner_text(text: str) -> str:
    """The bundled model without ``adc_hjtc``'s input, so nothing the top
    event depends on reads the heater controller, which owns applicable
    links."""
    old = "    inputs: hjtc_sensor_array\n"
    assert text.count(old) == 1
    return text.replace(old, "")


def extra_commanded_target_text(text: str) -> str:
    """The bundled model with a second target ``spare_heater`` on the
    ``heater_power`` control action, which makes it a Type 1 group; nothing
    reads ``spare_heater``."""
    for old, new in (
        ("heater_power -> hjtc_sensor_array {", "heater_power -> hjtc_sensor_array, spare_heater {"),
        ("division A {\n", "division A {\n  component spare_heater kind: sensor tech: analog class: DC-HJTC-ARRAY\n"),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def unwired_resource_dependent_text(text: str) -> str:
    """The bundled model with an external shared resource ``ext_pwr`` over
    both division power supplies and a ``spare_psu`` that nothing reads."""
    old = "division MCR {\n"
    assert text.count(old) == 1
    text = text.replace(old, old + "  component spare_psu kind: power_supply tech: analog class: DC-PSU\n")
    return text + "shared_resource ext_pwr scope: external dependents: power_supply, power_supply__B, spare_psu\n"


def chain_text(length: int, consumer_first: bool) -> str:
    """Analog sensors s0 .. s<length-1>, each fed by the one before, read by the operator."""
    components = ["  component s0 kind: sensor tech: analog class: DC-S"]
    components += [
        f"  component s{i} kind: sensor tech: analog class: DC-S {{\n    inputs: s{i - 1}\n  }}"
        for i in range(1, length)
    ]
    components.append(
        f"  component op kind: operator tech: human class: DC-O {{\n    inputs: s{length - 1}\n  }}"
    )
    if consumer_first:
        components.reverse()
    return (
        'system "chain"\ntop_event "operator misled"\n'
        'loss L-1 "loss"\nhazard H-1 "hazard" losses: L-1\n'
        'design_class DC-S "probe"\ndesign_class DC-O "crew"\n'
        "division MAIN {\n" + "\n".join(components) + "\n}\n"
    )


@pytest.fixture(scope="session")
def qiasp_text() -> str:
    return bundled_model_path().read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def qiasp_result(qiasp_text):
    return analyze_text(qiasp_text, "qiasp.resha")


def bundled_golden_path() -> Path:
    """The golden record pinned for the bundled case study."""
    return bundled_model_path().with_name("qiasp.golden.json")


def instances_by_division(instances: list[UcaUifInstance]) -> dict[str, list[UcaUifInstance]]:
    out: dict[str, list[UcaUifInstance]] = {}
    for instance in instances:
        out.setdefault(instance.division, []).append(instance)
    return out


@pytest.fixture(scope="session")
def golden_path():
    return bundled_golden_path()


@pytest.fixture()
def mini_text() -> str:
    return MINI_MODEL


def basic_events(tree: FaultTree) -> list[BasicEvent]:
    """Every basic event in the tree's arena, reachable or not."""
    return [node for node in tree.nodes.values() if isinstance(node, BasicEvent)]


def reachable_events(tree: FaultTree) -> list[BasicEvent]:
    """Basic events reachable from the root, in ``FaultTree.topological_nodes`` order."""
    return [node for node in map(tree.nodes.get, tree.topological_nodes()) if isinstance(node, BasicEvent)]


def parents_of(tree: FaultTree) -> dict[str, list[str]]:
    """Every node's parent gate ids, in arena order, one entry per child
    reference; the injection stage collects the same lists for its
    basic-event members alone."""
    parents: dict[str, list[str]] = {node_id: [] for node_id in tree.nodes}
    for gate in tree.gates():
        for child in gate.children:
            if child in parents:
                parents[child].append(gate.id)
    return parents


def member_sets(collection: CutSetCollection) -> list[tuple[str, ...]]:
    """Every set of a collection as a tuple of member ids, in canonical
    order, built from ``CutSetCollection.walk``; the tests compare these
    with the reference engine's ``ReferenceCollection.sets``."""
    events = collection.events
    return [(*[events[i] for i in head], events[i]) for head, lasts in collection.walk() for i in lasts]


def as_frozensets(collection: CutSetCollection) -> set[frozenset[str]]:
    return {frozenset(cut) for cut in member_sets(collection)}


def census_tuple(census: BranchCensus) -> tuple[int, int, int, int]:
    """(hw stochastic, dependency, sw design, hw design), as the case study reports it."""
    return (census.hw_stochastic, census.dependency, census.sw_design, census.hw_design)


# The fields ``plain`` leaves out: where in the document a value was
# written, and which division a replica was copied from.
LOCATION_FIELDS = ("span", "replicated_from")


def fields_of(value: object) -> dict[str, object] | None:
    """A ``resha`` record's fields by name, in order: a NamedTuple's
    ``_fields``, or the attributes a plain class sets on itself (a cached
    property such as ``SystemModel.index`` is none of them).  None for any
    other value."""
    if isinstance(value, Enum) or not type(value).__module__.startswith("resha."):
        return None
    if isinstance(value, tuple):
        return dict(zip(value._fields, value))
    return {
        name: item
        for name, item in vars(value).items()
        if not isinstance(getattr(type(value), name, None), cached_property)
    }


def plain(value: object) -> object:
    """``value`` as plain data, for comparing with ``==``: a record is its
    class name and its fields but ``LOCATION_FIELDS``, and lists, tuples and
    dicts are mapped item by item.  The package's records compare by
    identity, and a NamedTuple's ``==`` sees ``span``; two models parsed from
    different texts are ``plain``-equal when they say the same thing."""
    fields = fields_of(value)
    if fields is not None:
        return type(value).__name__, {k: plain(v) for k, v in fields.items() if k not in LOCATION_FIELDS}
    if type(value) in (list, tuple):
        return type(value)(map(plain, value))
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def replace(record, **changes):
    """A new record of ``record``'s class, built by keyword from all its
    fields, with ``changes`` in place of some."""
    return type(record)(**{**fields_of(record), **changes})


def mk_tree(spec, categories: dict[str, EventCategory] | None = None) -> FaultTree:
    """Build a tree from nested tuples: ("or", "a", ("and", "b", "c")).

    Bare strings become hardware stochastic events unless remapped via
    ``categories``; software flag follows the category.
    """
    categories = categories or {}
    tree = FaultTree(model_name="inline", root="")
    counter = [0]

    def build(node) -> str:
        if isinstance(node, str):
            if node not in tree.nodes:
                category = categories.get(node, EventCategory.HW_STOCHASTIC)
                software = category in (
                    EventCategory.SW_UCA,
                    EventCategory.SW_UIF,
                    EventCategory.CCF,
                )
                tree.add(BasicEvent(node, category, software=software))
            return node
        op = GateOp.AND if node[0] == "and" else GateOp.OR
        children = [build(child) for child in node[1:]]
        gate_id = f"n{counter[0]}"
        counter[0] += 1
        tree.add(Gate(gate_id, op, children))
        return gate_id

    tree.root = build(spec)
    return tree


def reference_export_ft(tree: FaultTree) -> str:
    """``ftree.export_ft`` as ``json.dumps(indent=2)`` of the tree's dict form,
    the reference the direct layout must match byte for byte."""
    nodes = []
    for node in tree.nodes.values():
        if isinstance(node, Gate):
            entry: dict = {"id": node.id, "kind": "gate", "op": node.op.value}
            if node.label:
                entry["label"] = node.label
            entry["children"] = list(node.children)
            if node.failure_for is not None:
                entry["failure_for"] = node.failure_for
            if node.dependency_for is not None:
                entry["dependency_for"] = node.dependency_for
            if node.placeholder_for is not None:
                entry["placeholder_for"] = node.placeholder_for
        else:
            entry = {"id": node.id, "kind": "event", "category": node.category.value}
            if node.label:
                entry["label"] = node.label
            if node.software:
                entry["software"] = True
        nodes.append(entry)
    doc = {
        "schema": "resha/1",
        "model": tree.model_name,
        "options": {"include_hw_design": tree.include_hw_design},
        "root": tree.root,
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_cutsets_csv(collection: CutSetCollection | ReferenceCollection, tree: FaultTree) -> str:
    """``report.cutsets_csv`` with every row written by ``csv.writer``, from
    the canonically ordered sets of either engine's collection."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["order", "members", "categories", "software"])
    sets = collection.sets if isinstance(collection, ReferenceCollection) else member_sets(collection)
    for cut in sets:
        ids, categories, software = [], [], True
        for event_id in cut:
            node = tree.nodes.get(event_id)
            ids.append(event_id)
            if isinstance(node, BasicEvent):
                categories.append(node.category.value)
                software = software and node.software
            else:
                categories.append("?")
                software = False
        writer.writerow([len(ids), ";".join(ids), ";".join(categories), "yes" if software else "no"])
    return out.getvalue()


_EVENT_CATEGORIES = list(EventCategory)
_SOFTWARE_CATEGORIES = (EventCategory.SW_UCA, EventCategory.SW_UIF, EventCategory.CCF)


def random_tree(rng: random.Random, max_events: int = 16, max_gates: int = 7) -> FaultTree:
    """A random monotone AND/OR DAG whose gates only reference earlier nodes."""
    tree = FaultTree(model_name="random", root="")
    n_events = rng.randint(1, max_events)
    pool: list[str] = []
    for i in range(n_events):
        category = rng.choice(_EVENT_CATEGORIES)
        event_id = f"e{i}"
        tree.add(BasicEvent(event_id, category, software=category in _SOFTWARE_CATEGORIES))
        pool.append(event_id)
    n_gates = rng.randint(1, max_gates)
    for j in range(n_gates):
        width = rng.randint(1, min(4, len(pool)))
        children = rng.sample(pool, width)
        op = rng.choice((GateOp.AND, GateOp.OR))
        gate_id = f"g{j}"
        tree.add(Gate(gate_id, op, children))
        pool.append(gate_id)
    tree.root = f"g{n_gates - 1}"
    tree.check_structure()
    return tree


# The model serializer.  ``parse_model`` and ``serialize_model`` are inverse
# enough that ``parse_model(serialize_model(m)) == m`` for any parsed model,
# and serialization is byte-identical across runs, so the round-trip tests
# check the parser against this code.


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")


def _serialize_link(link: Link, indent: str) -> list[str]:
    keyword = "control_action" if link.kind == "control_action" else "info_flow"
    head = f"{indent}{keyword} {link.id} -> {', '.join(link.targets)}"
    if not link.applicability:
        return [head]
    lines = [head + " {"]
    for app in link.applicability:
        lines.append(f"{indent}  applicable: {app.type} hazards: {', '.join(app.hazards)}")
    lines.append(indent + "}")
    return lines


def _serialize_refs(refs: list[Ref]) -> str:
    """``comp`` or ``comp.port`` for each reference, as the model language writes them."""
    return ", ".join(r.component if r.port is None else f"{r.component}.{r.port}" for r in refs)


def _serialize_component(component: Component, indent: str) -> list[str]:
    head = (
        f"{indent}component {component.id} kind: {component.kind} "
        f"tech: {component.tech} class: {component.design_class}"
    )
    body: list[str] = []
    for link in component.links:
        body.extend(_serialize_link(link, indent + "  "))
    if component.inputs:
        body.append(f"{indent}  inputs: {_serialize_refs(component.inputs)}")
    if component.feedback_inputs:
        body.append(f"{indent}  feedback: {_serialize_refs(component.feedback_inputs)}")
    if not body:
        return [head]
    return [head + " {"] + body + [indent + "}"]


def serialize_model(model: SystemModel) -> str:
    """Render a model in canonical form.  Pure function of the model."""
    out: list[str] = [f'system "{_escape(model.name)}"', f'top_event "{_escape(model.top_event)}"']

    def section(lines: list[str]) -> None:
        if lines:
            out.append("")
            out.extend(lines)

    section([f'loss {loss.id} "{_escape(loss.description)}"' for loss in model.losses])
    section(
        [
            f'hazard {h.id} "{_escape(h.description)}" losses: {", ".join(h.losses)}'
            for h in model.hazards
        ]
    )
    class_lines = []
    for dc in model.design_classes:
        line = f'design_class {dc.id} "{_escape(dc.description)}"'
        if dc.diversity_tag != dc.id:
            line += f" diversity: {dc.diversity_tag}"
        class_lines.append(line)
    section(class_lines)
    for division in model.divisions:
        lines: list[str] = []
        if division.replicates is not None:
            lines.append(f"division {division.id} replicates {division.replicates}")
        elif not division.components:
            lines.append(f"division {division.id}")
        else:
            lines.append(f"division {division.id} {{")
            for component in division.components:
                lines.extend(_serialize_component(component, "  "))
            lines.append("}")
        section(lines)
    section(
        [
            f"redundancy_group {g.id} level: {g.level} logic: {g.logic} "
            f"members: {', '.join(g.members)}"
            for g in model.redundancy_groups
        ]
    )
    section(
        [
            f"shared_resource {r.id} scope: {r.scope} dependents: {', '.join(r.dependents)}"
            for r in model.shared_resources
        ]
    )
    return "\n".join(out) + "\n"


def _random_text(rng: random.Random, max_len: int = 24) -> str:
    alphabet = string.ascii_letters + string.digits + ' .,()&-/"\\'
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def _random_id(rng: random.Random, prefix: str) -> str:
    tail = "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(4))
    return f"{prefix}{tail}"


def random_model(rng: random.Random) -> SystemModel:
    """A parseable model exercising every syntax construct; not validated.

    Used for serializer round-trips, so references may dangle.
    """
    model = SystemModel(name=_random_text(rng, 12) or "m", top_event=_random_text(rng, 20))
    for i in range(rng.randint(1, 3)):
        model.losses.append(Loss(f"L-{i}", _random_text(rng)))
    for i in range(rng.randint(1, 3)):
        losses = (f"L-{rng.randint(0, 2)}",)
        model.hazards.append(Hazard(f"H-{i}", _random_text(rng), losses))
    tags = ["shared-plat", ""]
    for i in range(rng.randint(1, 4)):
        dc_id = f"DC-{i}"
        tag = rng.choice(tags) or dc_id
        model.design_classes.append(DesignClass(dc_id, _random_text(rng), tag))
    component_counter = [0]

    def new_component(rng: random.Random) -> Component:
        component_counter[0] += 1
        cid = f"c{component_counter[0]}"
        component = Component(
            id=cid,
            kind=rng.choice(COMPONENT_KINDS),
            tech=rng.choice(TECHNOLOGIES),
            design_class=f"DC-{rng.randint(0, 3)}",
        )
        for _ in range(rng.randint(0, 2)):
            port = f"p{component_counter[0]}" if rng.random() < 0.3 else None
            component.inputs.append(Ref(_random_id(rng, "x"), port))
        if rng.random() < 0.3:
            component.feedback_inputs.append(Ref(_random_id(rng, "x")))
        for k in range(rng.randint(0, 2)):
            link = Link(
                id=f"{cid}_l{k}",
                kind=rng.choice(("control_action", "information_flow")),
                source=cid,
                targets=[_random_id(rng, "x") for _ in range(rng.randint(1, 3))],
            )
            letters = rng.sample(FAILURE_TYPES, rng.randint(0, 3))
            for letter in sorted(letters):
                link.applicability.append(
                    Applicability(letter, (f"H-{rng.randint(0, 2)}",))
                )
            component.links.append(link)
        return component

    n_divisions = rng.randint(1, 3)
    for d in range(n_divisions):
        division = Division(id=f"D{d}")
        if d > 0 and rng.random() < 0.3:
            division.replicates = "D0"
        else:
            for _ in range(rng.randint(0, 4)):
                division.components.append(new_component(rng))
        model.divisions.append(division)
    if rng.random() < 0.5:
        model.redundancy_groups.append(
            RedundancyGroup(
                id="rg0",
                level=rng.choice(REDUNDANCY_LEVELS),
                logic=rng.choice(GROUP_LOGICS),
                members=[f"D{rng.randint(0, 2)}", _random_id(rng, "x")],
            )
        )
    if rng.random() < 0.5:
        model.shared_resources.append(
            SharedResource(
                id="sr0",
                scope=rng.choice(RESOURCE_SCOPES),
                dependents=[_random_id(rng, "x"), _random_id(rng, "x")],
            )
        )
    return model


def random_analyzable_model(rng: random.Random) -> SystemModel:
    """A random valid model: layered divisions, links, operator at the end."""
    model = SystemModel(name="randomized", top_event="operator misinformed")
    model.losses = [Loss("L-1", "equipment loss"), Loss("L-2", "availability loss")]
    model.hazards = [
        Hazard("H-1", "false positive output", ("L-2",)),
        Hazard("H-2", "false negative output", ("L-1", "L-2")),
    ]

    chain_len = rng.randint(3, 6)
    replicate = rng.random() < 0.6
    any_misleads = replicate and rng.random() < 0.3

    shared_tag = "plat" if rng.random() < 0.5 else ""
    division = Division(id="A")
    class_ids: list[str] = []
    for i in range(chain_len):
        dc_id = f"DC-{i}"
        tag = shared_tag or dc_id
        model.design_classes.append(DesignClass(dc_id, f"role {i}", tag))
        class_ids.append(dc_id)

    middle_kinds = ("calculator", "alarm", "comms", "converter")
    ids = [f"comp{i}" for i in range(chain_len)]
    for i, cid in enumerate(ids):
        if i == 0:
            kind, tech = "controller", "digital"
        elif i == chain_len - 1:
            kind, tech = "display", "analog"
        else:
            kind = rng.choice(middle_kinds)
            tech = "digital" if rng.random() < 0.7 else "analog"
        component = Component(id=cid, kind=kind, tech=tech, design_class=class_ids[i])
        division.components.append(component)

    # Wire a chain: the controller commands the second component, everything
    # else consumes its predecessor; digital middles may add info flows.
    controller = division.components[0]
    ca = Link("cmd", "control_action", controller.id, [ids[1]])
    for letter in sorted(rng.sample("AFG", rng.randint(1, 3))):
        ca.applicability.append(Applicability(letter, (rng.choice(("H-1", "H-2")),)))
    controller.links.append(ca)
    for i in range(2, chain_len):
        division.components[i].inputs.append(Ref(ids[i - 1]))
    for i in range(1, chain_len - 1):
        component = division.components[i]
        if component.tech == "digital" and rng.random() < 0.6:
            target = ids[rng.randint(i + 1, chain_len - 1)]
            link = Link(f"flow{i}", "information_flow", component.id, [target])
            for letter in sorted(rng.sample("ABFG", rng.randint(1, 2))):
                link.applicability.append(Applicability(letter, (rng.choice(("H-1", "H-2")),)))
            component.links.append(link)
    model.divisions.append(division)

    hub = ids[-1]
    hubs = [hub]
    if replicate:
        model.divisions.append(Division(id="B", replicates="A"))
        hubs.append(f"{hub}__B")

    terminal_division = Division(id="CTRL")
    model.design_classes.append(DesignClass("DC-TERM", "terminal", "DC-TERM"))
    model.design_classes.append(DesignClass("DC-OP", "crew", "DC-OP"))
    operator = Component(id="op", kind="operator", tech="human", design_class="DC-OP")
    if any_misleads:
        operator.inputs = [Ref(h) for h in hubs]
        model.redundancy_groups.append(
            RedundancyGroup("rg", "division", "any_misleads", ["A", "B"])
        )
    else:
        terminal = Component(
            id="term",
            kind="display",
            tech="analog",
            design_class="DC-TERM",
            inputs=[Ref(h) for h in hubs],
        )
        terminal_division.components.append(terminal)
        operator.inputs = [Ref("term")]
        if replicate:
            model.redundancy_groups.append(
                RedundancyGroup("rg", "division", "all_must_fail", ["A", "B"])
            )
    terminal_division.components.append(operator)
    model.divisions.append(terminal_division)

    if rng.random() < 0.4 and chain_len >= 4:
        model.shared_resources.append(
            SharedResource("bus", rng.choice(RESOURCE_SCOPES), [ids[1], ids[2]])
        )

    report = validate_model(model)
    assert report.ok, f"generator produced an invalid model: {report}"
    return model

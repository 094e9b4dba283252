"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; without ``-s`` they appear in captured output on failure.
"""

from __future__ import annotations

import random
import time

import numpy as np

from conftest import (
    as_frozensets,
    census_tuple,
    instances_by_division,
    member_sets,
    plain,
    random_analyzable_model,
    random_model,
    random_tree,
    reachable_events,
    serialize_model,
)
from resha.ccf import count_by_type, detect_ccf_groups, inject_ccf_events
from resha.cutsets import minimal_cut_sets
from resha.dsl import parse_model
from resha.ftree import (
    BasicEvent,
    FaultTree,
    GateOp,
    integrate_software,
    synthesize_hardware_ft,
)
from resha.model import expand_replication
from resha.pipeline import analyze_text
from resha.report import render_summary
from resha.stpa import (
    apply_applicability,
    enumerate_candidates,
    extract_control_structure,
)
from reference_cutsets import brute_force_oracle


def _finish(number: int, description: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description}")
    assert not problems, "; ".join(problems)


def _guarded(problems: list[str], fn):
    try:
        return fn()
    except Exception as exc:
        problems.append(f"raised {exc!r}")
        return None


def test_acceptance_01_applicable_instances(qiasp_result):
    problems: list[str] = []
    model = qiasp_result.expanded
    start = time.perf_counter()
    structure = extract_control_structure(model)
    instances = apply_applicability(enumerate_candidates(structure), model)
    elapsed = time.perf_counter() - start
    kind_of = {c.id: c.kind for c in model.components()}
    by_division = instances_by_division(instances)
    for division in ("A", "B"):
        found = by_division.get(division, [])
        uca = sum(1 for i in found if i.flavor == "uca")
        calc = sum(
            1 for i in found if i.flavor == "uif" and kind_of[i.owner] == "calculator"
        )
        alarm = sum(1 for i in found if kind_of[i.owner] == "alarm")
        if uca != 3:
            problems.append(f"division {division}: {uca} unsafe control actions, wanted 3")
        if calc != 15:
            problems.append(f"division {division}: {calc} calculator flows, wanted 15")
        if alarm != 10:
            problems.append(f"division {division}: {alarm} alarm flows, wanted 10")
    if elapsed >= 1.0:
        problems.append(f"interaction stage took {elapsed:.2f}s, budget 1s")
    _finish(1, "3 control-action, 15 calculator, 10 alarm instances per division", problems)


def test_acceptance_02_candidate_enumeration(qiasp_result):
    problems: list[str] = []
    per_division: dict[str, int] = {}
    for candidate in qiasp_result.candidates:
        per_division[candidate.division] = per_division.get(candidate.division, 0) + 1
    if per_division != {"A": 77, "B": 77}:
        problems.append(f"candidates per division {per_division}, wanted 77 each")
    _finish(2, "77 interaction candidates enumerated per division", problems)


def test_acceptance_03_branch_census(qiasp_result):
    problems: list[str] = []
    census = census_tuple(qiasp_result.census)
    if census != (41, 33, 26, 0):
        problems.append(f"census {census}, wanted (41, 33, 26, 0)")
    _finish(3, "fault tree census 41 hardware, 33 dependency, 26 software branches", problems)


def test_acceptance_04_ccf_counts(qiasp_result):
    problems: list[str] = []
    counts = count_by_type(qiasp_result.groups)
    if counts != {1: 0, 2: 15, 3: 0, 4: 28}:
        problems.append(f"counts by type {counts}, wanted {{1: 0, 2: 15, 3: 0, 4: 28}}")
    kind_of_class = {
        c.design_class: c.kind for c in qiasp_result.expanded.components()
    }
    decomposition: dict[str, int] = {}
    for group in qiasp_result.groups:
        if group.type == 4:
            kind = kind_of_class.get(group.trigger, "?")
            decomposition[kind] = decomposition.get(kind, 0) + 1
    if decomposition != {"controller": 3, "calculator": 15, "alarm": 10}:
        problems.append(f"type 4 decomposition {decomposition}, wanted 3+15+10")
    _finish(4, "28 shared-design and 15 interdependency CCF groups", problems)


def test_acceptance_05_first_order_and_runtime(qiasp_text):
    problems: list[str] = []
    start = time.perf_counter()
    result = _guarded(problems, lambda: analyze_text(qiasp_text, "qiasp.resha"))
    elapsed = time.perf_counter() - start
    if result is not None:
        software = result.first_order.software
        if len(software) != 43:
            problems.append(f"{len(software)} first-order software sets, wanted 43")
        if result.first_order.hardware != ["hw:operator_terminal"]:
            problems.append(f"hardware singletons {result.first_order.hardware}")
        triggers = {
            g.trigger
            for g in result.groups
            if g.type == 2 and f"ccf:{g.id}" in set(software)
        }
        wanted = {
            "cet_calculator",
            "hjtc_calculator",
            "hjtc_power_controller",
            "rcsm_calculator",
            "rvl_calculator",
        }
        if triggers != wanted:
            problems.append(f"division-level triggers {sorted(triggers)}")
        if len(result.collection) != 2348:
            problems.append(f"{len(result.collection)} minimal cut sets, wanted 2348")
    if elapsed >= 5.0:
        problems.append(f"full pipeline took {elapsed:.2f}s, budget 5s")
    _finish(5, "43 first-order software cut sets from a sub-5s full run", problems)


def test_acceptance_06_cut_set_engine_vs_oracle():
    problems: list[str] = []
    rng = random.Random(109)
    for trial in range(100):
        tree = random_tree(rng, max_events=16)
        engine = as_frozensets(minimal_cut_sets(tree))
        oracle = as_frozensets(brute_force_oracle(tree))
        if engine != oracle:
            problems.append(f"trial {trial}: engine {len(engine)} sets, oracle {len(oracle)}")
            break
    _finish(6, "cut-set engine matches exhaustive oracle on 100 random trees", problems)


def test_acceptance_07_injection_additivity():
    problems: list[str] = []
    rng = random.Random(211)
    for trial in range(50):
        model = expand_replication(random_analyzable_model(rng))
        structure = extract_control_structure(model)
        instances = apply_applicability(enumerate_candidates(structure), model)
        integrated = integrate_software(synthesize_hardware_ft(model), instances)
        groups = detect_ccf_groups(model, instances)
        injected = inject_ccf_events(integrated, groups)
        pre = minimal_cut_sets(integrated)
        post = minimal_cut_sets(injected)
        for cut in member_sets(pre):
            if not injected.evaluate(set(cut)):
                problems.append(f"trial {trial}: pre-injection set {cut} no longer fails")
                break
        pre_sets = as_frozensets(pre)
        for cut in as_frozensets(post):
            if cut not in pre_sets and not any(m.startswith("ccf:") for m in cut):
                problems.append(f"trial {trial}: new set {sorted(cut)} has no injected cause")
                break
        if problems:
            break
    _finish(7, "injected shared causes only add failure modes on 50 random models", problems)


def _batch_failures(tree: FaultTree, matrix: np.ndarray, events: list[str]) -> np.ndarray:
    column = {event_id: matrix[:, i] for i, event_id in enumerate(events)}
    batch = matrix.shape[0]
    memo: dict[str, np.ndarray] = {}
    for node_id in tree.topological_nodes():
        node = tree.nodes[node_id]
        if isinstance(node, BasicEvent):
            memo[node_id] = column[node_id]
            continue
        acc = np.zeros(batch, dtype=bool) if node.op is GateOp.OR else np.ones(batch, dtype=bool)
        for child in node.children:
            if child not in memo:
                continue
            acc = acc | memo[child] if node.op is GateOp.OR else acc & memo[child]
        memo[node_id] = acc
    return memo[tree.root]


def test_acceptance_08_monotonicity(qiasp_result):
    problems: list[str] = []
    rng = np.random.default_rng(31)
    trees = [qiasp_result.injected_tree]
    tree_rng = random.Random(31)
    trees.append(random_tree(tree_rng))
    trees.append(random_tree(tree_rng))
    for index, tree in enumerate(trees):
        events = [e.id for e in reachable_events(tree)]
        n = len(events)
        smaller = rng.random((1000, n)) < 0.15
        larger = smaller | (rng.random((1000, n)) < 0.15)
        fail_small = _batch_failures(tree, smaller, events)
        fail_large = _batch_failures(tree, larger, events)
        violations = int(np.count_nonzero(fail_small & ~fail_large))
        if violations:
            problems.append(f"tree {index}: {violations} monotonicity violations")
        # Cross-check the vectorized evaluator against the scalar one.
        for row in range(0, 1000, 250):
            failed = {events[i] for i in range(n) if smaller[row, i]}
            if tree.evaluate(failed) != bool(fail_small[row]):
                problems.append(f"tree {index}: evaluator disagreement on row {row}")
                break
    _finish(8, "failure sets can only grow: 1000 nested assignment pairs per tree", problems)


def test_acceptance_09_serialization_round_trip():
    problems: list[str] = []
    for seed in range(200):
        model = random_model(random.Random(seed))
        rendered = serialize_model(model)
        reparsed = _guarded(problems, lambda: parse_model(rendered))
        if problems:
            problems.insert(0, f"seed {seed}")
            break
        if plain(reparsed) != plain(model):
            problems.append(f"seed {seed}: reparsed model differs")
            break
    _finish(9, "model text round-trips losslessly for 200 random models", problems)


def test_acceptance_10_guidance_content(qiasp_result):
    problems: list[str] = []
    guidance = qiasp_result.guidance
    if len(guidance.diversity_findings) != 1:
        problems.append(f"{len(guidance.diversity_findings)} diversity findings, wanted 1")
    if len(guidance.coupling_findings) != 5:
        problems.append(f"{len(guidance.coupling_findings)} coupling findings, wanted 5")
    summary = render_summary(qiasp_result, "md")
    for phrase in (
        "output variable is unassigned after calculation",
        "inappropriate boundary conditions of the module or an incorrect process model",
        "setpoint variable is under or over the ideal limit",
    ):
        if phrase not in summary:
            problems.append(f"summary missing cause phrase: {phrase[:40]}...")
    _finish(10, "guidance lists 1 diversity and 5 coupling findings with cause text", problems)

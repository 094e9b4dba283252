"""End-to-end analysis: validate, expand, enumerate, synthesize, integrate,
detect, inject, solve, and report."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from .ccf import CcfGroup, detect_ccf_groups, inject_ccf_events
from .cutsets import (
    CutSetCollection,
    FirstOrderReport,
    first_order_cut_sets,
    minimal_cut_sets,
)
from .dsl import parse_model
from .ftree import (
    BranchCensus,
    FaultTree,
    branch_census,
    integrate_software,
    synthesize_hardware_ft,
)
from .model import SystemModel, ValidationReport, _validate_and_expand
from .report import (
    GuidanceReport,
    SummaryInput,
    ccf_csv,
    cutsets_csv,
    export_ft,
    generate_guidance,
    render_summary,
    traceability_csv,
)
from .stpa import (
    ControlStructure,
    UcaUifInstance,
    apply_applicability,
    enumerate_candidates,
    extract_control_structure,
)

ARTIFACT_NAMES = (
    "ft.json",
    "cutsets.csv",
    "ccf.csv",
    "traceability.csv",
    "summary.md",
    "summary.txt",
)


class ValidationFailed(Exception):
    """The model did not pass structural validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


@dataclass
class PipelineOptions:
    include_hw_design: bool = False
    max_order: int | None = None


@dataclass
class AnalysisResult:
    model: SystemModel
    expanded: SystemModel
    validation: ValidationReport
    structure: ControlStructure
    candidates: list[UcaUifInstance]
    instances: list[UcaUifInstance]
    hardware_tree: FaultTree
    census: BranchCensus
    integrated_tree: FaultTree
    groups: list[CcfGroup]
    injected_tree: FaultTree
    collection: CutSetCollection
    first_order: FirstOrderReport
    guidance: GuidanceReport
    options: PipelineOptions = field(default_factory=PipelineOptions)

    def summary_input(self) -> SummaryInput:
        return SummaryInput(
            model=self.expanded,
            candidates=self.candidates,
            instances=self.instances,
            census=self.census,
            groups=self.groups,
            collection=self.collection,
            first_order=self.first_order,
            guidance=self.guidance,
            include_hw_design=self.options.include_hw_design,
        )


def _expand_valid(model: SystemModel) -> SystemModel:
    """The replication-expanded model; raises ValidationFailed on any violation."""
    validation, expanded = _validate_and_expand(model)
    if not validation.ok:
        raise ValidationFailed(validation)
    return expanded


# The analysis chain, declared once: each value name maps to the function
# that computes it and the names of that function's inputs, in the order of
# AnalysisResult's fields.  The caller gives ``model`` and the
# PipelineOptions fields (``include_hw_design``, ``max_order``).
STAGES: dict[str, tuple[Callable[..., Any], tuple[str, ...]]] = {
    "expanded": (_expand_valid, ("model",)),
    "structure": (extract_control_structure, ("expanded",)),
    "candidates": (enumerate_candidates, ("structure",)),
    "instances": (apply_applicability, ("candidates", "expanded")),
    "hardware_tree": (synthesize_hardware_ft, ("expanded", "include_hw_design")),
    "census": (branch_census, ("hardware_tree",)),
    "integrated_tree": (integrate_software, ("hardware_tree", "instances")),
    "groups": (detect_ccf_groups, ("expanded", "instances")),
    "injected_tree": (inject_ccf_events, ("integrated_tree", "groups")),
    "collection": (minimal_cut_sets, ("injected_tree", "max_order")),
    "first_order": (first_order_cut_sets, ("collection", "injected_tree")),
    "guidance": (generate_guidance, ("expanded", "groups", "first_order", "injected_tree", "instances")),
}


def run_stages(values: dict[str, Any], *goals: str) -> dict[str, Any]:
    """Compute each goal, and only the stages it needs, into ``values``.

    A value already in ``values`` is used as it is, so a tree imported in
    place of a stage's output means nothing upstream of that stage runs.
    Returns ``values``.
    """
    for goal in goals:
        if goal not in values:
            function, inputs = STAGES[goal]
            run_stages(values, *inputs)
            values[goal] = function(*(values[name] for name in inputs))
    return values


def analyze_model(model: SystemModel, options: PipelineOptions | None = None) -> AnalysisResult:
    """Run every stage on an authored model, in STAGES order.

    Raises ValidationFailed when structural validation reports violations;
    all later stages run on the replication-expanded model.
    """
    options = options or PipelineOptions()
    values = run_stages({"model": model, **asdict(options)}, *STAGES)
    # The ``expanded`` stage raises on any violation, so this report is clean.
    return AnalysisResult(
        model=model,
        validation=ValidationReport(),
        options=options,
        **{name: values[name] for name in STAGES},
    )


def analyze_text(text: str, file_name: str = "<model>", options: PipelineOptions | None = None) -> AnalysisResult:
    return analyze_model(parse_model(text, file_name), options)


def write_artifacts(result: AnalysisResult, out_dir: Path) -> list[Path]:
    """Write the six artifact files; returns their paths in a fixed order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = result.summary_input()
    contents = {
        "ft.json": export_ft(result.injected_tree),
        "cutsets.csv": cutsets_csv(result.collection, result.injected_tree),
        "ccf.csv": ccf_csv(result.groups),
        "traceability.csv": traceability_csv(result.instances, result.expanded),
        "summary.md": render_summary(data, "md"),
        "summary.txt": render_summary(data, "txt"),
    }
    paths = []
    for name in ARTIFACT_NAMES:
        path = out_dir / name
        path.write_text(contents[name], encoding="utf-8")
        paths.append(path)
    return paths


def run_pipeline(
    model_path: Path, out_dir: Path, options: PipelineOptions | None = None
) -> tuple[AnalysisResult, list[Path]]:
    text = Path(model_path).read_text(encoding="utf-8")
    result = analyze_text(text, str(model_path), options)
    return result, write_artifacts(result, out_dir)


def bundled_model_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "qiasp.resha"


def bundled_golden_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "qiasp.golden.json"

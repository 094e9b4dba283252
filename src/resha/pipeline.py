"""End-to-end analysis: validate, expand, enumerate, synthesize, integrate,
detect, inject, solve, and report.

The chain is declared once, by ``AnalysisResult``'s fields: each stage
field names its function as ``module.function`` and its inputs, and
``STAGES`` is read from those fields.  ``run_stages`` imports a stage's
module only when the stage runs, so a caller that needs the first stages
alone never loads the later ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .dsl import parse_model
from .model import ModelError, SystemModel, ValidationReport, _validate_and_expand

if TYPE_CHECKING:
    from .ccf import CcfGroup
    from .cutsets import CutSetCollection, FirstOrderReport
    from .ftree import BranchCensus, FaultTree
    from .report import GuidanceReport
    from .stpa import ControlStructure, UcaUifInstance

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


def _stage(function: str, *inputs: str) -> Any:
    """A field computed by ``module.function`` from the named inputs."""
    return field(metadata={"stage": (function, inputs)})


@dataclass
class AnalysisResult:
    """Every value of one analysis, and the chain that computes them.

    Each stage field names the function that computes it, as
    ``module.function``, and that function's inputs: ``model``, a
    PipelineOptions field (``include_hw_design``, ``max_order``) or an
    earlier stage.
    """

    model: SystemModel
    expanded: SystemModel = _stage("pipeline._expand_valid", "model")
    validation: ValidationReport
    structure: ControlStructure = _stage("stpa.extract_control_structure", "expanded")
    candidates: list[UcaUifInstance] = _stage("stpa.enumerate_candidates", "structure")
    instances: list[UcaUifInstance] = _stage("stpa.apply_applicability", "candidates", "expanded")
    hardware_tree: FaultTree = _stage("ftree.synthesize_hardware_ft", "expanded", "include_hw_design")
    census: BranchCensus = _stage("ftree.branch_census", "hardware_tree")
    integrated_tree: FaultTree = _stage("ftree.integrate_software", "hardware_tree", "instances")
    groups: list[CcfGroup] = _stage("ccf.detect_ccf_groups", "expanded", "instances")
    injected_tree: FaultTree = _stage("ccf.inject_ccf_events", "integrated_tree", "groups")
    collection: CutSetCollection = _stage("cutsets.minimal_cut_sets", "injected_tree", "max_order")
    first_order: FirstOrderReport = _stage("cutsets.first_order_cut_sets", "collection", "injected_tree")
    guidance: GuidanceReport = _stage(
        "report.generate_guidance", "expanded", "groups", "first_order", "injected_tree", "instances"
    )
    options: PipelineOptions = field(default_factory=PipelineOptions)

    def summary_input(self) -> AnalysisResult:
        """The result itself, which ``render_summary`` reads."""
        return self


def _expand_valid(model: SystemModel) -> SystemModel:
    """The replication-expanded model; raises ValidationFailed on any violation."""
    validation, expanded = _validate_and_expand(model)
    if not validation.ok:
        raise ValidationFailed(validation)
    return expanded


# Each stage field's name -> (``module.function``, its input names), in field order.
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    f.name: f.metadata["stage"] for f in fields(AnalysisResult) if f.metadata
}


def run_stages(values: dict[str, Any], *goals: str) -> dict[str, Any]:
    """Compute each goal, and only the stages it needs, into ``values``.

    A value already in ``values`` is used as it is, so a tree imported in
    place of a stage's output means nothing upstream of that stage runs.
    Returns ``values``.
    """
    for goal in goals:
        if goal not in values:
            qualified, inputs = STAGES[goal]
            run_stages(values, *inputs)
            module, function = qualified.split(".")
            stage = getattr(import_module(f".{module}", __package__), function)
            values[goal] = stage(*(values[name] for name in inputs))
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
    from .report import ccf_csv, cutsets_csv, export_ft, markup_summary, summary_lines, traceability_csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = summary_lines(result)
    contents = {
        "ft.json": export_ft(result.injected_tree),
        "cutsets.csv": cutsets_csv(result.collection, result.injected_tree),
        "ccf.csv": ccf_csv(result.groups),
        "traceability.csv": traceability_csv(result.instances, result.expanded),
        "summary.md": markup_summary(summary, "md"),
        "summary.txt": markup_summary(summary, "txt"),
    }
    paths = []
    for name in ARTIFACT_NAMES:
        path = out_dir / name
        path.write_text(contents[name], encoding="utf-8")
        paths.append(path)
    return paths


def read_input(path: Path | str) -> str:
    """An input file's text; a file that is not UTF-8 is a ModelError that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def run_pipeline(
    model_path: Path, out_dir: Path, options: PipelineOptions | None = None
) -> tuple[AnalysisResult, list[Path]]:
    text = read_input(model_path)
    result = analyze_text(text, str(model_path), options)
    return result, write_artifacts(result, out_dir)


def bundled_model_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "qiasp.resha"


def bundled_golden_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "qiasp.golden.json"

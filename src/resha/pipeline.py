"""End-to-end analysis: validate, expand, enumerate, synthesize, integrate,
detect, inject, solve, and report.

The chain is declared once, by ``STAGES``: each stage value names its
function as ``module.function`` and its inputs, and ``AnalysisResult``
takes those values by keyword.  ``run_stages`` imports a stage's module
only when the stage runs, so a caller that needs the first stages alone
never loads the later ones.

``analyze_model``, ``analyze_text`` and ``write_artifacts`` run with the
cyclic garbage collector paused.  Reference counting frees everything they
build (``tests/test_pipeline.py::test_analysis_leaves_no_cyclic_garbage``
checks it), so a collector pass there would only scan live objects; a
cycle that a later change adds is still reclaimed by the first pass after
the call.  Each call, whether it returns or raises, turns the collector
back on only if it was on when the call began, so nested calls and a
caller that keeps it off are left as they were.  The switch is
process-wide: another thread that turns the collector off during one of
these calls finds it on again when the call returns.
"""

from __future__ import annotations

import gc
from functools import wraps
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, TypeVar

from .dsl import parse_model
from .model import ModelError, SystemModel, ValidationReport, _validate_and_expand

if TYPE_CHECKING:
    from .ccf import CcfGroup
    from .cutsets import CutSetCollection, FirstOrderReport
    from .ftree import BranchCensus, FaultTree
    from .report import GuidanceReport
    from .stpa import ControlStructure, UcaUifInstance

_Function = TypeVar("_Function", bound=Callable[..., Any])

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


class PipelineOptions(NamedTuple):
    """The choices that change an analysis: hardware design events and cut-set truncation."""

    include_hw_design: bool = False
    max_order: int | None = None


# Each stage value's name -> the function that computes it, as
# ``module.function``, and that function's inputs: ``model``, a
# PipelineOptions field (``include_hw_design``, ``max_order``) or an earlier
# stage.  The order is the order in which ``analyze_model`` runs them.
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    "expanded": ("pipeline._expand_valid", ("model",)),
    "structure": ("stpa.extract_control_structure", ("expanded",)),
    "candidates": ("stpa.enumerate_candidates", ("structure",)),
    "instances": ("stpa.apply_applicability", ("candidates", "expanded")),
    "hardware_tree": ("ftree.synthesize_hardware_ft", ("expanded", "include_hw_design")),
    "census": ("ftree.branch_census", ("hardware_tree",)),
    "integrated_tree": ("ftree.integrate_software", ("hardware_tree", "instances")),
    "groups": ("ccf.detect_ccf_groups", ("expanded", "instances")),
    "injected_tree": ("ccf.inject_ccf_events", ("integrated_tree", "groups")),
    "collection": ("cutsets.minimal_cut_sets", ("injected_tree", "max_order")),
    "first_order": ("cutsets.first_order_cut_sets", ("collection", "injected_tree")),
    "guidance": ("report.generate_guidance", ("expanded", "groups", "first_order", "injected_tree", "instances")),
}


class AnalysisResult:
    """Every value of one analysis: the authored model, its validation and
    options, and the value of each stage in ``STAGES``, all by keyword."""

    def __init__(
        self, *, model: SystemModel, expanded: SystemModel, validation: ValidationReport,
        structure: ControlStructure, candidates: list[UcaUifInstance], instances: list[UcaUifInstance],
        hardware_tree: FaultTree, census: BranchCensus, integrated_tree: FaultTree, groups: list[CcfGroup],
        injected_tree: FaultTree, collection: CutSetCollection, first_order: FirstOrderReport,
        guidance: GuidanceReport, options: PipelineOptions,
    ):
        self.model = model
        self.expanded = expanded
        self.validation = validation
        self.structure = structure
        self.candidates = candidates
        self.instances = instances
        self.hardware_tree = hardware_tree
        self.census = census
        self.integrated_tree = integrated_tree
        self.groups = groups
        self.injected_tree = injected_tree
        self.collection = collection
        self.first_order = first_order
        self.guidance = guidance
        self.options = options

    def summary_input(self) -> AnalysisResult:
        """The result itself, which ``render_summary`` reads."""
        return self


def _expand_valid(model: SystemModel) -> SystemModel:
    """The replication-expanded model; raises ValidationFailed on any violation."""
    validation, expanded = _validate_and_expand(model)
    if not validation.ok:
        raise ValidationFailed(validation)
    return expanded


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


def _collector_paused(function: _Function) -> _Function:
    """``function``, run with the cyclic garbage collector paused as the
    module docstring says."""

    @wraps(function)
    def paused(*args: Any, **kwargs: Any) -> Any:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


@_collector_paused
def analyze_model(model: SystemModel, options: PipelineOptions | None = None) -> AnalysisResult:
    """Run every stage on an authored model, in STAGES order.

    Raises ValidationFailed when structural validation reports violations;
    all later stages run on the replication-expanded model.
    """
    options = options or PipelineOptions()
    values = run_stages({"model": model, **options._asdict()}, *STAGES)
    # The ``expanded`` stage raises on any violation, so this report is clean.
    return AnalysisResult(
        model=model,
        validation=ValidationReport(),
        options=options,
        **{name: values[name] for name in STAGES},
    )


@_collector_paused
def analyze_text(text: str, file_name: str = "<model>", options: PipelineOptions | None = None) -> AnalysisResult:
    return analyze_model(parse_model(text, file_name), options)


@_collector_paused
def write_artifacts(result: AnalysisResult, out_dir: Path) -> list[Path]:
    """Write the six artifact files; returns their paths in a fixed order.

    Every file is rendered before the directory is made, so a render that
    fails, such as a ``MemoryError`` on an oversized ``cutsets.csv``,
    leaves nothing behind.
    """
    from .ftree import export_ft
    from .report import ccf_csv, cutsets_csv, markup_summary, summary_lines, traceability_csv

    summary = summary_lines(result)
    contents = {
        "ft.json": export_ft(result.injected_tree),
        "cutsets.csv": cutsets_csv(result.collection, result.injected_tree),
        "ccf.csv": ccf_csv(result.groups),
        "traceability.csv": traceability_csv(result.instances, result.expanded),
        "summary.md": markup_summary(summary, "md"),
        "summary.txt": markup_summary(summary, "txt"),
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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

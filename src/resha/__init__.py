"""Model-driven hazard analysis for redundant digital control architectures."""

from .ccf import CcfGroup, detect_ccf_groups, inject_ccf_events
from .cutsets import (
    CutSetCollection,
    FirstOrderReport,
    brute_force_oracle,
    first_order_cut_sets,
    minimal_cut_sets,
)
from .dsl import ParseError, parse_model, serialize_model
from .ftree import (
    BasicEvent,
    BranchCensus,
    EventCategory,
    FaultTree,
    Gate,
    GateOp,
    branch_census,
    integrate_software,
    synthesize_hardware_ft,
)
from .model import (
    ModelError,
    ModelIndex,
    SourceSpan,
    SystemModel,
    ValidationReport,
    expand_replication,
    validate_model,
)
from .pipeline import (
    AnalysisResult,
    PipelineOptions,
    ValidationFailed,
    analyze_model,
    analyze_text,
    run_pipeline,
    write_artifacts,
)
from .report import export_ft, generate_guidance, import_ft, render_summary
from .stpa import (
    ControlStructure,
    UcaUifInstance,
    apply_applicability,
    enumerate_candidates,
    extract_control_structure,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BasicEvent",
    "BranchCensus",
    "CcfGroup",
    "ControlStructure",
    "CutSetCollection",
    "EventCategory",
    "FaultTree",
    "FirstOrderReport",
    "Gate",
    "GateOp",
    "ModelError",
    "ModelIndex",
    "ParseError",
    "PipelineOptions",
    "SourceSpan",
    "SystemModel",
    "UcaUifInstance",
    "ValidationFailed",
    "ValidationReport",
    "analyze_model",
    "analyze_text",
    "apply_applicability",
    "branch_census",
    "brute_force_oracle",
    "detect_ccf_groups",
    "enumerate_candidates",
    "expand_replication",
    "export_ft",
    "extract_control_structure",
    "first_order_cut_sets",
    "generate_guidance",
    "import_ft",
    "inject_ccf_events",
    "integrate_software",
    "minimal_cut_sets",
    "parse_model",
    "render_summary",
    "run_pipeline",
    "serialize_model",
    "synthesize_hardware_ft",
    "validate_model",
    "write_artifacts",
]

"""Model-driven hazard analysis for redundant digital control architectures.

The public names live in ``_EXPORTS``, by module.  Nothing is imported until
a name, or one of those modules, is first read from the package, so
``import resha`` costs almost nothing and each ``resha`` subcommand loads
only the modules its stages run.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule that ``import resha`` makes reachable, with its public names.
_EXPORTS = {
    "ccf": ("CcfGroup", "detect_ccf_groups", "inject_ccf_events"),
    "cutsets": ("CutSetCollection", "FirstOrderReport", "first_order_cut_sets", "minimal_cut_sets"),
    "dsl": ("ParseError", "parse_model"),
    "ftree": (
        "BasicEvent",
        "BranchCensus",
        "EventCategory",
        "FaultTree",
        "Gate",
        "GateOp",
        "branch_census",
        "export_ft",
        "import_ft",
        "integrate_software",
        "synthesize_hardware_ft",
    ),
    "model": (
        "ModelError",
        "ModelIndex",
        "SourceSpan",
        "SystemModel",
        "ValidationReport",
        "expand_replication",
        "validate_model",
    ),
    "pipeline": (
        "AnalysisResult",
        "PipelineOptions",
        "ValidationFailed",
        "analyze_model",
        "analyze_text",
        "run_pipeline",
        "write_artifacts",
    ),
    "report": ("generate_guidance", "render_summary"),
    "stpa": (
        "ControlStructure",
        "UcaUifInstance",
        "apply_applicability",
        "enumerate_candidates",
        "extract_control_structure",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

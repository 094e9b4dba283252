"""Benchmark worker: generates one workload's model and times analyses of it.

Started by ``run.py`` as ``worker.py --workload NAME --seed N --dir RUN_DIR``.
It prints ``{"ready": true}`` once the model text is generated, validated
and written to ``RUN_DIR/model.resha``, then reads JSON commands from stdin,
one a line: ``{"cmd": "run", "seconds": S, "trace": T}`` runs operations
for S seconds and prints one JSON result line; ``{"cmd": "exit"}`` or the
end of stdin ends the worker.  ``run.py`` runs CLI children between two
``run`` commands, while the worker waits.

One untraced operation is ``pipeline.analyze_text`` followed by
``pipeline.write_artifacts`` into a fresh directory, which is what
``resha pipeline`` does after interpreter start.  A traced operation makes
the same public calls one by one, each inside a span, so that its artifacts
must equal the untraced ones byte for byte.  Every operation is checked.
Untraced operations are also timed at the reference speed of
``calibrate.py``; traced ones are not.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from calibrate import Clock
from workloads import BUNDLED_GOLDEN, SRC, WORKLOADS, Workload, model_text

sys.path.insert(0, str(SRC))

from resha.ccf import detect_ccf_groups, inject_ccf_events  # noqa: E402
from resha.cutsets import first_order_cut_sets, minimal_cut_sets  # noqa: E402
from resha.dsl import parse_model  # noqa: E402
from resha.ftree import branch_census, integrate_software, synthesize_hardware_ft  # noqa: E402
from resha.golden import load_golden, verify_golden  # noqa: E402
from resha.model import expand_replication, validate_model  # noqa: E402
from resha.pipeline import (  # noqa: E402
    ARTIFACT_NAMES,
    AnalysisResult,
    PipelineOptions,
    ValidationFailed,
    analyze_text,
    write_artifacts,
)
from resha.report import (  # noqa: E402
    ccf_csv,
    cutsets_csv,
    export_ft,
    generate_guidance,
    import_ft,
    render_summary,
    traceability_csv,
)
from resha.stpa import (  # noqa: E402
    apply_applicability,
    enumerate_candidates,
    extract_control_structure,
)

from checks import (  # noqa: E402
    FT_STRUCTURE,
    artifact_digests,
    count_mismatches,
    digest_mismatches,
    load_expected,
    sha256,
    tree_structure_digest,
)
from spans import Tracer, write_jsonl  # noqa: E402

MODEL_FILE = "model.resha"
SPANS_FILE = "worker-spans.jsonl"


def traced_analysis(text: str, options: PipelineOptions, tracer: Tracer, out_dir: Path) -> AnalysisResult:
    """``analyze_text`` plus ``write_artifacts``, one span per public call."""
    call = tracer.call
    model = call("dsl.parse_model", parse_model, text, MODEL_FILE)
    validation = call("model.validate_model", validate_model, model)
    if not validation.ok:
        raise ValidationFailed(validation)
    expanded = call("model.expand_replication", expand_replication, model)
    structure = call("stpa.extract_control_structure", extract_control_structure, expanded)
    candidates = call("stpa.enumerate_candidates", enumerate_candidates, structure)
    instances = call("stpa.apply_applicability", apply_applicability, candidates, expanded)
    hardware = call(
        "ftree.synthesize_hardware_ft", synthesize_hardware_ft, expanded, options.include_hw_design
    )
    census = call("ftree.branch_census", branch_census, hardware)
    integrated = call("ftree.integrate_software", integrate_software, hardware, instances)
    groups = call("ccf.detect_ccf_groups", detect_ccf_groups, expanded, instances)
    injected = call("ccf.inject_ccf_events", inject_ccf_events, integrated, groups)
    collection = call("cutsets.minimal_cut_sets", minimal_cut_sets, injected, options.max_order)
    first = call("cutsets.first_order_cut_sets", first_order_cut_sets, collection, injected)
    guidance = call(
        "report.generate_guidance", generate_guidance, expanded, groups, first, injected, instances
    )
    result = AnalysisResult(
        model=model,
        expanded=expanded,
        validation=validation,
        structure=structure,
        candidates=candidates,
        instances=instances,
        hardware_tree=hardware,
        census=census,
        integrated_tree=integrated,
        groups=groups,
        injected_tree=injected,
        collection=collection,
        first_order=first,
        guidance=guidance,
        options=options,
    )
    with tracer.span("pipeline.write"):
        data = result.summary_input()
        contents = {
            "ft.json": call("report.export_ft", export_ft, injected),
            "cutsets.csv": call("report.cutsets_csv", cutsets_csv, collection, injected),
            "ccf.csv": call("report.ccf_csv", ccf_csv, groups),
            "traceability.csv": call("report.traceability_csv", traceability_csv, instances, expanded),
            "summary.md": call("report.render_summary", render_summary, data, "md"),
            "summary.txt": call("report.render_summary", render_summary, data, "txt"),
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in ARTIFACT_NAMES:
            (out_dir / name).write_text(contents[name], encoding="utf-8")
    return result


def _untraced_call(_name: str, fn, *args):
    return fn(*args)


def count_metrics(result: AnalysisResult, out_dir: Path) -> dict[str, int]:
    order_index = result.collection.order_index()
    return {
        "stpa.candidates": len(result.candidates),
        "stpa.instances": len(result.instances),
        "ftree.hardware_nodes": len(result.hardware_tree.nodes),
        "ftree.integrated_nodes": len(result.integrated_tree.nodes),
        "ccf.groups": len(result.groups),
        "ccf.injected_nodes": len(result.injected_tree.nodes),
        "cutsets.sets": len(result.collection),
        "cutsets.order_1": order_index.get(1, 0),
        "cutsets.order_2": order_index.get(2, 0),
        "report.artifact_bytes": sum((out_dir / n).stat().st_size for n in ARTIFACT_NAMES),
        "report.ft_json_bytes": (out_dir / "ft.json").stat().st_size,
    }


class Runner:
    """Times and checks operations on one workload's model text."""

    def __init__(self, workload: Workload, text: str, run_dir: Path):
        self.workload = workload
        self.text = text
        self.run_dir = run_dir
        self.options = PipelineOptions(max_order=workload.max_order)
        self.expected = load_expected()[workload.artifacts]
        self.golden = load_golden(BUNDLED_GOLDEN) if workload.divisions == 2 else None
        self.tracer = Tracer("w")
        self.first_ft_sha: str | None = None
        self.clock = Clock()
        self.warmed_up = False
        # The artifacts of the last checked operation, kept for the soundness check.
        self.kept: Path | None = None

    def operation(self, traced: bool) -> tuple[float | None, list[str], Path, AnalysisResult | None]:
        """One analysis into a fresh directory and its check.

        Returns (latency, problems, directory, result); latency and result
        are None when the analysis or the check raised.
        """
        out_dir = Path(tempfile.mkdtemp(dir=self.run_dir))
        self.tracer.next_op()
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("op"):
                    result = traced_analysis(self.text, self.options, self.tracer, out_dir)
            else:
                result = analyze_text(self.text, MODEL_FILE, self.options)
                write_artifacts(result, out_dir)
            latency = time.perf_counter() - start
            if traced:
                with self.tracer.span("check"):
                    problems = self.check(result, out_dir, self.tracer.call)
            else:
                problems = self.check(result, out_dir, _untraced_call)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            return None, [f"operation raised {type(exc).__name__}: {exc}"], out_dir, None
        return latency, problems, out_dir, result

    def check(self, result: AnalysisResult, out_dir: Path, call) -> list[str]:
        ft_text = (out_dir / "ft.json").read_text(encoding="utf-8")
        ft_sha = sha256(ft_text.encode())
        self.first_ft_sha = self.first_ft_sha or ft_sha
        problems = []
        if ft_sha != self.first_ft_sha:
            problems.append("ft.json bytes differ from the run's first operation")
        digests = artifact_digests(out_dir)
        digests[FT_STRUCTURE] = tree_structure_digest(call("report.import_ft", import_ft, ft_text))
        problems += digest_mismatches(digests, self.expected)
        problems += count_mismatches(
            self.workload,
            len(result.instances),
            len(result.groups),
            result.collection.order_index(),
        )
        if self.golden is not None:
            report = verify_golden(result, self.golden)
            problems += [f"golden {field}" for field in report.mismatches()]
        return problems

    def run(self, seconds: float, trace: bool) -> dict:
        """Operations for ``seconds``; with tracing, traced and untraced alternate.

        The first operation of the worker is a checked warm-up whose latency
        is not kept.  A traced chunk makes at least three operations, so it
        has a traced and a timed untraced one.  An untraced chunk also
        reports its latencies at the reference speed, as ``scaled``.
        """
        latencies: dict[str, list[float]] = {"untraced": [], "traced": [], "scaled": []}
        if not trace:
            self.clock.start()
        attempted = failed = 0
        problems: list[str] = []
        counts: dict[str, int] = {}
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and attempted % 2 == 1
            latency, found, out_dir, result = self.operation(traced)
            failed += bool(found)
            problems += found
            if result is None:
                shutil.rmtree(out_dir, ignore_errors=True)
                if not trace:
                    self.clock.start()
            else:
                if self.warmed_up:
                    latencies["traced" if traced else "untraced"].append(latency)
                if not trace:
                    scaled = self.clock.scale(latency)
                    if self.warmed_up:
                        latencies["scaled"].append(scaled)
                if traced:
                    counts = count_metrics(result, out_dir)
                if self.kept is not None:
                    shutil.rmtree(self.kept, ignore_errors=True)
                self.kept = out_dir
            self.warmed_up = True
            attempted += 1
            if time.perf_counter() >= deadline and (not trace or attempted >= 3):
                break
        spans_path = None
        if trace:
            spans_path = self.run_dir / SPANS_FILE
            write_jsonl(self.tracer.spans, spans_path)
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "latencies": latencies,
            "counts": counts,
            "artifacts": str(self.kept) if self.kept else None,
            "spans": str(spans_path) if spans_path else None,
        }


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    text = model_text(workload, args.seed)
    report = validate_model(parse_model(text, MODEL_FILE))
    if not report.ok:
        print(f"generated model for {workload.name} is invalid:\n{report}", file=sys.stderr)
        return 1
    (args.dir / MODEL_FILE).write_text(text, encoding="utf-8")
    send({"ready": True})
    runner = Runner(workload, text, args.dir)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] != "run":
            break
        send(runner.run(command["seconds"], bool(command["trace"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

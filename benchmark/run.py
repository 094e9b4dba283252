"""resha benchmark: four workloads, end to end and per module.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.py`` and explained in README.md.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit.  ``--trace 0`` gives the end-to-end metrics and
``--trace 1`` the per-module metrics, as listed in BENCHMARK.json.

Load is closed and sequential: this process runs one worker or one CLI
child at a time, waits for it, and starts no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import Clock, pin_to_one_cpu
from spans import Tracer, median_self_time_per_op, read_jsonl, write_jsonl
from workloads import ROOT, SRC, WORKLOADS, Workload

WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".bench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Seconds of operations in one round of an untraced run; each round then adds
# one sample to pipeline_cli_s and one to setup_s.  The last round is cut
# short at the end of the window.
ROUND_OPS_S = 3.5
# Child processes per traced run for cli.bare_python_s and cli.import_s.
STARTUP_RUNS = 3
# Cut sets checked against FaultTree.evaluate once per run.
SOUNDNESS_SAMPLE = 400
# A run that has not finished by then is stopped and fails without a result.
RUN_TIMEOUT_S = 170

CHAIN_STEPS = ("validate", "synth", "integrate", "ccf", "cutsets")
CHAIN_CUTSETS = "chain:cutsets.csv"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _timeout(_signum, _frame):
    raise BenchError(f"run did not finish within {RUN_TIMEOUT_S} s")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer, no percentile qualifies, and the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    """One benchmark run: its children, its checks and its measurements."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        import checks  # imports resha, so only after the source tree was found

        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.model = run_dir / "model.resha"
        self.expected = checks.load_expected()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.live: list[subprocess.Popen] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.last_rss_kb = 0
        self.notes: list[str] = []

    # -- processes ---------------------------------------------------------

    def _reap(self, proc: subprocess.Popen) -> int:
        """Wait for a child; returns its exit code and records its peak RSS."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        self.last_rss_kb = usage.ru_maxrss
        return proc.returncode

    def child(self, args: list[str], stdout: Path) -> tuple[float, int]:
        """Run ``python args`` to completion: (wall seconds, exit code)."""
        with open(stdout, "wb") as out, open(self.run_dir / "child.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            self.live.append(proc)
            code = self._reap(proc)
            return time.perf_counter() - start, code

    def cli(self, args: list[str], stdout: Path) -> tuple[float, int]:
        """Run ``python -m resha.cli args``; on cli-chain its peak RSS counts."""
        elapsed, code = self.child(["-m", "resha.cli", *args], stdout)
        if self.workload.cli:
            self.peak_rss_kb = max(self.peak_rss_kb, self.last_rss_kb)
        if code:
            err = (self.run_dir / "child.err").read_text(encoding="utf-8", errors="replace")
            self.problems.append(f"resha {args[0]} exited {code}: {err.strip()[-300:]}")
        return elapsed, code

    def spawn_worker(self) -> tuple[subprocess.Popen, float]:
        """Start a worker and wait until it is ready: (process, setup seconds)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", self.workload.name,
             "--seed", str(self.seed), "--dir", str(self.run_dir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
            text=True,
        )
        self.live.append(proc)
        if self._reply(proc) != {"ready": True}:
            raise BenchError("worker did not report ready")
        return proc, time.perf_counter() - start

    def _reply(self, proc: subprocess.Popen) -> dict:
        line = proc.stdout.readline()
        if not line:
            code = self._reap(proc)
            raise BenchError(f"worker exited with code {code} before replying")
        return json.loads(line)

    def work(self, proc: subprocess.Popen, seconds: float, trace: bool) -> dict:
        """Have the worker run operations; adds its counts and problems to the run's."""
        proc.stdin.write(json.dumps({"cmd": "run", "seconds": seconds, "trace": int(trace)}) + "\n")
        proc.stdin.flush()
        reply = self._reply(proc)
        self.attempted += reply["attempted"]
        self.failed += reply["failed"]
        self.problems += reply["problems"]
        return reply

    def stop_worker(self, proc: subprocess.Popen) -> None:
        """End a worker; afterwards ``last_rss_kb`` holds its peak RSS."""
        proc.stdin.close()
        proc.stdout.close()
        if self._reap(proc):
            raise BenchError(f"worker exited with code {proc.returncode}")

    def stop_children(self) -> None:
        for proc in list(self.live):
            proc.kill()
            self._reap(proc)

    # -- operations ----------------------------------------------------------

    def count(self, problems: list[str]) -> None:
        """Count one checked operation; any problem makes it a failure."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def pipeline_cli(self) -> tuple[float, Path]:
        """``resha pipeline`` as a child process; its artifacts are checked."""
        out_dir = Path(tempfile.mkdtemp(dir=self.run_dir))
        args = ["pipeline", str(self.model), "--out-dir", str(out_dir)]
        if self.workload.max_order:
            args += ["--max-order", str(self.workload.max_order)]
        elapsed, code = self.cli(args, self.run_dir / "pipeline.out")
        expected = self.expected[self.workload.artifacts]
        if code:
            self.count(["pipeline failed"])
        else:
            self.count(self.checks.digest_mismatches(self.checks.pipeline_digests(out_dir), expected))
        return elapsed, out_dir

    def chain(self, tracer: Tracer | None = None) -> float | None:
        """validate -> synth -> integrate -> ccf -> cutsets, chained by files.

        Returns the chain's wall time, or None when a step exited non-zero.
        With a tracer, each step is a span.
        """
        checks = self.checks
        d = Path(tempfile.mkdtemp(dir=self.run_dir))
        model = str(self.model)
        steps = {
            "validate": ["validate", model],
            "synth": ["synth", model, "--out", str(d / "hw.json")],
            "integrate": ["integrate", model, "--ft", str(d / "hw.json"), "--out", str(d / "int.json")],
            "ccf": ["ccf", model, "--ft", str(d / "int.json"), "--tree-out", str(d / "inj.json")],
            "cutsets": ["cutsets", model, "--ft", str(d / "inj.json"), "--max-order", "1", "--format", "csv"],
        }
        start = time.perf_counter()
        for name in CHAIN_STEPS:
            with tracer.span(f"cli.{name}") if tracer else nullcontext() as span:
                _, code = self.cli(steps[name], d / f"{name}.out")
                if code and span:
                    span.error = f"exit {code}"
            if code:
                self.count([f"chain step {name} failed"])
                return None
        elapsed = time.perf_counter() - start
        digests = {
            CHAIN_CUTSETS: checks.sha256((d / "cutsets.out").read_bytes()),
            checks.FT_STRUCTURE: checks.tree_structure_digest(checks.read_tree(d / "inj.json")),
        }
        expected = {
            CHAIN_CUTSETS: self.expected["cli-chain"][CHAIN_CUTSETS],
            checks.FT_STRUCTURE: self.expected[self.workload.artifacts][checks.FT_STRUCTURE],
        }
        shutil.rmtree(d)
        self.count(checks.digest_mismatches(digests, expected))
        return elapsed

    def chains(
        self, seconds: float, tracer: Tracer | None = None, clock: Clock | None = None
    ) -> tuple[list[float], list[float]]:
        """CLI chains for ``seconds``, at least one.

        Returns the wall times of those that completed and, with a clock,
        the same times at the reference speed.
        """
        latencies, scaled = [], []
        if clock:
            clock.start()
        deadline = time.perf_counter() + seconds
        while True:
            if tracer:
                tracer.next_op()
            with tracer.span("cli.chain") if tracer else nullcontext():
                elapsed = self.chain(tracer)
            if elapsed is None:
                if clock:
                    clock.start()
            else:
                latencies.append(elapsed)
                if clock:
                    scaled.append(clock.scale(elapsed))
            if time.perf_counter() >= deadline:
                return latencies, scaled

    def soundness(self, artifacts: Path) -> None:
        """Check sampled cut sets of one artifact set with FaultTree.evaluate."""
        checks = self.checks
        tree = checks.read_tree(artifacts / "ft.json")
        cut_sets = checks.read_cut_sets(artifacts / "cutsets.csv")
        rng = random.Random(self.seed)
        self.problems += checks.soundness_problems(tree, cut_sets, rng, SOUNDNESS_SAMPLE)

    # -- runs ------------------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Untraced run.  Rounds repeat until the measuring window has passed;
        each round runs operations for ``ROUND_OPS_S``, then one ``resha
        pipeline`` child and one worker set-up, so that all three kinds of
        sample spread over the same window.

        Every timing is reported at the reference speed of ``calibrate.py``,
        because the machine's speed drifts by up to 2x within seconds; the
        wall-time medians are printed beside them."""
        warm, _ = self.spawn_worker()  # fills the bytecode cache; not timed
        self.stop_worker(warm)
        clock = Clock()
        setups, pipeline, latencies = [], [], []
        walls: dict[str, list[float]] = {"latency": [], "pipeline": [], "setup": []}
        worker = reply = None
        if not self.workload.cli:
            worker, setup_s = self.spawn_worker()
            walls["setup"].append(setup_s)
            setups.append(clock.scale(setup_s))
        deadline = time.perf_counter() + seconds
        while True:
            ops_s = min(ROUND_OPS_S, deadline - time.perf_counter())
            if worker:
                reply = self.work(worker, ops_s, trace=False)
                walls["latency"] += reply["latencies"]["untraced"]
                latencies += reply["latencies"]["scaled"]
            else:
                wall, scaled = self.chains(ops_s, clock=clock)
                walls["latency"] += wall
                latencies += scaled
            clock.start()
            elapsed, out_dir = self.pipeline_cli()
            walls["pipeline"].append(elapsed)
            pipeline.append(clock.scale(elapsed))
            spare, setup_s = self.spawn_worker()
            walls["setup"].append(setup_s)
            setups.append(clock.scale(setup_s))
            self.stop_worker(spare)
            if time.perf_counter() >= deadline:
                break
        if worker:
            self.stop_worker(worker)
            self.peak_rss_kb = self.last_rss_kb
        if not latencies:
            raise BenchError("no operation completed")
        self.soundness(Path(reply["artifacts"]) if reply else out_dir)

        value, percentile = tail(latencies)
        self.notes = [
            f"latency_s: median of {len(latencies)} operations",
            f"latency_tail_s: p{percentile:.1f} of {len(latencies)} operations",
            f"pipeline_cli_s: median of {len(pipeline)}; setup_s: median of {len(setups)}",
            "timings at the reference speed; wall-time medians: "
            + ", ".join(f"{name} {statistics.median(v):.6g} s" for name, v in walls.items()),
        ]
        return {
            "latency_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (value, "s"),
            "pipeline_cli_s": (statistics.median(pipeline), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024, "MB"),
        }

    def per_layer(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Traced run: half the window in-process, half in CLI children."""
        worker, _ = self.spawn_worker()
        reply = self.work(worker, seconds / 2, trace=True)
        latencies = reply["latencies"]
        self.stop_worker(worker)
        if not (latencies["traced"] and latencies["untraced"]):
            raise BenchError("no traced or no untraced operation completed")
        spans = read_jsonl(Path(reply["spans"]))

        tracer = Tracer("d")
        for name, code in (("cli.bare_python", "pass"), ("cli.import", "import resha.cli")):
            for _ in range(STARTUP_RUNS):
                tracer.next_op()
                with tracer.span(name) as span:
                    _, exit_code = self.child(["-c", code], self.run_dir / "startup.out")
                    if exit_code:
                        span.error = f"exit {exit_code}"
                self.count([f"python -c {code!r} exited {exit_code}"] if exit_code else [])
        chains, _ = self.chains(seconds / 2, tracer)
        if not chains:
            raise BenchError("no CLI chain completed")
        spans += tracer.spans
        self.soundness(Path(reply["artifacts"]))

        traces = WORK_DIR / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{self.workload.name}-seed{self.seed}.jsonl"
        write_jsonl(spans, trace_file)
        self.notes = [
            f"operations: {len(latencies['traced'])} traced, {len(latencies['untraced'])} untraced; "
            f"CLI chains: {len(chains)}",
            f"spans written to {trace_file.relative_to(ROOT)}",
        ]

        self_times = median_self_time_per_op(spans)
        metrics: dict[str, tuple[float, str]] = {}
        for name in per_layer_names("s"):
            span_name = name[: -len("_s")]
            if span_name in self_times:
                metrics[name] = (self_times[span_name], "s")
        metrics["trace.overhead_s"] = (
            statistics.median(latencies["traced"]) - statistics.median(latencies["untraced"]),
            "s",
        )
        for name, value in reply["counts"].items():
            metrics[name] = (value, "count")
        for name in per_layer_names("count"):
            if name.endswith(".errors"):
                module = name[: -len("errors")]
                errors = sum(1 for s in spans if s.error and s.name.startswith(module))
                metrics[name] = (errors, "count")
        return metrics


def per_layer_names(unit: str) -> list[str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"] if m["unit"] == unit]


def check_metric_names(metrics: dict[str, tuple[float, str]], trace: bool) -> None:
    """The metrics must be exactly those BENCHMARK.json lists for this mode."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    listed = {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {(name, unit) for name, (_, unit) in metrics.items()}
    if listed != produced:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(listed - produced)}, "
            f"extra {sorted(produced - listed)}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="resha benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resha" / "__init__.py").is_file():
        print(f"error: no resha source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{workload.name}-"))
    run = None
    try:
        run = Run(workload, args.seed, run_dir)
        if args.trace:
            metrics = run.per_layer(args.seconds)
        else:
            metrics = run.end_to_end(args.seconds)
        check_metric_names(metrics, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            run.stop_children()
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for note in run.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    ratio = run.failed / run.attempted
    print(f"  {'failed_ratio':<40} {ratio:>14.6g} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workflow's shell checks live in scripts under ``ci/``, which run
outside CI too, so each workflow step that has one must call it and hold
no check of its own.  The workflow is read as text."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Workflow step name -> the command its ``run:`` is.
SCRIPTED_STEPS = {
    "Compile every Python file with warnings as errors": "bash ci/compile.sh",
    "Installed resha console script": "bash ci/console_script.sh",
    "Benchmark run on every workload, each required to report correct": "bash ci/benchmark.sh",
    "Artifact bytes agree under 3.10, 3.12 and 3.13": "bash ci/other_interpreters.sh",
}


def _step(text: str, name: str) -> list[str]:
    """The lines of the step named ``name``, up to the next step or comment."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    indent = len(lines[start]) - len(lines[start].lstrip())
    step = [lines[start]]
    for line in lines[start + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        step.append(line)
    return step


def test_scripted_steps_call_their_script():
    text = WORKFLOW.read_text(encoding="utf-8")
    for name, command in SCRIPTED_STEPS.items():
        runs = [line.strip() for line in _step(text, name) if line.strip().startswith("run:")]
        assert runs == [f"run: {command}"]
        assert (ROOT / command.split()[-1]).is_file()


def test_every_script_is_a_step_and_stops_on_failure():
    scripts = {command.split()[-1] for command in SCRIPTED_STEPS.values()}
    for path in sorted((ROOT / "ci").glob("*.sh")):
        assert f"ci/{path.name}" in scripts, path.name
        flags, options = "", []
        for line in path.read_text(encoding="utf-8").splitlines():
            words = line.split()
            if words[:1] == ["set"]:
                flags += "".join(word[1:] for word in words if word.startswith("-"))
                # ``-o`` or a flag cluster ending in it, such as ``-eo``, names an option.
                options += [name for flag, name in zip(words, words[1:]) if flag.startswith("-") and flag.endswith("o")]
        assert "e" in flags and "pipefail" in options, path.name

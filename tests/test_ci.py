"""The workflow's shell checks live in scripts under ``ci/``, which run
outside CI too, so each workflow step that has one must call it and hold
no check of its own.  The workflow is read as text."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Workflow step name -> the command its ``run:`` is.
SCRIPTED_STEPS = {
    "Installed resha console script": "bash ci/console_script.sh",
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

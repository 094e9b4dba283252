"""Command line behavior: exit codes, stage chaining, artifacts, color."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MINI_MODEL, bundled_golden_path, scaled_qiasp, unwired_replica_text
import resha
import resha.cutsets
import resha.model
from resha.cli import _color_enabled, _style, main
from resha.pipeline import ARTIFACT_NAMES, STAGES, bundled_model_path


@pytest.fixture(scope="module")
def model_path() -> str:
    return str(bundled_model_path())


def test_validate_ok(model_path, capsys):
    assert main(["validate", model_path]) == 0
    assert "model OK" in capsys.readouterr().out


def test_validate_violations(tmp_path, capsys):
    bad = tmp_path / "bad.resha"
    bad.write_text(MINI_MODEL.replace("hazards: H-1", "hazards: H-9"), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "H-9" in err
    assert "violation(s)" in err


def test_parse_error_exit_code(tmp_path, capsys):
    doc = tmp_path / "broken.resha"
    doc.write_text('system "s"\nbogus x\n', encoding="utf-8")
    assert main(["validate", str(doc)]) == 2
    err = capsys.readouterr().err
    assert "parse error:" in err
    assert f"{doc}:2:1" in err


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/no/such/file.resha"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["pipeline", "{bad}", "--out-dir", "{out}"],
        ["cutsets", "{model}", "--ft", "{bad}"],
        ["verify-golden", "{model}", "{bad}"],
    ],
    ids=["model", "pipeline-model", "ft", "golden"],
)
def test_input_that_is_not_utf8_is_an_input_error(argv, model_path, tmp_path, capsys):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b'system "s\xff"\n')
    assert main([arg.format(bad=bad, model=model_path, out=tmp_path / "out") for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad} is not UTF-8 text: invalid start byte at byte 9\n"
    assert captured.out == ""


def test_model_error_is_printed_at_its_span(model_path, tmp_path, capsys):
    text = unwired_replica_text(Path(model_path).read_text(encoding="utf-8"))
    doc = tmp_path / "unwired.resha"
    doc.write_text(text, encoding="utf-8")
    line = text.splitlines().index("division C replicates A") + 1
    for command in ("validate", "cutsets"):
        assert main([command, str(doc)]) == 1
        assert capsys.readouterr().err == (
            f"{doc}:{line}:10: not-upstream: the top event does not depend on "
            "'hjtc_power_controller__C', which owns applicable links, nor on 10 more components "
            "of division 'C'\n1 violation(s)\n"
        )


@pytest.mark.parametrize(
    "old, new, located_at, message",
    [
        (
            "component control_room_operator kind: operator",
            "component control_room_operator kind: display",
            None,
            "operator-count: model declares 0 operator components, expected 1",
        ),
        (
            "component operator_terminal kind: display tech: analog",
            "component operator_terminal kind: operator tech: human",
            "  component control_room_operator kind: operator",
            "operator-count: model declares 2 operator components, expected 1",
        ),
        (
            "    inputs: display_interface, display_interface__B\n",
            "    inputs: display_interface, display_interface__B, control_room_operator\n",
            "  component operator_terminal kind: display",
            "dependency-cycle: dependency cycle: "
            "operator_terminal -> control_room_operator -> operator_terminal",
        ),
    ],
)
def test_model_wide_violations_are_located(model_path, tmp_path, capsys, old, new, located_at, message):
    text = Path(model_path).read_text(encoding="utf-8")
    assert old in text
    text = text.replace(old, new)
    doc = tmp_path / "changed.resha"
    doc.write_text(text, encoding="utf-8")
    # With no operator the count is reported at the document start.
    where = "1:1"
    if located_at is not None:
        line = next(n for n, row in enumerate(text.splitlines(), 1) if row.startswith(located_at))
        where = f"{line}:13"
    assert main(["validate", str(doc)]) == 1
    assert capsys.readouterr().err == f"{doc}:{where}: {message}\n1 violation(s)\n"


def test_repeated_letters_are_reported_in_document_order(tmp_path):
    # Type F is repeated before type A, so neither letter nor hash order fits.
    text = MINI_MODEL.replace(
        "      applicable: F hazards: H-1\n",
        "      applicable: F hazards: H-1\n"
        "      applicable: F hazards: H-1\n"
        "      applicable: A hazards: H-1\n",
    )
    doc = tmp_path / "repeated.resha"
    doc.write_text(text, encoding="utf-8")
    line = text.splitlines().index("      applicable: F hazards: H-1") + 2
    expected = (
        f"{doc}:{line}:19: duplicate-applicability: link 'drive' already declares type F\n"
        f"{doc}:{line + 1}:19: duplicate-applicability: link 'drive' already declares type A\n"
        "2 violation(s)\n"
    )
    for seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(Path(resha.__file__).resolve().parents[1]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "resha.cli", "validate", str(doc)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=tmp_path,
        )
        assert (proc.returncode, proc.stderr) == (1, expected)


def test_validate_and_pipeline_print_a_failed_model_alike(tmp_path, capsys):
    text = MINI_MODEL.replace("hazards: H-1", "hazards: H-9") + 'loss L-1 "again"\n'
    doc = tmp_path / "bad.resha"
    doc.write_text(text, encoding="utf-8")
    assert main(["validate", str(doc)]) == 1
    validate = capsys.readouterr()
    assert main(["pipeline", str(doc), "--out-dir", str(tmp_path / "out")]) == 1
    pipeline = capsys.readouterr()
    assert (validate.out, pipeline.out) == ("", "")
    assert validate.err == pipeline.err
    lines = validate.err.splitlines()
    assert lines[0] == f"{doc}:{len(text.splitlines())}:6: duplicate-id: loss id 'L-1' already declared"
    assert [line.split(": ")[1] for line in lines[1:-1]] == ["unknown-hazard", "unknown-hazard"]
    assert lines[-1] == "3 violation(s)"


@pytest.mark.parametrize(
    "command, tree_from, message",
    [
        ("integrate", "synth", "instance 'cet_alert__C:A:C' belongs to 'cet_alarm__C', which has no software gate"),
        ("ccf", "integrate", "member 'cet_temp__C:A:C' has no location in the fault tree"),
    ],
)
def test_ft_tree_of_another_model_is_an_unlocated_error(command, tree_from, message, model_path, tmp_path, capsys):
    # The 3-division model validates; the bundled model's tree lacks division C.
    tree, div3 = tmp_path / "tree.json", tmp_path / "div3.resha"
    assert main([tree_from, model_path, "--out", str(tree)]) == 0
    div3.write_text(scaled_qiasp(Path(model_path).read_text(encoding="utf-8"), 3), encoding="utf-8")
    assert main(["validate", str(div3)]) == 0
    capsys.readouterr()
    extra = ["--tree-out", str(tmp_path / "injected.json")] if command == "ccf" else []
    assert main([command, str(div3), "--ft", str(tree), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_stpa_text(model_path, capsys):
    assert main(["stpa", model_path]) == 0
    out = capsys.readouterr().out
    assert "candidates: 154" in out
    assert "applicable: 56" in out
    assert "heater_power:A:A" in out


def test_stpa_json(model_path, tmp_path):
    out_file = tmp_path / "stpa.json"
    assert main(["stpa", model_path, "--format", "json", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["candidates"] == 154
    assert len(payload["instances"]) == 56


# SHA-256 of each listing's bytes on the bundled model.  A listing must
# print each enum's string, never a member's name or repr, and these pin it.
LISTING_DIGESTS = {
    "stpa": "188854442338902741b9d2c9672456f779c336c548ec00be955006bbd4e998d7",
    "stpa --format json": "6327077f6096f9e1b2bd54c46e10e2bb34551792e1956d861f996fdf0fdf9b7a",
    "stpa --format csv": "f8826f9b3af86a758e83d502c06b772c24380d7b0ad85934fea3adb64134a5f4",
    "ccf": "e6ae37699374636a2ffa3e21979785fa88e2c68414a6757a931c15838eb86cf2",
    "ccf --format json": "818402597432ed85042cbded58ba6da389ff3ad103bf902f65bcab819ca51b25",
    "ccf --format csv": "c7df1ff06a01e027336478805081061350e66ad8066c0a2d527a261e33171063",
    "cutsets --max-order 2": "6c8866e7f356025892c69eea45fdee181b20063d939f35127506bb49903374b3",
}


@pytest.mark.parametrize("command", sorted(LISTING_DIGESTS))
def test_listing_bytes_are_pinned(command, model_path, capsys):
    name, *options = command.split()
    assert main([name, model_path, *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LISTING_DIGESTS[command]


# SHA-256 of the exit code, stdout and stderr of ``resha`` with these
# arguments, 80 columns wide, under Python 3.10.13, 3.11.7 and 3.12.1.
# 3.13.0 wraps the top-level usage line differently (HELP_DIGESTS_3_13).
HELP_DIGESTS = {
    "--help": "f5e0726004cf4564bd5781e97d17e8227cd8fd932c1271f5376710f578d10d33",
    "validate --help": "d2c1c65ddda154509235a6675e12d73deb01fb69ee96083f09c2c82532013f1b",
    "stpa --help": "0f264b9351d29a254a947b8164e9084e21e0101c3b4cbdf93fae141631ea5d2b",
    "synth --help": "1e9c33ccfcc69670417aa213af5eb1f417013ff23be909787f3921e69363aa8e",
    "integrate --help": "604814a1c0614d2c25589dc612446e0336a19cb779ee864385a53983fee0fcd6",
    "ccf --help": "678e84dd068ddaaba8e9ad2a3eafe14f41b7b805df7f0a392fb169a005a1d20f",
    "cutsets --help": "42a7152e68f422e289dfe7856560a6b0f060e13cebe79e4ebc2ab471a2873469",
    "report --help": "0050d8d8e93fcc30360e39adb2ba9b95a3e0899a799b88d17bb888c023867f3f",
    "pipeline --help": "8cc2b05d9da2a40e3351f1307134b0c07ea09cb336f7e1a56ff7a795a1009ecd",
    "verify-golden --help": "fc18f29cc24add849360b8c8afe5d5cf9f71ff8b7018e50c139018050ffdcafa",
    "": "69f51eb84f138fb3a9fe6165aa9459f01138580307898f0476fc20210becb85f",
    "bogus": "866a539802b8560fe6c2fcba7c324426a8e70080bb49671fd0785a52eb7e1473",
    "validate m.resha extra": "83b20f3fc1c879c0e1ebe6ca0b4b5bd2b5f05d5abca5a5908ba3cc698966b192",
}
HELP_DIGESTS_3_13 = {
    **HELP_DIGESTS,
    "--help": "fd894dcdf7a338e14d5ee4c865b14cdfede634b01c77f867e1930f995e75f60b",
    "": "f1424feda658ed6dce4633ee9ab1444e9e188202b4457d8fd4c6df602432cbd6",
    "bogus": "a56c90c71eb2b5fc946d1182592bb9644b1ae72c43ff285674e0faad8064f4ee",
    "validate m.resha extra": "60fda38a291733bc33164fdd5236f83eb5d6bac6eb56fb257fcd30428d3cfbe1",
}


@pytest.mark.skipif(sys.version_info[:2] > (3, 13), reason="help digests recorded up to Python 3.13")
@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_and_usage_errors_are_pinned(command, monkeypatch, capsys):
    """Help and argument errors print the same bytes whichever parsers ``main`` builds."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    record = f"exit {code}\nstdout:\n{captured.out}stderr:\n{captured.err}"
    digests = HELP_DIGESTS_3_13 if sys.version_info[:2] == (3, 13) else HELP_DIGESTS
    assert hashlib.sha256(record.encode("utf-8")).hexdigest() == digests[command]


def test_cutsets_csv_computes_no_first_order_report(model_path, monkeypatch, capsys):
    # The CSV lists the cut sets alone, so its run stops at the collection.
    def refuse(*_):
        raise AssertionError("first-order report computed for CSV output")

    monkeypatch.setattr(resha.cutsets, "first_order_cut_sets", refuse)
    assert main(["cutsets", model_path, "--max-order", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("order,members,categories,software\n")


def test_stage_chaining_matches_pipeline(model_path, tmp_path, capsys):
    hw = tmp_path / "hw.json"
    integrated = tmp_path / "int.json"
    injected = tmp_path / "inj.json"

    assert main(["synth", model_path, "--out", str(hw)]) == 0
    assert "41 hw stochastic" in capsys.readouterr().err

    assert main(["integrate", model_path, "--ft", str(hw), "--out", str(integrated)]) == 0
    assert "integrated 56 software instances" in capsys.readouterr().err

    assert (
        main(
            [
                "ccf",
                model_path,
                "--ft",
                str(integrated),
                "--tree-out",
                str(injected),
                "--format",
                "csv",
                "--out",
                str(tmp_path / "ccf.csv"),
            ]
        )
        == 0
    )

    out_dir = tmp_path / "run"
    assert main(["pipeline", model_path, "--out-dir", str(out_dir)]) == 0
    assert injected.read_bytes() == (out_dir / "ft.json").read_bytes()

    cs = tmp_path / "cutsets.csv"
    assert main(["cutsets", model_path, "--ft", str(injected), "--format", "csv", "--out", str(cs)]) == 0
    assert cs.read_bytes() == (out_dir / "cutsets.csv").read_bytes()


def test_ccf_text_counts(model_path, capsys):
    assert main(["ccf", model_path]) == 0
    out = capsys.readouterr().out
    assert "Type 2 sCCF: 15" in out
    assert "Type 4 sCCF: 28" in out


def test_cutsets_truncated_text(model_path, capsys):
    assert main(["cutsets", model_path, "--max-order", "1"]) == 0
    out = capsys.readouterr().out
    counts = (
        "Minimal cut sets: 44 (truncated at order 1)\n"
        "Order 1: 44\n"
        "First-order software cut sets: 43\n"
        "First-order hardware cut sets: 1\n"
    )
    assert out.endswith(counts)
    assert out.count("order 1: ") == 44
    # The summary renders the same count lines.
    assert main(["report", model_path, "--max-order", "1"]) == 0
    assert "\n## Minimal cut sets\n" + counts + "\n## " in capsys.readouterr().out


def test_cutsets_rejects_bad_max_order(model_path, capsys):
    assert main(["cutsets", model_path, "--max-order", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_writes_summary(model_path, tmp_path):
    out_file = tmp_path / "summary.md"
    assert main(["report", model_path, "--out", str(out_file)]) == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("# Hazard analysis summary: QIAS-P")
    assert "Type 4 sCCF: 28" in text


def test_pipeline_artifacts(model_path, tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["pipeline", model_path, "--out-dir", str(first)]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == len(ARTIFACT_NAMES)
    assert "analysis complete: 56 instances, 43 CCF groups, 2348 minimal cut sets" in out
    for name in ARTIFACT_NAMES:
        assert (first / name).is_file(), name

    second = tmp_path / "b"
    assert main(["pipeline", model_path, "--out-dir", str(second)]) == 0
    capsys.readouterr()
    for name in ARTIFACT_NAMES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_report_and_pipeline_reject_invalid_models(tmp_path, capsys):
    bad = tmp_path / "bad.resha"
    bad.write_text(MINI_MODEL.replace("hazards: H-1", "hazards: H-9"), encoding="utf-8")
    assert main(["report", str(bad)]) == 1
    assert "H-9" in capsys.readouterr().err
    assert main(["pipeline", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert "H-9" in capsys.readouterr().err


def test_missing_top_event_is_a_violation(model_path, tmp_path, capsys):
    lines = Path(model_path).read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("top_event ")]
    assert len(kept) == len(lines) - 1
    doc = tmp_path / "no-top.resha"
    doc.write_text("".join(kept), encoding="utf-8")
    assert main(["validate", str(doc)]) == 1
    assert "missing-top-event: model has no top event" in capsys.readouterr().err
    assert main(["pipeline", str(doc), "--out-dir", str(tmp_path / "out")]) == 1
    assert "missing-top-event: model has no top event" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stpa", "synth", "integrate", "ccf", "cutsets"])
def test_stage_commands_reject_invalid_models(command, tmp_path, capsys):
    text = MINI_MODEL.replace("hazards: H-1", "hazards: H-9")
    bad = tmp_path / "bad.resha"
    bad.write_text(text, encoding="utf-8")
    line = next(n for n, row in enumerate(text.splitlines(), 1) if "H-9" in row)
    column = text.splitlines()[line - 1].index("A hazards: H-9") + 1
    assert main([command, str(bad)]) == 1
    captured = capsys.readouterr()
    assert f"{bad}:{line}:{column}: unknown-hazard:" in captured.err
    assert captured.out == ""


@pytest.fixture
def stage_calls(monkeypatch) -> list[str]:
    """Names of the stage functions and replication expansions run, in call order."""
    calls: list[str] = []

    def spy(function):
        def recorded(*args):
            calls.append(function.__name__)
            return function(*args)

        return recorded

    for qualified, _ in STAGES.values():
        module, function = qualified.split(".")
        owner = importlib.import_module(f"resha.{module}")
        monkeypatch.setattr(owner, function, spy(getattr(owner, function)))
    monkeypatch.setattr(resha.model, "expand_replication", spy(resha.model.expand_replication))
    return calls


def test_ft_tree_replaces_its_stage(model_path, tmp_path, stage_calls):
    hw, integrated, injected = (tmp_path / name for name in ("hw.json", "int.json", "inj.json"))
    assert main(["synth", model_path, "--out", str(hw)]) == 0
    assert {"expand_replication", "synthesize_hardware_ft"} <= set(stage_calls)

    stage_calls.clear()
    assert main(["integrate", model_path, "--ft", str(hw), "--out", str(integrated)]) == 0
    assert "integrate_software" in stage_calls
    assert "synthesize_hardware_ft" not in stage_calls

    stage_calls.clear()
    assert main(["ccf", model_path, "--ft", str(integrated), "--tree-out", str(injected)]) == 0
    assert "inject_ccf_events" in stage_calls
    assert not {"synthesize_hardware_ft", "integrate_software"} & set(stage_calls)

    stage_calls.clear()
    assert main(["cutsets", model_path, "--ft", str(injected), "--max-order", "1"]) == 0
    # Validation still runs on the model; nothing else upstream of the tree does.
    assert stage_calls == [
        "_expand_valid",
        "expand_replication",
        "minimal_cut_sets",
        "first_order_cut_sets",
    ]


@pytest.mark.parametrize("command", ["integrate", "ccf", "cutsets"])
def test_ft_with_dangling_child_rejected(command, model_path, tmp_path, capsys):
    hw = tmp_path / "hw.json"
    assert main(["synth", model_path, "--out", str(hw)]) == 0
    doc = json.loads(hw.read_text(encoding="utf-8"))
    top = next(node for node in doc["nodes"] if node["id"] == doc["root"])
    top["children"].append("ghost")
    hw.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main([command, model_path, "--ft", str(hw)]) == 2
    captured = capsys.readouterr()
    assert "references unknown node 'ghost'" in captured.err
    assert captured.out == ""


def test_ft_with_non_string_label_rejected(model_path, tmp_path, capsys):
    hw = tmp_path / "hw.json"
    assert main(["synth", model_path, "--out", str(hw)]) == 0
    doc = json.loads(hw.read_text(encoding="utf-8"))
    node = next(node for node in doc["nodes"] if node["kind"] == "event")
    node["label"] = 7
    hw.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["integrate", model_path, "--ft", str(hw)]) == 2
    captured = capsys.readouterr()
    assert f"error: node {node['id']!r}: its id, label," in captured.err
    assert captured.out == ""


def test_cutsets_ft_validates_its_model(model_path, tmp_path, capsys):
    injected, doc = tmp_path / "injected.json", tmp_path / "no-operator.resha"
    assert main(["ccf", model_path, "--tree-out", str(injected)]) == 0
    text = Path(model_path).read_text(encoding="utf-8")
    old = "component control_room_operator kind: operator"
    assert old in text
    doc.write_text(text.replace(old, "component control_room_operator kind: display"), encoding="utf-8")
    capsys.readouterr()
    assert main(["cutsets", str(doc), "--ft", str(injected)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{doc}:1:1: operator-count: model declares 0 operator components, expected 1\n"
        "1 violation(s)\n"
    )
    assert captured.out == ""


def test_verify_golden_ok(model_path, capsys):
    assert main(["verify-golden", model_path, str(bundled_golden_path())]) == 0
    out = capsys.readouterr().out
    assert "golden OK (26 fields)" in out
    assert "census.hw_stochastic: expected 41, got 41 [OK]" in out


def test_verify_golden_mismatch(model_path, tmp_path, capsys):
    doc = json.loads(bundled_golden_path().read_text(encoding="utf-8"))
    doc["values"]["ccf.type4"]["value"] = 99
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify-golden", model_path, str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "golden FAILED (1 mismatches)" in out
    assert "ccf.type4: expected 99, got 28 [MISMATCH]" in out


class FakeTty:
    def isatty(self) -> bool:
        return True


def test_color_disabled_by_env(monkeypatch):
    stream = FakeTty()
    monkeypatch.delenv("RESHA_NO_COLOR", raising=False)
    assert _color_enabled(stream)
    assert _style("x", "32", stream) == "\x1b[32mx\x1b[0m"
    monkeypatch.setenv("RESHA_NO_COLOR", "1")
    assert not _color_enabled(stream)
    assert _style("x", "32", stream) == "x"


def test_color_disabled_for_pipes(monkeypatch, capsys):
    monkeypatch.delenv("RESHA_NO_COLOR", raising=False)
    class Plain:
        pass

    assert not _color_enabled(Plain())


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_script(name: str) -> tuple[str, str]:
    """Module and attribute of the console script `name` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    return module, attr


def _assert_validates(exe: str, model_path: str, **kwargs) -> None:
    proc = subprocess.run(
        [exe, "validate", model_path], capture_output=True, text=True, timeout=60, **kwargs
    )
    assert proc.returncode == 0, proc.stderr
    assert "model OK" in proc.stdout


def test_console_script_smoke(model_path, tmp_path):
    """The declared `resha` command validates the bundled model in a fresh interpreter.

    An installed `resha` on PATH is run as it is. The entry point declared in
    pyproject.toml is always run too, through a launcher with the body an
    installer generates, against the package these tests import.
    """
    installed = shutil.which("resha")
    if installed:
        _assert_validates(installed, model_path)

    module, attr = _declared_script("resha")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "resha"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
        PYTHONPATH=str(Path(resha.__file__).resolve().parents[1]),
    )
    exe = shutil.which("resha", path=env["PATH"])
    assert exe == str(launcher)
    _assert_validates(exe, model_path, env=env, cwd=tmp_path)


def test_pipeline_artifacts_do_not_depend_on_the_hash_seed(model_path, tmp_path):
    """Set and dict iteration must never leak into the artifacts."""
    artifacts = []
    for seed in ("0", "1"):
        out_dir = tmp_path / f"seed-{seed}"
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(Path(resha.__file__).resolve().parents[1]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "resha.cli", "pipeline", model_path, "--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append({name: (out_dir / name).read_bytes() for name in ARTIFACT_NAMES})
    assert artifacts[0] == artifacts[1]

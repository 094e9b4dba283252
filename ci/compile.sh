#!/usr/bin/env bash
# Compile every Python file under src, tests and benchmark, from the
# repository root.  compile() writes no bytecode; -W error makes a
# SyntaxWarning, such as an invalid escape in a regex literal (3.12 on),
# fail the script.
set -eo pipefail

python -W error -c 'import pathlib;
[compile(p.read_text(encoding="utf-8"), str(p), "exec")
for d in ("src", "tests", "benchmark") for p in sorted(pathlib.Path(d).rglob("*.py"))]'

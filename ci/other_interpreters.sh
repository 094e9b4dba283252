#!/usr/bin/env bash
# The artifacts, listings and malformed-document outcomes must be the same
# bytes under Python 3.10, 3.12 and 3.13 as under the default python, which
# runs the test from the repository root.
#
# RESHA_EXTRA_PYTHONS names the three interpreters, joined with ':'; when it
# is unset, they are python3.10, python3.12 and python3.13 on PATH.  The
# pytest output goes under RUNNER_TEMP.
set -eo pipefail
: "${RUNNER_TEMP:?RUNNER_TEMP must name a directory to write under}"

if [ -z "${RESHA_EXTRA_PYTHONS:-}" ]; then
  for version in 3.10 3.12 3.13; do
    path=$(command -v "python$version")
    RESHA_EXTRA_PYTHONS="${RESHA_EXTRA_PYTHONS:+$RESHA_EXTRA_PYTHONS:}$path"
  done
fi
export RESHA_EXTRA_PYTHONS
echo "RESHA_EXTRA_PYTHONS=$RESHA_EXTRA_PYTHONS"
PYTHONPATH=src python -m pytest -q -rs tests/test_artifacts.py -k other_interpreters | tee "$RUNNER_TEMP/extra.txt"
# A skip would pass silently, so each of the three cases must have run.
grep -q "3 passed" "$RUNNER_TEMP/extra.txt"

#!/usr/bin/env bash
# The [project.scripts] entry point, run as a user runs it, from the
# repository root.  Each command must exit 0 but `resha validate` without a
# model, a usage error, which must exit 2.  Help and usage errors are the
# argparse path, which a plain command line skips.  The csv listings run the
# CSV writers on each Python, whose csv quoting differs; the JSON listings
# must parse.  The stage chain runs each chain command's exit path and must
# give the pipeline's injected tree and cutsets.csv byte for byte.
#
# RESHA is the command to run, `resha` when unset (for example
# RESHA="python -m resha.cli" with PYTHONPATH=src); output goes under
# RUNNER_TEMP.  pipefail makes a command piped into json.tool fail the script.
set -eo pipefail
: "${RUNNER_TEMP:?RUNNER_TEMP must name a directory to write under}"

resha() { ${RESHA:-command resha} "$@"; }

resha pipeline src/resha/data/qiasp.resha --out-dir "$RUNNER_TEMP/resha-out"
chain="$RUNNER_TEMP/resha-chain"
mkdir -p "$chain"
resha synth src/resha/data/qiasp.resha --out "$chain/hw.json"
resha integrate src/resha/data/qiasp.resha --ft "$chain/hw.json" --out "$chain/int.json"
resha ccf src/resha/data/qiasp.resha --ft "$chain/int.json" --tree-out "$chain/inj.json" > /dev/null
resha cutsets src/resha/data/qiasp.resha --ft "$chain/inj.json" --format csv --out "$chain/cutsets.csv"
cmp "$chain/inj.json" "$RUNNER_TEMP/resha-out/ft.json"
cmp "$chain/cutsets.csv" "$RUNNER_TEMP/resha-out/cutsets.csv"
resha verify-golden src/resha/data/qiasp.resha src/resha/data/qiasp.golden.json
resha stpa src/resha/data/qiasp.resha --format json | python -m json.tool > /dev/null
resha ccf src/resha/data/qiasp.resha --format json | python -m json.tool > /dev/null
resha stpa src/resha/data/qiasp.resha --format csv > /dev/null
resha ccf src/resha/data/qiasp.resha --format csv > /dev/null
resha cutsets src/resha/data/qiasp.resha --max-order 2 > /dev/null
resha report src/resha/data/qiasp.resha --format txt > /dev/null
resha --help > /dev/null
resha cutsets --help > /dev/null
status=0
resha validate 2> /dev/null || status=$?
test "$status" -eq 2

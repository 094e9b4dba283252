#!/usr/bin/env bash
# Run the benchmark on every workload from the repository root, 3 seconds
# each, and require each run's last line to report "correct": true.
set -eo pipefail

for workload in qiasp-exact div3-order2 div8-order1 cli-chain; do
  last=$(python3 benchmark/run.py --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)
  echo "$workload: $last"
  echo "$last" | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
done

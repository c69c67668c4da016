#!/bin/sh
# Every workload once, end-to-end metrics with units and the correctness
# verdict. Run from the root of a checkout: sh perfbench/run_all.sh [seed]
set -e
for workload in approx-wide tau-deep ode-long small-mixed; do
    printf '%s ' "$workload"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds 20 --trace 0 | tail -n 1
done

#!/usr/bin/env bash
# Runs every workload once, traced, and prints every metric by name
# with its unit, the job sample count, the output-check verdict, the
# stage-timing cross-check and the path of the span file.
#
#   perfbench/report.sh [SEED] [SECONDS]      (defaults: 42 10)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
seconds="${2:-10}"
for workload in cyber-disk-swa twitter-swa twitter-rag; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 2>&1 >/dev/null
    echo
done

#!/usr/bin/env bash
# Run every workload, with `horizon`, which BENCHMARK.json leaves out,
# each in its own process: untraced (end-to-end metrics), then traced
# (per-layer metrics and a Chrome trace under perfbench/out/).
# Usage: perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0xC47A}"
seconds="${2:-25}"
for workload in assess solve sweep horizon; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done

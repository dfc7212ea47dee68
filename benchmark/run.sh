#!/usr/bin/env bash
# Builds the benchmark offline in release, runs the four workloads once
# each at --seed ${SEED:-1}, then the four traced runs. Results and span
# files land in benchmark/out/. Exits non-zero if any check failed.
set -euo pipefail
cd "$(dirname "$0")/.."

export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-22}"

cargo build --offline --release --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/uba-benchmark"

status=0
for trace in 0 1; do
    for workload in config_mci churn_torus serve_loop_mci simulate_mci; do
        echo "== $workload (seed $seed, trace $trace) =="
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"

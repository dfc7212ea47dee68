#!/usr/bin/env bash
# Repo verification gate: hermetic release build, full test suite, and the
# instrumentation-overhead smoke check. Everything runs offline — the
# workspace has no external dependencies (see DESIGN.md §3).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The committed BENCH_*.json files are the perf ledger: only a full bench
# run may rewrite one. Every lane below is a smoke lane, so the ledger
# must come out of this script byte-identical (checked at the end).
ledger_before="$(cksum BENCH_*.json)"

echo "==> cargo build --offline --release (hermetic build)"
cargo build --offline --release --workspace

echo "==> benchmark build (the frozen public surface benchmark/ compiles against; build only, no run)"
cargo build --offline --release --manifest-path benchmark/Cargo.toml

echo "==> benchmark self-tests (the harness's own tests: they compile against the public surface too)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> config_mci smoke (the frozen configuration workload's own check: every pass verified, alpha* inside Theorem 4's window and repeating bit for bit)"
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload config_mci --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> churn_torus smoke (the frozen online workload's own check on the single-flow entry point into the one decision core: accept/reject digest repeating every round, reject ratio in its window, occupancy zero after the final releases)"
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload churn_torus --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> serve_loop_mci smoke (the frozen serve-loop workload's own check on the batch entry point into the same decision core: decision digest repeating across rounds and reloads, every scrape rendered, retired generations drained, occupancy zero after teardown)"
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload serve_loop_mci --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> simulate_mci smoke (the frozen simulator workload's own check: zero deadline misses, max delay within the analytic bound, packet count repeating every simulation)"
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload simulate_mci --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> results drift (the nine byte-stable result binaries must reprint results/<name>.txt, and uba-cli maximize / verify / simulate / explain / reconfigure results/cli_paper.txt; table1 / schedulers / s_ac carry timings and stay out)"
for name in cross_topology ablation_routing nonuniform validate_sim census sweep_bounds \
  multiclass_demo policing statistical; do
  diff <(cargo run --offline --release --quiet -p uba-bench --bin "$name") "results/$name.txt" > /dev/null || {
    echo "verify.sh: $name no longer prints results/$name.txt" >&2
    exit 1
  }
done
# The CLI on the paper scenario, both selectors, verify and the packet
# simulation at the scenario's alpha: the configuration path and the
# simulator path, each byte for byte. Then the run-time path: explain's
# saturation replay (text and JSON) and reconfigure's migration
# rehearsal in both directions, then explain behind a token bucket: the
# rows of policy rejections.
scenarios=crates/cli/scenarios
paper=$scenarios/paper.toml
ring=$scenarios/ring_small.toml
diff <(for cmd in "maximize $paper heuristic" "maximize $paper sp" "verify $paper" \
  "simulate $paper" "explain $ring" "explain $scenarios/multiclass.toml --json" \
  "reconfigure $ring $paper" "reconfigure $paper $ring --json" \
  "explain $scenarios/ring_policy.toml"; do
  echo "\$ uba-cli $cmd"
  # shellcheck disable=SC2086
  cargo run --offline --release --quiet -p uba-cli -- $cmd
done) results/cli_paper.txt > /dev/null || {
  echo "verify.sh: uba-cli on $paper no longer prints results/cli_paper.txt" >&2
  exit 1
}

echo "==> examples (every examples/*.rs runs in release to exit 0; validate_simulation asserts the analytic bound and zero misses)"
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  cargo run --offline --release --quiet --example "$name" > /dev/null || {
    echo "verify.sh: example $name failed" >&2
    exit 1
  }
done

echo "==> cargo fmt --check (formatting gate)"
cargo fmt --check

echo "==> xtask check (repo invariant linter: orderings, shims, unsafe, metric manifest, clocks, parser unwraps, bench wiring, padding, loom coverage)"
cargo run --offline -q -p xtask -- check

echo "==> cargo clippy --workspace -- -D warnings (lint gate)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (rustdoc gate: no dangling or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo clippy --cfg loom -- -D warnings (lint gate for the loom-gated tests and the cfg(loom) half of the one sync shim)"
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo clippy --offline -p uba-admission -p uba-obs -p uba-loom --tests -- -D warnings

echo "==> cargo test --offline -q (workspace test suite)"
cargo test --offline --workspace -q

echo "==> uba-sim tests in release (engine_equiv, random_differential, the adversary and the completion differential in the build the benchmark measures: overflow wraps, debug_assert! is off)"
cargo test --offline --release -q -p uba-sim

echo "==> uba-admission tests in release (the admit, batch, burst, policy and churn equivalence tables in the build the benchmark measures: overflow wraps, debug_assert! is off)"
cargo test --offline --release -q -p uba-admission

echo "==> obs_overhead smoke (instrumented admit path vs uninstrumented)"
cargo run --offline --release -p uba-bench --bin obs_overhead -- smoke

echo "==> trace_overhead smoke (flight recorder on vs off on the admit path)"
cargo run --offline --release -p uba-bench --bin trace_overhead -- smoke

echo "==> slo_overhead smoke (admit path under hostile SLO evaluation vs quiet)"
cargo run --offline --release -p uba-bench --bin slo_overhead -- smoke

echo "==> reconfig_overhead smoke (versioned admit path vs pinned-generation baseline)"
cargo run --offline --release -p uba-bench --bin reconfig_overhead -- smoke

echo "==> admission_scaling smoke (multi-thread throughput, latency + contention telemetry)"
cargo run --offline --release -p uba-bench --bin admission_scaling -- smoke

echo "==> policy_burst smoke (policy-chain A/B: adaptive must beat utilization-only under burst)"
cargo run --offline --release -p uba-bench --bin policy_burst -- smoke

# Model checking of the lock-free admission paths (uba-loom, the in-tree
# weak-memory checker): every model runs full DFS with partial-order
# reduction and must complete.
echo "==> loom models (full DFS of every admission + obs model under --cfg loom)"
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test --offline -q -p uba-admission -p uba-obs --test loom_models

echo "==> loom DPOR reduction gate (exhaustive DFS of the flagship model -> BENCH_loom.json, schedule counts only)"
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test --offline -q -p uba-admission --test loom_bench

echo "==> ledger check (no smoke lane may rewrite a committed BENCH_*.json)"
changed="$({ diff <(echo "$ledger_before") <(cksum BENCH_*.json) || true; } | awk '/^[<>]/ {print $4}' | sort -u)"
if [[ -n "$changed" ]]; then
  echo "verify.sh: smoke lanes changed the perf ledger:" $changed >&2
  exit 1
fi

echo "==> verify.sh: all checks passed"

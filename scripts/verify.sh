#!/usr/bin/env bash
# Repo verification gate: hermetic release build, full test suite, and the
# admit-path gates' smoke run. Everything runs offline — the
# workspace has no external dependencies (see DESIGN.md §3).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every lane below is a smoke lane, so the tree must come out of this
# script as it went in (checked at the end): the committed BENCH_*.json
# files are the perf ledger, which only a full bench run may rewrite, and
# no other tracked file is a lane's to change either. tree_state prints
# git's status lines and a hash of each changed file's diff, each line
# ending in the file's path.
tree_state() {
  git status --porcelain | sed 's/^/status /'
  git diff HEAD --name-only | while IFS= read -r file; do
    echo "diff $(git diff HEAD -- "$file" | cksum) $file"
  done
}
tree_before="$(tree_state)"

# A benchmark build rewrites benchmark/Cargo.lock (it still lists a crate
# the workspace has deleted, and benchmark/ is frozen), so the lock as
# found is saved here and put back before the tree check and on any exit.
lock_saved="$(mktemp)"
cp benchmark/Cargo.lock "$lock_saved"
restore_lock() { cp "$lock_saved" benchmark/Cargo.lock; }
# The mutant lane rewrites results/mutants.txt, whose seconds differ from
# run to run: the committed table is saved here and put back the same way.
mutants_saved="$(mktemp)"
cp results/mutants.txt "$mutants_saved"
restore_mutants() { cp "$mutants_saved" results/mutants.txt; }
trap 'restore_lock; restore_mutants; rm -f "$lock_saved" "$mutants_saved"' EXIT

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

echo "==> config_mci traced smoke (the same check with the flight recorder on: the search's held events go through the release build, released by the probes the search adopts)"
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload config_mci --seed 1 --seconds 2 --trace 1 > /dev/null

echo "==> simulate_mci smoke (the frozen simulator workload's own check: zero deadline misses, max delay within the analytic bound, packet count repeating every simulation)"
cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload simulate_mci --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> bounded-memory lane (uba-cli simulate on paper.toml for 3 s under a 64 MB address-space cap: the simulator streams its emissions, so its memory is bounded by the flows, not the packets; it must finish with zero deadline misses)"
capped="$(ulimit -v 65536 && target/release/uba-cli simulate crates/cli/scenarios/paper.toml 3)" &&
  grep -qx "deadline misses: 0" <<< "$capped" || {
  echo "verify.sh: uba-cli simulate paper.toml 3 failed under a 64 MB address-space cap" >&2
  exit 1
}

echo "==> results drift (the nine byte-stable result binaries must reprint results/<name>.txt, and uba-cli maximize / verify / simulate / explain / reconfigure results/cli_paper.txt, multi-class maximize and verify and the even-split witness replay included; table1 / schedulers / s_ac carry timings and stay out)"
for name in cross_topology ablation_routing nonuniform validate_sim census sweep_bounds \
  multiclass_demo policing statistical; do
  diff <(cargo run --offline --release --quiet -p uba-bench --bin "$name") "results/$name.txt" > /dev/null || {
    echo "verify.sh: $name no longer prints results/$name.txt" >&2
    exit 1
  }
done
# The CLI on the paper scenario, both selectors, verify and the packet
# simulation at the scenario's alpha: the configuration path and the
# simulator path, each byte for byte. Then the multi-class configuration
# path: the §5.4 ray search and verify on three classes. Then the
# run-time path: explain's saturation replay (text and JSON) and
# reconfigure's migration rehearsal in both directions, then explain
# behind a token bucket: the rows of policy rejections. Last, the
# committed even-split witness replayed: its routes and flows from the
# file, every flow reserved first.
scenarios=crates/cli/scenarios
paper=$scenarios/paper.toml
ring=$scenarios/ring_small.toml
multiclass=$scenarios/multiclass.toml
diff <(for cmd in "maximize $paper heuristic" "maximize $paper sp" "verify $paper" \
  "simulate $paper" "maximize $multiclass" "verify $multiclass" \
  "explain $ring" "explain $multiclass --json" \
  "reconfigure $ring $paper" "reconfigure $paper $ring --json" \
  "explain $scenarios/ring_policy.toml" "simulate results/witness/even_split_mci.toml"; do
  echo "\$ uba-cli $cmd"
  # shellcheck disable=SC2086
  cargo run --offline --release --quiet -p uba-cli -- $cmd
done) results/cli_paper.txt > /dev/null || {
  echo "verify.sh: uba-cli on $paper no longer prints results/cli_paper.txt" >&2
  exit 1
}

echo "==> one-worker lanes (under taskset -c 0 candidate generation and every search probe run on the caller alone: maximize and verify on paper.toml, and the multi-class ray search, must print what the unpinned runs print, cross_topology must reprint results/cross_topology.txt (six topologies through the candidate store at one worker), the config_mci smoke, untraced and traced, must pass its own check, and the search scheduler's timing property (1-4 workers), paper.toml's search (1-3 workers: generation's helpers in one thread scope, then the probe workers in a second), the helper-panic test, the re-route property and the root reconfiguration tests (a re-route's generation spawns helpers too) run on one core, where preemption interleaves each scope's threads)"
if command -v taskset > /dev/null; then
  for cmd in "maximize $paper heuristic" "verify $paper" "maximize $multiclass"; do
    # shellcheck disable=SC2086
    diff <(taskset -c 0 cargo run --offline --release --quiet -p uba-cli -- $cmd) \
      <(cargo run --offline --release --quiet -p uba-cli -- $cmd) > /dev/null || {
      echo "verify.sh: uba-cli $cmd prints differently on one core" >&2
      exit 1
    }
  done
  diff <(taskset -c 0 cargo run --offline --release --quiet -p uba-bench --bin cross_topology) \
    results/cross_topology.txt > /dev/null || {
    echo "verify.sh: cross_topology no longer prints results/cross_topology.txt on one core" >&2
    exit 1
  }
  for trace in 0 1; do
    taskset -c 0 cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload config_mci --seed 1 --seconds 2 --trace "$trace" > /dev/null
  done
  taskset -c 0 cargo test --offline --release -q -p uba-routing --lib -- \
    search::tests::timing_cannot_change_the_answer \
    search::tests::the_search_answers_and_writes_the_same_at_any_worker_count \
    search::tests::a_helper_probe_panic_reaches_the_caller
  taskset -c 0 cargo test --offline --release -q -p uba-sim --test reroute_props
  taskset -c 0 cargo test --offline --release -q -p uba --test reconfiguration_ops
else
  echo "verify.sh: taskset not found; skipping the one-worker lanes"
fi

echo "==> examples (every examples/*.rs runs in release to exit 0; validate_simulation asserts the analytic bound and zero misses; every example but voip_network, which prints measured decision times, must reprint its section of results/examples.txt)"
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  cargo run --offline --release --quiet --example "$name" > /dev/null || {
    echo "verify.sh: example $name failed" >&2
    exit 1
  }
done
diff <(for name in failure_recovery multi_class quickstart statistical_capacity \
  validate_simulation; do
  echo "\$ cargo run --release --example $name"
  cargo run --offline --release --quiet --example "$name"
done) results/examples.txt > /dev/null || {
  echo "verify.sh: the examples no longer print results/examples.txt" >&2
  exit 1
}

echo "==> cargo fmt --check (formatting gate)"
cargo fmt --check

echo "==> xtask check (repo invariant linter: orderings, shims, unsafe, metric manifest, clocks, parser unwraps, bench wiring, padding, loom coverage)"
cargo run --offline -q -p xtask -- check

echo "==> mutant table (each row of crates/xtask/mutants.txt applied alone to a copy of the tree under the cargo target directory, then its named test target run: a killed row's target failed; a survivor is printed, not gated; the lane fails only on a row that no longer applies or builds, or a target that fails unmutated)"
cargo run --offline -q -p xtask -- mutants
restore_mutants

echo "==> cargo clippy --workspace -- -D warnings (lint gate)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (rustdoc gate: no dangling or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo clippy --cfg loom -- -D warnings (lint gate for the loom-gated tests and the cfg(loom) half of the one sync shim)"
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo clippy --offline -p uba-admission -p uba-obs -p uba-loom --tests -- -D warnings

echo "==> cargo test --offline -q (workspace test suite)"
cargo test --offline --workspace -q

echo "==> uba-sim tests in release (engine_equiv, random_differential, reroute_props and the completion differential, then uba-cli's adversary replay of the even-split witness, in the build the benchmark measures: overflow wraps, debug_assert! is off)"
cargo test --offline --release -q -p uba-sim
cargo test --offline --release -q -p uba-cli --test adversary

echo "==> uba-admission tests in release (the admit, batch, burst, policy and churn equivalence tables in the build the benchmark measures: overflow wraps, debug_assert! is off)"
cargo test --offline --release -q -p uba-admission

echo "==> configuration-side and obs tests in release (yen_equiv, yen_diff, cycle_equiv, committed_equiv, solve_equiv, selection_equiv, the certificate checker over every safe MCI shortest-path verdict (certificate::tests::every_safe_mci_verdict_certifies), floor_equiv, both configuration-side metrics_exact binaries, readout_equiv and the histogram slot and tally-merge tests in the build the benchmark measures: overflow wraps, debug_assert! is off)"
cargo test --offline --release -q -p uba-obs -p uba-graph -p uba-delay -p uba-routing

echo "==> root reconfiguration tests in release (tests/reconfiguration_ops.rs: link failure, re-route and live reconfigure through the controller, in the build the benchmark measures)"
cargo test --offline --release -q -p uba --test reconfiguration_ops

echo "==> obs_overhead smoke (every admit-path gate: metering, flight recorder, SLO evaluation and generation pointer A/B, the thread sweep's scaling and telemetry, batching)"
cargo run --offline --release -p uba-bench --bin obs_overhead -- smoke

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

echo "==> tree check (benchmark/Cargo.lock put back; no lane may change a tracked file, a committed BENCH_*.json included, or leave an untracked one: git status and every file's diff as before the run)"
restore_lock
tree_after="$(tree_state)"
changed="$({ diff <(echo "$tree_before") <(echo "$tree_after") || true; } | awk '/^[<>] ./ {print $NF}' | sort -u)"
if [[ -n "$changed" ]]; then
  echo "verify.sh: lanes changed the tree:" $changed >&2
  exit 1
fi

echo "==> verify.sh: all checks passed"

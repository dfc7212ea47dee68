//! The `BENCH_loom.json` smoke lane: exhaustive DFS of the flagship
//! concurrency model with and without dynamic partial-order reduction.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; run via:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
//!     cargo test -p uba-admission --test loom_bench
//! ```
//!
//! The model is explored twice — full DFS with DPOR (the configuration
//! the model suite ships with) and full DFS without it (every Thread
//! decision enumerated) — and the per-run schedule counts are written
//! to `BENCH_loom.json` at the repo root; wall time goes to stdout only,
//! so the file is a pure function of the model and the checker. The
//! gate: DPOR must cover the same state space in **at least 5× fewer
//! schedules** on the token-bucket interval race. The unreduced run is
//! iteration-capped as a wall-time budget; a capped run is recorded
//! honestly (`"complete": false`) and its schedule count is a lower
//! bound, which only strengthens the gate.

#![cfg(loom)]

use uba_loom::{Builder, Exploration};

mod loom_flagship;

/// Cap for the unreduced runs, so a regression in the checker (or an
/// unexpectedly large model) degrades into a truncated measurement
/// instead of a hung verify lane.
const NO_DPOR_CAP: usize = 200_000;

/// The flagship model: the token-bucket interval-claim race.
fn token_bucket_interval_race() {
    loom_flagship::token_bucket_interval_race();
}

fn explore(f: fn(), dpor: bool) -> Exploration {
    let mut b = Builder::new();
    b.dpor = dpor;
    b.max_iterations = if dpor { 2_000_000 } else { NO_DPOR_CAP };
    b.check(f)
}

fn entry(name: &str, reduced: Exploration, full: Exploration) -> String {
    // Schedules "touched" by each mode: completed executions plus
    // sleep-set-pruned prefixes for DPOR (its honest total work); the
    // unreduced mode never prunes.
    let with_total = reduced.executions + reduced.pruned;
    let without_total = full.executions;
    let reduction = without_total as f64 / with_total.max(1) as f64;
    format!(
        "  {{\"model\":\"{name}\",\"dpor\":{},\"no_dpor\":{},\"schedules_with_dpor\":{with_total},\
         \"schedules_without_dpor\":{without_total},\"reduction\":{reduction:.2}}}",
        reduced.to_json(),
        full.to_json()
    )
}

#[test]
fn dpor_reduction_gate_and_bench_json() {
    let reduced = explore(token_bucket_interval_race, true);
    let full = explore(token_bucket_interval_race, false);
    assert!(
        reduced.complete,
        "flagship DFS must complete with DPOR: {reduced:?}"
    );

    let json = format!(
        "{{\n \"models\": [\n{}\n ]\n}}\n",
        entry("token_bucket_interval_race", reduced, full)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_loom.json");
    std::fs::write(path, &json).expect("write BENCH_loom.json");
    println!(
        "BENCH_loom.json ({} ms with DPOR, {} ms without):\n{json}",
        reduced.wall_ms, full.wall_ms
    );

    // The acceptance gate: ≥5× fewer schedules with DPOR. The unreduced
    // side is a lower bound if capped, so a cap can only make this gate
    // harder, never easier.
    let with_total = reduced.executions + reduced.pruned;
    let without_total = full.executions;
    assert!(
        without_total >= 5 * with_total,
        "DPOR reduction below 5x on token_bucket_interval_race: {without_total} unreduced vs \
         {with_total} reduced"
    );
}

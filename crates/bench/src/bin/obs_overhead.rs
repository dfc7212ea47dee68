//! Experiment OBS — instrumentation overhead of the admit path.
//!
//! The `uba-obs` counters and the path-length histogram live directly on
//! the admission fast path, so the registry is only acceptable if it
//! costs (nearly) nothing there. This harness measures the same
//! admit+release loop on two controllers built from the same routing
//! table — one metered (the default), one built with
//! `AdmissionController::new_unmetered` — in interleaved batches so
//! frequency drift and cache warm-up hit both subjects equally, and
//! reports the median per-batch overhead.
//!
//! Contract: median overhead below 5%.
//!
//! Run with: `cargo run -p uba-bench --release --bin obs_overhead`
//! (`obs_overhead smoke` runs a shorter loop with a looser bound — the
//! `scripts/verify.sh` configuration.)

use uba::prelude::*;
use uba_bench::{admit_release_batch, overhead_gate, PaperSetting};

fn main() {
    let setting = PaperSetting::new();
    let (metered, unmetered) = setting.controller_pair(0.3);
    let pairs = &setting.pairs;
    let batch = |ctrl: &uba::admission::AdmissionController, iters: usize| {
        admit_release_batch(pairs, iters, |p| ctrl.try_admit(ClassId(0), p.src, p.dst))
    };
    overhead_gate(
        "instrumentation",
        (15, 200_000, 5.0),
        (7, 20_000, 50.0),
        ("metered", |iters| batch(&metered, iters)),
        ("unmetered", |iters| batch(&unmetered, iters)),
    );
}

//! Experiment RECONFIG — cost of versioned configuration on the admit
//! path.
//!
//! Live reconfiguration makes every `try_admit` resolve the current
//! `ConfigGeneration` first: one atomic epoch load validating a
//! thread-local generation cache. That machinery is only acceptable if
//! the fixed-configuration admit path is essentially unchanged. This
//! harness measures the same admit+release loop on one unmetered
//! controller two ways — through `try_admit` (epoch load + cache check
//! per admission) and through `try_admit_on` with a pre-resolved
//! generation (the fixed-configuration baseline) — in interleaved
//! batches so frequency drift and cache warm-up hit both subjects
//! equally, and reports the median per-batch overhead.
//!
//! Contract: median overhead below 5%.
//!
//! Run with: `cargo run -p uba-bench --release --bin reconfig_overhead`
//! (`reconfig_overhead smoke` runs a shorter loop with a looser bound —
//! the `scripts/verify.sh` configuration.)

use uba::prelude::*;
use uba_bench::{admit_release_batch, overhead_gate, PaperSetting};

fn main() {
    let setting = PaperSetting::new();
    // Unmetered, so the measured delta is exactly the generation-pointer
    // machinery — not instrumentation (obs_overhead covers that).
    let (_, ctrl) = setting.controller_pair(0.3);
    let generation = ctrl.current_generation();
    let pairs = &setting.pairs;
    overhead_gate(
        "generation-pointer",
        (15, 200_000, 5.0),
        (7, 20_000, 50.0),
        // Every admission resolves the current generation before
        // reserving...
        ("versioned", |iters| {
            admit_release_batch(pairs, iters, |p| ctrl.try_admit(ClassId(0), p.src, p.dst))
        }),
        // ...vs an explicitly pinned generation — no epoch load, no
        // cache check: what the admit path cost before configurations
        // were versioned.
        ("pinned", |iters| {
            admit_release_batch(pairs, iters, |p| {
                ctrl.try_admit_on(&generation, ClassId(0), p.src, p.dst)
            })
        }),
    );
}

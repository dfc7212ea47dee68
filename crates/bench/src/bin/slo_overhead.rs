//! Experiment SLO — admit-path overhead of live SLO evaluation.
//!
//! `uba-cli serve` runs an [`SloEngine`] against full registry
//! snapshots on a polling thread while the admission fast path keeps
//! admitting. The engine is only
//! acceptable if a polling evaluator — snapshotting and evaluating
//! every 2 ms, several times faster than serve's per-churn-batch
//! cadence — leaves the admit path unmoved, *including on a single
//! core*, where every microsecond the evaluator spends is stolen from
//! the admit path directly. (A zero-sleep evaluator is deliberately not
//! the subject: full-registry snapshots in a spin loop measure
//! timeslicing and cacheline ping-pong, a load no polling consumer
//! generates.)
//!
//! Protocol: the same interleaved admit+release batches as
//! `obs_overhead`, on one metered controller; odd batches run quiet,
//! even batches run with the hostile evaluator thread alive. Reports
//! the median per-batch overhead.
//!
//! Contract: median overhead below 5%.
//!
//! Run with: `cargo run -p uba-bench --release --bin slo_overhead`
//! (`slo_overhead smoke` runs a shorter loop with a looser bound — the
//! `scripts/verify.sh` configuration.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uba::obs::{standard_rules, SloConfig, SloEngine};
use uba::prelude::*;
use uba_bench::{admit_release_batch, overhead_gate, PaperSetting};

/// Runs `batch` while an evaluator thread snapshots the global registry
/// and closes an SLO window every 2 ms. The batch only starts once
/// the evaluator has anchored and closed its first window, so every
/// measured admit overlaps live evaluation.
fn under_evaluation(batch: impl FnOnce() -> f64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let evaluator = {
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            let mut engine =
                SloEngine::new(uba::obs::global(), standard_rules(&SloConfig::default()));
            engine.evaluate(uba::obs::global().snapshot()); // anchor
            let mut windows = 0u64;
            while !stop.load(Ordering::Relaxed) {
                engine.evaluate(uba::obs::global().snapshot());
                windows += 1;
                started.store(true, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            windows
        })
    };
    while !started.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
    let dt = batch();
    stop.store(true, Ordering::Relaxed);
    let windows = evaluator.join().expect("evaluator thread");
    assert!(windows > 0, "the evaluator must close at least one window");
    dt
}

fn main() {
    let setting = PaperSetting::new();
    let (metered, _) = setting.controller_pair(0.3);
    let pairs = &setting.pairs;
    let batch = |iters: usize| {
        admit_release_batch(pairs, iters, |p| {
            metered.try_admit(ClassId(0), p.src, p.dst)
        })
    };
    overhead_gate(
        "SLO-evaluation",
        (15, 200_000, 5.0),
        (7, 20_000, 50.0),
        ("evaluated", |iters| under_evaluation(|| batch(iters))),
        ("quiet", batch),
    );
}

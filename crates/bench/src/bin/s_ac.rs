//! Experiment S-AC — the scalability claim: utilization-based admission
//! stays O(path length) while intserv-style per-flow admission grows with
//! the number of established flows.
//!
//! Both policies get the §5.2 route selection on MCI at α = 0.45. With a
//! given number of background flows established, one probe pair is
//! admitted and released in a loop; the cell is the median, over the
//! samples, of nanoseconds per admit+release. The per-flow baseline
//! re-runs the Eq. 3 analysis over every established flow per decision,
//! so its background loads and iteration counts are the small ones.
//!
//! Contract: the utilization column is flat (max/min ≤ 3 from an empty
//! network to one whose busiest links are full — 50 000 flows are asked
//! for, the table says how many fit) and the baseline grows (800 flows
//! ≥ 10× the empty network).
//!
//! Run with: `cargo run -p uba-bench --release --bin s_ac`
//! (stdout is `results/s_ac.txt`).

use std::hint::black_box;
use std::time::Instant;
use uba::admission::{PerFlowAdmission, RoutingTable};
use uba::prelude::*;
use uba_bench::{median, PaperSetting};

const ALPHA: f64 = 0.45;
const SAMPLES: usize = 9;

/// Median over [`SAMPLES`] of ns per call of `op`, `iters` calls each.
fn ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut samples)
}

fn main() {
    let setting = PaperSetting::new();
    let sel = select_routes(
        &setting.g,
        &setting.servers,
        &setting.voip,
        ALPHA,
        &setting.pairs,
        &HeuristicConfig::default(),
    )
    .expect("MCI is configurable at alpha 0.45");
    let probe = setting.pairs[setting.pairs.len() / 2];
    println!(
        "# S-AC: MCI, heuristic routes at alpha {ALPHA}; median of {SAMPLES} samples, \
         ns per admit+release of one probe flow"
    );
    println!(
        "# machine: {} logical cores, {} build",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!("| policy | background flows asked | established | ns per admit+release |");
    println!("|---|---|---|---|");

    // Utilization-based controller: latency must stay flat.
    let mut util = Vec::new();
    for background in [0usize, 1_000, 10_000, 50_000] {
        let ctrl = setting.controller(&sel, ALPHA);
        // The largest load saturates some links before it is all in;
        // holding one probe flow while filling keeps the probe's route
        // one flow short of full, so the loop times admits, not rejects.
        let room = ctrl.try_admit(ClassId(0), probe.src, probe.dst);
        let mut held = Vec::with_capacity(background);
        for p in setting.pairs.iter().cycle().take(2 * background) {
            if held.len() == background {
                break;
            }
            if let Ok(h) = ctrl.try_admit(ClassId(0), p.src, p.dst) {
                held.push(h);
            }
        }
        drop(room);
        let ns = ns_per_op(100_000, || {
            // Admit + release one flow (drop releases).
            let h = ctrl.try_admit(ClassId(0), probe.src, probe.dst);
            black_box(h.expect("the probe's route has room for one flow"));
        });
        println!(
            "| utilization-based | {background} | {} | {ns:.0} |",
            held.len()
        );
        util.push(ns);
    }

    // Per-flow baseline: latency grows with established flows.
    let mut per_flow = Vec::new();
    for background in [0usize, 50, 200, 800] {
        let mut table = RoutingTable::new();
        table.insert_all(ClassId(0), sel.paths.iter());
        let classes = ClassSet::single(setting.voip.clone());
        let baseline = PerFlowAdmission::new(table, classes, setting.servers.clone());
        for p in setting.pairs.iter().cycle().take(background) {
            baseline
                .try_admit(ClassId(0), p.src, p.dst)
                .expect("the background load meets every deadline");
        }
        let ns = ns_per_op(20, || {
            if let Some(id) = baseline.try_admit(ClassId(0), probe.src, probe.dst) {
                baseline.release(id);
            }
        });
        println!("| per-flow baseline | {background} | {background} | {ns:.0} |");
        per_flow.push(ns);
    }

    let flatness = util.iter().copied().fold(0.0, f64::max)
        / util.iter().copied().fold(f64::INFINITY, f64::min);
    let growth = per_flow[3] / per_flow[0];
    println!();
    println!("utilization-based max/min across background loads: {flatness:.2} (bound 3)");
    println!("per-flow baseline, 800 flows vs 0: {growth:.0}x (floor 10x)");
    assert!(
        flatness <= 3.0,
        "utilization test is not flat in established flows: {util:?}"
    );
    assert!(
        growth >= 10.0,
        "per-flow baseline did not grow with established flows: {per_flow:?}"
    );
    println!("shape check: utilization test flat, per-flow analysis grows  ✓");
}

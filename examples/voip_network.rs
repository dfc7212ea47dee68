//! A voice-over-IP provider end to end: offline configuration, then
//! run-time admission control under flow churn.
//!
//! Mirrors the paper's motivating deployment: configuration maximizes the
//! safe utilization once; afterwards every call setup is an O(path)
//! utilization test, with zero per-flow state in core routers.
//!
//! Run with: `cargo run --release --example voip_network`

use uba::admission::{run_churn, AdmissionController, ChurnConfig, FlowSpec, RoutingTable};
use uba::prelude::*;

fn main() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);

    // --- Configuration time -------------------------------------------
    println!("configuring: maximizing safe utilization with the 5.2 heuristic ...");
    let result = max_utilization(
        &g,
        &servers,
        &voip,
        &pairs,
        &Selector::Heuristic(HeuristicConfig::default()),
        0.005,
    );
    let alpha = result.alpha;
    let sel = result.selection.expect("MCI is configurable");
    println!(
        "verified safe utilization: alpha = {alpha:.3} (Theorem 4 window [{:.2}, {:.2}])",
        result.bounds.0, result.bounds.1
    );

    // Install the routes and stand up the controller.
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), sel.paths.iter());
    let classes = ClassSet::single(voip.clone());
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let ctrl = AdmissionController::new(table, &classes, &caps, &[alpha]);
    println!(
        "per-link call capacity: {} concurrent calls",
        ctrl.per_link_flow_capacity(0, ClassId(0))
    );

    // --- Run time -------------------------------------------------------
    let call_pairs: Vec<(NodeId, NodeId)> = pairs.iter().map(|p| (p.src, p.dst)).collect();
    for load in [500.0, 5_000.0, 20_000.0] {
        let stats = run_churn(
            &ctrl,
            &call_pairs,
            ClassId(0),
            &ChurnConfig {
                arrivals: 30_000,
                mean_active: load,
                seed: 7,
            },
        );
        println!(
            "offered load ~{load:>6.0} calls: accepted {:>5}/{} ({:.1}% blocking), \
             peak {:>5} active, mean decision {:>6.0} ns",
            stats.accepted,
            stats.offered,
            100.0 * stats.blocking(),
            stats.peak_active,
            stats.mean_admit_ns,
        );
    }
    // A signalling gateway delivering a burst of setups admits it as one
    // slice: the flows in order, each run of identical setups decided in
    // one step (one route lookup, one reservation per link, one pin, one
    // coalesced tracepoint). These eight pairs are eight runs of one.
    let burst: Vec<FlowSpec> = pairs
        .iter()
        .take(8)
        .map(|p| FlowSpec {
            class: ClassId(0),
            src: p.src,
            dst: p.dst,
        })
        .collect();
    let outcome = ctrl.try_admit_batch(&burst);
    println!(
        "burst of {}: admitted {}, {}",
        burst.len(),
        outcome.admitted(),
        if outcome.fast_path {
            "every routed call fit"
        } else {
            "some run was clipped"
        },
    );
    println!("every accepted call is deadline-guaranteed by the offline verification.");
}

//! Experiment T1 — reproduces **Table 1** of the paper.
//!
//! Setting (Section 6): MCI backbone topology (L = 4, N = 6), 100 Mbit/s
//! links, VoIP class (T = 640 bit, ρ = 32 kbit/s, D = 100 ms), flows
//! possible between every ordered router pair. Reported: the Theorem 4
//! bounds and the maximum safe utilization achieved by shortest-path
//! routing vs. the Section 5.2 heuristic.
//!
//! Paper's row:  lower 0.30 | SP 0.33 | heuristic 0.45 | upper 0.61.
//!
//! Both selections at their α\* must pass the independent certificate
//! checker ([`uba_bench::certify`]); a refusal panics.
//!
//! Run with: `cargo run -p uba-bench --release --bin table1`

use std::time::Instant;
use uba::prelude::*;

fn main() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);
    println!(
        "MCI backbone: {} routers, {} link servers, {} ordered pairs",
        g.node_count(),
        g.edge_count(),
        pairs.len()
    );

    let (lb, ub) = utilization_bounds(6, 4, &voip);

    let t = Instant::now();
    let sp = max_utilization(&g, &servers, &voip, &pairs, &Selector::ShortestPath, 0.005);
    let sp_time = t.elapsed();

    let cfg = HeuristicConfig::default();
    let t = Instant::now();
    let heur = max_utilization(
        &g,
        &servers,
        &voip,
        &pairs,
        &Selector::Heuristic(cfg),
        0.005,
    );
    let heur_time = t.elapsed();
    uba_bench::certify("mci", "SP", &servers, &voip, &sp);
    uba_bench::certify("mci", "heuristic", &servers, &voip, &heur);

    println!();
    println!("Table 1: Maximum Utilization");
    println!("| Lower Bound | SP   | Our Heuristics | Upper Bound |");
    println!(
        "| {:.2}        | {:.2} | {:.2}           | {:.2}        |",
        lb, sp.alpha, heur.alpha, ub
    );
    println!();
    println!("paper:  | 0.30        | 0.33 | 0.45           | 0.61        |");
    println!();
    println!(
        "SP search: {} probes in {:.2?}; heuristic search: {} probes in {:.2?}",
        sp.probes.len(),
        sp_time,
        heur.probes.len(),
        heur_time
    );
    println!(
        "heuristic / SP utilization ratio: {:.2} (paper: ~1.36)",
        heur.alpha / sp.alpha
    );

    // Shape assertions (the reproduction contract).
    assert!(lb <= sp.alpha + 0.005, "SP below the lower bound");
    assert!(sp.alpha < heur.alpha, "heuristic must beat SP");
    assert!(heur.alpha <= ub + 0.005, "heuristic above the upper bound");
    println!("\nshape check: LB <= SP < heuristic <= UB  ✓");
}

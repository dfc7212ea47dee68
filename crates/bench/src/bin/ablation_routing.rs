//! Experiment A-RS — ablation of the Section 5.2 route-selection
//! sub-heuristics.
//!
//! The paper's heuristic combines three rules: (1) pairs in decreasing
//! distance order, (2) prefer candidates keeping the route-dependency
//! graph acyclic, (3) pick the minimum-delay safe candidate. This binary
//! measures the maximum safe utilization on the MCI topology for every
//! on/off combination, plus a sweep over the candidate count k.
//!
//! Run with: `cargo run -p uba-bench --release --bin ablation_routing`

use uba::prelude::*;

fn run(
    g: &Digraph,
    servers: &Servers,
    voip: &TrafficClass,
    pairs: &[Pair],
    cfg: HeuristicConfig,
) -> f64 {
    max_utilization(g, servers, voip, pairs, &Selector::Heuristic(cfg), 0.005).alpha
}

fn main() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);

    let sp = max_utilization(&g, &servers, &voip, &pairs, &Selector::ShortestPath, 0.005);
    println!("SP baseline: alpha* = {:.3}", sp.alpha);
    println!();
    println!("| dist-order | acyclic-pref | min-delay | k  | alpha* |");
    println!("|------------|--------------|-----------|----|--------|");
    for order in [true, false] {
        for acyclic in [true, false] {
            for mindelay in [true, false] {
                let cfg = HeuristicConfig {
                    k_candidates: 8,
                    order_by_distance: order,
                    prefer_acyclic: acyclic,
                    min_delay_choice: mindelay,
                };
                let alpha = run(&g, &servers, &voip, &pairs, cfg);
                println!(
                    "| {:<10} | {:<12} | {:<9} | 8  | {:.3}  |",
                    order, acyclic, mindelay, alpha
                );
            }
        }
    }
    println!();
    println!("| k (full heuristic) | alpha* |");
    println!("|--------------------|--------|");
    for k in [1usize, 2, 4, 8, 16] {
        let cfg = HeuristicConfig {
            k_candidates: k,
            ..Default::default()
        };
        let alpha = run(&g, &servers, &voip, &pairs, cfg);
        println!("| {k:<18} | {alpha:.3}  |");
    }
}

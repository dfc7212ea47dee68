//! Experiment X-TOPO — the Table 1 pipeline across topologies.
//!
//! Shows that the configuration methodology is not specific to the MCI
//! figure: for each topology, the Theorem 4 bounds (from its own `L` and
//! `N`), the SP baseline, and the Section 5.2 heuristic's maximum safe
//! utilization. Both selections at their α\* must pass the independent
//! certificate checker ([`uba_bench::certify`]); a refusal panics.
//!
//! Run with: `cargo run -p uba-bench --release --bin cross_topology`

use uba::graph::bfs;
use uba::prelude::*;

fn run(name: &str, g: &Digraph) {
    let diameter = bfs::diameter(g).expect("connected");
    let fan_in = g.max_in_degree().max(2);
    let servers = Servers::uniform(g, 100e6, fan_in);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(g);
    let (lb, ub) = utilization_bounds(fan_in, diameter.max(1), &voip);
    let sp = max_utilization(g, &servers, &voip, &pairs, &Selector::ShortestPath, 0.005);
    let heur = max_utilization(
        g,
        &servers,
        &voip,
        &pairs,
        &Selector::Heuristic(HeuristicConfig::default()),
        0.005,
    );
    uba_bench::certify(name, "SP", &servers, &voip, &sp);
    uba_bench::certify(name, "heuristic", &servers, &voip, &heur);
    println!(
        "{name:<14} {:>3} {:>2} {:>2} | {lb:>5.2} {:>5.2} {:>5.2} {ub:>5.2} | {:>5.2}",
        g.node_count(),
        diameter,
        fan_in,
        sp.alpha,
        heur.alpha,
        heur.alpha / sp.alpha,
    );
}

fn main() {
    println!("# X-TOPO: Table 1 pipeline across topologies (VoIP class, C=100 Mb/s)");
    println!("# topology     nodes L  N  |   LB    SP  heur    UB | heur/SP");
    run("mci", &uba::topology::mci());
    run("nsfnet", &uba::topology::nsfnet());
    run("ring8", &uba::topology::ring(8));
    run("grid4x4", &uba::topology::grid(4, 4));
    run("torus4x4", &uba::topology::torus(4, 4));
    run("waxman20", &uba::topology::waxman(20, 0.4, 0.5, 11));
    println!("# invariant everywhere: LB <= SP <= UB and LB <= heur <= UB.");
}

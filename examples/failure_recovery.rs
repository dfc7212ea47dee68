//! Operating the network over time: SLA growth and link failure.
//!
//! Configuration is not one-shot (Section 4: it re-runs "after
//! renegotiation of service level agreements"). This example keeps a live
//! configuration, adds demand incrementally, survives a core link
//! failure by re-routing the affected pairs, and keeps every surviving
//! guarantee intact throughout.
//!
//! Run with: `cargo run --release --example failure_recovery`

use uba::prelude::*;
use uba::routing::Configuration;

fn main() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let alpha = 0.3;
    let cfg = HeuristicConfig::default();

    // Day 0: a third of the pairs have SLAs.
    let initial: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(3).collect();
    let sel =
        select_routes(&g, &servers, &voip, alpha, &initial, &cfg).expect("initial configuration");
    let mut live = Configuration::from_selection(g.clone(), servers, voip, alpha, cfg, sel);
    println!(
        "day 0: {} pairs configured at alpha = {alpha}, verified = {}",
        live.pairs().len(),
        live.verify()
    );

    // SLA growth: add pairs one at a time, warm-started.
    let mut added = 0;
    for pair in all_ordered_pairs(&g).into_iter().skip(1).step_by(9) {
        if live.pairs().contains(&pair) {
            continue;
        }
        match live.add_pair(pair) {
            Ok(()) => added += 1,
            Err(e) => {
                println!("pair {pair:?} rejected during growth: {e:?}");
                break;
            }
        }
    }
    println!(
        "growth: +{added} pairs ({} total), worst route delay {:.1} ms",
        live.pairs().len(),
        live.route_delays().iter().cloned().fold(0.0, f64::max) * 1e3
    );

    // Incident: the SanFrancisco—Atlanta core diagonal fails.
    let (sf, atl) = (NodeId(0), NodeId(3));
    match live.fail_link(sf, atl) {
        Ok(report) => {
            println!(
                "link failure SF—Atlanta: {} pairs re-routed, worst route delay now {:.1} ms",
                report.rerouted.len(),
                report.worst_route_delay * 1e3
            );
        }
        Err(e) => println!("recovery failed: {e:?}; the pre-failure configuration still holds"),
    }
    println!("post-failure verification: {}", live.verify());
    assert!(live.verify());

    // The failed link stays off-limits for new demand too.
    let newcomer = Pair {
        src: NodeId(15),
        dst: NodeId(12),
    };
    if !live.pairs().contains(&newcomer) {
        live.add_pair(newcomer).expect("still routable");
        let last = live.paths().last().unwrap();
        assert!(last.edges.iter().all(|e| !live.failed_links().contains(e)));
        println!(
            "new SLA {}->{} routed around the failure in {} hops",
            g.label(newcomer.src),
            g.label(newcomer.dst),
            last.len()
        );
    }
}

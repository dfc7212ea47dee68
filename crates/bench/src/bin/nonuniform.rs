//! Experiment NU — per-link (non-uniform) utilization assignments.
//!
//! The paper assigns one `α` network-wide, but its run-time admission
//! test is per-link, so nothing stops configuration from giving different
//! links different shares. Starting from the uniform SP maximum on the
//! MCI topology, a coordinate-ascent pass greedily raises individual
//! links' shares while the Theorem 3 fixed point stays safe. The metric
//! is total reservable real-time bandwidth `Σ_k α_k·C`.
//!
//! Run with: `cargo run -p uba-bench --release --bin nonuniform`

use uba::delay::fixed_point::{solve_rule, SolveConfig};
use uba::delay::routeset::{Route, RouteSet};
use uba::delay::rule::Theorem5;
use uba::prelude::*;

fn main() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("connected");
    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    let used = routes.used_servers(ClassId(0));
    let used_count = used.iter().filter(|&&u| u).count();

    // Uniform baseline from the Section 5.3 search.
    let sp = max_utilization(&g, &servers, &voip, &pairs, &Selector::ShortestPath, 0.005);
    let base_alpha = sp.alpha;
    println!(
        "# NU: MCI, SP routes; uniform SP alpha* = {base_alpha:.3} over {used_count} used servers"
    );

    let cfg = SolveConfig::default();
    let mut alphas = vec![base_alpha; servers.len()];
    let check = |alphas: &[f64]| {
        let rule = Theorem5::new([&voip], alphas.to_vec());
        solve_rule(&servers, &rule, &routes, &cfg, None)
            .outcome
            .is_safe()
    };
    assert!(check(&alphas), "uniform baseline must verify");

    // Coordinate ascent: several passes with shrinking step.
    let mut raised = 0usize;
    for step in [0.08, 0.04, 0.02, 0.01] {
        for k in 0..servers.len() {
            if !used[k] {
                continue;
            }
            loop {
                let old = alphas[k];
                let candidate = (old + step).min(0.98);
                if candidate <= old {
                    break;
                }
                alphas[k] = candidate;
                if check(&alphas) {
                    raised += 1;
                } else {
                    alphas[k] = old;
                    break;
                }
            }
        }
    }

    let uniform_total: f64 = base_alpha * used_count as f64;
    let shaped_total: f64 = (0..servers.len())
        .filter(|&k| used[k])
        .map(|k| alphas[k])
        .sum();
    let min_a = (0..servers.len())
        .filter(|&k| used[k])
        .map(|k| alphas[k])
        .fold(f64::INFINITY, f64::min);
    let max_a = (0..servers.len())
        .filter(|&k| used[k])
        .map(|k| alphas[k])
        .fold(0.0, f64::max);
    println!("# ascent steps accepted: {raised}");
    println!("# per-link alpha range after shaping: [{min_a:.3}, {max_a:.3}]");
    println!(
        "uniform total reservable bandwidth : {:.2} Gb/s",
        uniform_total * 100e6 / 1e9
    );
    println!(
        "shaped  total reservable bandwidth : {:.2} Gb/s  (+{:.1}%)",
        shaped_total * 100e6 / 1e9,
        100.0 * (shaped_total / uniform_total - 1.0)
    );
    assert!(check(&alphas));
    assert!(shaped_total >= uniform_total - 1e-9);
}

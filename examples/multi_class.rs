//! Multi-class configuration (Section 5.4): voice, interactive video, and
//! a soft real-time bulk class share the network under static priority.
//!
//! Shows the Theorem 5 verification and the utilization trade-off between
//! classes: raising the video share squeezes what remains verifiable for
//! bulk.
//!
//! Run with: `cargo run --release --example multi_class`

use uba::delay::fixed_point::SolveConfig;
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;

fn main() {
    let g = uba::topology::grid(4, 3);
    let servers = Servers::uniform(&g, 100e6, 5);

    let mut classes = ClassSet::new();
    let voice = classes.push(TrafficClass::voip());
    let video = classes.push(TrafficClass::new(
        "video",
        LeakyBucket::new(64_000.0, 2_000_000.0),
        0.25,
    ));
    let bulk = classes.push(TrafficClass::new(
        "bulk-rt",
        LeakyBucket::new(256_000.0, 5_000_000.0),
        1.0,
    ));

    // Shortest-path routes for every pair, every class.
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("grid is connected");
    let mut routes = RouteSet::new(g.edge_count());
    for class in [voice, video, bulk] {
        for p in &paths {
            routes.push(Route::from_path(class, p));
        }
    }

    println!("| voice  | video  | bulk   | verdict | worst-slack (ms) |");
    println!("|--------|--------|--------|---------|------------------|");
    for video_share in [0.05, 0.10, 0.20, 0.30] {
        let alphas = [0.05, video_share, 0.15];
        let r = verify(
            &servers,
            &classes,
            &alphas,
            &routes,
            &SolveConfig::default(),
        );
        let slack = r.worst_slack;
        println!(
            "| {:.2}   | {:.2}   | {:.2}   | {:<7} | {:>16.2} |",
            alphas[0],
            alphas[1],
            alphas[2],
            if r.safe { "SAFE" } else { "UNSAFE" },
            if slack.is_finite() {
                slack * 1e3
            } else {
                f64::NAN
            },
        );
        if r.safe {
            // Per-class worst link delay, to show the priority ladder.
            let worst: Vec<f64> = r
                .server_delays
                .iter()
                .map(|d| d.iter().cloned().fold(0.0, f64::max) * 1e3)
                .collect();
            println!(
                "|        |        |        | per-class worst link delay: {:.2} / {:.2} / {:.2} ms |",
                worst[0], worst[1], worst[2]
            );
        }
    }
}

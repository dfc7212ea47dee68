//! Experiment M-C — multi-class (Theorem 5) configuration on the MCI
//! topology.
//!
//! Three real-time classes (voice / video / soft-bulk) under static
//! priority; the table shows, per utilization split, the Figure 2 verdict
//! and each class's worst end-to-end delay bound against its deadline.
//!
//! Run with: `cargo run -p uba-bench --release --bin multiclass_demo`

use uba::delay::fixed_point::SolveConfig;
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;

fn main() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);

    let mut classes = ClassSet::new();
    let ids = [
        classes.push(TrafficClass::voip()),
        classes.push(TrafficClass::new(
            "video",
            LeakyBucket::new(64_000.0, 2_000_000.0),
            0.3,
        )),
        classes.push(TrafficClass::new(
            "bulk-rt",
            LeakyBucket::new(256_000.0, 5_000_000.0),
            1.0,
        )),
    ];

    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("connected");
    let mut routes = RouteSet::new(g.edge_count());
    for &class in &ids {
        for p in &paths {
            routes.push(Route::from_path(class, p));
        }
    }

    println!("# M-C: MCI, SP routes for all pairs x 3 classes (voice>video>bulk)");
    println!("# a_voice a_video a_bulk verdict worst_voice_ms worst_video_ms worst_bulk_ms");
    let splits = [
        [0.02, 0.05, 0.10],
        [0.05, 0.10, 0.10],
        [0.05, 0.15, 0.15],
        [0.10, 0.15, 0.15],
        [0.10, 0.20, 0.20],
        [0.15, 0.25, 0.25],
    ];
    for alphas in splits {
        let r = verify(
            &servers,
            &classes,
            &alphas,
            &routes,
            &SolveConfig::default(),
        );
        // Worst end-to-end delay per class over its routes.
        let mut worst = [0.0f64; 3];
        for (rt, &rd) in routes.routes().iter().zip(&r.route_delays) {
            let c = rt.class.index();
            worst[c] = worst[c].max(rd);
        }
        println!(
            "{:.2} {:.2} {:.2} {} {:.2} {:.2} {:.2}",
            alphas[0],
            alphas[1],
            alphas[2],
            if r.safe { "SAFE" } else { "UNSAFE" },
            worst[0] * 1e3,
            worst[1] * 1e3,
            worst[2] * 1e3,
        );
    }
}

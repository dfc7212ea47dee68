//! Experiment SCHED — the paper's forwarding-path claim (Sections 2/4):
//! class-based static priority suffices for the guaranteed class and is
//! cheaper per packet than guaranteed-rate schedulers.
//!
//! Same filled network, four disciplines; reports per-class delays and
//! engine throughput (a proxy for per-packet scheduling cost).
//!
//! Run with: `cargo run -p uba-bench --release --bin schedulers`

use std::time::Instant;
use uba::admission::UtilizationState;
use uba::prelude::*;
use uba::sim::{simulate, Discipline, FlowSpec, SimConfig, SourceModel};

fn main() {
    let g = uba::topology::mci();
    let capacity = 2e6;
    let rate = 32_000.0;
    let alpha = 0.25;
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("connected");

    // Greedy fill with high-priority voice, through the admission test;
    // add one low-priority bulk flow per core link's worth of traffic.
    let caps = vec![capacity; g.edge_count()];
    let mut flows: Vec<FlowSpec> = UtilizationState::new(&caps, &[alpha])
        .fill_round_robin(&paths, 0, rate)
        .into_iter()
        .map(|i| FlowSpec {
            class: 0,
            ingress: pairs[i].src.0,
            route: paths[i].edges.iter().map(|e| e.0).collect(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    // Best-effort background: greedy bulk on every 10th pair.
    for (pair, path) in pairs.iter().zip(&paths).step_by(10) {
        flows.push(FlowSpec {
            class: 1,
            ingress: pair.src.0,
            route: path.edges.iter().map(|e| e.0).collect(),
            source: SourceModel::GreedyOnOff {
                burst_bits: 128_000.0,
                rate_bps: 0.5 * capacity,
                packet_bits: 8000,
                start: 0.0,
            },
        });
    }
    println!(
        "# SCHED: MCI (C=2 Mb/s), {} voice flows + {} bulk flows",
        flows.iter().filter(|f| f.class == 0).count(),
        flows.iter().filter(|f| f.class == 1).count()
    );

    let disciplines: Vec<(&str, Discipline)> = vec![
        ("static-priority", Discipline::StaticPriority),
        ("fifo", Discipline::Fifo),
        (
            "wfq(9:1)",
            Discipline::Wfq {
                weights: vec![9.0, 1.0],
            },
        ),
        (
            "virtual-clock",
            Discipline::VirtualClock {
                rates: vec![alpha * capacity, 0.7 * capacity],
            },
        ),
    ];
    println!(
        "# discipline voice_p50_ms voice_p99_ms voice_max_ms bulk_max_ms packets wall_ms Mevents/s"
    );
    for (name, discipline) in disciplines {
        let cfg = SimConfig {
            discipline,
            ..SimConfig::new(0.2, vec![0.1, f64::INFINITY])
        };
        let t0 = Instant::now();
        let r = simulate(&caps, &flows, &cfg);
        let wall = t0.elapsed();
        let q = |p: f64| r.histograms[0].quantile(p).unwrap_or(0.0) * 1e3;
        println!(
            "{name:<16} {:>8.2} {:>8.2} {:>8.3} {:>10.1} {:>8} {:>8.1} {:>8.2}",
            q(0.5),
            q(0.99),
            r.classes[0].max_delay * 1e3,
            r.classes[1].max_delay * 1e3,
            r.total_packets,
            wall.as_secs_f64() * 1e3,
            r.events as f64 / wall.as_secs_f64() / 1e6,
        );
    }
    println!("# expectation: static priority minimizes voice delay at the highest event rate;");
    println!("# FIFO lets bulk bursts invade the voice class.");
}

//! Experiment BURST — multi-seed A/B of admission-policy chains under
//! MMPP flow-arrival bursts.
//!
//! The utilization test admits any flow whose *declared* rate fits the
//! class budget — it cannot see that a slug of requests arriving
//! together will also send their traffic together. This harness builds
//! the adversarial case: flow requests arrive from a two-state MMPP
//! (quiet/burst), every admitted flow is an on/off source phase-locked
//! to its admission instant (peak 4× the declared rate during
//! on-phases), and everything crosses one shared 10 Mb/s link. A burst
//! of admissions then means a synchronized on-phase cohort that
//! transiently oversubscribes the link even though the utilization
//! budget holds — deadline misses the admission test said could not
//! happen.
//!
//! Three arms run against the *same* per-seed arrival sequence:
//!
//! * `always` — no admission control (calibration: how bad it gets),
//! * `util` — the `Static` utilization-only chain (today's controller),
//! * `adaptive` — utilization + token-bucket + AIMD overuse gating,
//!   which meters the admission *rate*, so a burst of requests cannot
//!   become a synchronized cohort.
//!
//! Each arm's admitted flows are handed to the packet simulator as
//! on/off sources over their admitted lifetime; the scoreboard is the
//! deadline-miss ratio and the rejection rate, per seed and averaged.
//!
//! Contract (both lanes): the utilization-only arm must actually
//! suffer misses under burst (otherwise the A/B is vacuous), and the
//! adaptive chain must strictly reduce the mean deadline-miss ratio
//! versus utilization-only.
//!
//! The full run writes `BENCH_burst.json` (validated by the `uba-obs`
//! JSON parser). Run with:
//! `cargo run -p uba-bench --release --bin policy_burst`
//! (`policy_burst smoke` runs fewer seeds over a shorter window and
//! skips the JSON write — the `scripts/verify.sh` configuration.)

use std::fmt::Write as _;
use uba::admission::{
    AdmissionController, AimdParams, BackendKind, ChainKind, ConfigGeneration, FlowHandle,
    PolicyChain, PolicyConfig, RoutingTable,
};
use uba::obs::SplitMix64;
use uba::prelude::*;
use uba::sim::{simulate, SimConfig, SourceModel};
use uba::traffic::Mmpp;

/// Shared-link capacity, bits/s.
const LINK_BPS: f64 = 10e6;
/// Utilization share for the single class: 9 Mb/s budget = 90 declared
/// flows on the shared link.
const ALPHA: f64 = 0.9;
/// Declared (mean) per-flow rate ρ, bits/s.
const DECLARED_BPS: f64 = 100_000.0;
/// On-phase emission rate — 4× the declared mean.
const PEAK_BPS: f64 = 400_000.0;
const PACKET_BITS: u64 = 8_000;
const ON_S: f64 = 1.0;
const OFF_S: f64 = 3.0;
/// Admitted-flow lifetime, seconds (two on-phases per flow).
const LIFE_S: f64 = 8.0;
const DEADLINE_S: f64 = 0.1;
/// Leaf routers feeding the shared hub→sink link.
const SOURCES: usize = 24;
/// MMPP quiet/burst arrival rates (flow requests per second) and mean
/// dwell times: long-run mean 11.5/s ≈ 92 concurrent flows at `LIFE_S`
/// — right at the utilization budget, so bursts push past it.
const ARRIVAL_RATES: [f64; 2] = [2.0, 40.0];
const DWELL_S: [f64; 2] = [3.0, 1.0];
/// Virtual-clock step for the arrival driver, seconds.
const STEP_S: f64 = 0.05;

/// Star through a bottleneck: edges 0..SOURCES are leaf→hub, edge
/// SOURCES is the shared hub→sink link every flow crosses.
fn star() -> (Digraph, Vec<Pair>) {
    let hub = NodeId(SOURCES as u32);
    let sink = NodeId(SOURCES as u32 + 1);
    let mut g = Digraph::with_nodes(SOURCES + 2);
    for i in 0..SOURCES {
        g.add_link(NodeId(i as u32), hub, 1.0);
    }
    g.add_link(hub, sink, 1.0);
    let pairs = (0..SOURCES)
        .map(|i| Pair {
            src: NodeId(i as u32),
            dst: sink,
        })
        .collect();
    (g, pairs)
}

fn burst_class() -> TrafficClass {
    TrafficClass::new(
        "burst",
        LeakyBucket::new(PACKET_BITS as f64, DECLARED_BPS),
        DEADLINE_S,
    )
}

/// A fresh controller over the star with the given `[policy]` chain.
fn controller(g: &Digraph, pairs: &[Pair], cfg: &PolicyConfig) -> AdmissionController {
    let paths = sp_selection(g, pairs).expect("star is connected");
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths.iter());
    let classes = ClassSet::single(burst_class());
    let caps = vec![LINK_BPS; g.edge_count()];
    let chain = PolicyChain::from_config(cfg, &[DECLARED_BPS]);
    AdmissionController::from_generation(ConfigGeneration::with_policy(
        table,
        &classes,
        &caps,
        &[ALPHA],
        BackendKind::Atomic,
        chain,
    ))
}

/// The adaptive arm's `[policy]`: a token bucket that refills at 8
/// flows/s (depth 8 flows), plus AIMD gated by the overuse detector.
fn adaptive_config() -> PolicyConfig {
    PolicyConfig {
        chain: ChainKind::Adaptive,
        bucket_rate_bps: 8.0 * DECLARED_BPS,
        bucket_burst_bits: 8.0 * DECLARED_BPS,
        aimd: AimdParams {
            min_rate_bps: 2.0 * DECLARED_BPS,
            max_rate_bps: 20.0 * DECLARED_BPS,
            decrease: 0.5,
            increase_bps: DECLARED_BPS,
        },
    }
}

/// One seed's flow-request sequence: (arrival time, leaf router).
fn arrivals(seed: u64, window: f64) -> Vec<(f64, usize)> {
    let mut rng = SplitMix64::new(seed);
    let mut mmpp = Mmpp::new(ARRIVAL_RATES, DWELL_S);
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < window {
        let n = {
            let mut uni = || rng.range_f64(0.0, 1.0);
            mmpp.step(STEP_S, &mut uni)
        };
        for _ in 0..n {
            out.push((t, rng.index(SOURCES)));
        }
        t += STEP_S;
    }
    out
}

/// One arm × one seed on the scoreboard.
struct ArmCell {
    arm: &'static str,
    seed: u64,
    offered: usize,
    admitted: usize,
    rejection_rate: f64,
    packets: u64,
    misses: u64,
    miss_ratio: f64,
}

/// Replays `reqs` against `ctrl` (`None` = admit everything) on the
/// virtual clock, holding each admitted flow for `LIFE_S`, then
/// simulates the admitted on/off sources and scores deadline misses.
fn run_arm(
    arm: &'static str,
    seed: u64,
    ctrl: Option<&AdmissionController>,
    reqs: &[(f64, usize)],
    window: f64,
) -> ArmCell {
    let sink = NodeId(SOURCES as u32 + 1);
    let mut held: Vec<(f64, FlowHandle)> = Vec::new();
    let mut admitted: Vec<(f64, usize)> = Vec::new();
    for &(t, src) in reqs {
        // Departures first: a flow admitted at t0 frees its budget at
        // t0 + LIFE_S, exactly when its source stops emitting.
        held.retain(|(expiry, _)| *expiry > t);
        let ok = match ctrl {
            None => true,
            Some(c) => match c.try_admit_at(ClassId(0), NodeId(src as u32), sink, t) {
                Ok(h) => {
                    held.push((t + LIFE_S, h));
                    true
                }
                Err(_) => false,
            },
        };
        if ok {
            admitted.push((t, src));
        }
    }
    drop(held);

    let flows: Vec<uba::sim::FlowSpec> = admitted
        .iter()
        .map(|&(t, src)| uba::sim::FlowSpec {
            class: 0,
            ingress: src as u32,
            route: vec![src as u32, SOURCES as u32],
            source: SourceModel::OnOff {
                peak_bps: PEAK_BPS,
                packet_bits: PACKET_BITS,
                on_s: ON_S,
                off_s: OFF_S,
                start: t,
                stop: t + LIFE_S,
            },
        })
        .collect();
    let caps = vec![LINK_BPS; SOURCES + 1];
    let report = simulate(
        &caps,
        &flows,
        &SimConfig::new(window + LIFE_S + 1.0, vec![DEADLINE_S]),
    );
    let (packets, misses) = (report.total_packets, report.total_misses());
    ArmCell {
        arm,
        seed,
        offered: reqs.len(),
        admitted: admitted.len(),
        rejection_rate: 1.0 - admitted.len() as f64 / reqs.len().max(1) as f64,
        packets,
        misses,
        miss_ratio: if packets > 0 {
            misses as f64 / packets as f64
        } else {
            0.0
        },
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke" || a == "--smoke");
    let (seeds, window): (Vec<u64>, f64) = if smoke {
        (vec![1, 2], 12.0)
    } else {
        (vec![1, 2, 3, 4, 5], 20.0)
    };
    println!(
        "policy_burst{}: {} seed(s), {window} s arrival window, MMPP {:?}/s dwell {:?} s",
        if smoke { " (smoke)" } else { "" },
        seeds.len(),
        ARRIVAL_RATES,
        DWELL_S,
    );

    let (g, pairs) = star();
    let util_cfg = PolicyConfig::default();
    let adaptive_cfg = adaptive_config();
    let mut cells: Vec<ArmCell> = Vec::new();
    for &seed in &seeds {
        let reqs = arrivals(seed, window);
        // Fresh controllers per seed: policy state must not leak across
        // the A/B repetitions.
        let util = controller(&g, &pairs, &util_cfg);
        let adaptive = controller(&g, &pairs, &adaptive_cfg);
        for cell in [
            run_arm("always", seed, None, &reqs, window),
            run_arm("util", seed, Some(&util), &reqs, window),
            run_arm("adaptive", seed, Some(&adaptive), &reqs, window),
        ] {
            println!(
                "seed {seed} {:>8}: {:>3}/{:>3} admitted (rejection {:>5.1}%), \
                 {:>6} packets, {:>5} misses (ratio {:.4})",
                cell.arm,
                cell.admitted,
                cell.offered,
                cell.rejection_rate * 100.0,
                cell.packets,
                cell.misses,
                cell.miss_ratio,
            );
            cells.push(cell);
        }
    }

    let mean = |arm: &str, f: fn(&ArmCell) -> f64| -> f64 {
        let picked: Vec<f64> = cells.iter().filter(|c| c.arm == arm).map(f).collect();
        picked.iter().sum::<f64>() / picked.len() as f64
    };
    let miss_of = |arm: &str| mean(arm, |c| c.miss_ratio);
    let reject_of = |arm: &str| mean(arm, |c| c.rejection_rate);
    let (m_always, m_util, m_adaptive) = (miss_of("always"), miss_of("util"), miss_of("adaptive"));
    println!();
    println!(
        "mean deadline-miss ratio: always {m_always:.4}, util {m_util:.4}, \
         adaptive {m_adaptive:.4}"
    );
    println!(
        "mean rejection rate:      always {:.3}, util {:.3}, adaptive {:.3}",
        reject_of("always"),
        reject_of("util"),
        reject_of("adaptive"),
    );

    // ---- A/B gates. ----
    assert!(
        m_util > 0.0,
        "utilization-only must suffer deadline misses under the burst workload \
         (got {m_util}) — the A/B would be vacuous"
    );
    assert!(
        m_adaptive < m_util,
        "adaptive chain must strictly reduce the mean deadline-miss ratio: \
         adaptive {m_adaptive:.4} vs util {m_util:.4}"
    );
    println!("burst gate: adaptive {m_adaptive:.4} < util {m_util:.4} mean miss ratio  ✓");

    if smoke {
        println!("smoke mode: skipping BENCH_burst.json write");
        return;
    }

    // ---- Trajectory point. ----
    let mut body = String::new();
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            body,
            "    {{\"arm\": \"{}\", \"seed\": {}, \"offered\": {}, \"admitted\": {}, \
             \"rejection_rate\": {:.4}, \"packets\": {}, \"misses\": {}, \
             \"miss_ratio\": {:.5}}}{}",
            c.arm,
            c.seed,
            c.offered,
            c.admitted,
            c.rejection_rate,
            c.packets,
            c.misses,
            c.miss_ratio,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"policy_burst\",\n",
            "  \"seeds\": {:?},\n",
            "  \"arrival_window_s\": {},\n",
            "  \"mean_miss_ratio_always\": {:.5},\n",
            "  \"mean_miss_ratio_util\": {:.5},\n",
            "  \"mean_miss_ratio_adaptive\": {:.5},\n",
            "  \"mean_rejection_rate_util\": {:.4},\n",
            "  \"mean_rejection_rate_adaptive\": {:.4},\n",
            "  \"cells\": [\n{}  ]\n",
            "}}\n"
        ),
        seeds,
        window,
        m_always,
        m_util,
        m_adaptive,
        reject_of("util"),
        reject_of("adaptive"),
        body,
    );
    uba::obs::json::parse(&json).expect("trajectory JSON must parse");
    std::fs::write("BENCH_burst.json", &json).expect("write BENCH_burst.json");
    println!("wrote BENCH_burst.json");
}

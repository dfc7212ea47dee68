//! Pinned-report equivalence for the event loop.
//!
//! Every field of [`SimReport`] is a function of the order in which
//! same-instant events are processed (the `(t, seq)` contract in the
//! engine module doc) — FIFO and the WFQ/Virtual Clock tie-breaks read
//! `SchedJob::seq` directly. The digests below were captured on the
//! `BinaryHeap<(t, seq)>` + payload-`HashMap` loop of PR 12, before the
//! queueing core was rewritten; any change to the processing order of a
//! single event moves at least one of them. The 27 `Fifo`, `Wfq` and
//! `VirtualClock` cells that moved when an emission came to be numbered
//! as the loop takes it (a shaper then serves by arrival, not by flow
//! index) were re-pinned then; no `StaticPriority` cell moved.
//!
//! Re-pinning is only legitimate for an intended behaviour change: the
//! failure message prints the freshly computed table.
//!
//! Every report is also checked against itself: each class's delay
//! distribution holds exactly its delivered packets, and its max is the
//! class's `max_delay` bit for bit.

use uba_obs::histogram::SUB;
use uba_obs::{Histogram, SplitMix64};
use uba_sim::{Discipline, FlowSpec, SimConfig, SimReport, SourceModel};

const RANDOM_CASES: usize = 40;
const MODES: [&str; 4] = ["StaticPriority", "Fifo", "Wfq", "VirtualClock"];

/// FNV-1a digests of `format!("{:?}", report)`, one row per case (the
/// last row is [`tie_case`]), one column per entry of [`MODES`].
#[rustfmt::skip]
const DIGESTS: [[u64; 4]; RANDOM_CASES + 1] = [
    [0xc7f96b098bf2e3d3, 0x001dfe5721f6d202, 0xfa32e2e3e1d38428, 0xc7f96b098bf2e3d3],
    [0x28b8688b5f2e93bb, 0xd4019452cb80c10e, 0x3967ba5e25777f44, 0x91196e137b516b92],
    [0x60074e5da9a18f6f, 0x11e265a582ecdc80, 0xeab393de5e3a430d, 0x60074e5da9a18f6f],
    [0xcf374033249dff41, 0x1a34a6220efdce78, 0x208b835349362f9d, 0x5243b8c56a06dfb5],
    [0x0c3eb41b70a27e37, 0xe2e66531714efa88, 0x553c1006eb9421c5, 0x50c92a5dd6259689],
    [0x58909e79f482ec0f, 0x5abbf04d5f1d4f60, 0xbf78f1e92abce01e, 0x58909e79f482ec0f],
    [0xd94cd8bef2aa829f, 0x560e6961aee920f9, 0x76689f32a3d61707, 0xb3ac1ab91dfdf754],
    [0xe77c2bc74f118473, 0x5f855c2d19a29def, 0x8db1956245710cee, 0xa57a23c3a40f2c2e],
    [0xe4f8df69d6baefc3, 0x75ec13d467dd03db, 0xaf451147436e5831, 0x457511442e43a9af],
    [0xc54189938d25cd36, 0x4f0f505c52f143ba, 0xe47f40727796ca50, 0xf4081273ba68bbe4],
    [0x2226e1185bf24b54, 0x07750956173f9c15, 0xc82dc0065b34df59, 0xdff4954ffb4dd5e6],
    [0x9220cce28fb29f56, 0x8023b628278781b8, 0x68e958ccd352cdc9, 0x5325a2697f92e3f1],
    [0xdeb071903ed4b3c6, 0x7d8768e927800ea5, 0x7d918ffb2ed4e64e, 0x7eea2d1325886b13],
    [0xb44c0c7d726553cd, 0x7490d81578f95706, 0x0709e63fdcc787bb, 0x3b86ca505eba2b5e],
    [0x735c8aad4f2acbd2, 0xb9917e5056a7c59e, 0xf2cb3cb2c30d021b, 0xd5295c082eccf375],
    [0x2af5027b4e7923a8, 0x778cdc33dd193cc0, 0xefafdc7ce0465776, 0x005419457643221d],
    [0xcaa4ed96f68a0d87, 0x9b57716a38837832, 0x82170a33a6e43b44, 0xd301c5f06d41dbb3],
    [0x5ad8fe47c0e93ab5, 0xcc1df40d73f17f92, 0x04d7b1b59abaab01, 0xe983a5fca759e85c],
    [0x28f2d0087b6f11b9, 0xe98ae5beba9292e8, 0x427f7054c934aa92, 0xb849a0f13ba27bc1],
    [0xd8344d5ffd087811, 0x19a5e4fac34bdadd, 0x58418bea5416f058, 0x095282f22372ca93],
    [0x841cab0762bcab0f, 0x7dca911acc4160fb, 0xdb06d021c2bc862f, 0x64c0126aec047738],
    [0xc67cef4ca782e5be, 0xb5e2c9c59cc13e14, 0x36fb01ea30dc5e08, 0xa1197ae2cc93e1da],
    [0x4887364640cb5af2, 0xe0e4b429fef02b8f, 0xc36eba24058db1cb, 0x9094257e1a109c04],
    [0x328b7996fcdb35b4, 0xddaa83b4683942c7, 0x633918dce7c44033, 0xb82410a39c39a39e],
    [0x59b409a319210b20, 0xd02451baf1b642fb, 0x32691c51942732e5, 0x4f7a8036c71e0dee],
    [0x59a0625fa9dd76d8, 0xf4db0df9defb2a73, 0x0db7d87f56af58e2, 0x7a089e915c750f2e],
    [0xb2d5317b3009ea53, 0x2e9c0fc8049fd7a4, 0x301243eb633e9272, 0x0722f861a87c9539],
    [0x32ba81a1a821972e, 0xc7f11ab54bcf215d, 0x68e7c0b46efb0959, 0x97fdce82d1c53481],
    [0x0b17953d243e1893, 0xb19c26a2dac0e9d5, 0x2c52f8143f1fa91c, 0xc7495cda8f5ba4de],
    [0xe78731e1cd970981, 0x730cd4763629ec87, 0xd2bce1d018f57365, 0xd2bce1d018f57365],
    [0x2d087235d5736580, 0xd6f0c0f70b47b47b, 0x0c36fdfbf11e39c8, 0xa92a031a6b5a0489],
    [0x998856070f3435be, 0x998856070f3435be, 0x787bb2b268494363, 0x787bb2b268494363],
    [0x11a705a857032741, 0x23676910ab94d6b0, 0xcd28d425f27cf2fc, 0x0e4ca113a8e190b0],
    [0x60f5607d7595113f, 0x60f5607d7595113f, 0x60f5607d7595113f, 0x60f5607d7595113f],
    [0xd8af9aeaa6e5fa9c, 0x879c2511bef49e24, 0xb861a6e1663edd9b, 0x5ba7e427bfdd6c3a],
    [0xda3c7f6c66fc8016, 0xd272a38aa097b9db, 0xf33963d1e8cbdd82, 0xda3c7f6c66fc8016],
    [0xb2c9f1f55d6e41c2, 0xb9dd5dac8d68ee15, 0x25c9e25d783b8aa5, 0xb2c9f1f55d6e41c2],
    [0xc72899f9f9d34542, 0x0bfe1ae579bb0d87, 0x8c21fade70e0ccb5, 0x1875a84715cb911b],
    [0x64a059d60b342117, 0x342150d23a3ca869, 0x3c0def6876bcb777, 0xfaa477d92ff0d4a8],
    [0x683adab7684690f6, 0x44b53aa7681c46f1, 0xfbf00ba5b1a33f42, 0xc12f55771b6dbb82],
    [0x2643ef12acc62c7d, 0x8e1df23747c84e1c, 0x1c36d8157001eae9, 0x3ebb0e3bfafeddb1],
];

struct Case {
    capacities: Vec<f64>,
    flows: Vec<FlowSpec>,
    cfg: SimConfig,
}

fn disciplines() -> [Discipline; 4] {
    [
        Discipline::StaticPriority,
        Discipline::Fifo,
        Discipline::Wfq {
            weights: vec![1.0, 2.5],
        },
        Discipline::VirtualClock {
            rates: vec![200_000.0, 100_000.0],
        },
    ]
}

fn random_source(rng: &mut SplitMix64, horizon: f64) -> SourceModel {
    match rng.index(6) {
        0 => SourceModel::voip_greedy(0.0),
        1 => SourceModel::voip_greedy(rng.range_f64(0.0, 0.02)),
        2 => SourceModel::GreedyOnOff {
            // A multi-packet burst: several emissions of one flow at
            // the same instant.
            burst_bits: 640.0 * (1 + rng.index(4)) as f64,
            rate_bps: 32_000.0,
            packet_bits: 640,
            start: if rng.index(2) == 0 {
                0.0
            } else {
                rng.range_f64(0.0, 0.02)
            },
        },
        3 => SourceModel::Cbr {
            period: 0.02,
            packet_bits: if rng.index(2) == 0 { 640 } else { 8000 },
            offset: rng.range_f64(0.0, 0.02),
        },
        4 => SourceModel::Rogue {
            period: 0.02,
            packet_bits: 640,
            factor: rng.range_f64(1.5, 6.0),
        },
        _ => SourceModel::OnOff {
            peak_bps: 128_000.0,
            packet_bits: 640,
            on_s: 0.03,
            off_s: 0.05,
            start: rng.range_f64(0.0, 0.05),
            stop: 0.9 * horizon,
        },
    }
}

fn random_route(rng: &mut SplitMix64, servers: usize) -> Vec<u32> {
    // Hops are drawn independently, so servers repeat within a route.
    (0..1 + rng.index(4))
        .map(|_| rng.index(servers) as u32)
        .collect()
}

fn random_case(i: usize) -> Case {
    let mut rng = SplitMix64::new(0x5EED_0000 + i as u64);
    let servers = 3 + rng.index(6);
    // Even cases draw capacities from three values so service times
    // coincide and completions tie; odd cases draw them continuously.
    let capacities: Vec<f64> = (0..servers)
        .map(|_| {
            if i.is_multiple_of(2) {
                [0.5e6, 1e6, 2e6][rng.index(3)]
            } else {
                rng.range_f64(0.3e6, 2.5e6)
            }
        })
        .collect();
    let horizon = 0.1 + 0.05 * rng.index(4) as f64;
    let flows: Vec<FlowSpec> = (0..5 + rng.index(60))
        .map(|_| FlowSpec {
            class: rng.index(2),
            ingress: rng.index(4) as u32,
            route: random_route(&mut rng, servers),
            source: random_source(&mut rng, horizon),
        })
        .collect();
    let mut cfg = SimConfig::new(horizon, vec![0.05, 0.1]);
    if i.is_multiple_of(3) {
        cfg.policers = Some(vec![(1280.0, 32_000.0), (8000.0, 64_000.0)]);
    }
    Case {
        capacities,
        flows,
        cfg,
    }
}

/// Exact-tie timestamps everywhere: every source synchronized at 0,
/// every route entering through server 0, equal capacities — emissions,
/// shaper completions and next-hop arrivals all collide on the same
/// nanoseconds, so only the sequence numbers order them.
fn tie_case() -> Case {
    let flows: Vec<FlowSpec> = (0..40u32)
        .map(|i| FlowSpec {
            class: (i % 2) as usize,
            ingress: i % 8,
            route: vec![0, 1 + i % 2, 3],
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    Case {
        capacities: vec![1e6; 4],
        flows,
        cfg: SimConfig::new(0.2, vec![0.05, 0.1]),
    }
}

/// FNV-1a of the report's `Debug` text in its pinned form.
fn digest(report: &SimReport) -> u64 {
    pinned_debug(report)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The report's `Debug` text as it printed when the digests were captured,
/// when each class's delays were counted in 48 octaves from 1 µs:
/// `[0, 1 µs)`, then `[2^(i-1), 2^i)` µs, the last open above. Octave `i`
/// is major bucket `i` of the 1 µs tally the report now carries (its
/// [`SUB`] slots), with the majors above the last folded into it, so the
/// pinned octave counts are still checked.
fn pinned_debug(r: &SimReport) -> String {
    let histograms: Vec<String> = r
        .histograms
        .iter()
        .map(|tally| {
            let h = Histogram::with_base(1e-6);
            h.merge(tally);
            let mut counts = [0u64; 48];
            for (slot, n) in h.bucket_counts().into_iter().enumerate() {
                counts[(slot / SUB).min(47)] += n;
            }
            format!(
                "DelayHistogram {{ counts: {counts:?}, total: {} }}",
                tally.count()
            )
        })
        .collect();
    format!(
        "SimReport {{ classes: {:?}, histograms: [{}], total_packets: {}, events: {}, peak_backlog: {} }}",
        r.classes,
        histograms.join(", "),
        r.total_packets,
        r.events,
        r.peak_backlog
    )
}

/// `uba_sim::simulate`, with the report's delay distributions checked
/// against its per-class statistics.
fn simulate(capacities: &[f64], flows: &[FlowSpec], cfg: &SimConfig) -> SimReport {
    let r = uba_sim::simulate(capacities, flows, cfg);
    assert_eq!(r.histograms.len(), r.classes.len());
    for (c, (h, stats)) in r.histograms.iter().zip(&r.classes).enumerate() {
        assert_eq!(h.count(), stats.packets, "class {c}");
        assert_eq!(h.max().to_bits(), stats.max_delay.to_bits(), "class {c}");
    }
    r
}

/// `case` under `discipline`.
fn run_under(case: &Case, discipline: Discipline) -> SimReport {
    let cfg = SimConfig {
        discipline,
        ..case.cfg.clone()
    };
    simulate(&case.capacities, &case.flows, &cfg)
}

fn digests_of(case: &Case) -> [u64; 4] {
    disciplines().map(|d| digest(&run_under(case, d)))
}

#[test]
fn reports_match_the_pinned_digests() {
    let computed: Vec<[u64; 4]> = (0..RANDOM_CASES)
        .map(random_case)
        .chain([tie_case()])
        .map(|case| digests_of(&case))
        .collect();
    let mut mismatches = Vec::new();
    for (i, (got, want)) in computed.iter().zip(&DIGESTS).enumerate() {
        for (m, mode) in MODES.iter().enumerate() {
            if got[m] != want[m] {
                mismatches.push(format!(
                    "case {i} {mode}: got {:#018x}, pinned {:#018x}",
                    got[m], want[m]
                ));
            }
        }
    }
    if !mismatches.is_empty() {
        let table: String = computed
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
                format!("    [{}],\n", cells.join(", "))
            })
            .collect();
        panic!(
            "{} report(s) diverged:\n{}\ncomputed table:\n[\n{table}]",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}

#[test]
fn the_cases_exercise_ties_drops_and_queueing() {
    // Guards the generator, not the engine: a digest table over cases
    // that never queue or never tie would pin nothing.
    let r = run_under(&tie_case(), Discipline::Fifo);
    assert!(r.peak_backlog >= 20, "tie case must pile up on server 0");
    let mut dropped = 0;
    let mut queued = 0;
    let mut durations = Vec::new();
    for i in 0..RANDOM_CASES {
        let c = random_case(i);
        let r = simulate(&c.capacities, &c.flows, &c.cfg);
        dropped += r.classes.iter().map(|s| s.policed_drops).sum::<u64>();
        queued += usize::from(r.peak_backlog > 2);
        durations.push(service_durations(&c));
        assert_eq!(c.cfg.policers.is_some(), i.is_multiple_of(3));
    }
    assert!(dropped > 0, "policed cases must drop something");
    assert!(queued >= RANDOM_CASES / 2, "only {queued} cases queue");
    // Completions of different durations merge: an even case draws three
    // capacities, so its runs end on shared nanoseconds, and some case
    // carries nearly as many runs as the generator can give (two packet
    // sizes on at most eight servers).
    let tied = (0..RANDOM_CASES).step_by(2).map(|i| durations[i]).max();
    let most = durations.iter().max();
    assert!(tied >= Some(3), "no even case merges 3 runs: {durations:?}");
    assert!(most >= Some(&12), "no case merges 12 runs: {durations:?}");
}

/// How many distinct service durations `case`'s hops have: one per
/// `(packet_bits, capacity)` pair a flow meets on its route (its access
/// shaper runs at its first server's capacity). Completions of equal
/// duration are created in `(t, seq)` order, so this counts the sorted
/// runs the completions in flight fall into.
fn service_durations(case: &Case) -> usize {
    let mut seen = std::collections::HashSet::new();
    for f in &case.flows {
        for &k in &f.route {
            seen.insert((
                f.source.packet_bits(),
                case.capacities[k as usize].to_bits(),
            ));
        }
    }
    seen.len()
}

/// The benchmark's `simulate_mci` run: MCI at C = 2 Mb/s, α = 0.30, SP
/// routes, round-robin fill to the admission limit through the
/// reservation walk, worst-case VoIP sources with a seeded half
/// phase-shifted inside 20 ms, 3 s horizon — an order of magnitude more
/// flows and simulated time than any row of `DIGESTS`.
fn benchmark_shaped_run() -> (usize, SimReport) {
    const C: f64 = 2e6;
    let g = uba_topology::mci();
    let pairs = uba_routing::pairs::all_ordered_pairs(&g);
    let paths = uba_routing::sp::sp_selection(&g, &pairs).expect("MCI is connected");
    let caps = vec![C; g.edge_count()];
    let admitted =
        uba_admission::UtilizationState::new(&caps, &[0.30]).fill_round_robin(&paths, 0, 32_000.0);
    let mut rng = SplitMix64::new(1);
    let flows: Vec<FlowSpec> = admitted
        .iter()
        .map(|&i| {
            let shifted = rng.next_u64() & 1 == 1;
            let start = if shifted {
                rng.range_f64(0.0, 0.02)
            } else {
                0.0
            };
            FlowSpec {
                class: 0,
                ingress: pairs[i].src.0,
                route: paths[i].edges.iter().map(|e| e.0).collect(),
                source: SourceModel::voip_greedy(start),
            }
        })
        .collect();
    let cfg = SimConfig::new(3.0, vec![0.1]);
    (flows.len(), simulate(&caps, &flows, &cfg))
}

#[test]
fn benchmark_shaped_run_matches_its_pinned_digest() {
    let (flows, report) = benchmark_shaped_run();
    assert_eq!(flows, 546);
    assert_eq!(
        (report.events, report.total_packets, report.peak_backlog),
        (477_000, 81_900, 13)
    );
    assert_eq!(digest(&report), 0x76c7b2337a35b363);
}

/// One packet per flow, at the given instant.
fn one_shot(class: usize, ingress: u32, route: &[u32], packet_bits: u64, at: f64) -> FlowSpec {
    FlowSpec {
        class,
        ingress,
        route: route.to_vec(),
        source: SourceModel::Cbr {
            period: 1.0,
            packet_bits,
            offset: at,
        },
    }
}

/// Why a forwarded arrival may not be processed inside the completion
/// that creates it. Server 1 finishes packet X at t = 4 ms with the
/// low-class L queued behind it; on the same nanosecond server 0 finishes
/// the high-class H and forwards it to server 1. Server 0 started H at
/// 2 ms and server 1 started X at 3 ms, so server 0's completion has the
/// lower `seq` and is processed first — but H's arrival at server 1 is
/// numbered after both completions, so server 1 picks its next packet
/// with only L queued. L starts; H waits for it.
#[test]
fn forwarded_arrival_follows_same_instant_completions() {
    let flows = [
        one_shot(0, 0, &[0, 1], 2000, 0.0), // H: shaper 0–2, server 0 2–4
        one_shot(1, 1, &[1], 1000, 0.002),  // X: shaper 2–3, server 1 3–4
        one_shot(1, 2, &[1], 500, 0.003),   // L: shaper 3–3.5, queued at 3.5
    ];
    let cfg = SimConfig::new(0.01, vec![0.1, 0.1]);
    let r = simulate(&[1e6, 1e6], &flows, &cfg);
    assert_eq!(r.total_packets, 3);
    // L: queued 3.5, served 4–4.5. Inlining the arrival would start H at
    // 4 instead and deliver L at 6.5 (delay 3 ms).
    assert!((r.classes[1].max_delay - 0.001).abs() < 1e-12, "{r:?}");
    // H: measured from 2 ms, served at server 1 4.5–6.5.
    assert!((r.classes[0].max_delay - 0.0045).abs() < 1e-12, "{r:?}");
}

/// Routes that visit a station twice in a row: a completion forwards the
/// packet to the station that is completing, which picks its next packet
/// before that arrival is processed.
fn repeat_case() -> Case {
    let routes: [&[u32]; 4] = [&[0, 0], &[0], &[1, 0, 0], &[0, 0, 1]];
    let flows: Vec<FlowSpec> = (0..24u32)
        .map(|i| FlowSpec {
            class: (i % 2) as usize,
            ingress: i % 3,
            route: routes[i as usize % 4].to_vec(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    Case {
        capacities: vec![1e6; 2],
        flows,
        cfg: SimConfig::new(0.1, vec![0.05, 0.1]),
    }
}

#[test]
fn back_to_back_repeats_match_their_pinned_digests() {
    // One per entry of `MODES`; like the benchmark-shaped digest, captured
    // on PR 13's two-source loop before ISSUE 23 rewrote it.
    #[rustfmt::skip]
    let pinned = [
        0x2598eb792e7eb579, 0x94bf0857b16e9188, 0xb18aaeea8e9be2c1, 0x7f73f39c3866118d,
    ];
    let got = digests_of(&repeat_case());
    assert_eq!(got, pinned, "{got:#018x?}");
}

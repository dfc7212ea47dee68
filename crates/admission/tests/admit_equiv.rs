//! Single-flow equivalence: what `try_admit`, `try_admit_at` and
//! `try_admit_on` decide, trace and book, pinned flow by flow.
//!
//! `TABLE[entry][chain][seed]` holds FNV-1a digests of seeded admit /
//! release churn put to one entry point under one policy chain. Each
//! digest covers:
//!
//! * every outcome *with its payload* (`Ok` route and rate bits,
//!   `LinkFull` server / class / reserved / budget bits, `Policy` stage
//!   and class, `NoRoute`);
//! * the whole flight-recorder stream of the case — kind, class, flow,
//!   server and the `a` / `b` payload bits of every event, so the flow
//!   id each handle was minted with shows twice, at its admission and at
//!   its release;
//! * the metric deltas of the case: `admits`, `releases`, every
//!   `rejects.*` counter, `cas_retries`, `batches`, `batch_fallbacks`,
//!   the slot counts of `path_hops`, `retries_per_op` and the sampled
//!   `admit_ns` count, and the offered arrivals per class;
//! * the chain's dry-run ladder after the run.
//!
//! The network is MCI on SP routes at 1 Mb/s with three classes: voip
//! (32 kb/s, α 0.3, nine flows a link), a 100 kb/s class routed for
//! every other pair only (α 0.25: two flows and a remainder), and a
//! zero-rate class that fits any number of times. One request in 16 asks
//! for a pair with no route.
//!
//! `try_admit_at` runs on a virtual clock that alternates busy and quiet
//! stretches, with gains under which the bucket and the AIMD stage both
//! turn flows away. `try_admit` and `try_admit_on` consult a non-`Static`
//! chain on the process clock, so they run with gains under which that
//! clock decides nothing: a bucket that never refills and an AIMD
//! ceiling pinned far above the offered load.
//!
//! Every case runs on a thread of its own, so the metric thread buffer,
//! the latency-sample countdown and the trace buffer all start empty and
//! adopt the case's controller. Metrics and the flight recorder are
//! process-global, so this binary holds one `#[test]` that runs the
//! cases one after another.
//!
//! The table is not edited: a mismatch prints the computed table, and a
//! change that moves it has changed a decision, an event or a count.

use uba_admission::{
    AdmissionController, AdmissionMetrics, AimdParams, BackendKind, ChainKind, ConfigGeneration,
    FlowHandle, PolicyChain, PolicyConfig, Reject, RoutingTable,
};
use uba_graph::Digraph;
use uba_obs::trace::{self, Event};
use uba_obs::SplitMix64;
use uba_routing::{all_ordered_pairs, sp_selection, Pair};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

const VOIP: f64 = 32_000.0;
const CAPACITY: f64 = 1e6;
const ALPHAS: [f64; 3] = [0.3, 0.25, 0.05];
const STEPS: u64 = 6_000;
const SEEDS: [u64; 3] = [1, 2, 3];
const ENTRIES: [&str; 3] = ["try_admit", "try_admit_at", "try_admit_on"];
const CHAINS: [ChainKind; 3] = [
    ChainKind::Static,
    ChainKind::TokenBucket,
    ChainKind::Adaptive,
];

/// `TABLE[entry][chain][seed]`, captured at 42f8d99, when every single
/// flow was decided by its own scalar body.
#[rustfmt::skip]
const TABLE: [[[u64; 3]; 3]; 3] = [
    [
        [0xb758c655c07d9012, 0x47eafb976c8d50c6, 0x61a02bd8d1276e35],
        [0x27ae4783627145e8, 0x069cb947690326ca, 0xa760df5f3fc42775],
        [0x902314348ef93928, 0xe0d470b11cb3088a, 0x99d60bab7ec5c0f5],
    ],
    [
        [0xb758c655c07d9012, 0x47eafb976c8d50c6, 0x61a02bd8d1276e35],
        [0x7bae437b59b9f005, 0x45e55f6ab72a4620, 0x09c7201742e693d0],
        [0x5b507e8f16fc315c, 0x9292b18ddecda180, 0x6e15b9257203b3f3],
    ],
    [
        [0xb758c655c07d9012, 0x47eafb976c8d50c6, 0x61a02bd8d1276e35],
        [0x27ae4783627145e8, 0x069cb947690326ca, 0xa760df5f3fc42775],
        [0x902314348ef93928, 0xe0d470b11cb3088a, 0x99d60bab7ec5c0f5],
    ],
];

fn classes() -> ClassSet {
    let mut set = ClassSet::single(TrafficClass::voip());
    set.push(TrafficClass::new(
        "video",
        LeakyBucket::new(4_000.0, 100_000.0),
        0.2,
    ));
    let mut free = TrafficClass::voip();
    free.bucket.rate = 0.0;
    set.push(free);
    set
}

fn rates() -> Vec<f64> {
    classes().iter().map(|(_, c)| c.bucket.rate).collect()
}

/// The chain's gains: time-sensitive on the virtual clock of
/// `try_admit_at`, time-invariant on the process clock (see the module
/// docs).
fn policy(chain: ChainKind, clocked: bool) -> PolicyConfig {
    if clocked {
        PolicyConfig {
            chain,
            bucket_rate_bps: 300.0 * VOIP,
            bucket_burst_bits: 200.0 * VOIP,
            aimd: AimdParams {
                min_rate_bps: 50.0 * VOIP,
                max_rate_bps: 400.0 * VOIP,
                decrease: 0.7,
                increase_bps: 20.0 * VOIP,
            },
        }
    } else {
        PolicyConfig {
            chain,
            bucket_rate_bps: 0.0,
            bucket_burst_bits: 1_500.0 * VOIP,
            aimd: AimdParams {
                min_rate_bps: 1e12,
                max_rate_bps: 1e12,
                decrease: 0.7,
                increase_bps: VOIP,
            },
        }
    }
}

struct Net {
    g: Digraph,
    pairs: Vec<Pair>,
    table: RoutingTable,
}

fn net() -> Net {
    let g = uba_topology::mci();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("MCI is connected");
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths.iter());
    table.insert_all(ClassId(1), paths.iter().step_by(2));
    table.insert_all(ClassId(2), paths.iter());
    Net { g, pairs, table }
}

/// One per-flow outcome, payload included.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Admitted {
        route: Vec<u32>,
        rate_bits: u64,
    },
    LinkFull {
        server: u32,
        class: usize,
        reserved_bits: u64,
        budget_bits: u64,
    },
    Policy {
        stage: &'static str,
        class: usize,
    },
    NoRoute,
}

impl Outcome {
    fn of(r: &Result<FlowHandle, Reject>) -> Self {
        match *r {
            Ok(ref h) => Outcome::Admitted {
                route: h.route().to_vec(),
                rate_bits: h.rate().to_bits(),
            },
            Err(Reject::LinkFull {
                server,
                class,
                reserved_bps,
                budget_bps,
            }) => Outcome::LinkFull {
                server,
                class: class.index(),
                reserved_bits: reserved_bps.to_bits(),
                budget_bits: budget_bps.to_bits(),
            },
            Err(Reject::Policy { stage, class }) => Outcome::Policy {
                stage,
                class: class.index(),
            },
            Err(Reject::NoRoute) => Outcome::NoRoute,
        }
    }

    /// Admitted, LinkFull, Policy by the bucket, Policy by AIMD, NoRoute.
    fn kind(&self) -> usize {
        match self {
            Outcome::Admitted { .. } => 0,
            Outcome::LinkFull { .. } => 1,
            Outcome::Policy {
                stage: "token_bucket",
                ..
            } => 2,
            Outcome::Policy { .. } => 3,
            Outcome::NoRoute => 4,
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn outcome(&mut self, o: &Outcome) {
        match o {
            Outcome::Admitted { route, rate_bits } => {
                self.u64(0);
                self.u64(route.len() as u64);
                route.iter().for_each(|&s| self.u64(u64::from(s)));
                self.u64(*rate_bits);
            }
            Outcome::LinkFull {
                server,
                class,
                reserved_bits,
                budget_bits,
            } => {
                self.u64(1);
                self.u64(u64::from(*server));
                self.u64(*class as u64);
                self.u64(*reserved_bits);
                self.u64(*budget_bits);
            }
            Outcome::Policy { stage, class } => {
                self.u64(2);
                self.bytes(stage.as_bytes());
                self.u64(*class as u64);
            }
            Outcome::NoRoute => self.u64(3),
        }
    }
    fn event(&mut self, e: &Event) {
        self.bytes(e.kind.as_str().as_bytes());
        self.u64(u64::from(e.class));
        self.u64(e.flow);
        self.u64(u64::from(e.server));
        self.u64(e.a.to_bits());
        self.u64(e.b.to_bits());
    }
}

/// Every global admission count a single-flow decision may move, flat.
fn counts(m: &AdmissionMetrics) -> Vec<u64> {
    let mut v = vec![
        m.admits.get(),
        m.releases.get(),
        m.rejects_no_route.get(),
        m.rejects_link_full.get(),
        m.cas_retries.get(),
        m.batches.get(),
        m.batch_fallbacks.get(),
        m.admit_ns.count(),
    ];
    v.extend(m.rejects_link_full_class.iter().map(|c| c.get()));
    v.extend(m.rejects_policy.iter().map(|c| c.get()));
    v.extend(m.path_hops.bucket_counts());
    v.extend(m.retries_per_op.bucket_counts());
    v
}

/// Per stage and class, the largest `n ≤ 4096` the stage would admit at
/// `t` (dry run; monotone in `n`).
fn ladder(chain: &PolicyChain, t: f64) -> Vec<u64> {
    let mut rungs = Vec::new();
    for s in chain.stages() {
        for class in 0..2 {
            let (mut lo, mut hi) = (0u64, 4_097u64);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if s.would_admit(class, mid, t) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            rungs.push(lo);
        }
    }
    rungs
}

/// What one case's churn returns: the outcomes, the offered arrivals per
/// class (every request that found a route) and the last clock reading.
struct Churn {
    outcomes: Vec<Outcome>,
    offered: Vec<u64>,
    t_end: f64,
}

/// The seeded churn of one case, on the calling thread: per step, drop
/// what is due, advance the virtual clock, and put one request to
/// `entry`.
fn churn(ctrl: &AdmissionController, net: &Net, entry: usize, seed: u64) -> Churn {
    let mut rng = SplitMix64::new(seed);
    let generation = ctrl.current_generation();
    let mut held: Vec<(u64, FlowHandle)> = Vec::new();
    let mut outcomes = Vec::with_capacity(STEPS as usize);
    let mut offered = vec![0u64; ALPHAS.len()];
    let mut t = 0.0;
    for step in 0..STEPS {
        held.retain(|(due, _)| *due > step);
        // Busy stretches of 1 500 requests at ≈ 5 000/s, quiet ones at
        // ≈ 110/s.
        t += if step % 3_000 < 1_500 {
            [0.0, 1e-4, 5e-4][rng.index(3)]
        } else {
            [1e-3, 5e-3, 2e-2][rng.index(3)]
        };
        let class = ClassId([0, 0, 0, 1, 1, 2][rng.index(6)]);
        let pair = net.pairs[rng.index(net.pairs.len())];
        let (src, dst) = if rng.index(16) == 0 {
            (pair.src, pair.src)
        } else {
            (pair.src, pair.dst)
        };
        let hold = 1 + rng.index(1_500) as u64;
        let r = match entry {
            0 => ctrl.try_admit(class, src, dst),
            1 => ctrl.try_admit_at(class, src, dst, t),
            _ => ctrl.try_admit_on(&generation, class, src, dst),
        };
        let outcome = Outcome::of(&r);
        if outcome != Outcome::NoRoute {
            offered[class.index()] += 1;
        }
        outcomes.push(outcome);
        if let Ok(h) = r {
            held.push((step + hold, h));
        }
    }
    drop(held);
    ctrl.flush_metrics();
    trace::global().flush();
    Churn {
        outcomes,
        offered,
        t_end: t,
    }
}

/// Runs one case on a fresh thread and digests it; also returns its
/// outcomes.
fn run_case(net: &Net, entry: usize, chain: ChainKind, seed: u64) -> (u64, Vec<Outcome>) {
    let clocked = entry == 1;
    let built = PolicyChain::from_config(&policy(chain, clocked), &rates());
    let caps = vec![CAPACITY; net.g.edge_count()];
    let ctrl = AdmissionController::from_generation(ConfigGeneration::with_policy(
        net.table.clone(),
        &classes(),
        &caps,
        &ALPHAS,
        BackendKind::Atomic,
        built,
    ));
    let m = AdmissionMetrics::global(ALPHAS.len());
    let tracer = trace::global();
    assert!(tracer.drain().events.is_empty(), "a case starts untraced");
    let before = counts(&m);
    let Churn {
        outcomes,
        offered,
        t_end,
    } = std::thread::scope(|s| s.spawn(|| churn(&ctrl, net, entry, seed)).join().unwrap());
    let drained = tracer.drain();
    assert_eq!(drained.dropped, 0, "the ring overflowed");
    let moved: Vec<u64> = counts(&m).iter().zip(&before).map(|(a, b)| a - b).collect();

    let mut h = Fnv::new();
    outcomes.iter().for_each(|o| h.outcome(o));
    drained.events.iter().for_each(|e| h.event(e));
    moved.iter().for_each(|&d| h.u64(d));
    offered.iter().for_each(|&a| h.u64(a));
    // The process clock decides nothing at these gains; read the ladder
    // far past it.
    let t_end = if clocked { t_end } else { 1e6 };
    let generation = ctrl.current_generation();
    ladder(generation.policy(), t_end)
        .iter()
        .chain(&ladder(generation.policy(), t_end + 0.05))
        .for_each(|&r| h.u64(r));
    (h.0, outcomes)
}

#[test]
fn single_flows_decide_trace_and_book_as_pinned() {
    let net = net();
    trace::global().set_enabled(true);
    let mut computed = [[[0u64; 3]; 3]; 3];
    for (e, entry) in ENTRIES.iter().enumerate() {
        for (c, &chain) in CHAINS.iter().enumerate() {
            // Admitted, LinkFull, Policy by the bucket, by AIMD, NoRoute.
            let mut kinds = [0usize; 5];
            for (s, &seed) in SEEDS.iter().enumerate() {
                let (digest, outcomes) = run_case(&net, e, chain, seed);
                computed[e][c][s] = digest;
                outcomes.iter().for_each(|o| kinds[o.kind()] += 1);
            }
            let what = format!("{entry}/{}", chain.as_str());
            for (kind, &n) in kinds.iter().enumerate() {
                let expected = match kind {
                    2 => chain != ChainKind::Static,
                    3 => chain == ChainKind::Adaptive && e == 1,
                    _ => true,
                };
                assert_eq!(n > 100, expected, "{what}: outcome kinds {kinds:?}");
            }
        }
    }
    trace::global().set_enabled(false);
    if computed != TABLE {
        let mut text = String::new();
        for entry in &computed {
            text.push_str("    [\n");
            for chain in entry {
                let row: Vec<String> = chain.iter().map(|d| format!("{d:#018x}")).collect();
                text.push_str(&format!("        [{}],\n", row.join(", ")));
            }
            text.push_str("    ],\n");
        }
        panic!("single-flow digests moved; computed table:\n{text}");
    }
}

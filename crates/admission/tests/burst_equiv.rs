//! Burst equivalence: what `try_admit_batch_at` decides for a burst,
//! pinned flow by flow.
//!
//! `TABLE` holds FNV-1a digests captured at commit 5f2ca69, when a burst
//! whose aggregate did not fit was decided by one `admit_inner` call per
//! flow. Each digest covers, for one (chain, traffic shape, seed): every
//! per-flow outcome *with its payload* (`Ok` route and rate, `LinkFull`
//! server / reserved / budget bits, `Policy` stage, `NoRoute`), each
//! batch's `fast_path` flag, the final reserved rate of every link, and
//! the chain's diagnostics after the run (`TokenBucketStage::tokens_bits`,
//! `AimdStage::cap_bps` / `state`). The network is the benchmark's
//! `serve_loop_mci` scenario: MCI on SP routes, 4 Mb/s links at α 0.45
//! (56 voip flows per link) and that scenario's `[policy]` gains.
//!
//! The diagnostics need the concrete stages, which a built chain no
//! longer exposes, so every case runs twice: once on the chain
//! `PolicyChain::from_config` builds, and once on a chain of [`Shared`]
//! wrappers that forward the four `PolicyStage` methods to stages the
//! test keeps an `Arc` to, `admit_up_to` as `n` single-flow calls: the
//! definition of a stage's grant. The two runs must agree outcome for
//! outcome and on a dry-run ladder of both chains, so the second run
//! doubles as the reference for each stage's closed form.
//!
//! Beside the digests, an always-on differential: under all three
//! chains the same sequences through `try_admit_at` one flow at a time
//! agree decision for decision, payloads included, and leave the links
//! and the chain in the same state. A seventh shape the table does not
//! index, `reloads`, puts `serve`'s traffic through that differential
//! for 48 000 ticks with a fresh generation installed after every
//! 8 000th, as `serve` and the benchmark reload: the long run is where
//! the AIMD stage comes to reject, and so where a batch that consults
//! the chain in any way the one-by-one walk does not shows.
//!
//! The table is not edited: a mismatch prints the computed table, and a
//! change that moves it has changed a decision.

use std::sync::Arc;
use uba_admission::{
    AdmissionController, AimdParams, AimdStage, BackendKind, ChainKind, ConfigGeneration,
    FlowHandle, FlowSpec, PolicyChain, PolicyConfig, PolicyStage, Reject, RoutingTable,
    TokenBucketStage,
};
use uba_graph::Digraph;
use uba_obs::SplitMix64;
use uba_routing::{all_ordered_pairs, sp_selection, Pair};
use uba_traffic::{BurstModel, ClassId, ClassSet, TrafficClass};

const CAPACITY: f64 = 4e6;
const ALPHA: f64 = 0.45;
const TICK_S: f64 = 1e-3;
const SEEDS: [u64; 4] = [1, 2, 3, 4];
const CHAINS: [ChainKind; 3] = [
    ChainKind::Static,
    ChainKind::TokenBucket,
    ChainKind::Adaptive,
];
const SHAPES: [&str; 6] = [
    "serve",
    "interleaved",
    "random",
    "unroutable",
    "oversize",
    "ramp",
];

/// `TABLE[chain][shape][seed]`, captured at 5f2ca69.
#[rustfmt::skip]
const TABLE: [[[u64; 4]; 6]; 3] = [
    [
        [0x9d27099821bb2fdb, 0x721c4314086c5ab8, 0xbf08dddb3bbfcdf6, 0xf8caf10eaa3db0f0],
        [0x6ca9dea4c206242f, 0x200d81f0810e6678, 0x520e03dda776ff62, 0x5c7c422f7968660c],
        [0x582c683e8402e0fc, 0x856ca18420ec76b1, 0xcb888f112fc180d3, 0x47b73b5d94cb3f0d],
        [0x871a74be4782080c, 0x6991482078d85617, 0x35108a2aac992f25, 0x0c0100e3ecf0110b],
        [0xed84bb2685bdf7b9, 0xd87937d0c6aa8099, 0x8b5fa73e1fe7fc59, 0x8b5df1cec87663b9],
        [0x346da593c274c0ab, 0xa198d2e1e9afa323, 0xb68b9cea68b73eac, 0xca78c06c959d097c],
    ],
    [
        [0xdaabe1ee510623e0, 0x219c2c06d9ddf69c, 0xab42829b7e92ef87, 0xea54c8d7d45cd050],
        [0xf09be8aa17c6eb0f, 0xb8696129dd220a98, 0x3575f86f43f18ef7, 0xffa798cfd8d5d177],
        [0xee5c3297dbc9e923, 0xa6f71324c6f0dbf9, 0xa9d5ad144e48bc0f, 0x43c2c3b1a1d446cd],
        [0xde4e62b05f6eef9a, 0x252ddeefeca7ba80, 0x9705e9bf39b3ac74, 0x081df91869695adf],
        [0xe95499e7443b0602, 0xcbf1f0d46b8e64e2, 0x5e5e3ee2495f5022, 0xd24293460138f202],
        [0xaa38a046a2e97d8b, 0x9d90d6b308a59b57, 0x3955402eb6cce506, 0x0704b26e597f4cd2],
    ],
    [
        [0xe4d201a4dc6e4298, 0x0baebe0c0d0b0234, 0x30510a2997473731, 0x2c0ac0cdd2e64788],
        [0xdc81c13c5624fe29, 0xc58ee26ac7f12560, 0x22b2be5e3d6279a1, 0xa04d95aa9a600321],
        [0xe3076b3db226131d, 0xd92c1f2f6aff4757, 0x9ea5cac75d4c2929, 0xc89f7b5a71ad074b],
        [0x2d02258521e1b9f2, 0xaeea82cd223c664c, 0x9acbf80772ec4598, 0xdfcc1e09c10e6d45],
        [0x430a415c099cb9fa, 0xfa54ae4e32a3859a, 0x4b8ae54e2b0d095a, 0x20c4122d1757c5fa],
        [0xd68331d671c34764, 0x528a61544d6e697f, 0x02574dd02f8ce0df, 0xd34e1e4d3c6900f4],
    ],
];

/// `benchmark/scenarios/serve_loop_mci.toml`'s `[policy]` table.
fn policy(chain: ChainKind) -> PolicyConfig {
    PolicyConfig {
        chain,
        bucket_rate_bps: 2.2e8,
        bucket_burst_bits: 3e6,
        aimd: AimdParams {
            min_rate_bps: 1.2e8,
            max_rate_bps: 6e8,
            increase_bps: 3e7,
            ..AimdParams::default()
        },
    }
}

/// Forwards the four `PolicyStage` methods to a stage the test also
/// holds, so its diagnostics stay readable after the run. A grant of `n`
/// flows is `n` grants of one, the walk a stage's `admit_up_to` must
/// leave it as.
#[derive(Debug)]
struct Shared<S>(Arc<S>);

impl<S: PolicyStage> PolicyStage for Shared<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn admit_up_to(&self, class: usize, n: u64, t: f64) -> u64 {
        (0..n).map(|_| self.0.admit_up_to(class, 1, t)).sum()
    }
    fn refund_n(&self, class: usize, n: u64) {
        self.0.refund_n(class, n)
    }
    fn would_admit(&self, class: usize, n: u64, t: f64) -> bool {
        self.0.would_admit(class, n, t)
    }
}

/// The concrete stages behind a [`Shared`] chain.
#[derive(Default)]
struct Stages {
    bucket: Option<Arc<TokenBucketStage>>,
    aimd: Option<Arc<AimdStage>>,
}

fn shared_chain(cfg: &PolicyConfig, rates: &[f64]) -> (PolicyChain, Stages) {
    let mut chain = PolicyChain::static_only();
    let mut stages = Stages::default();
    if cfg.chain != ChainKind::Static {
        let tb = Arc::new(TokenBucketStage::new(
            cfg.bucket_rate_bps,
            cfg.bucket_burst_bits,
            rates,
        ));
        chain.push(Box::new(Shared(Arc::clone(&tb))));
        stages.bucket = Some(tb);
    }
    if cfg.chain == ChainKind::Adaptive {
        let aimd = Arc::new(AimdStage::new(cfg.aimd, rates));
        chain.push(Box::new(Shared(Arc::clone(&aimd))));
        stages.aimd = Some(aimd);
    }
    (chain, stages)
}

struct Net {
    g: Digraph,
    pairs: Vec<Pair>,
    paths: Vec<uba_graph::Path>,
}

fn net() -> Net {
    let g = uba_topology::mci();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("MCI is connected");
    Net { g, pairs, paths }
}

fn generation(net: &Net, chain: PolicyChain) -> ConfigGeneration {
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), net.paths.iter());
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![CAPACITY; net.g.edge_count()];
    ConfigGeneration::with_policy(table, &classes, &caps, &[ALPHA], BackendKind::Atomic, chain)
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
        reserved_bits: u64,
        budget_bits: u64,
    },
    Policy {
        stage: &'static str,
    },
    NoRoute,
}

impl Outcome {
    fn of(r: &Result<FlowHandle, Reject>) -> Self {
        match r {
            Ok(h) => Outcome::Admitted {
                route: h.route().to_vec(),
                rate_bits: h.rate().to_bits(),
            },
            Err(Reject::LinkFull {
                server,
                reserved_bps,
                budget_bps,
                ..
            }) => Outcome::LinkFull {
                server: *server,
                reserved_bits: reserved_bps.to_bits(),
                budget_bits: budget_bps.to_bits(),
            },
            Err(Reject::Policy { stage, .. }) => Outcome::Policy { stage },
            Err(Reject::NoRoute) => Outcome::NoRoute,
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
                reserved_bits,
                budget_bits,
            } => {
                self.u64(1);
                self.u64(u64::from(*server));
                self.u64(*reserved_bits);
                self.u64(*budget_bits);
            }
            Outcome::Policy { stage } => {
                self.u64(2);
                self.bytes(stage.as_bytes());
            }
            Outcome::NoRoute => self.u64(3),
        }
    }
}

/// How a burst is put to the controller.
#[derive(Clone, Copy, PartialEq)]
enum Via {
    Batch,
    OneByOne,
}

/// A run in progress: the controller, the held flows and the record.
struct Run<'a> {
    ctrl: &'a AdmissionController,
    via: Via,
    /// `(tick the flow leaves at, handle)`.
    held: Vec<(u64, FlowHandle)>,
    outcomes: Vec<Outcome>,
    /// One flag per batch (all `false` one by one).
    fast_paths: Vec<bool>,
    last_t: f64,
}

impl<'a> Run<'a> {
    fn new(ctrl: &'a AdmissionController, via: Via) -> Self {
        Run {
            ctrl,
            via,
            held: Vec::new(),
            outcomes: Vec::new(),
            fast_paths: Vec::new(),
            last_t: 0.0,
        }
    }

    /// Releases what is due, offers `specs` at `tick`, and holds flow
    /// `i`, if admitted, until tick `leave(i)`.
    fn offer(&mut self, tick: u64, specs: &[FlowSpec], mut leave: impl FnMut(usize) -> u64) {
        self.held.retain(|(due, _)| *due > tick);
        let t = tick as f64 * TICK_S;
        self.last_t = t;
        let flows = match self.via {
            Via::Batch => {
                let out = self.ctrl.try_admit_batch_at(specs, t);
                self.fast_paths.push(out.fast_path);
                out.flows
            }
            Via::OneByOne => specs
                .iter()
                .map(|s| self.ctrl.try_admit_at(s.class, s.src, s.dst, t))
                .collect(),
        };
        assert_eq!(flows.len(), specs.len());
        for (i, flow) in flows.into_iter().enumerate() {
            self.outcomes.push(Outcome::of(&flow));
            if let Ok(h) = flow {
                self.held.push((leave(i), h));
            }
        }
    }
}

fn spec(p: Pair) -> FlowSpec {
    FlowSpec {
        class: ClassId(0),
        src: p.src,
        dst: p.dst,
    }
}

fn exp_hold(rng: &mut SplitMix64, mean: f64) -> u64 {
    1 + (-(1.0 - rng.next_f64()).ln() * mean) as u64
}

/// `serve`'s traffic: every 1 ms tick a `BurstModel` slug of copies of
/// one pair, exponential holds.
fn serve(run: &mut Run, net: &Net, seed: u64) {
    serve_for(run, net, seed, 2_000, |_, _| {});
}

/// [`serve`] for `ticks` ticks, with `after_tick(controller, tick)`
/// called once each tick's burst is decided.
fn serve_for(
    run: &mut Run,
    net: &Net,
    seed: u64,
    ticks: u64,
    mut after_tick: impl FnMut(&AdmissionController, u64),
) {
    let model = BurstModel::with_mean_cv(8.0, 2.5);
    let mut rng = SplitMix64::new(seed);
    for tick in 0..ticks {
        let n = model.sample(rng.range_f64(0.0, 1.0)).max(1) as usize;
        let pair = net.pairs[rng.index(net.pairs.len())];
        let specs = vec![spec(pair); n];
        let holds: Vec<u64> = (0..n).map(|_| exp_hold(&mut rng, 64.0)).collect();
        run.offer(tick, &specs, |i| tick + holds[i]);
        after_tick(run.ctrl, tick);
    }
}

/// Interleaved runs `[A×2m, B×m, A×3m]` of two pairs that share a link
/// (`m = 1` is `[A,A,B,A,A,A]`).
fn interleaved(run: &mut Run, net: &Net, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let generation = run.ctrl.current_generation();
    let routes: Vec<&[u32]> = net
        .pairs
        .iter()
        .map(|p| {
            generation
                .table()
                .route(p.src, p.dst, ClassId(0))
                .expect("all pairs are routed")
        })
        .collect();
    for tick in 0..600u64 {
        let ia = rng.index(net.pairs.len());
        let ib = (0..net.pairs.len())
            .find(|&i| i != ia && routes[i].iter().any(|s| routes[ia].contains(s)))
            .expect("some other pair crosses A's route");
        let (a, b) = (net.pairs[ia], net.pairs[ib]);
        let m = 1 + rng.index(12);
        let mut specs = vec![spec(a); 2 * m];
        specs.extend(vec![spec(b); m]);
        specs.extend(vec![spec(a); 3 * m]);
        let holds: Vec<u64> = specs.iter().map(|_| 1 + rng.index(64) as u64).collect();
        run.offer(tick, &specs, |i| tick + holds[i]);
    }
}

/// `batch_equiv`'s shape: 1–8 random pairs per batch, lifetimes long
/// enough that links fill.
fn random(run: &mut Run, net: &Net, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for tick in 0..1_500u64 {
        let n = 1 + rng.index(8);
        let specs: Vec<FlowSpec> = (0..n)
            .map(|_| spec(net.pairs[rng.index(net.pairs.len())]))
            .collect();
        let holds: Vec<u64> = (0..n).map(|_| 1 + rng.index(2_048) as u64).collect();
        run.offer(tick, &specs, |i| tick + holds[i]);
    }
}

/// Bursts with unroutable specs (`src == dst`) between and after runs.
fn unroutable(run: &mut Run, net: &Net, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for tick in 0..400u64 {
        let a = net.pairs[rng.index(net.pairs.len())];
        let c = net.pairs[rng.index(net.pairs.len())];
        let nowhere = FlowSpec {
            class: ClassId(0),
            src: a.src,
            dst: a.src,
        };
        let mut specs = vec![spec(a); rng.index(40)];
        specs.push(nowhere);
        specs.extend(vec![spec(a); rng.index(40)]);
        specs.extend([nowhere, nowhere]);
        specs.extend(vec![spec(c); rng.index(40)]);
        let holds: Vec<u64> = specs.iter().map(|_| exp_hold(&mut rng, 32.0)).collect();
        run.offer(tick, &specs, |i| tick + holds[i]);
    }
}

/// A burst larger than every budget (links hold 56, the bucket 93) on
/// an idle network, eight times half a second apart.
fn oversize(run: &mut Run, net: &Net, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in 0..8u64 {
        let tick = i * 500;
        let pair = net.pairs[rng.index(net.pairs.len())];
        run.offer(tick, &vec![spec(pair); 200], |_| tick + 1);
    }
}

/// Offered load doubling every 0.8 s on an otherwise idle network (one
/// pair per tick, one-tick holds): the sustained climb is what latches
/// the overuse detector, clamps the AIMD ceiling below the bucket's
/// refill rate and makes `aimd` the stage that rejects — which `serve`'s
/// stationary load never does with these gains.
fn ramp(run: &mut Run, net: &Net, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for tick in 0..3_200u64 {
        let base = 2usize << (tick / 800);
        let n = base + base * (tick % 800) as usize / 800;
        let pair = net.pairs[rng.index(net.pairs.len())];
        run.offer(tick, &vec![spec(pair); n], |_| tick + 1);
    }
}

const DRIVERS: [fn(&mut Run, &Net, u64); 6] =
    [serve, interleaved, random, unroutable, oversize, ramp];

/// Per stage, the largest `n ≤ 4096` the stage would admit at `t`
/// (dry run; monotone in `n`).
fn ladder(chain: &PolicyChain, t: f64) -> Vec<u64> {
    chain
        .stages()
        .iter()
        .map(|s| {
            let (mut lo, mut hi) = (0u64, 4_097u64);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if s.would_admit(0, mid, t) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

struct Case {
    outcomes: Vec<Outcome>,
    fast_paths: Vec<bool>,
    reserved_bits: Vec<u64>,
    ladder: Vec<u64>,
}

fn run_case(net: &Net, chain: PolicyChain, via: Via, drive: impl FnOnce(&mut Run)) -> Case {
    let ctrl = AdmissionController::from_generation_unmetered(generation(net, chain));
    let mut run = Run::new(&ctrl, via);
    drive(&mut run);
    let t_end = run.last_t;
    let generation = ctrl.current_generation();
    let reserved_bits = (0..net.g.edge_count())
        .map(|k| ctrl.reserved(k, ClassId(0)).to_bits())
        .collect();
    let mut rungs = ladder(generation.policy(), t_end);
    rungs.extend(ladder(generation.policy(), t_end + 0.05));
    Case {
        outcomes: run.outcomes,
        fast_paths: run.fast_paths,
        reserved_bits,
        ladder: rungs,
    }
}

fn digest(case: &Case, stages: &Stages) -> u64 {
    let mut h = Fnv::new();
    case.outcomes.iter().for_each(|o| h.outcome(o));
    case.fast_paths.iter().for_each(|&f| h.u64(u64::from(f)));
    case.reserved_bits.iter().for_each(|&r| h.u64(r));
    if let Some(tb) = &stages.bucket {
        h.u64(tb.tokens_bits(0).to_bits());
    }
    if let Some(aimd) = &stages.aimd {
        h.u64(aimd.cap_bps(0).to_bits());
        h.bytes(aimd.state(0).as_str().as_bytes());
    }
    h.0
}

/// The differential: `batched` and the same sequence put to
/// `try_admit_at` one flow at a time must agree flow for flow, on the
/// links and on the chain.
fn assert_same_as_one_by_one(what: &str, batched: &Case, single: &Case) {
    if let Some(i) =
        (0..batched.outcomes.len()).find(|&i| batched.outcomes[i] != single.outcomes[i])
    {
        panic!(
            "{what}: flow {i} batched {:?}, one by one {:?}",
            batched.outcomes[i], single.outcomes[i]
        );
    }
    assert_eq!(batched.reserved_bits, single.reserved_bits, "{what}: links");
    assert_eq!(batched.ladder, single.ladder, "{what}: chain state");
}

#[test]
fn bursts_decide_as_pinned_and_as_one_by_one() {
    let net = net();
    let rates = [TrafficClass::voip().bucket.rate];
    let mut computed = [[[0u64; 4]; 6]; 3];
    // Admitted, LinkFull, Policy by the bucket, Policy by AIMD, NoRoute.
    let mut kinds = [0usize; 5];
    for (c, &kind) in CHAINS.iter().enumerate() {
        let cfg = policy(kind);
        for shape in 0..SHAPES.len() {
            for (s, &seed) in SEEDS.iter().enumerate() {
                let what = format!("{}/{}/seed {seed}", kind.as_str(), SHAPES[shape]);
                let drive = |run: &mut Run| DRIVERS[shape](run, &net, seed);
                let built = PolicyChain::from_config(&cfg, &rates);
                let real = run_case(&net, built, Via::Batch, drive);
                let (chain, stages) = shared_chain(&cfg, &rates);
                let shared = run_case(&net, chain, Via::Batch, drive);
                assert!(
                    real.outcomes == shared.outcomes,
                    "{what}: built chain and forwarding chain decided differently"
                );
                assert_eq!(real.fast_paths, shared.fast_paths, "{what}: fast_path");
                assert_eq!(real.reserved_bits, shared.reserved_bits, "{what}: links");
                assert_eq!(real.ladder, shared.ladder, "{what}: chain state");
                computed[c][shape][s] = digest(&shared, &stages);

                for o in &real.outcomes {
                    kinds[match o {
                        Outcome::Admitted { .. } => 0,
                        Outcome::LinkFull { .. } => 1,
                        Outcome::Policy {
                            stage: "token_bucket",
                        } => 2,
                        Outcome::Policy { .. } => 3,
                        Outcome::NoRoute => 4,
                    }] += 1;
                }

                let built = PolicyChain::from_config(&cfg, &rates);
                let single = run_case(&net, built, Via::OneByOne, drive);
                assert_same_as_one_by_one(&what, &real, &single);
            }
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 1_000),
        "every outcome kind must be exercised: {kinds:?}"
    );
    if computed != TABLE {
        let mut text = String::new();
        for chain in &computed {
            text.push_str("    [\n");
            for shape in chain {
                let row: Vec<String> = shape.iter().map(|d| format!("{d:#018x}")).collect();
                text.push_str(&format!("        [{}],\n", row.join(", ")));
            }
            text.push_str("    ],\n");
        }
        panic!("burst digests moved; computed table:\n{text}");
    }
}

/// `serve`'s traffic under the adaptive chain, long enough for the AIMD
/// stage to reject, with a fresh generation (same gains) after every
/// 8 000th tick: batch and one by one, flow for flow.
#[test]
fn reloads_decide_as_one_by_one() {
    let net = net();
    let rates = [TrafficClass::voip().bucket.rate];
    let cfg = policy(ChainKind::Adaptive);
    let case = |via| {
        run_case(&net, PolicyChain::from_config(&cfg, &rates), via, |run| {
            serve_for(run, &net, 1, 48_000, |ctrl, tick| {
                if tick % 8_000 == 7_999 {
                    ctrl.reconfigure(generation(&net, PolicyChain::from_config(&cfg, &rates)));
                }
            })
        })
    };
    let (batched, single) = (case(Via::Batch), case(Via::OneByOne));
    let by_aimd = |case: &Case| {
        let aimd = Outcome::Policy { stage: "aimd" };
        case.outcomes.iter().filter(|o| **o == aimd).count()
    };
    assert!(
        by_aimd(&single) > 1_000,
        "the shape must bring the AIMD stage to reject: {} times one by one, {} batched",
        by_aimd(&single),
        by_aimd(&batched)
    );
    assert_same_as_one_by_one("adaptive/reloads/seed 1", &batched, &single);
}

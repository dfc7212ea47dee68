//! Pinned-selection equivalence for §5.4's multi-class configuration.
//!
//! Until ISSUE 21 `select_routes_multiclass` was its own greedy: for every
//! pooled candidate it cloned the committed route set, pushed the
//! candidate and ran a whole-route-set Theorem 5 solve warm from the
//! committed delays — the literal reading of §5.2 with §5.4's oracle —
//! and `max_utilization_ray` was its own bisection around it. Every value
//! below was captured from that code, on the commit that added this file
//! with `src` untouched, so each digest *is* the clone-push-solve
//! reference's answer; that greedy, its bisection and the solver loop
//! under them are gone, these tables stay. A demand visited in another
//! order, a candidate ranked differently, a warm start changed or a delay
//! moved by one ulp changes at least one digest. The digests were
//! re-pinned once, when Theorem 5 was rewritten without its subtraction:
//! demand orders, paths, give-up pairs, probe verdicts and the found `t`
//! stayed bit for bit, every delay moved by at most 7 ulps (1.0e-15
//! relative), and every selection certifies (`certify` below).
//!
//! Re-pinning is only legitimate for an intended behaviour change: the
//! failure message prints the freshly computed values.

use uba_delay::certificate;
use uba_delay::servers::Servers;
use uba_graph::{Digraph, NodeId};
use uba_routing::{
    all_ordered_pairs, max_utilization_ray, select_routes_multiclass, Demand, HeuristicConfig,
    Pair, Selection, SelectionError,
};
use uba_topology::{mci, nsfnet};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Demand order, path edge lists, the `nc` classes' delays class by class
/// (each class's cells in server order) and `route_delays` bit patterns.
fn digest(sel: &Selection, nc: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    assert_eq!(sel.demands.len(), sel.paths.len());
    assert_eq!(sel.demands.len(), sel.routes.len());
    assert_eq!(sel.demands.len(), sel.route_delays.len());
    for (demand, path) in sel.demands.iter().zip(&sel.paths) {
        h = fnv(h, demand.class.index() as u64);
        h = fnv(h, demand.pair.src.0 as u64);
        h = fnv(h, demand.pair.dst.0 as u64);
        h = fnv(h, path.edges.len() as u64);
        for e in &path.edges {
            h = fnv(h, e.index() as u64);
        }
    }
    h = fnv(h, nc as u64);
    let by_class = (0..nc).flat_map(|c| sel.delays.iter().skip(c).step_by(nc));
    for d in by_class.chain(&sel.route_delays) {
        h = fnv(h, d.to_bits());
    }
    h
}

/// voip, video, bulk-rt — `crates/cli/scenarios/multiclass.toml`'s
/// classes; the two-class cases take the first two.
fn classes(n: usize) -> ClassSet {
    let all = [
        TrafficClass::voip(),
        TrafficClass::new("video", LeakyBucket::new(64_000.0, 2_000_000.0), 0.3),
        TrafficClass::new("bulk-rt", LeakyBucket::new(256_000.0, 5_000_000.0), 1.0),
    ];
    let mut set = ClassSet::new();
    for class in all.into_iter().take(n) {
        set.push(class);
    }
    set
}

/// Every `step`-th ordered pair, in every class: class-major, the shape
/// `uba-cli maximize` builds.
fn every_class(g: &Digraph, nc: usize, step: usize) -> Vec<Demand> {
    let pairs: Vec<Pair> = all_ordered_pairs(g).into_iter().step_by(step).collect();
    (0..nc)
        .flat_map(|c| {
            pairs.iter().map(move |&pair| Demand {
                class: ClassId(c),
                pair,
            })
        })
        .collect()
}

/// Every `step`-th ordered pair, classes dealt round-robin: no pair is
/// routed twice.
fn round_robin(g: &Digraph, nc: usize, step: usize) -> Vec<Demand> {
    all_ordered_pairs(g)
        .into_iter()
        .step_by(step)
        .enumerate()
        .map(|(i, pair)| Demand {
            class: ClassId(i % nc),
            pair,
        })
        .collect()
}

struct Case {
    name: &'static str,
    g: Digraph,
    fan_in: usize,
    classes: ClassSet,
    demands: Vec<Demand>,
    /// The ray the three utilization vectors lie on.
    weights: &'static [f64],
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "mci two-class, 57 pairs in both classes",
            g: mci(),
            fan_in: 6,
            classes: classes(2),
            demands: every_class(&mci(), 2, 6),
            weights: &[2.0, 1.0],
        },
        Case {
            name: "mci three-class, 114 pairs dealt round-robin",
            g: mci(),
            fan_in: 6,
            classes: classes(3),
            demands: round_robin(&mci(), 3, 3),
            weights: &[0.15, 0.15, 0.05],
        },
        Case {
            name: "nsfnet three-class, 37 pairs in every class",
            g: nsfnet(),
            fan_in: 4,
            classes: classes(3),
            demands: every_class(&nsfnet(), 3, 5),
            weights: &[0.05, 0.15, 0.15],
        },
    ]
}

/// Per case, the scale `t` of three utilization vectors `t·w`: low,
/// within 2 % of what the ray search reaches, and just past it (so the
/// greedy gives up 30, 25 and 72 demands in, not at the first).
const SCALES: [[f64; 3]; 3] = [[0.03, 0.2372, 0.2444], [0.4, 2.45, 2.5], [0.4, 2.03, 2.07]];

/// Per case: the low and the near-limit selection, then the pair the
/// greedy gives up on past the limit.
const DIGESTS: [(u64, u64, (u32, u32)); 3] = [
    (0xeb46_7efd_6ce4_d861, 0x7150_dab3_2a53_6d8e, (15, 12)),
    (0x8d4d_2c7e_831d_de82, 0x893f_8bb2_e96c_83a0, (13, 3)),
    (0xdccf_d243_03ae_06cd, 0x863d_2d07_b4b0_8c88, (11, 7)),
];

fn select(case: &Case, t: f64, cfg: &HeuristicConfig) -> Result<Selection, SelectionError> {
    let servers = Servers::uniform(&case.g, 100e6, case.fan_in);
    let alphas: Vec<f64> = case.weights.iter().map(|w| w * t).collect();
    let r = select_routes_multiclass(
        &case.g,
        &servers,
        &case.classes,
        &alphas,
        &case.demands,
        cfg,
    );
    if let Ok(sel) = &r {
        certify(case, &alphas, sel);
    }
    r
}

/// The relative lift from a selection's cells to a certificate witness.
const LIFT: f64 = 1e-9;

/// A selection is a safe verdict: its lifted cells pass the independent
/// checker.
fn certify(case: &Case, alphas: &[f64], sel: &Selection) {
    let servers = Servers::uniform(&case.g, 100e6, case.fan_in);
    let d_hat: Vec<f64> = sel.delays.iter().map(|d| d * (1.0 + LIFT)).collect();
    let cells = alphas.repeat(servers.len());
    let got = certificate::check(&servers, &case.classes, &cells, &sel.routes, &d_hat);
    assert_eq!(
        got,
        Ok(()),
        "{}: a safe verdict the checker refuses",
        case.name
    );
}

fn gives_up_at(r: Result<Selection, SelectionError>) -> (u32, u32) {
    match r {
        Err(SelectionError::NoSafeRoute(Pair { src, dst })) => (src.0, dst.0),
        other => panic!(
            "expected NoSafeRoute, got {:?}",
            other.map(|s| s.paths.len())
        ),
    }
}

#[test]
fn selections_match_the_pinned_digests() {
    let cfg = HeuristicConfig::default();
    let computed: Vec<(u64, u64, (u32, u32))> = cases()
        .iter()
        .zip(SCALES)
        .map(|(case, [low, near, past])| {
            let routed = |t| {
                let sel = select(case, t, &cfg).unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
                assert_eq!(sel.paths.len(), case.demands.len());
                digest(&sel, case.classes.len())
            };
            (
                routed(low),
                routed(near),
                gives_up_at(select(case, past, &cfg)),
            )
        })
        .collect();
    assert_eq!(
        computed, DIGESTS,
        "a multi-class selection diverged; computed: {computed:#x?}"
    );
}

/// The nsfnet three-class case at 0.9 of its near-limit scale (a greedy
/// short of a rule stops earlier; this keeps all five routable) under each
/// sub-heuristic switched off alone, all three off, and three candidates
/// instead of eight. On this case each one changes the selection.
const ABLATIONS: [u64; 5] = [
    0x3a4a_1d9c_a0dc_b07f,
    0x41a3_7f5b_613f_f2b6,
    0x8009_51ea_dea2_68d8,
    0x12fc_5c09_014d_e698,
    0xbc0f_87f1_5d9f_a786,
];

#[test]
fn ablated_selections_match_the_pinned_digests() {
    let base = HeuristicConfig::default;
    let configs = [
        HeuristicConfig {
            order_by_distance: false,
            ..base()
        },
        HeuristicConfig {
            prefer_acyclic: false,
            ..base()
        },
        HeuristicConfig {
            min_delay_choice: false,
            ..base()
        },
        HeuristicConfig {
            order_by_distance: false,
            prefer_acyclic: false,
            min_delay_choice: false,
            ..base()
        },
        HeuristicConfig {
            k_candidates: 3,
            ..base()
        },
    ];
    let case = &cases()[2];
    let t = SCALES[2][1] * 0.9;
    let computed: Vec<u64> = configs
        .iter()
        .map(|cfg| digest(&select(case, t, cfg).expect("routable"), case.classes.len()))
        .collect();
    assert_eq!(
        computed, ABLATIONS,
        "an ablated selection diverged; computed: {computed:#x?}"
    );
    let full = digest(
        &select(case, t, &base()).expect("routable"),
        case.classes.len(),
    );
    assert!(
        !computed.contains(&full),
        "an ablation that ablates nothing"
    );
}

#[test]
fn an_oversubscribed_vector_fails_at_the_first_demand() {
    // Σα > 1 is outside Theorem 5's domain whatever the routes.
    let case = &cases()[0];
    let servers = Servers::uniform(&case.g, 100e6, case.fan_in);
    let cfg = HeuristicConfig::default();
    let r = select_routes_multiclass(
        &case.g,
        &servers,
        &case.classes,
        &[0.6, 0.6],
        &case.demands,
        &cfg,
    );
    // The first of the sampled pairs four hops apart.
    assert_eq!(gives_up_at(r), (14, 12));
    let none = select_routes_multiclass(&case.g, &servers, &case.classes, &[0.6, 0.6], &[], &cfg)
        .expect("nothing to route");
    assert_eq!(none.delays, vec![0.0; 2 * servers.len()]);
    assert!(none.route_delays.is_empty());
}

/// `max_utilization_ray(default, tol = 0.01)`: every probe as
/// `(t bits, feasible)`, the final `t` bits, the final selection's digest.
type Search = (&'static [(u64, bool)], u64, u64);

const MCI_TWO_CLASS_SEARCH: Search = (
    &[
        (0x3fc5_5555_54f9_b516, true),
        (0x3fcf_ffff_ff76_8fa1, false),
        (0x3fca_aaaa_aa38_225c, true),
        (0x3fcd_5555_54d7_58fe, true),
        (0x3fce_aaaa_aa26_f450, true),
        (0x3fcf_5555_54ce_c1f8, false),
    ],
    0x3fce_aaaa_aa26_f450, // 0.23958333309375002
    0x7851_b318_57b4_7259,
);
const NSFNET_THREE_CLASS_SEARCH: Search = (
    &[
        (0x3ff6_db6d_b679_4206, true),
        (0x4001_2492_48da_f184, false),
        (0x3ffc_9249_2417_9287, true),
        (0x3fff_6db6_dae6_bac8, true),
        (0x4000_6db6_db27_2774, true),
        (0x4000_c924_9201_0c7c, false),
        (0x4000_9b6d_b694_19f8, false),
        (0x4000_8492_48dd_a0b6, false),
        (0x4000_7924_9202_6415, false),
    ],
    0x4000_6db6_db27_2774, // 2.0535714265178573
    0x7569_6ca9_5653_38d4,
);

fn search(case: &Case) -> (Vec<(u64, bool)>, u64, u64) {
    let servers = Servers::uniform(&case.g, 100e6, case.fan_in);
    let found = max_utilization_ray(
        &case.g,
        &servers,
        &case.classes,
        case.weights,
        &case.demands,
        &HeuristicConfig::default(),
        0.01,
    );
    let probes = found
        .probes
        .iter()
        .map(|&(t, ok)| (t.to_bits(), ok))
        .collect();
    let sel = found.selection.as_ref().expect("a feasible scale");
    certify(case, &found.alphas, sel);
    for (alpha, w) in found.alphas.iter().zip(case.weights) {
        assert_eq!(alpha.to_bits(), (w * found.t).to_bits());
    }
    (probes, found.t.to_bits(), digest(sel, case.classes.len()))
}

#[test]
fn ray_searches_match_the_pinned_probe_sequences() {
    let cases = cases();
    for (case, pinned) in [
        (&cases[0], MCI_TWO_CLASS_SEARCH),
        (&cases[2], NSFNET_THREE_CLASS_SEARCH),
    ] {
        let (probes, t, sel) = search(case);
        assert_eq!(
            (probes.as_slice(), t, sel),
            pinned,
            "{}: t = {}; computed: ({probes:#x?}, {t:#x}, {sel:#x})",
            case.name,
            f64::from_bits(t)
        );
    }
}

#[test]
fn pinned_cases_are_the_size_their_names_say() {
    let sizes: Vec<usize> = cases().iter().map(|c| c.demands.len()).collect();
    assert_eq!(sizes, [114, 114, 111]);
    assert_eq!(cases()[0].demands[0].pair.src, NodeId(0));
}

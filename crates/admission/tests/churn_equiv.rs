//! Pinned-statistics equivalence for the churn drivers.
//!
//! [`run_churn`] and [`run_churn_bursty`] share one loop body; what a
//! caller sees of it — the RNG draw order (burst size, pair, holding
//! times) and every deterministic field of [`ChurnStats`] — is pinned
//! here. The digests were captured on the three separate loops of
//! PR 14, before they were folded into one; a draw moved, a tally
//! skipped or a departure processed one tick late changes at least one.
//!
//! Re-pinning is only legitimate for an intended behaviour change: the
//! failure message prints the freshly computed table.

use uba_admission::{
    run_churn, run_churn_bursty, AdmissionController, ChurnConfig, ChurnStats, ConfigGeneration,
    RoutingTable,
};
use uba_graph::{Digraph, NodeId, Path};
use uba_routing::{all_ordered_pairs, sp_selection};
use uba_traffic::{BurstModel, ClassId, ClassSet, TrafficClass};

const SEEDS: usize = 8;
const DRIVERS: [&str; 3] = [
    "run_churn",
    "run_churn_bursty(4, 2)",
    "run_churn_bursty(8, 0)",
];

/// FNV-1a digests of `format!("{:?}", stats)` with the two wall-clock
/// fields zeroed: one row per seed, one column per entry of [`DRIVERS`].
#[rustfmt::skip]
const LINE_DIGESTS: [[u64; 3]; SEEDS] = [
    [0x02cfbc0bfb17e0d4, 0x7794a1bda20a2bab, 0xad20c17adced42ba],
    [0xbf30b4e07853f3ef, 0x1049a2a89b356aa3, 0xfe3c763f3f8881b3],
    [0xa7d872c956dcdb96, 0x436955de1f9f09ba, 0xba71c458e5aa2e15],
    [0x7efc121baaed88c7, 0x11a6977e9a5fce3d, 0xb0f3c45d78813f22],
    [0xe379602ce3ecc447, 0xf371ed9467aa3a19, 0x59ff24c3ba73e134],
    [0xd620594c476cb5b0, 0x982ecbd43bd18597, 0x59ff24c3ba73e134],
    [0xbf30b4e07853f3ef, 0x292caba110552afc, 0x1e0469c8515939cb],
    [0x5e63bc3f1e652c5a, 0x97bb3f8e1e7260c0, 0xfe3c763f3f8881b3],
];

#[rustfmt::skip]
const MCI_DIGESTS: [[u64; 3]; SEEDS] = [
    [0x21912987e64c9f03, 0xd02f438784a0b855, 0x75ea1d4451157312],
    [0x4989df05e4524935, 0x67c8c5f8c1ea04e8, 0x577cc4bf3feede7f],
    [0x0d5d3a6bc4b3769b, 0xe2fbee4f161a9b51, 0xf41258acec9d3ae7],
    [0x17d991885e15e1ae, 0xc95ad81e7c41391e, 0x5eaf0fc4b2a6b947],
    [0x12d45c21c2287724, 0xab3606d7a5f72ece, 0xe19518d5fe7764f1],
    [0x4b86517426cd09b5, 0x4be7a6705b42a02c, 0x43d10fedfa72a9aa],
    [0x01cbb6c433b72d6f, 0x33d58307607304e7, 0x728ca439c236a6f7],
    [0x4168807c45cb3529, 0x206bb7b668bf8e93, 0xf9ee1fbe254600ad],
];

type Setup = fn() -> (AdmissionController, Vec<(NodeId, NodeId)>, usize);

/// The two-route line of `churn.rs`'s unit tests, three flows per link.
fn line() -> (AdmissionController, Vec<(NodeId, NodeId)>, usize) {
    let mut g = Digraph::with_nodes(3);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
    let mut table = RoutingTable::new();
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    let pairs = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
    (
        AdmissionController::from_generation(ConfigGeneration::new(table, &classes, &caps, &[0.1])),
        pairs,
        g.edge_count(),
    )
}

/// MCI, shortest-path routes for all 342 pairs, six flows per link.
fn mci() -> (AdmissionController, Vec<(NodeId, NodeId)>, usize) {
    let g = uba_topology::mci();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("MCI is connected");
    let mut table = RoutingTable::new();
    for p in &paths {
        table.insert(ClassId(0), p);
    }
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    (
        AdmissionController::from_generation(ConfigGeneration::new(table, &classes, &caps, &[0.2])),
        pairs.iter().map(|p| (p.src, p.dst)).collect(),
        g.edge_count(),
    )
}

fn digest(stats: &ChurnStats) -> u64 {
    let deterministic = ChurnStats {
        admit_ns: 0,
        mean_admit_ns: 0.0,
        ..*stats
    };
    format!("{deterministic:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Runs the three drivers over every seed, each on a fresh controller,
/// and compares with `pinned`. Every cell must saturate (so admission
/// decisions, not just the draw order, are part of what is pinned) and
/// leave every link released.
fn check(name: &str, setup: Setup, arrivals: usize, mean_active: f64, pinned: &[[u64; 3]; SEEDS]) {
    let models = [
        None,
        Some(BurstModel::with_mean_cv(4.0, 2.0)),
        Some(BurstModel::with_mean_cv(8.0, 0.0)),
    ];
    let mut computed = [[0u64; 3]; SEEDS];
    for (seed, row) in computed.iter_mut().enumerate() {
        let cfg = ChurnConfig {
            arrivals,
            mean_active,
            seed: 1 + seed as u64,
        };
        for (d, model) in models.iter().enumerate() {
            let (ctrl, pairs, servers) = setup();
            let stats = match model {
                None => run_churn(&ctrl, &pairs, ClassId(0), &cfg),
                Some(m) => run_churn_bursty(&ctrl, &pairs, ClassId(0), &cfg, m),
            };
            let cell = format!("{name} seed {seed} {}", DRIVERS[d]);
            assert_eq!(stats.offered, arrivals, "{cell}");
            assert!(
                stats.accepted > 0 && stats.accepted < arrivals,
                "{cell} does not saturate: {stats:?}"
            );
            for k in 0..servers {
                assert_eq!(ctrl.reserved(k, ClassId(0)), 0.0, "{cell}: server {k}");
            }
            row[d] = digest(&stats);
        }
    }
    assert!(
        computed == *pinned,
        "{name} churn diverged from the pinned table; computed:\n{computed:#018x?}"
    );
}

#[test]
fn line_churn_matches_the_pinned_digests() {
    check("line", line, 600, 50.0, &LINE_DIGESTS);
}

#[test]
fn mci_churn_matches_the_pinned_digests() {
    check("mci", mci, 4000, 600.0, &MCI_DIGESTS);
}

//! The admission fill the packet-level checks simulate, pinned.
//!
//! A simulation of the paper's promise needs a flow set the utilization
//! test admits: every route offered one flow per pass, round-robin in the
//! caller's order, until a whole pass admits nothing. [`reference_fill`]
//! is that fill as the checks first wrote it, a float test
//! `reserved + ρ ≤ α·C + 1e-9` on every link of the route. `PINNED` holds,
//! per instance, the number of flows it admits and an FNV-1a digest of
//! the admitted `(class, route index)` sequence, over 48 seeded random
//! instances and the fixed setting of every check that simulates a fill.
//!
//! Those checks now fill through `UtilizationState::fill_round_robin`,
//! the integer-millibit reservation walk the controller admits with, and
//! it must reproduce the same table: the two tests can disagree only
//! where `α·C` lies within half a millibit below a whole number of flows
//! (`state.rs` tests that edge), and no instance here does.
//!
//! Re-pinning is only legitimate for an intended change of which flows a
//! fill admits: the failure message prints the freshly computed table.

use uba::admission::UtilizationState;
use uba::graph::bfs;
use uba::obs::SplitMix64;
use uba::prelude::*;
use uba::topology::{grid, line, mci, ring, star, torus, waxman};

const RANDOM_CASES: u64 = 48;
const VOICE: f64 = 32_000.0;
const VIDEO: f64 = 400_000.0;

/// `(flows admitted, digest)` per instance: [`random_instance`] 0..48,
/// then [`fixed_sites`] in order.
#[rustfmt::skip]
const PINNED: [(usize, u64); RANDOM_CASES as usize + 15] = [
    (1318, 0x4635081e9f813c53), (24, 0xb2e8fce0b43d81e5), (762, 0x8089ff37d6ce8d34), (32, 0x8bb6da50a04392ff),
    (100, 0x15850e7b393d902d), (1337, 0x41ba432fc2f3d119), (768, 0x06542b38880c2e25), (148, 0xff395144a21aea46),
    (1751, 0x04131e40cfd78af3), (20, 0x3ce65a7c0e2c7145), (102, 0xb30a3ce1ac2077d4), (290, 0x69e609f54a524cb2),
    (124, 0xb4864878f0d2f4e5), (6, 0x1fb4fc5610df65d4), (360, 0xab8e6bd9151b8dc8), (768, 0x06542b38880c2e25),
    (18, 0x86abd29fbeac9b52), (332, 0xa1065b60eb77d549), (700, 0x982288f00e2c4aad), (12, 0xb513bb85ef8b8fa5),
    (909, 0xe4149e1b1a86b51c), (546, 0x916c1f1471e1b0bd), (88, 0x47d5dfb87ad46325), (143, 0x3278cc6bbed050f3),
    (2089, 0x77937da401078876), (0, 0xcbf29ce484222325), (2196, 0x87257a034ac6ac60), (34, 0xb288ba1e09a4099c),
    (38, 0xf6f13fe041c37472), (471, 0xc12d09fade8c1a79), (792, 0x3ea4eb1f50b42735), (60, 0xfb4bdb09c07036a5),
    (1045, 0x7716371dd99429b9), (108, 0xb77fe2b5c9115765), (63, 0xe71a65b390abc39c), (828, 0xdcef3d630ba380cd),
    (1104, 0x1b96977558a1c125), (16, 0x5f3131bf7257f065), (14016, 0x86d99d33ee186e2c), (332, 0x5304729271d0dbed),
    (80, 0xc59e4c30253f2439), (184, 0x5d9e6cd8744d2f95), (592, 0xbc6fb78bd8ff6d2a), (67, 0x4ec8b3a743ac77b1),
    (2522, 0x064a09b5026a9f45), (54, 0x95d989283224eed4), (31, 0xacce6fbf5018bafb), (194, 0x94dd63a1dff36506),
    // The fixed sites.
    (41351, 0x4e92083313b1b583), (128, 0xa2e01125281926b1), (214, 0x8b9040eed216ecdc), (296, 0xc6c9c52dad5f4cb6),
    (379, 0xaf508cb56ca6c962), (458, 0xe931def49be5d0bf), (546, 0x78df68b0cc63bd55), (379, 0xaf508cb56ca6c962),
    (458, 0xe931def49be5d0bf), (56, 0x211fb14b5bbe2bd2), (52, 0xc9c23c5ca4f06c6c), (87, 0xd407be685f4f8c97),
    (161, 0xdc00a67ae9a5e39e), (146, 0xe0e9bf4bf8264dc3), (546, 0x78df68b0cc63bd55),
];

struct Instance {
    name: String,
    paths: Vec<Path>,
    capacities: Vec<f64>,
    /// `(α, ρ)` per class, filled class by class.
    classes: Vec<(f64, f64)>,
}

/// Shortest-path routes for every ordered pair of `g`, in pair order.
fn sp_paths(g: &Digraph) -> Vec<Path> {
    sp_selection(g, &all_ordered_pairs(g)).expect("strongly connected")
}

fn fixed(name: &str, g: &Digraph, capacity: f64, classes: &[(f64, f64)]) -> Instance {
    Instance {
        name: name.into(),
        paths: sp_paths(g),
        capacities: vec![capacity; g.edge_count()],
        classes: classes.to_vec(),
    }
}

/// The setting of every check that simulates a fill: `(α, ρ)` with the
/// topology and capacity it fills.
fn fixed_sites() -> Vec<Instance> {
    let mci = mci();
    let mut sites = vec![fixed(
        "uba-cli simulate paper.toml",
        &mci,
        1e8,
        &[(0.45, VOICE)],
    )];
    for alpha in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30] {
        sites.push(fixed(
            &format!("validate_sim alpha {alpha:.2}"),
            &mci,
            2e6,
            &[(alpha, VOICE)],
        ));
    }
    sites.extend([
        fixed("policing", &mci, 2e6, &[(0.2, VOICE)]),
        fixed("schedulers", &mci, 2e6, &[(0.25, VOICE)]),
        fixed(
            "example validate_simulation",
            &ring(8),
            1e6,
            &[(0.25, VOICE)],
        ),
        fixed("validate_bound ring", &ring(6), 1e6, &[(0.25, VOICE)]),
        fixed("validate_bound grid", &grid(3, 3), 1e6, &[(0.2, VOICE)]),
        fixed("validate_bound mci", &mci, 1e6, &[(0.15, VOICE)]),
        fixed(
            "validate_bound multiclass",
            &ring(6),
            4e6,
            &[(0.15, VOICE), (0.25, VIDEO)],
        ),
        fixed(
            "engine_equiv benchmark_shaped_run",
            &mci,
            2e6,
            &[(0.30, VOICE)],
        ),
    ]);
    sites
}

/// A random strongly connected topology of at most 12 routers, named by
/// its family and size (the families `random_differential` draws).
fn topology(rng: &mut SplitMix64) -> (String, Digraph) {
    match rng.index(6) {
        0 => {
            let n = 3 + rng.index(10);
            (format!("ring({n})"), ring(n))
        }
        1 => {
            let n = 2 + rng.index(11);
            (format!("line({n})"), line(n))
        }
        2 => {
            let spokes = 2 + rng.index(10);
            (format!("star({spokes})"), star(spokes))
        }
        3 => {
            let w = 2 + rng.index(2);
            let h = 2 + rng.index(12 / w - 1);
            (format!("grid({w}, {h})"), grid(w, h))
        }
        4 => {
            let (w, h) = [(3, 3), (3, 4), (4, 3)][rng.index(3)];
            (format!("torus({w}, {h})"), torus(w, h))
        }
        _ => {
            let (n, seed) = (4 + rng.index(9), rng.next_u64());
            (
                format!("waxman({n}, 0.4, 0.5, {seed:#x})"),
                waxman(n, 0.4, 0.5, seed),
            )
        }
    }
}

/// Instance `i`: a random topology carrying voice (32 kb/s) at
/// C ∈ {1, 2, 4} Mb/s, or video (400 kb/s) or voice above video at four
/// times that. Even instances draw each α inside its class's Theorem 4
/// window, as `random_differential` does; odd ones from [0.05, 0.35), as
/// `theorem_props` does.
fn random_instance(i: u64) -> Instance {
    let mut rng = SplitMix64::new(0xF111_0000 + i);
    let (family, g) = topology(&mut rng);
    let capacity = [1e6, 2e6, 4e6][rng.index(3)] * if i.is_multiple_of(3) { 1.0 } else { 4.0 };
    let servers = Servers::from_topology(&g, capacity);
    let diameter = bfs::diameter(&g).expect("strongly connected");
    let fan_in = (0..servers.len())
        .map(|k| servers.fan_in_at(k))
        .max()
        .unwrap_or(2);
    let voice = TrafficClass::voip();
    let video = TrafficClass::new("video", LeakyBucket::new(16_000.0, VIDEO), 0.3);
    let kinds: &[&TrafficClass] = match i % 3 {
        0 => &[&voice],
        1 => &[&video],
        _ => &[&voice, &video],
    };
    let classes: Vec<(f64, f64)> = kinds
        .iter()
        .map(|class| {
            let alpha = if i.is_multiple_of(2) {
                let (lb, ub) = utilization_bounds(fan_in.max(2), diameter.max(1), class);
                if ub > lb {
                    rng.range_f64(lb, ub)
                } else {
                    lb
                }
            } else {
                rng.range_f64(0.05, 0.35)
            };
            (alpha, class.bucket.rate)
        })
        .collect();
    Instance {
        name: format!("case {i}: {family} at C = {capacity}, (alpha, rate) {classes:?}"),
        paths: sp_paths(&g),
        capacities: (0..servers.len()).map(|k| servers.capacity_at(k)).collect(),
        classes,
    }
}

/// The reference oracle: round-robin over `paths`, one flow of `rate` per
/// route per pass while every link of the route has `alpha · C` headroom
/// in `f64`, until a pass admits nothing. Admitted route indices, in
/// admission order.
fn reference_fill(paths: &[Path], capacities: &[f64], alpha: f64, rate: f64) -> Vec<usize> {
    let mut reserved = vec![0.0f64; capacities.len()];
    let mut admitted = Vec::new();
    let mut progress = true;
    while progress {
        progress = false;
        for (i, path) in paths.iter().enumerate() {
            let hops: Vec<usize> = path.edges.iter().map(|e| e.index()).collect();
            if hops
                .iter()
                .all(|&k| reserved[k] + rate <= alpha * capacities[k] + 1e-9)
            {
                for &k in &hops {
                    reserved[k] += rate;
                }
                admitted.push(i);
                progress = true;
            }
        }
    }
    admitted
}

/// `(flows, FNV-1a digest)` of a fill's `(class, route index)` sequence.
fn summary(admitted: &[(usize, usize)]) -> (usize, u64) {
    let digest = admitted
        .iter()
        .flat_map(|&(class, route)| {
            let mut bytes = [0u8; 8];
            bytes[..4].copy_from_slice(&(class as u32).to_le_bytes());
            bytes[4..].copy_from_slice(&(route as u32).to_le_bytes());
            bytes
        })
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (admitted.len(), digest)
}

/// Every class of `inst` filled by `fill(class, alpha, rate)`, class by
/// class.
fn filled(inst: &Instance, mut fill: impl FnMut(usize, f64, f64) -> Vec<usize>) -> (usize, u64) {
    let admitted: Vec<(usize, usize)> = inst
        .classes
        .iter()
        .enumerate()
        .flat_map(|(class, &(alpha, rate))| {
            fill(class, alpha, rate)
                .into_iter()
                .map(move |route| (class, route))
        })
        .collect();
    summary(&admitted)
}

fn instances() -> Vec<Instance> {
    (0..RANDOM_CASES)
        .map(random_instance)
        .chain(fixed_sites())
        .collect()
}

/// Compares `computed` with `PINNED` row by row; on any difference,
/// panics with the differing rows and the whole computed table.
fn assert_pinned(what: &str, insts: &[Instance], computed: &[(usize, u64)]) {
    let mismatches: Vec<String> = insts
        .iter()
        .zip(computed)
        .enumerate()
        .filter(|&(i, (_, got))| PINNED.get(i) != Some(got))
        .map(|(i, (inst, got))| {
            format!(
                "row {i} ({}): got {got:?}, pinned {:?}",
                inst.name,
                PINNED.get(i)
            )
        })
        .collect();
    if !mismatches.is_empty() || PINNED.len() != computed.len() {
        let table: String = computed
            .iter()
            .map(|(flows, digest)| format!("    ({flows}, {digest:#018x}),\n"))
            .collect();
        panic!(
            "{what}: {} row(s) differ from the pinned table:\n{}\ncomputed table:\n[\n{table}]",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}

#[test]
fn reference_fill_matches_the_pinned_table() {
    let insts = instances();
    let computed: Vec<(usize, u64)> = insts
        .iter()
        .map(|inst| {
            filled(inst, |_, alpha, rate| {
                reference_fill(&inst.paths, &inst.capacities, alpha, rate)
            })
        })
        .collect();
    assert_pinned("reference_fill", &insts, &computed);
}

#[test]
fn fill_round_robin_matches_the_pinned_table() {
    let insts = instances();
    let computed: Vec<(usize, u64)> = insts
        .iter()
        .map(|inst| {
            let alphas: Vec<f64> = inst.classes.iter().map(|&(alpha, _)| alpha).collect();
            let state = UtilizationState::new(&inst.capacities, &alphas);
            filled(inst, |class, _, rate| {
                state.fill_round_robin(&inst.paths, class, rate)
            })
        })
        .collect();
    assert_pinned("UtilizationState::fill_round_robin", &insts, &computed);
}

/// Fig. 2 verifies a configuration on the premise `Σρ ≤ α·C` on every
/// link, so the fill the controller admits must keep it in the reals,
/// not only in its integer millibits. On every fixed site, each class's
/// `α·C` is set a hair (0.1 millibit/s) below the whole number of flows
/// its first fill put on the busiest link: a budget rounded to nearest
/// takes that last flow, one rounded down does not.
#[test]
fn a_fill_never_admits_past_alpha_c_in_the_reals() {
    const HAIR: f64 = 1e-4;
    for inst in fixed_sites() {
        let capacity = inst.capacities[0];
        assert!(
            inst.capacities.iter().all(|&c| c == capacity),
            "{}",
            inst.name
        );
        let tight: Vec<f64> = (inst.classes.iter())
            .map(|&(alpha, rate)| ((alpha * capacity / rate).floor() * rate - HAIR) / capacity)
            .collect();
        let state = UtilizationState::new(&inst.capacities, &tight);
        for (class, &(_, rate)) in inst.classes.iter().enumerate() {
            let mut flows = vec![0u32; inst.capacities.len()];
            for route in state.fill_round_robin(&inst.paths, class, rate) {
                for e in &inst.paths[route].edges {
                    flows[e.index()] += 1;
                }
            }
            let budget = tight[class] * capacity;
            let busiest = flows.iter().copied().max().unwrap_or(0);
            assert!(
                f64::from(busiest) * rate <= budget,
                "{} class {class}: {busiest} flows of {rate} b/s on a link with α·C = {budget} b/s",
                inst.name
            );
        }
    }
}

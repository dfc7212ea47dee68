//! `RoutingTable` against a `BTreeMap`.
//!
//! The table is a hash map from `(src, dst, class)` to a route; how the
//! key is hashed is its own business, what a caller sees of it is not:
//! every installed key finds its latest route, every other key finds
//! nothing, `insert` hands back the route it replaced and `len` counts
//! keys. The reference is the same operations on an ordered map, which
//! hashes nothing — so a hasher that loses or merges keys (the torus'
//! dense small ids, the sparse sets' `u32::MAX` and wide class ids) fails
//! here, whatever it does to speed. Written on the SipHash table and
//! unchanged since.

use std::collections::BTreeMap;
use uba_admission::RoutingTable;
use uba_graph::{Digraph, EdgeId, NodeId, Path};
use uba_obs::{check, ensure, SplitMix64};
use uba_routing::{all_ordered_pairs, sp_selection};
use uba_traffic::ClassId;

type Reference = BTreeMap<(u32, u32, usize), Vec<u32>>;

fn servers(path: &Path) -> Vec<u32> {
    path.edges.iter().map(|e| e.0).collect()
}

/// Installs `path` in both; the replaced routes must agree.
fn insert_both(
    table: &mut RoutingTable,
    reference: &mut Reference,
    class: ClassId,
    path: &Path,
) -> Result<(), String> {
    let key = (path.source().unwrap().0, path.target().unwrap().0, class.0);
    let replaced = table.insert(class, path);
    let expected = reference.insert(key, servers(path));
    ensure!(
        replaced.as_deref() == expected.as_deref(),
        "insert at {key:?} replaced {replaced:?}, the reference {expected:?}"
    );
    Ok(())
}

/// Every reference key finds its route, every key of `absent` nothing.
fn agree(
    table: &RoutingTable,
    reference: &Reference,
    absent: impl IntoIterator<Item = (u32, u32, usize)>,
) -> Result<(), String> {
    ensure!(table.len() == reference.len());
    ensure!(table.is_empty() == reference.is_empty());
    for (&(src, dst, class), route) in reference {
        let got = table.route(NodeId(src), NodeId(dst), ClassId(class));
        ensure!(
            got == Some(route.as_slice()),
            "({src}, {dst}, {class}): {got:?}, the reference {route:?}"
        );
    }
    for key in absent {
        if reference.contains_key(&key) {
            continue;
        }
        let got = table.route(NodeId(key.0), NodeId(key.1), ClassId(key.2));
        ensure!(got.is_none(), "{key:?} was never installed, found {got:?}");
    }
    Ok(())
}

/// All ordered pairs of `g` on shortest paths, under each of `classes`.
fn all_pairs(g: &Digraph, classes: &[usize]) -> (RoutingTable, Reference) {
    let paths = sp_selection(g, &all_ordered_pairs(g)).unwrap();
    let mut table = RoutingTable::new();
    let mut reference = Reference::new();
    for &class in classes {
        table.insert_all(ClassId(class), &paths);
        for p in &paths {
            let key = (p.source().unwrap().0, p.target().unwrap().0, class);
            reference.insert(key, servers(p));
        }
    }
    (table, reference)
}

#[test]
fn torus_all_pairs() {
    let g = uba_topology::torus(8, 8);
    let (table, reference) = all_pairs(&g, &[0]);
    assert_eq!(reference.len(), 4032);
    // Absent: the diagonal, the next class, one node past the grid.
    let n = g.node_count() as u32;
    let absent = (0..=n).flat_map(|a| {
        [(a, a, 0), (a, (a + 1) % n, 1), (a, n, 0), (n, a, 0)]
            .into_iter()
            .chain((0..n).map(move |b| (a, b, 1)))
    });
    agree(&table, &reference, absent).unwrap();
}

#[test]
fn mci_two_classes_and_replacement() {
    let g = uba_topology::mci();
    let (mut table, mut reference) = all_pairs(&g, &[0, 1]);
    let n = g.node_count() as u32;
    assert_eq!(reference.len(), 2 * (n * (n - 1)) as usize);
    // Replace every third class-1 route by the one-hop stand-in
    // `[1000 + i]`: the class-0 route of the same pair must not move.
    let pairs = all_ordered_pairs(&g);
    for (i, pair) in pairs.iter().enumerate().step_by(3) {
        let stand_in = Path {
            nodes: vec![pair.src, pair.dst],
            edges: vec![EdgeId(1000 + i as u32)],
        };
        insert_both(&mut table, &mut reference, ClassId(1), &stand_in).unwrap();
    }
    let absent = (0..n).flat_map(|a| [(a, a, 0), (a, a, 1), (a, (a + 1) % n, 2)]);
    agree(&table, &reference, absent).unwrap();
}

/// Ids as configuration never assigns them: the ends of `u32`, bit
/// patterns that differ only high up, classes wider than 32 bits.
const SPARSE_NODES: [u32; 10] = [
    0,
    1,
    2,
    63,
    64,
    0x0001_0000,
    0x8000_0000,
    0x8000_0001,
    u32::MAX - 1,
    u32::MAX,
];
const SPARSE_CLASSES: [usize; 6] = [0, 1, 7, 1 << 20, 1 << 40, usize::MAX];

fn sparse_key(rng: &mut SplitMix64) -> (u32, u32, usize) {
    (
        SPARSE_NODES[rng.index(SPARSE_NODES.len())],
        SPARSE_NODES[rng.index(SPARSE_NODES.len())],
        SPARSE_CLASSES[rng.index(SPARSE_CLASSES.len())],
    )
}

#[test]
fn seeded_sparse_insert_replace_lookup() {
    check("table_equiv.sparse", 64, |rng| {
        let mut table = RoutingTable::new();
        let mut reference = Reference::new();
        for step in 0..1 + rng.index(400) {
            let (src, dst, class) = sparse_key(rng);
            if src == dst {
                continue;
            }
            if rng.index(4) == 0 {
                // A lookup between the inserts: installed or not.
                let got = table.route(NodeId(src), NodeId(dst), ClassId(class));
                let expected = reference.get(&(src, dst, class)).map(Vec::as_slice);
                ensure!(got == expected, "step {step}: {got:?} vs {expected:?}");
                continue;
            }
            let hops = 1 + rng.index(6);
            let path = Path {
                nodes: std::iter::once(NodeId(src))
                    .chain((1..hops).map(|_| NodeId(rng.next_u64() as u32)))
                    .chain(std::iter::once(NodeId(dst)))
                    .collect(),
                edges: (0..hops).map(|_| EdgeId(rng.next_u64() as u32)).collect(),
            };
            insert_both(&mut table, &mut reference, ClassId(class), &path)?;
        }
        let every_key = SPARSE_NODES.iter().flat_map(|&a| {
            SPARSE_NODES
                .iter()
                .flat_map(move |&b| SPARSE_CLASSES.iter().map(move |&c| (a, b, c)))
        });
        agree(&table, &reference, every_key)
    });
}

#[test]
fn seeded_dense_keys_with_absent_probes() {
    // Many keys from a small id range — the shape of a real topology —
    // probed with as many keys that were never installed.
    check("table_equiv.dense", 16, |rng| {
        let nodes = 3 + rng.index(120) as u32;
        let classes = 1 + rng.index(3);
        let mut table = RoutingTable::new();
        let mut reference = Reference::new();
        for _ in 0..rng.index(3000) {
            let (src, dst) = (rng.index(nodes as usize), rng.index(nodes as usize));
            if src == dst {
                continue;
            }
            let path = Path {
                nodes: vec![NodeId(src as u32), NodeId(dst as u32)],
                edges: vec![EdgeId(rng.next_u64() as u32)],
            };
            insert_both(
                &mut table,
                &mut reference,
                ClassId(rng.index(classes)),
                &path,
            )?;
        }
        let probes: Vec<_> = (0..3000)
            .map(|_| {
                (
                    rng.index(nodes as usize + 2) as u32,
                    rng.index(nodes as usize + 2) as u32,
                    rng.index(classes + 1),
                )
            })
            .collect();
        agree(&table, &reference, probes)
    });
}

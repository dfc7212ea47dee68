//! Batch equivalence: `try_admit_batch` must be decision-equivalent to
//! one-by-one admission (the aggregate fitting is order-independent; the
//! fallback replays the sequential walk). These tests drive identical
//! deterministic admit/release sequences (SplitMix64) through two
//! controllers over real topologies (the paper's MCI backbone and rings)
//! and require decision-for-decision agreement.

use uba_admission::{AdmissionController, FlowHandle, FlowSpec, Reject, RoutingTable};
use uba_graph::Digraph;
use uba_obs::SplitMix64;
use uba_routing::{all_ordered_pairs, sp_selection, Pair};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

fn controller_on(g: &Digraph, pairs: &[Pair], alpha: f64) -> AdmissionController {
    let paths = sp_selection(g, pairs).expect("topology is connected");
    let mut table = RoutingTable::new();
    for p in &paths {
        table.insert(ClassId(0), p);
    }
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    AdmissionController::new(table, &classes, &caps, &[alpha])
}

/// A seeded churn workload: arrivals come in batches of 1–8 random
/// pairs, and each admitted flow is dropped after a random number
/// (uniform 1..=512) of later arrivals — lifetimes long enough that the
/// held population saturates links even on the large MCI topology.
/// `admit` decides how a batch is admitted (batched or one-by-one); the
/// RNG draws are identical either way, so two drivers over the same seed
/// see the same flows with the same lifetimes.
fn batched_decision_sequence<F>(
    ctrl: &AdmissionController,
    pairs: &[Pair],
    seed: u64,
    arrivals: usize,
    admit: F,
) -> Vec<bool>
where
    F: Fn(&AdmissionController, &[FlowSpec]) -> Vec<Result<FlowHandle, Reject>>,
{
    let mut rng = SplitMix64::new(seed);
    let mut held: Vec<(usize, FlowHandle)> = Vec::new();
    let mut decisions = Vec::with_capacity(arrivals);
    let mut step = 0usize;
    while step < arrivals {
        held.retain(|(deadline, _)| *deadline > step);
        let batch = (1 + (rng.next_u64() % 8) as usize).min(arrivals - step);
        let specs: Vec<FlowSpec> = (0..batch)
            .map(|_| {
                let p = pairs[(rng.next_u64() as usize) % pairs.len()];
                FlowSpec {
                    class: ClassId(0),
                    src: p.src,
                    dst: p.dst,
                }
            })
            .collect();
        let lifetimes: Vec<usize> = (0..batch)
            .map(|_| 1 + (rng.next_u64() % 512) as usize)
            .collect();
        for (i, r) in admit(ctrl, &specs).into_iter().enumerate() {
            match r {
                Ok(h) => {
                    decisions.push(true);
                    held.push((step + lifetimes[i], h));
                }
                Err(_) => decisions.push(false),
            }
        }
        step += batch;
    }
    decisions
}

fn admit_batched(c: &AdmissionController, specs: &[FlowSpec]) -> Vec<Result<FlowHandle, Reject>> {
    c.try_admit_batch(specs).flows
}

fn admit_one_by_one(
    c: &AdmissionController,
    specs: &[FlowSpec],
) -> Vec<Result<FlowHandle, Reject>> {
    specs
        .iter()
        .map(|s| c.try_admit(s.class, s.src, s.dst))
        .collect()
}

/// Batch admission is decision-equivalent to admitting the same flows
/// one by one: the aggregated fast path admits a
/// batch iff the sequential walk would have admitted every flow, and the
/// fallback replays the sequential walk exactly — so the per-flow
/// decision sequences are identical through saturation churn.
#[test]
fn batch_matches_sequential_on_atomic() {
    for (g, name) in [
        (uba_topology::mci(), "mci"),
        (uba_topology::ring(8), "ring"),
        (uba_topology::ring(6), "ring6"),
    ] {
        let pairs = all_ordered_pairs(&g);
        for seed in [7, 42] {
            let batched = controller_on(&g, &pairs, 0.2);
            let sequential = controller_on(&g, &pairs, 0.2);
            let b = batched_decision_sequence(&batched, &pairs, seed, 2_000, admit_batched);
            let s = batched_decision_sequence(&sequential, &pairs, seed, 2_000, admit_one_by_one);
            assert!(b.iter().any(|&d| d), "{name}/{seed}: no admissions");
            assert!(b.iter().any(|&d| !d), "{name}/{seed}: no rejections");
            assert_eq!(b, s, "{name}/{seed}: batch disagreed with sequential");
        }
    }
}

/// A batch the fast path admits is order-independent: the same flows
/// admitted one by one succeed in forward *and* reverse order (the
/// aggregate fitting every touched cell is a symmetric condition).
#[test]
fn fast_path_batches_admit_in_either_order() {
    let g = uba_topology::ring(8);
    let pairs = all_ordered_pairs(&g);
    // alpha 0.2 on 1 Mb/s = 6 voip flows per link; a 6-flow batch of
    // mixed pairs fits from empty.
    let specs: Vec<FlowSpec> = (0..6)
        .map(|i| {
            let p = pairs[(i * 5) % pairs.len()];
            FlowSpec {
                class: ClassId(0),
                src: p.src,
                dst: p.dst,
            }
        })
        .collect();
    let ctrl = controller_on(&g, &pairs, 0.2);
    let out = ctrl.try_admit_batch(&specs);
    assert!(
        out.fast_path,
        "6 flows against empty budgets must fast-path"
    );
    assert_eq!(out.admitted(), specs.len());
    drop(out);
    for reverse in [false, true] {
        let ctrl = controller_on(&g, &pairs, 0.2);
        let mut order = specs.clone();
        if reverse {
            order.reverse();
        }
        let handles = admit_one_by_one(&ctrl, &order);
        assert!(
            handles.iter().all(Result::is_ok),
            "sequential admit (reverse={reverse}) must admit the whole fast-path batch"
        );
    }
}

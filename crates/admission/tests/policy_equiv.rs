//! Policy-pipeline equivalence: a `Static` (utilization-only) chain
//! must make exactly the decisions the pre-refactor controller made.
//!
//! The composable `PolicyChain` threads every admission through zero or
//! more shaping stages before the backend reservation. The refactor's
//! safety bar (ISSUE 9, ROADMAP item 2) is that the empty chain is a
//! true no-op: a controller built through the policy-aware constructor
//! with `PolicyChain::static_only()` is decision-for-decision identical
//! to the default constructor — per-flow and batched,
//! over real topologies, through saturation churn — and leaves bitwise
//! identical reservation state behind. A `Static` chain also never
//! reads any clock, so the `_at` variants with arbitrary timestamps
//! must match the clockless calls exactly.
//!
//! The last test is the non-vacuity check: a chain with a real shaping
//! stage *does* diverge on the same workload, so these assertions are
//! capable of failing.

use uba_admission::{
    AdmissionController, BackendKind, ConfigGeneration, FlowHandle, FlowSpec, PolicyChain, Reject,
    RoutingTable, TokenBucketStage,
};
use uba_graph::Digraph;
use uba_obs::SplitMix64;
use uba_routing::{all_ordered_pairs, sp_selection, Pair};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

const ALPHA: f64 = 0.2;

fn generation(g: &Digraph, pairs: &[Pair], chain: PolicyChain) -> ConfigGeneration {
    let paths = sp_selection(g, pairs).expect("topology is connected");
    let mut table = RoutingTable::new();
    for p in &paths {
        table.insert(ClassId(0), p);
    }
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    ConfigGeneration::with_policy(table, &classes, &caps, &[ALPHA], BackendKind::Atomic, chain)
}

/// The pre-refactor construction path: no mention of policy anywhere.
fn prerefactor(g: &Digraph, pairs: &[Pair]) -> AdmissionController {
    let paths = sp_selection(g, pairs).expect("topology is connected");
    let mut table = RoutingTable::new();
    for p in &paths {
        table.insert(ClassId(0), p);
    }
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    AdmissionController::new(table, &classes, &caps, &[ALPHA])
}

fn static_chain(g: &Digraph, pairs: &[Pair]) -> AdmissionController {
    AdmissionController::from_generation(generation(g, pairs, PolicyChain::static_only()))
}

/// Seeded saturation churn via a caller-chosen admit function; returns
/// the decision sequence. Identical RNG draws regardless of how `admit`
/// decides, so two drivers over one seed see the same flows.
fn drive<F>(
    ctrl: &AdmissionController,
    pairs: &[Pair],
    seed: u64,
    arrivals: usize,
    admit: F,
) -> Vec<bool>
where
    F: Fn(
        &AdmissionController,
        ClassId,
        uba_graph::NodeId,
        uba_graph::NodeId,
        usize,
    ) -> Result<FlowHandle, Reject>,
{
    let mut rng = SplitMix64::new(seed);
    let mut held: Vec<(usize, FlowHandle)> = Vec::new();
    let mut decisions = Vec::with_capacity(arrivals);
    for step in 0..arrivals {
        held.retain(|(deadline, _)| *deadline > step);
        let p = pairs[(rng.next_u64() as usize) % pairs.len()];
        let lifetime = 1 + (rng.next_u64() % 512) as usize;
        match admit(ctrl, ClassId(0), p.src, p.dst, step) {
            Ok(h) => {
                decisions.push(true);
                held.push((step + lifetime, h));
            }
            Err(_) => decisions.push(false),
        }
    }
    decisions
}

/// Batched churn: seeded batches of 1–8 through `try_admit_batch` (or
/// the `_at` variant when `t` is given).
fn drive_batched(
    ctrl: &AdmissionController,
    pairs: &[Pair],
    seed: u64,
    arrivals: usize,
    t: Option<f64>,
) -> Vec<bool> {
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
        let out = match t {
            Some(t) => ctrl.try_admit_batch_at(&specs, t),
            None => ctrl.try_admit_batch(&specs),
        };
        for (i, r) in out.flows.into_iter().enumerate() {
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

fn topologies() -> Vec<(Digraph, &'static str)> {
    vec![
        (uba_topology::mci(), "mci"),
        (uba_topology::ring(8), "ring"),
    ]
}

/// Per-flow: the `Static` chain is decision-identical to the
/// pre-refactor controller and leaves identical occupancy behind.
#[test]
fn static_chain_matches_prerefactor_per_flow() {
    for (g, name) in topologies() {
        let pairs = all_ordered_pairs(&g);
        for seed in [7, 42] {
            let old = prerefactor(&g, &pairs);
            let new = static_chain(&g, &pairs);
            let a = drive(&old, &pairs, seed, 2_000, |c, cl, s, d, _| {
                c.try_admit(cl, s, d)
            });
            let b = drive(&new, &pairs, seed, 2_000, |c, cl, s, d, _| {
                c.try_admit(cl, s, d)
            });
            assert!(a.iter().any(|&d| d), "{name}/{seed}: no admissions");
            assert!(a.iter().any(|&d| !d), "{name}/{seed}: no rejections");
            assert_eq!(a, b, "{name}/{seed}: static chain diverged");
            assert_eq!(
                old.occupancy_snapshot(ClassId(0)),
                new.occupancy_snapshot(ClassId(0)),
                "{name}/{seed}: residual occupancy diverged"
            );
        }
    }
}

/// Batched: the aggregated fast path and its fallback agree with the
/// pre-refactor controller under a `Static` chain.
#[test]
fn static_chain_matches_prerefactor_batched() {
    for (g, name) in topologies() {
        let pairs = all_ordered_pairs(&g);
        let old = prerefactor(&g, &pairs);
        let new = static_chain(&g, &pairs);
        let a = drive_batched(&old, &pairs, 99, 2_000, None);
        let b = drive_batched(&new, &pairs, 99, 2_000, None);
        assert!(a.iter().any(|&d| !d), "{name}: workload must saturate");
        assert_eq!(a, b, "{name}: static chain diverged on batches");
        assert_eq!(
            old.occupancy_snapshot(ClassId(0)),
            new.occupancy_snapshot(ClassId(0)),
            "{name}: residual occupancy diverged"
        );
    }
}

/// A `Static` chain never consults the decision clock: driving the `_at`
/// variants with hostile timestamps (zero, huge, even going backwards)
/// changes nothing against the clockless calls.
#[test]
fn static_chain_ignores_the_decision_clock() {
    let g = uba_topology::ring(8);
    let pairs = all_ordered_pairs(&g);
    let reference = {
        let ctrl = static_chain(&g, &pairs);
        drive(&ctrl, &pairs, 7, 1_500, |c, cl, s, d, _| {
            c.try_admit(cl, s, d)
        })
    };
    // Timestamps that would wreck any stage actually reading them:
    // alternating between a huge future and far past per call.
    let hostile = {
        let ctrl = static_chain(&g, &pairs);
        drive(&ctrl, &pairs, 7, 1_500, |c, cl, s, d, step| {
            let t = if step % 2 == 0 { 1e12 } else { -1e12 };
            c.try_admit_at(cl, s, d, t)
        })
    };
    assert_eq!(reference, hostile, "static chain read the clock");

    let batch_ref = {
        let ctrl = static_chain(&g, &pairs);
        drive_batched(&ctrl, &pairs, 99, 1_500, None)
    };
    let batch_at = {
        let ctrl = static_chain(&g, &pairs);
        drive_batched(&ctrl, &pairs, 99, 1_500, Some(1e12))
    };
    assert_eq!(batch_ref, batch_at, "static batch path read the clock");
}

/// Non-vacuity: a chain with a real shaping stage diverges on exactly
/// this workload, and the divergence is all in the shaped direction
/// (the shaped controller admits a subset, never an extra flow).
#[test]
fn shaped_chain_actually_diverges() {
    let g = uba_topology::ring(8);
    let pairs = all_ordered_pairs(&g);
    let reference = {
        let ctrl = static_chain(&g, &pairs);
        drive(&ctrl, &pairs, 7, 1_000, |c, cl, s, d, _| {
            c.try_admit(cl, s, d)
        })
    };
    // One flow of depth, no refill at a frozen t=0: after the first
    // admission every later request hits the bucket.
    let rate = TrafficClass::voip().bucket.rate;
    let mut chain = PolicyChain::static_only();
    chain.push(Box::new(TokenBucketStage::new(0.0, rate, &[rate])));
    let shaped = {
        let ctrl = AdmissionController::from_generation(generation(&g, &pairs, chain));
        drive(&ctrl, &pairs, 7, 1_000, |c, cl, s, d, _| {
            c.try_admit_at(cl, s, d, 0.0)
        })
    };
    assert_ne!(reference, shaped, "shaping stage had no effect");
    let extra = reference
        .iter()
        .zip(&shaped)
        .filter(|(r, s)| **s && !**r)
        .count();
    assert_eq!(
        extra, 0,
        "shaped chain admitted flows the static chain rejected"
    );
    assert_eq!(
        shaped.iter().filter(|&&d| d).count(),
        1,
        "depth-one bucket with no refill must admit exactly one flow"
    );
}

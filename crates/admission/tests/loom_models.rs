//! Model checks of the admission core's concurrency protocols.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg loom"`, where
//! `uba_obs::sync` resolves the admission atomics/locks to `uba-loom`'s
//! modeled primitives and every atomic op becomes an explored schedule
//! point. Run via:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
//!     cargo test -p uba-admission --test loom_models
//! ```
//!
//! Every model runs full DFS with dynamic partial-order reduction
//! (`uba_loom::model`) and must complete: each explores every
//! interleaving and every weak-memory read choice. `results/loom_models.txt`
//! holds each model's schedule count with and without the reduction.
//!
//! What is being proven (see the `uba-loom` crate docs for what the
//! checker does and does not model):
//!
//! 1. The class budget is never exceeded by concurrent reservations,
//!    concurrent release republishes headroom exactly, and a multi-hop
//!    path reservation that loses a later hop rolls its prefix back
//!    without residue.
//! 2. An admit racing a reconfigure lands on exactly one generation —
//!    never lost, never double-counted.
//! 3. A pinned `FlowHandle` always releases against the generation that
//!    admitted it, even when the drop races a reconfigure.
//! 4. The trace ring never tears an event under concurrent publish and
//!    drain.
//! 5. A *batched* admit racing a reconfigure never strands a
//!    reservation: the whole batch lands on one generation and balances
//!    to zero when its handles drop.
//! 6. The policy token bucket never over-grants: concurrent admits
//!    racing each other (and racing the CAS-claimed refill interval)
//!    can never jointly draw more than the burst depth, and a refunded
//!    grab restores the balance exactly.
//! 7. Reserve-up-to-`n` over crossing routes shares a budget without
//!    ever exceeding it: each call leaves exactly the flows it reports on
//!    every cell of its route, however its clip-and-roll-back interleaves
//!    with the other's, and the cells balance to zero on release.
//! 8. The token bucket's grant-up-to-`n` racing the refill claim and a
//!    second grant hands out exactly what one interval's credit covers.
//! 9. `drain` never reports a generation drained while a flow admitted
//!    on it still holds its link — also when the flow pinned the
//!    generation only after a reconfigure displaced it, or after a
//!    `drain` pruned it.

#![cfg(loom)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use uba_admission::{
    AdmissionController, ConfigGeneration, FlowSpec, PolicyStage, RoutingTable, TokenBucketStage,
    UtilizationState,
};
use uba_graph::{Digraph, NodeId, Path};
use uba_loom::{model, Exploration};
use uba_obs::{EventKind, Tracer};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// Every model in this file must fully explore its schedule space — a
/// truncated search would be a silent coverage hole. The telemetry line
/// (visible under `--nocapture`) is what `results/loom_models.txt`
/// records.
fn assert_complete(e: Exploration) {
    eprintln!("uba-loom exploration: {e:?}");
    assert!(
        e.complete,
        "exploration truncated by the iteration cap: {e:?}"
    );
    assert!(e.executions > 1, "model has no concurrency at all");
}

// --- Model 1: budget safety of the reservation state ------------------

/// Two concurrent reservations against a budget that fits only one:
/// never may both win, the loser leaves no residue, and *some* flow wins
/// (the first CAS to execute succeeds).
#[test]
fn budget_admits_exactly_one_of_two() {
    // Budget 1000 bits/s; each flow wants 600 — one fits, two never do.
    assert_complete(model(|| {
        let b = Arc::new(UtilizationState::new(&[1000.0], &[1.0]));
        let b2 = Arc::clone(&b);
        let rival = uba_loom::thread::spawn(move || b2.try_reserve_path(&[0], 0, 600.0).is_ok());
        let mine = b.try_reserve_path(&[0], 0, 600.0).is_ok();
        let theirs = rival.join().unwrap();
        assert!(!(mine && theirs), "budget 1000 admitted two flows of 600");
        assert!(mine || theirs, "budget 1000 admitted 0 flows of 600");
        assert_eq!(b.reserved(0, 0), 600.0, "loser left residue");
    }));
}

/// Two-hop reservations over the same two cells in opposite hop order,
/// each cell budgeted for one flow: at most one path is admitted, and a
/// path that wins its first hop but loses the second rolls the first
/// back — both cells end holding exactly the winner's rate, or nothing
/// when the two prefixes blocked each other. The tally proves the
/// exploration reaches that double-rollback schedule.
#[test]
fn crossing_paths_admit_at_most_one_and_roll_back_cleanly() {
    let both_lost = Arc::new(AtomicUsize::new(0));
    let tally = Arc::clone(&both_lost);
    assert_complete(model(move || {
        let b = Arc::new(UtilizationState::new(&[1000.0, 1000.0], &[1.0]));
        let b2 = Arc::clone(&b);
        let rival = uba_loom::thread::spawn(move || b2.try_reserve_path(&[1, 0], 0, 600.0).is_ok());
        let mine = b.try_reserve_path(&[0, 1], 0, 600.0).is_ok();
        let theirs = rival.join().unwrap();
        assert!(!(mine && theirs), "two 600 flows share a 1000 cell");
        let expected = if mine || theirs {
            600.0
        } else {
            tally.fetch_add(1, Ordering::Relaxed);
            0.0
        };
        assert_eq!(
            b.reserved(0, 0),
            expected,
            "rollback left residue on cell 0"
        );
        assert_eq!(
            b.reserved(1, 0),
            expected,
            "rollback left residue on cell 1"
        );
    }));
    assert!(
        both_lost.load(Ordering::Relaxed) > 0,
        "no schedule had both prefixes block each other"
    );
}

/// Concurrent reserve/release churn: whatever interleaving happens, all
/// successfully reserved headroom is returned exactly — the cell
/// balances to zero and never exceeds its budget in between (the
/// state's own over-release assert fires inside the model otherwise).
#[test]
fn reserve_release_balances_to_zero() {
    assert_complete(model(|| {
        let b = Arc::new(UtilizationState::new(&[1000.0], &[1.0]));
        let b2 = Arc::clone(&b);
        let peer = uba_loom::thread::spawn(move || {
            if b2.try_reserve_path(&[0], 0, 600.0).is_ok() {
                b2.release_path(&[0], 0, 600.0);
            }
        });
        if b.try_reserve_path(&[0], 0, 600.0).is_ok() {
            b.release_path(&[0], 0, 600.0);
        }
        peer.join().unwrap();
        assert_eq!(b.reserved(0, 0), 0.0, "released headroom must all return");
    }));
}

// --- Model 7: reserve up to n ------------------------------------------

/// Two runs of two 300 b/s flows each, over the same two cells in
/// opposite hop order, each cell budgeted for three flows. Whatever one
/// call takes on its first hop and gives back after its second clipped
/// it, no cell is ever read above its budget, the two grants fit the
/// budget together, each call leaves exactly its grant on both cells (so
/// the cells read the sum), a clipped call names the full cell, and
/// releasing both grants returns every cell to zero.
#[test]
fn crossing_up_to_reservations_share_the_budget_and_leave_exact_grants() {
    const RATE: f64 = 300.0;
    assert_complete(model(|| {
        let b = Arc::new(UtilizationState::new(&[1000.0, 1000.0], &[1.0]));
        let b2 = Arc::clone(&b);
        let rival = uba_loom::thread::spawn(move || b2.try_reserve_path_up_to(&[1, 0], 0, RATE, 2));
        let mine = b.try_reserve_path_up_to(&[0, 1], 0, RATE, 2);
        // Races the rival's walk, transient over-reach included.
        for cell in 0..2 {
            assert!(b.reserved(cell, 0) <= 1000.0, "cell {cell} above budget");
        }
        let theirs = rival.join().unwrap();
        let total = mine.flows + theirs.flows;
        assert!(total <= 3, "{total} flows of 300 in a 1000 budget");
        assert!(total >= 2, "three flows fit; the runs blocked each other");
        for grant in [mine, theirs] {
            assert_eq!(grant.full.is_some(), grant.flows < 2, "{grant:?}");
        }
        for cell in 0..2 {
            assert_eq!(
                b.reserved(cell, 0),
                total as f64 * RATE,
                "cell {cell} holds something other than the two grants"
            );
        }
        b.release_path(&[0, 1], 0, mine.flows as f64 * RATE);
        b.release_path(&[1, 0], 0, theirs.flows as f64 * RATE);
        for cell in 0..2 {
            assert_eq!(b.reserved(cell, 0), 0.0, "residue on cell {cell}");
        }
    }));
}

// --- Models 2 and 3: generation swap integrity -----------------------

/// One link 0 -> 1 with a configured route for class 0.
fn one_link_table() -> RoutingTable {
    let mut g = Digraph::with_nodes(2);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let mut table = RoutingTable::new();
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e01]));
    table
}

fn fresh_generation() -> ConfigGeneration {
    ConfigGeneration::new(
        one_link_table(),
        &ClassSet::single(TrafficClass::voip()),
        &[1e6],
        &[0.5],
    )
}

/// An admit racing a reconfigure resolves to exactly one generation:
/// its reservation exists on that generation's backend (and only there)
/// while the handle lives, and disappears entirely when it drops.
#[test]
fn admit_racing_reconfigure_is_never_lost_or_double_counted() {
    assert_complete(model(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::from_generation_unmetered(ConfigGeneration::new(
            one_link_table(),
            &classes,
            &[1e6],
            &[0.5],
        ));
        let gen1 = ctrl.current_generation();

        let c = ctrl.clone();
        let admitter =
            uba_loom::thread::spawn(move || c.try_admit(ClassId(0), NodeId(0), NodeId(1)).ok());
        let c = ctrl.clone();
        let swapper = uba_loom::thread::spawn(move || c.reconfigure(fresh_generation()));

        let handle = admitter
            .join()
            .unwrap()
            .expect("both generations have ample budget");
        let report = swapper.join().unwrap();
        let gen2 = ctrl.current_generation();
        assert_eq!(gen2.id(), report.generation);

        let rate = handle.rate();
        let on1 = gen1.backend().reserved(0, 0);
        let on2 = gen2.backend().reserved(0, 0);
        if handle.generation() == gen1.id() {
            assert_eq!((on1, on2), (rate, 0.0), "admit must land on gen1 only");
        } else {
            assert_eq!(
                handle.generation(),
                gen2.id(),
                "unknown admitting generation"
            );
            assert_eq!((on1, on2), (0.0, rate), "admit must land on gen2 only");
        }

        drop(handle);
        assert_eq!(gen1.backend().reserved(0, 0), 0.0);
        assert_eq!(gen2.backend().reserved(0, 0), 0.0);
        assert_eq!(gen1.pinned() + gen2.pinned(), 0);
        assert!(ctrl.drain().is_drained());
    }));
}

/// A handle admitted *before* a reconfigure releases against its own
/// (now retired) generation, no matter how the drop interleaves with
/// the swap — the new generation's budgets are never touched.
#[test]
fn pinned_handle_releases_against_its_admitting_generation() {
    assert_complete(model(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::from_generation_unmetered(ConfigGeneration::new(
            one_link_table(),
            &classes,
            &[1e6],
            &[0.5],
        ));
        let gen1 = ctrl.current_generation();
        let handle = ctrl
            .try_admit(ClassId(0), NodeId(0), NodeId(1))
            .expect("empty controller must admit");
        assert_eq!(handle.generation(), gen1.id());
        assert_eq!(gen1.pinned(), 1);

        let c = ctrl.clone();
        let swapper = uba_loom::thread::spawn(move || c.reconfigure(fresh_generation()));
        drop(handle); // races the swap
        let report = swapper.join().unwrap();

        assert_eq!(report.previous, gen1.id());
        assert!(report.pinned_previous <= 1);
        assert_eq!(gen1.pinned(), 0, "drop must unpin the admitting generation");
        assert_eq!(gen1.backend().reserved(0, 0), 0.0, "release went to gen1");
        let gen2 = ctrl.current_generation();
        assert_eq!(gen2.backend().reserved(0, 0), 0.0, "gen2 was never touched");
        assert!(ctrl.drain().is_drained());
    }));
}

/// A batched admit racing a reconfigure never strands a reservation:
/// the whole batch resolves to exactly one generation, every handle
/// releases against that generation, and once the handles drop both
/// generations balance to zero and the controller drains.
#[test]
fn batch_admit_racing_reconfigure_strands_nothing() {
    assert_complete(model(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::from_generation_unmetered(ConfigGeneration::new(
            one_link_table(),
            &classes,
            &[1e6],
            &[0.5],
        ));
        let gen1 = ctrl.current_generation();

        let c = ctrl.clone();
        let admitter = uba_loom::thread::spawn(move || {
            let spec = FlowSpec {
                class: ClassId(0),
                src: NodeId(0),
                dst: NodeId(1),
            };
            c.try_admit_batch(&[spec, spec])
        });
        let c = ctrl.clone();
        let swapper = uba_loom::thread::spawn(move || c.reconfigure(fresh_generation()));

        let out = admitter.join().unwrap();
        swapper.join().unwrap();
        let gen2 = ctrl.current_generation();
        assert!(out.fast_path, "ample budget: the aggregate always fits");
        assert_eq!(out.admitted(), 2, "ample budget must admit the batch");

        let handles = out.into_handles();
        let admitted_on = handles[0].generation();
        assert!(
            handles.iter().all(|h| h.generation() == admitted_on),
            "a batch must land on exactly one generation"
        );
        let batch_rate = 2.0 * handles[0].rate();
        let (on1, on2) = (gen1.backend().reserved(0, 0), gen2.backend().reserved(0, 0));
        if admitted_on == gen1.id() {
            assert_eq!(
                (on1, on2),
                (batch_rate, 0.0),
                "batch must land on gen1 only"
            );
        } else {
            assert_eq!(admitted_on, gen2.id(), "unknown admitting generation");
            assert_eq!(
                (on1, on2),
                (0.0, batch_rate),
                "batch must land on gen2 only"
            );
        }

        drop(handles);
        assert_eq!(
            gen1.backend().reserved(0, 0),
            0.0,
            "reservation stranded on gen1"
        );
        assert_eq!(
            gen2.backend().reserved(0, 0),
            0.0,
            "reservation stranded on gen2"
        );
        assert_eq!(gen1.pinned() + gen2.pinned(), 0);
        assert!(ctrl.drain().is_drained());
    }));
}

// --- Model 9: drain counts a flow pinned across the swap -------------

/// An admit racing a reconfigure (and, with `drain_in_swapper`, the
/// swapper's own `drain` right after it): whichever generation the flow
/// lands on, `drain` reports it for as long as its handle lives. A flow
/// that reserved on the displaced generation but pinned it only after
/// the swap read its pin count (or after a drain pruned it) must still
/// keep that generation on the retired list.
fn drain_sees_a_flow_pinned_across_the_swap(drain_in_swapper: bool) {
    let ctrl = AdmissionController::from_generation_unmetered(fresh_generation());
    let gen1 = ctrl.current_generation().id();

    let c = ctrl.clone();
    let admitter =
        uba_loom::thread::spawn(move || c.try_admit(ClassId(0), NodeId(0), NodeId(1)).ok());
    let c = ctrl.clone();
    let swapper = uba_loom::thread::spawn(move || {
        c.reconfigure(fresh_generation());
        if drain_in_swapper {
            c.drain();
        }
    });

    let handle = admitter
        .join()
        .unwrap()
        .expect("both generations have ample budget");
    swapper.join().unwrap();
    let status = ctrl.drain();
    if handle.generation() == gen1 {
        assert_eq!(
            status.retired,
            vec![(gen1, 1)],
            "drain lost a flow that still holds gen1's link"
        );
    } else {
        assert!(status.is_drained(), "gen1 holds nothing: {status:?}");
    }
    drop(handle);
    assert!(ctrl.drain().is_drained());
}

#[test]
fn drain_counts_a_flow_pinned_across_the_swap() {
    assert_complete(model(|| drain_sees_a_flow_pinned_across_the_swap(false)));
}

#[test]
fn drain_racing_an_admit_keeps_its_generation() {
    assert_complete(model(|| drain_sees_a_flow_pinned_across_the_swap(true)));
}

// --- Model 6: policy token bucket never over-grants -------------------

/// Two concurrent grabs racing each other's refill of the *same*
/// elapsed interval: the CAS-claimed `[last, t]` window must be
/// credited exactly once, however the schedules interleave. The bucket
/// is pre-drained to empty, then both threads admit at a `t` whose
/// single refill credit covers one flow but not two — if any schedule
/// let both refills bank the interval (or one refill bank it twice),
/// both grabs would fit and the model fails. The winner's refund must
/// then restore the balance exactly.
fn token_bucket_interval_race() {
    // Rate 600 b/s, depth 1000 bits, flow cost 500 bits. Drain the
    // initial depth at t=0 (no elapsed time, so no refill), leaving
    // an empty bucket whose only future credit is elapsed time.
    let tb = Arc::new(TokenBucketStage::new(600.0, 1000.0, &[500.0]));
    assert!(tb.admit_n(0, 2, 0.0), "full depth-1000 bucket holds 2×500");
    assert_eq!(tb.tokens_bits(0), 0.0, "pre-drain must empty the bucket");

    // At t=1.0 the interval [0, 1] is worth one credit of 600 bits:
    // exactly one 500-bit grab fits. Two winners would mean the
    // interval was credited twice (1200 banked).
    let tb2 = Arc::clone(&tb);
    let rival = uba_loom::thread::spawn(move || tb2.admit_n(0, 1, 1.0));
    let mine = tb.admit_n(0, 1, 1.0);
    let theirs = rival.join().unwrap();
    assert!(
        !(mine && theirs),
        "a 600-bit refill interval was credited twice (two 500-bit grabs won)"
    );
    assert!(
        mine || theirs,
        "600 banked bits must admit one 500-bit flow"
    );
    let left = tb.tokens_bits(0);
    assert!(
        (left - 100.0).abs() < 1e-9,
        "one credit minus one grab must leave 100 bits, got {left}"
    );
    // The winner's refund restores the balance exactly (a rejected
    // later stage or backend must leave no residue in the bucket).
    tb.refund_n(0, 1);
    let back = tb.tokens_bits(0);
    assert!(
        (back - 600.0).abs() < 1e-9,
        "refund must restore the grab exactly, got {back}"
    );
}

#[test]
fn token_bucket_refill_racing_admits_never_credits_an_interval_twice() {
    assert_complete(model(token_bucket_interval_race));
}

/// The same race under weak memory must actually *exercise* stale
/// visibility: the stage's Acquire/Relaxed loads observe old stores in
/// some schedules (the telemetry proves it), and the interval still
/// cannot be credited twice — the CAS interval claim reads the newest
/// store in the modification order by construction, so correctness
/// never depended on silent `SeqCst` upgrades.
#[test]
fn token_bucket_refill_survives_stale_visibility() {
    let explored = model(token_bucket_interval_race);
    assert!(explored.complete, "truncated: {explored:?}");
    assert!(
        explored.stale_reads > 0,
        "weak-memory mode must exercise stale loads: {explored:?}"
    );
}

// --- Model 8: token bucket grants up to n -----------------------------

/// Two runs of two 250-bit flows each racing for one refill interval.
/// The bucket is drained at `t = 0`; at `t = 1` the interval `[0, 1]` is
/// worth 600 bits — two flows, not four. Whichever call claims the
/// interval, and whether the other reads the tokens before or after the
/// credit lands, the grants sum to exactly two, the bucket keeps the
/// 100-bit remainder, and refunding both restores the credit exactly.
#[test]
fn token_bucket_up_to_grants_share_one_interval_exactly() {
    assert_complete(model(|| {
        let tb = Arc::new(TokenBucketStage::new(600.0, 1000.0, &[250.0]));
        assert_eq!(tb.admit_up_to(0, 9, 0.0), 4, "depth 1000 holds 4×250");
        assert_eq!(tb.tokens_bits(0), 0.0, "pre-drain must empty the bucket");
        let tb2 = Arc::clone(&tb);
        let rival = uba_loom::thread::spawn(move || tb2.admit_up_to(0, 2, 1.0));
        let mine = tb.admit_up_to(0, 2, 1.0);
        let theirs = rival.join().unwrap();
        assert_eq!(
            mine + theirs,
            2,
            "one 600-bit interval covers exactly two 250-bit flows ({mine} + {theirs})"
        );
        let left = tb.tokens_bits(0);
        assert!(
            (left - 100.0).abs() < 1e-9,
            "600 − 2×250 leaves 100, got {left}"
        );
        tb.refund_n(0, mine);
        tb.refund_n(0, theirs);
        let back = tb.tokens_bits(0);
        assert!(
            (back - 600.0).abs() < 1e-9,
            "refunds must restore 600, got {back}"
        );
    }));
}

// --- Model 4: trace ring integrity -----------------------------------

/// Concurrent emits and a racing drain: every event comes out exactly
/// once and bitwise-whole (fields of the two writers are never mixed),
/// regardless of where the drain lands between the publishes.
#[test]
fn trace_ring_never_tears_an_event_under_publish_drain() {
    assert_complete(model(|| {
        let t = Arc::new(Tracer::with_capacity(4));
        t.set_enabled(true);
        let t1 = Arc::clone(&t);
        let a = uba_loom::thread::spawn(move || {
            t1.emit(EventKind::Admit, 1, 1, 7, 1.5, 2.5);
        });
        let t2 = Arc::clone(&t);
        let b = uba_loom::thread::spawn(move || {
            t2.emit(EventKind::Release, 2, 2, 8, 10.5, 20.5);
        });
        let mid = t.drain(); // races both emits
        a.join().unwrap();
        b.join().unwrap();
        let last = t.drain();

        let mut seen = 0usize;
        for ev in mid.events.iter().chain(last.events.iter()) {
            match ev.flow {
                1 => assert_eq!(
                    (ev.kind, ev.class, ev.server, ev.a, ev.b),
                    (EventKind::Admit, 1, 7, 1.5, 2.5),
                    "torn event: {ev:?}"
                ),
                2 => assert_eq!(
                    (ev.kind, ev.class, ev.server, ev.a, ev.b),
                    (EventKind::Release, 2, 8, 10.5, 20.5),
                    "torn event: {ev:?}"
                ),
                _ => panic!("event from nowhere: {ev:?}"),
            }
            seen += 1;
        }
        assert_eq!(seen, 2, "each emitted event surfaces exactly once");
        assert_eq!(mid.dropped + last.dropped, 0);
    }));
}

//! Live-reconfiguration stress: admitters, releases, and generation
//! swaps all racing, with an observer asserting the budget invariant the
//! whole time.
//!
//! The safety claim under test: at every instant, every generation's
//! backend holds `reserved ≤ budget` on every (server, class) — the
//! paper's admission guarantee — no matter how `reconfigure` interleaves
//! with admissions, and when everything drains, every generation
//! balances back to exactly zero (releases always land on the admitting
//! generation).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use uba_admission::{AdmissionController, ConfigGeneration, RoutingTable};
use uba_graph::{Digraph, NodeId, Path};
use uba_obs::SplitMix64;
use uba_traffic::{ClassId, ClassSet, TrafficClass};

const ADMITTERS: usize = 4;
const ARRIVALS_PER_THREAD: usize = 4_000;
const RECONFIGURES: usize = 12;

/// 0 -> 1 -> 2 with routes (0,2) and (1,2); link 1->2 is shared, so the
/// two pairs contend for the same budget.
fn build_generation(alpha: f64) -> ConfigGeneration {
    let mut g = Digraph::with_nodes(3);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
    let mut table = RoutingTable::new();
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
    ConfigGeneration::new(
        table,
        &ClassSet::single(TrafficClass::voip()),
        &vec![1e6; g.edge_count()],
        &[alpha],
    )
}

/// Every generation's backend must satisfy `reserved ≤ budget` on every
/// (server, class) cell — exactly, with no epsilon: a mid-flight
/// reading is one atomic load of the counter the CAS loop guards.
fn assert_budget_invariant(generations: &[Arc<ConfigGeneration>]) {
    for g in generations {
        let backend = g.backend();
        for server in 0..backend.servers() {
            for class in 0..backend.classes() {
                let reserved = backend.reserved(server, class);
                let budget = backend.budget(server, class);
                assert!(
                    reserved <= budget,
                    "generation {}: server {server} class {class} holds {reserved} of {budget}",
                    g.id()
                );
            }
        }
    }
}

#[test]
fn concurrent_reconfigure_never_violates_budgets() {
    let ctrl = AdmissionController::from_generation(build_generation(0.32));
    // Every generation ever installed, for invariant checks and the
    // final balance audit.
    let generations: Arc<Mutex<Vec<Arc<ConfigGeneration>>>> =
        Arc::new(Mutex::new(vec![ctrl.current_generation()]));
    let stop = Arc::new(AtomicBool::new(false));
    // Rendezvous between reconfigurer and observer: on a starved box the
    // observer may otherwise not be scheduled once during the whole run.
    let (audit_tx, audit_rx) = std::sync::mpsc::sync_channel::<()>(0);

    let admitters: Vec<_> = (0..ADMITTERS)
        .map(|t| {
            let ctrl = ctrl.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xA11CE + t as u64);
                let mut held = Vec::new();
                let (mut admits, mut rejects) = (0u64, 0u64);
                for _ in 0..ARRIVALS_PER_THREAD {
                    if !held.is_empty() && rng.next_u64().is_multiple_of(3) {
                        let i = (rng.next_u64() as usize) % held.len();
                        held.swap_remove(i);
                    } else {
                        let (src, dst) = if rng.next_u64().is_multiple_of(2) {
                            (NodeId(0), NodeId(2))
                        } else {
                            (NodeId(1), NodeId(2))
                        };
                        match ctrl.try_admit(ClassId(0), src, dst) {
                            Ok(h) => {
                                admits += 1;
                                held.push(h);
                            }
                            Err(_) => rejects += 1,
                        }
                    }
                }
                drop(held);
                (admits, rejects)
            })
        })
        .collect();

    let reconfigurer = {
        let ctrl = ctrl.clone();
        let generations = Arc::clone(&generations);
        std::thread::spawn(move || {
            for i in 0..RECONFIGURES {
                std::thread::sleep(std::time::Duration::from_micros(300));
                // Alternate budgets so swaps really change the decision
                // function mid-flight.
                let alpha = if i % 2 == 0 { 0.16 } else { 0.32 };
                ctrl.reconfigure(build_generation(alpha));
                generations.lock().unwrap().push(ctrl.current_generation());
                // Returns once the observer begins a pass that covers
                // this generation (at once, with Err, if it panicked).
                let _ = audit_tx.send(());
                ctrl.drain();
            }
        })
    };

    let observer = {
        let generations = Arc::clone(&generations);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let _ = audit_rx.try_recv();
                let gens = generations.lock().unwrap().clone();
                assert_budget_invariant(&gens);
                checks += 1;
            }
            checks
        })
    };

    let mut total_admits = 0u64;
    let mut total_rejects = 0u64;
    for t in admitters {
        let (a, r) = t.join().unwrap();
        total_admits += a;
        total_rejects += r;
    }
    reconfigurer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let checks = observer.join().unwrap();

    assert!(total_admits > 0, "workload never admitted");
    assert!(total_rejects > 0, "workload never saturated");
    assert!(
        checks >= RECONFIGURES as u64,
        "observer audited only {checks} times"
    );

    // Everything released: every generation ever installed balances to
    // zero on every cell and holds no pinned flows.
    let gens = generations.lock().unwrap();
    assert_eq!(gens.len(), RECONFIGURES + 1);
    for g in gens.iter() {
        let backend = g.backend();
        for server in 0..backend.servers() {
            for class in 0..backend.classes() {
                assert_eq!(
                    backend.reserved(server, class),
                    0.0,
                    "generation {} server {server} class {class} did not balance",
                    g.id()
                );
            }
        }
        assert_eq!(g.pinned(), 0, "generation {} still pinned", g.id());
    }
    assert!(ctrl.drain().is_drained());
}

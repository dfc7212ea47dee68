//! The model checker checking itself: seeded concurrency bugs must be
//! found, correct protocols must pass exhaustively, and the exploration
//! bookkeeping (schedule counts, the iteration cap, deadlock detection)
//! must hold.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
use uba_loom::sync::atomic::{AtomicU64, Ordering};
use uba_loom::sync::{Arc, Mutex};
use uba_loom::{model, thread, Builder};

/// A non-atomic read-modify-write (load, then store) must lose an
/// update under some interleaving — the checker has to find it.
#[test]
fn finds_seeded_lost_update() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let v = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let v = Arc::clone(&v);
                    thread::spawn(move || {
                        let cur = v.load(Ordering::Relaxed);
                        v.store(cur + 1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(v.load(Ordering::Relaxed), 2, "lost update");
        });
    }));
    assert!(result.is_err(), "the lost update must be discovered");
}

/// The same counter done right (fetch_add) passes every interleaving.
#[test]
fn fetch_add_counter_is_exhaustively_correct() {
    let explored = model(|| {
        let v = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let v = Arc::clone(&v);
                thread::spawn(move || {
                    v.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.load(Ordering::Relaxed), 2);
    });
    assert!(explored.complete);
    // Two threads, each with a handful of schedule points: more than one
    // schedule must exist, else nothing was actually explored.
    assert!(explored.executions > 1, "{explored:?}");
}

/// A CAS retry loop (the admission reserve idiom) never loses a update.
#[test]
fn cas_retry_loop_is_exhaustively_correct() {
    let explored = model(|| {
        let v = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let v = Arc::clone(&v);
                thread::spawn(move || loop {
                    let cur = v.load(Ordering::Relaxed);
                    if v.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        break;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.load(Ordering::Relaxed), 2);
    });
    assert!(explored.complete);
}

/// Mutexes provide mutual exclusion: a guarded non-atomic RMW is safe,
/// and a model-level preemption inside the critical section must not
/// deadlock the real OS threads.
#[test]
fn mutex_guards_compound_updates() {
    model(|| {
        let v = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let v = Arc::clone(&v);
                thread::spawn(move || {
                    let mut g = v.lock().unwrap();
                    let cur = *g;
                    thread::yield_now(); // invite a preemption mid-section
                    *g = cur + 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*v.lock().unwrap(), 2);
    });
}

/// ABBA lock ordering deadlocks under some schedule; the checker must
/// report it rather than hang.
#[test]
fn detects_abba_deadlock() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        });
    }));
    let err = result.expect_err("ABBA must deadlock under some schedule");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

/// Join returns the spawned closure's value, and spawn order is not
/// execution order (the child may run first).
#[test]
fn join_returns_value() {
    model(|| {
        let h = thread::spawn(|| 41u64 + 1);
        assert_eq!(h.join().unwrap(), 42);
    });
}

/// The iteration cap truncates exploration and says so.
#[test]
fn iteration_cap_truncates() {
    let explored = Builder {
        max_iterations: 3,
        dpor: false,
        ..Builder::new()
    }
    .check(|| {
        let v = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let v = Arc::clone(&v);
                thread::spawn(move || {
                    v.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(!explored.complete, "cap must truncate: {explored:?}");
    assert_eq!(explored.executions, 3, "{explored:?}");
}

/// Model primitives degrade to plain std behavior outside `model()`, so
/// shimmed code keeps working in ordinary unit tests compiled with
/// `--cfg loom`.
#[test]
fn primitives_work_outside_a_model() {
    let v = AtomicU64::new(1);
    v.fetch_add(1, Ordering::SeqCst);
    assert_eq!(v.load(Ordering::Acquire), 2);
    let m = Mutex::new(5u64);
    *m.lock().unwrap() += 1;
    assert_eq!(*m.lock().unwrap(), 6);
}

/// Failing schedules replay deterministically: the same seeded bug is
/// found in the same number of executions every time.
#[test]
fn exploration_is_deterministic() {
    fn count_until_failure() -> usize {
        static EXECS: AtomicUsize = AtomicUsize::new(0);
        EXECS.store(0, StdOrdering::SeqCst);
        let result = catch_unwind(AssertUnwindSafe(|| {
            model(|| {
                EXECS.fetch_add(1, StdOrdering::SeqCst);
                let v = Arc::new(AtomicU64::new(0));
                let v2 = Arc::clone(&v);
                let t = thread::spawn(move || {
                    let cur = v2.load(Ordering::Relaxed);
                    v2.store(cur + 1, Ordering::Relaxed);
                });
                let cur = v.load(Ordering::Relaxed);
                v.store(cur + 1, Ordering::Relaxed);
                t.join().unwrap();
                assert_eq!(v.load(Ordering::Relaxed), 2);
            });
        }));
        assert!(result.is_err());
        EXECS.load(StdOrdering::SeqCst)
    }
    let first = count_until_failure();
    let second = count_until_failure();
    assert_eq!(first, second, "same bug, same schedule, same count");
}

/// Message-passing publication: data stored Relaxed, then a flag with
/// `store_ord`; the reader acquires the flag and reads the data.
fn publication(store_ord: Ordering) -> impl Fn() + Send + Sync + 'static {
    move || {
        let data = Arc::new(AtomicU64::new(0));
        let ready = Arc::new(AtomicU64::new(0));
        let (d2, r2) = (Arc::clone(&data), Arc::clone(&ready));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            r2.store(1, store_ord);
        });
        if ready.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale publication");
        }
        t.join().unwrap();
    }
}

/// Release/Acquire publication is exhaustively correct: observing the
/// flag implies observing the data (regression pin for the epoch
/// pointer idiom).
#[test]
fn release_acquire_publication_is_exhaustively_correct() {
    let explored = model(publication(Ordering::Release));
    assert!(explored.complete);
    assert!(explored.executions > 1, "{explored:?}");
}

/// The same protocol with the flag store downgraded to Relaxed — the
/// seeded wrong-ordering mutant — must now fail: the reader can see the
/// flag without the data.
#[test]
fn finds_relaxed_publication_mutant() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(publication(Ordering::Relaxed));
    }));
    assert!(result.is_err(), "relaxed publication must be caught");
}

/// The counterexample's choice string re-runs exactly the failing
/// schedule: one execution, same assertion failure.
#[test]
fn counterexample_replays_from_choice_string() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(publication(Ordering::Relaxed));
    }));
    assert!(result.is_err());
    let replay =
        uba_loom::last_counterexample().expect("counterexample must record a replay string");
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        Builder::new()
            .replay(&replay)
            .check(publication(Ordering::Relaxed));
    }));
    assert!(
        replayed.is_err(),
        "replaying {replay:?} must reproduce the failure"
    );
}

/// Store buffering (Dekker): with `SeqCst` on both sides at least one
/// thread must observe the other's store.
fn dekker(ord: Ordering) -> impl Fn() + Send + Sync + 'static {
    move || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, ord);
            y2.load(ord)
        });
        y.store(1, ord);
        let r0 = x.load(ord);
        let r1 = t.join().unwrap();
        assert!(r0 == 1 || r1 == 1, "store buffering: both loads read 0");
    }
}

/// `SeqCst` forbids the both-read-zero outcome — the checker's global
/// SC order must uphold that exhaustively.
#[test]
fn seq_cst_store_buffering_holds() {
    let explored = model(dekker(Ordering::SeqCst));
    assert!(explored.complete);
    assert!(explored.executions > 1, "{explored:?}");
}

/// Downgraded to Acquire/Release-free `Relaxed`, store buffering is
/// observable and the checker must find it — the behavior a SeqCst-only
/// checker can never produce.
#[test]
fn finds_relaxed_store_buffering() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(dekker(Ordering::Relaxed));
    }));
    assert!(result.is_err(), "relaxed store buffering must be caught");
}

/// Stale observations are counted in the exploration telemetry.
#[test]
fn stale_reads_are_counted() {
    let explored = model(|| {
        let v = Arc::new(AtomicU64::new(0));
        let v2 = Arc::clone(&v);
        let t = thread::spawn(move || v2.store(1, Ordering::Relaxed));
        let _ = v.load(Ordering::Relaxed);
        t.join().unwrap();
    });
    assert!(explored.complete);
    assert!(explored.stale_reads > 0, "{explored:?}");
}

/// DPOR must prune: two threads touching *different* locations commute,
/// so most of their interleavings are redundant.
#[test]
fn dpor_prunes_schedules() {
    fn disjoint_counters() -> impl Fn() + Send + Sync + 'static {
        || {
            let a = Arc::new(AtomicU64::new(0));
            let b = Arc::new(AtomicU64::new(0));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let ta = thread::spawn(move || {
                a2.fetch_add(1, Ordering::Relaxed);
                a2.fetch_add(1, Ordering::Relaxed);
            });
            let tb = thread::spawn(move || {
                b2.fetch_add(1, Ordering::Relaxed);
                b2.fetch_add(1, Ordering::Relaxed);
            });
            ta.join().unwrap();
            tb.join().unwrap();
            assert_eq!(a.load(Ordering::Relaxed), 2);
            assert_eq!(b.load(Ordering::Relaxed), 2);
        }
    }
    let reduced = Builder::new().check(disjoint_counters());
    let full = Builder {
        dpor: false,
        ..Builder::new()
    }
    .check(disjoint_counters());
    assert!(reduced.complete && full.complete);
    assert!(
        reduced.executions + reduced.pruned < full.executions,
        "DPOR must prune: {} + {} pruned vs {}",
        reduced.executions,
        reduced.pruned,
        full.executions
    );
}

/// Deadlock reports carry spawn-site thread names and a replay string,
/// so the counterexample reproduces from the message alone.
#[test]
fn deadlock_report_names_threads_and_replays() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        });
    }));
    let err = result.expect_err("ABBA must deadlock");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("waits on mutex"), "no wait edges: {msg}");
    assert!(msg.contains("main"), "root thread unnamed: {msg}");
    assert!(msg.contains("t1@"), "spawned thread unnamed: {msg}");
    assert!(msg.contains("self_check.rs"), "no spawn site: {msg}");
    assert!(msg.contains("UBA_LOOM_REPLAY="), "no replay string: {msg}");
}

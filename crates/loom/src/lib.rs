//! Model checking for the workspace's lock-free code.
//!
//! The admission hot path is a web of atomics — CAS reservation loops,
//! budget shards with neighbor borrowing, an epoch-pointer generation
//! swap, a drop-oldest trace ring. Stress tests sample a handful of
//! interleavings per run; this crate *enumerates* them. A model is a
//! closure using the [`thread`] and [`sync`] primitives; [`model`] (or a
//! configured [`Builder`]) runs the closure under a cooperative
//! scheduler that owns every scheduling decision *and every weak-memory
//! read decision*, then backtracks depth-first through the tree of
//! decisions until either every schedule has been executed or one of
//! them fails an assertion — in which case the failing schedule is
//! re-raised as an ordinary test panic, annotated with the spawn-site
//! names of the threads involved, any stale loads it performed, and a
//! replay choice string
//! (`UBA_LOOM_REPLAY=t1.t0.r2 …`, see [`Builder::replay`]) that
//! reproduces exactly that schedule.
//!
//! The workspace cannot depend on the real `loom` crate (the build is
//! hermetic: no registry), so this is an in-tree replacement with the
//! same shape: code under test imports `std::sync::atomic`/`Mutex`
//! normally and this crate's versions under `--cfg loom` (see the `sync`
//! shim modules in `uba-admission` and `uba-obs`), and model tests are
//! compiled only with `RUSTFLAGS="--cfg loom"`.
//!
//! ## What is (and is not) modeled
//!
//! * **Interleavings, exhaustively.** Every atomic operation, mutex
//!   acquisition, spawn, and join is a schedule point; the scheduler
//!   explores every choice of runnable thread at every point,
//!   depth-first.
//! * **Weak memory, via vector clocks.** Each atomic location keeps its
//!   full modification order; a load may observe *any* store that
//!   coherence and happens-before leave visible, not just the newest
//!   one, and each such choice is a branch of the search. Acquire loads
//!   synchronize with the Release store they observe (release sequences
//!   carry through RMWs), Relaxed ops synchronize with nothing, and
//!   `SeqCst` ops are additionally totally ordered through a global SC
//!   clock — so an `Ordering` that is too weak now *fails its model*
//!   instead of being silently upgraded. Two deliberate approximations,
//!   both on the strict side or bounded: mixed SC/non-SC accesses to
//!   one location are slightly stronger than C++ (the SC clock
//!   over-synchronizes), and a thread's consecutive stale reads of one
//!   location are bounded (so relaxed spin loops terminate) — one stale
//!   observation is always allowed, which is what staleness bugs need.
//! * **Dynamic partial-order reduction.** After each execution the
//!   trace is mined for dependent transition pairs (same-location
//!   accesses with a write, same-mutex operations, spawn/join); only
//!   threads that could reorder such a pair are added to a decision's
//!   backtrack set, and sleep sets prune schedules that merely commute
//!   with an explored sibling. Exploration finishes several times
//!   faster with identical coverage of distinguishable behaviors; see
//!   [`Exploration`] for the executed/pruned telemetry and
//!   `BENCH_loom.json` for the measured reduction.
//! * **Deadlocks.** A state where live threads exist but none is
//!   runnable fails the model with a diagnostic naming each blocked
//!   thread (by spawn site), what it waits on, and the replay string.
//! * **Determinism is required.** A model closure must behave
//!   identically when re-executed under the same decision prefix
//!   (no wall-clock branching, no OS randomness); the scheduler verifies
//!   replay determinism and fails loudly if it is violated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod scheduler;
mod store;
pub mod sync;
pub mod thread;

pub use scheduler::{last_counterexample, model, Builder, Exploration};

//! Observability core for the uba workspace.
//!
//! The paper's claim is that run-time admission is O(path length); this
//! crate exists so the rest of the workspace can *demonstrate* that claim
//! under load instead of asserting it: admit/reject rates by cause,
//! fixed-point iteration counts, CAS-retry contention, simulator deadline
//! behavior. Everything here is built on `std` atomics and is cheap
//! enough to leave enabled in hot paths (see the `obs_overhead` bench in
//! `uba-bench`).
//!
//! * [`Counter`] / [`Gauge`] — lock-free scalar metrics.
//! * [`Histogram`] — the workspace's one distribution layout (log2
//!   majors × 8 linear sub-buckets) with p50/p90/p99/max readouts;
//!   [`Tally`] is its single-owner mirror, for a distribution one owner
//!   fills (simulated delays, solver residuals), merged into a
//!   histogram exactly. Whole-number samples are counted per value by
//!   their owners and published with [`Histogram::record_n`].
//! * [`Stopwatch`] — the one sanctioned wall-clock timer.
//! * [`Registry`] — named metrics, rendered as human tables or
//!   line-oriented JSON (hand-rolled, matching the workspace's
//!   `toml_lite` no-external-deps style). [`global()`] is the process
//!   registry the instrumented crates record into.
//! * [`trace`] — a fixed-capacity flight recorder of structured events
//!   (admission decisions, solver sweeps, simulator deadline misses),
//!   drained to JSON-lines with an explicit drop count.
//! * [`slo`] — declarative SLO rules with hysteresis evaluated over
//!   snapshot windows, driving a firing→resolved alert state machine
//!   (`slo.*` gauges, `alert_fire`/`alert_resolve` trace events, and a
//!   bounded alert log).
//! * [`json`] — a minimal JSON parser so snapshots can be round-tripped
//!   in tests and consumed by scripts.
//! * [`rng`] — the workspace's deterministic SplitMix64 PRNG (in-tree
//!   replacement for the `rand` crate; the build is fully offline) and
//!   [`check`], the seeded randomized-test harness on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod rng;
pub mod slo;
pub mod stopwatch;
#[doc(hidden)]
pub mod sync;
pub mod trace;

pub use histogram::{Histogram, Tally};
pub use metrics::{Counter, Gauge};
pub use registry::{global, process_secs, Registry, Snapshot, SnapshotValue, Window};
pub use rng::{check, SplitMix64};
pub use slo::{standard_rules, Alert, RuleState, SloConfig, SloEngine, SloRule, SloSignal};
pub use stopwatch::Stopwatch;
pub use trace::{Event, EventKind, Tracer};

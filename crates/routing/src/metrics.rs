//! Route-selection instrumentation.
//!
//! Series in the process-global [`uba_obs`] registry, written in plain
//! fields first and added in one step (nothing per pair or per
//! candidate): `select.*` once per greedy run — per `select_routes` call,
//! per *adopted* α\* search probe, per `Configuration` re-routing — from
//! the tallies the run keeps; `candidates.spur_*` from the Yen
//! workspaces' own when a generation ends. `candidates.seconds` is
//! recorded once per generation: once per search or re-route, all its
//! pairs at once; `search.probe_seconds` once per adopted probe, a
//! feasible and an infeasible one alike (seven on `config_mci`), and
//! `search.cancelled` counts the speculative probes a search threw away:
//! the one series here that depends on timing (which probes the workers
//! had started when an infeasible answer came back), 0 at one worker.
//!
//! | name | meaning |
//! |---|---|
//! | `routing.select.candidates` | candidate routes weighed against the incumbent: pruned, or solved (cut off or to the end) |
//! | `routing.select.pruned` | of those, cut before any solve — and, once an acyclic candidate is the incumbent, before any cycle check: their delay at the committed fixed point already matched or exceeded the incumbent's |
//! | `routing.select.cycle_checks` | would-this-chain-close-a-cycle queries put to the route-dependency overlay: one per candidate not pruned first, while Heuristic (2) is on |
//! | `routing.candidates.spur_searches` | spur searches Yen ran to generate candidates |
//! | `routing.candidates.spur_skipped` | spur indices it proved needed none (a duplicate, or too heavy ever to be extracted) |
//! | `routing.candidates.seconds` | histogram: wall time per candidate generation |
//! | `routing.search.probe_seconds` | histogram: wall time per adopted α\* search probe, on whichever core ran it |
//! | `routing.search.cancelled` | speculative α\* search probes cancelled and thrown away, started on the premise that a probe still running would be feasible; depends on timing |

use std::sync::{Arc, OnceLock};
use uba_obs::{Counter, Histogram};

/// Handles to the route-selection counters.
#[derive(Debug)]
pub struct SelectMetrics {
    /// Candidates weighed: pruned or solved.
    pub candidates: Arc<Counter>,
    /// Candidates cut by the delay floor, never solved.
    pub pruned: Arc<Counter>,
    /// Overlay cycle queries made.
    pub cycle_checks: Arc<Counter>,
    /// Spur searches candidate generation ran.
    pub spur_searches: Arc<Counter>,
    /// Spur indices it skipped unsearched.
    pub spur_skipped: Arc<Counter>,
    /// Wall time per candidate generation, seconds.
    pub seconds: Arc<Histogram>,
    /// Wall time per adopted α\* search probe, seconds.
    pub probe_seconds: Arc<Histogram>,
    /// Speculative α\* search probes thrown away.
    pub cancelled: Arc<Counter>,
}

/// The process-global route-selection counters (registered on first use).
pub fn select() -> &'static SelectMetrics {
    static METRICS: OnceLock<SelectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = uba_obs::global();
        SelectMetrics {
            candidates: r.counter("routing.select.candidates"),
            pruned: r.counter("routing.select.pruned"),
            cycle_checks: r.counter("routing.select.cycle_checks"),
            spur_searches: r.counter("routing.candidates.spur_searches"),
            spur_skipped: r.counter("routing.candidates.spur_skipped"),
            seconds: r.histogram("routing.candidates.seconds", 1e-6),
            probe_seconds: r.histogram("routing.search.probe_seconds", 1e-6),
            cancelled: r.counter("routing.search.cancelled"),
        }
    })
}

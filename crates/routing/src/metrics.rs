//! Route-selection instrumentation.
//!
//! Series in the process-global [`uba_obs`] registry. The counters are
//! added to once per candidate cache — one per `select_routes` call, per
//! α\* search (spanning its probes) and per `Configuration` re-routing —
//! when the cache drops: `select.*` from the tallies the greedy keeps in
//! the cache (nothing per pair or per candidate), `candidates.spur_*`
//! from the Yen workspaces' own. The one histogram is recorded once per
//! generation: a search's, all its pairs at once, or one re-routed pair's.
//!
//! | name | meaning |
//! |---|---|
//! | `routing.select.candidates` | pooled candidate routes looked at, solved or pruned |
//! | `routing.select.pruned` | of those, cut before any solve: their delay at the committed fixed point already matched or exceeded the incumbent's |
//! | `routing.select.cycle_checks` | would-this-chain-close-a-cycle queries put to the route-dependency overlay |
//! | `routing.candidates.spur_searches` | spur searches Yen ran to generate candidates |
//! | `routing.candidates.spur_skipped` | spur indices it proved needed none (a duplicate, or too heavy ever to be extracted) |
//! | `routing.candidates.seconds` | histogram: wall time per candidate generation |

use std::sync::{Arc, OnceLock};
use uba_obs::{Counter, Histogram};

/// Handles to the route-selection counters.
#[derive(Debug)]
pub struct SelectMetrics {
    /// Pooled candidates looked at.
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
        }
    })
}

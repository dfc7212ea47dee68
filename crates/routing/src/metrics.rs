//! Route-selection instrumentation.
//!
//! Two counters in the process-global [`uba_obs`] registry, added to once
//! per routed pair (nothing per candidate):
//!
//! | name | meaning |
//! |---|---|
//! | `routing.select.candidates` | tentative routes evaluated against the committed fixed point |
//! | `routing.select.cycle_checks` | would-this-chain-close-a-cycle queries put to the route-dependency overlay |

use std::sync::{Arc, OnceLock};
use uba_obs::Counter;

/// Handles to the route-selection counters.
#[derive(Debug)]
pub struct SelectMetrics {
    /// Tentative routes evaluated.
    pub candidates: Arc<Counter>,
    /// Overlay cycle queries made.
    pub cycle_checks: Arc<Counter>,
}

/// The process-global route-selection counters (registered on first use).
pub fn select() -> &'static SelectMetrics {
    static METRICS: OnceLock<SelectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = uba_obs::global();
        SelectMetrics {
            candidates: r.counter("routing.select.candidates"),
            cycle_checks: r.counter("routing.select.cycle_checks"),
        }
    })
}

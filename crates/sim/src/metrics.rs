//! Simulator instrumentation.
//!
//! Nothing in the event loop touches an atomic. Counters are bumped once
//! per completed run, from the final tallies the engine already keeps;
//! `sim.queue_depth` samples are whole numbers, so they are counted per
//! backlog value in a local array and published with
//! `Histogram::record_n` at the end of the run (same count, sum and max
//! as one `record` per enqueue). Per-packet delays go into the report's
//! per-class [`uba_obs::Tally`], not into the registry.
//!
//! Metric names:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `sim.runs` | counter | simulation runs completed |
//! | `sim.events` | counter | events processed (all runs) |
//! | `sim.packets` | counter | packets delivered end to end |
//! | `sim.deadline_misses` | counter | packets past their class deadline |
//! | `sim.policed_drops` | counter | packets dropped at ingress policers |
//! | `sim.queue_depth` | histogram | station backlog at each enqueue |
//! | `sim.run_seconds` | histogram | wall time per run |
//! | `sim.events_per_sec` | gauge | throughput of the latest run |
//! | `sim.peak_backlog` | gauge | peak station backlog of the latest run |

use std::sync::{Arc, OnceLock};
use uba_obs::{Counter, Gauge, Histogram, Registry};

/// Handles to the simulator metrics.
#[derive(Debug)]
pub struct SimMetrics {
    /// Simulation runs completed.
    pub runs: Arc<Counter>,
    /// Events processed across all runs.
    pub events: Arc<Counter>,
    /// Packets delivered end to end across all runs.
    pub packets: Arc<Counter>,
    /// Deadline misses across all runs.
    pub deadline_misses: Arc<Counter>,
    /// Ingress-policer drops across all runs.
    pub policed_drops: Arc<Counter>,
    /// Station backlog sampled at each enqueue.
    pub queue_depth: Arc<Histogram>,
    /// Wall time per run, seconds.
    pub run_seconds: Arc<Histogram>,
    /// Events/second of the most recent run.
    pub events_per_sec: Arc<Gauge>,
    /// Peak station backlog of the most recent run.
    pub peak_backlog: Arc<Gauge>,
}

impl SimMetrics {
    /// Registers the simulator metrics in `r`. The engine's tests pass a
    /// private registry so their exact counts are immune to sibling
    /// tests' runs; everything else goes through [`sim`].
    pub(crate) fn register(r: &Registry) -> Self {
        Self {
            runs: r.counter("sim.runs"),
            events: r.counter("sim.events"),
            packets: r.counter("sim.packets"),
            deadline_misses: r.counter("sim.deadline_misses"),
            policed_drops: r.counter("sim.policed_drops"),
            queue_depth: r.histogram("sim.queue_depth", 1.0),
            run_seconds: r.histogram("sim.run_seconds", 1e-6),
            events_per_sec: r.gauge("sim.events_per_sec"),
            peak_backlog: r.gauge("sim.peak_backlog"),
        }
    }
}

/// The process-global simulator metrics (registered on first use).
pub fn sim() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SimMetrics::register(uba_obs::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_metrics_registered_globally() {
        let m = sim();
        m.queue_depth.record(3.0);
        let snap = uba_obs::global().snapshot();
        assert!(snap.get("sim.queue_depth").is_some());
        assert!(snap.get("sim.events_per_sec").is_some());
    }
}

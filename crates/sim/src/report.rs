//! Simulation result aggregation.
//!
//! Each class's end-to-end delays go into a [`Tally`] at base 1 µs,
//! `uba_obs`'s one histogram layout, which gives the class its packet
//! count, its max and its quantiles (slot upper bounds, at most 12.5 %
//! above the true value); their exact `f64` sum is kept beside it for the
//! mean, which `uba-cli simulate` prints to the microsecond.

use uba_obs::Tally;

/// First slot boundary of the per-class delay tallies: 1 µs.
const DELAY_BASE: f64 = 1e-6;

/// Per-class delivery statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Packets delivered end to end.
    pub packets: u64,
    /// Maximum observed end-to-end delay, seconds.
    pub max_delay: f64,
    /// Mean end-to-end delay, seconds.
    pub mean_delay: f64,
    /// Packets that exceeded the class deadline (should be zero whenever
    /// the configuration was verified safe).
    pub deadline_misses: u64,
    /// Packets dropped by the ingress policer (non-conforming traffic;
    /// zero unless policing is enabled and a source misbehaves).
    pub policed_drops: u64,
}

/// Everything a simulation run measured.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Per-class statistics, indexed by class.
    pub classes: Vec<ClassStats>,
    /// Per-class end-to-end delay distributions, seconds, at base 1 µs
    /// (same indexing).
    pub histograms: Vec<Tally>,
    /// Total packets delivered.
    pub total_packets: u64,
    /// Total simulated events processed.
    pub events: u64,
    /// Largest backlog (packets) observed at any station.
    pub peak_backlog: usize,
}

impl SimReport {
    /// Worst observed delay across all classes.
    pub fn max_delay(&self) -> f64 {
        self.classes.iter().map(|c| c.max_delay).fold(0.0, f64::max)
    }

    /// Total deadline misses across classes.
    pub fn total_misses(&self) -> u64 {
        self.classes.iter().map(|c| c.deadline_misses).sum()
    }
}

/// One class's delays as the engine gathers them: their distribution,
/// count and max in the tally, their exact sum beside it for the mean.
#[derive(Clone, Debug)]
pub(crate) struct StatsAccumulator {
    pub(crate) delays: Tally,
    sum_delay: f64,
    misses: u64,
}

impl Default for StatsAccumulator {
    fn default() -> Self {
        Self {
            delays: Tally::with_base(DELAY_BASE),
            sum_delay: 0.0,
            misses: 0,
        }
    }
}

impl StatsAccumulator {
    pub(crate) fn record(&mut self, delay: f64, deadline: f64) {
        self.delays.record(delay);
        self.sum_delay += delay;
        if delay > deadline {
            self.misses += 1;
        }
    }

    pub(crate) fn finish_with_drops(&self, policed_drops: u64) -> ClassStats {
        let packets = self.delays.count();
        ClassStats {
            packets,
            max_delay: self.delays.max(),
            mean_delay: if packets > 0 {
                self.sum_delay / packets as f64
            } else {
                0.0
            },
            deadline_misses: self.misses,
            policed_drops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_statistics() {
        let mut acc = StatsAccumulator::default();
        acc.record(0.01, 0.1);
        acc.record(0.03, 0.1);
        acc.record(0.2, 0.1);
        let s = acc.finish_with_drops(0);
        assert_eq!(s.packets, 3);
        assert_eq!(s.deadline_misses, 1);
        assert!((s.max_delay - 0.2).abs() < 1e-15);
        assert!((s.mean_delay - 0.08).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator() {
        let s = StatsAccumulator::default().finish_with_drops(0);
        assert_eq!(s.packets, 0);
        assert_eq!(s.mean_delay, 0.0);
    }

    #[test]
    fn report_rollups() {
        let r = SimReport {
            classes: vec![
                ClassStats {
                    packets: 5,
                    max_delay: 0.02,
                    mean_delay: 0.01,
                    deadline_misses: 0,
                    policed_drops: 0,
                },
                ClassStats {
                    packets: 3,
                    max_delay: 0.05,
                    mean_delay: 0.02,
                    deadline_misses: 2,
                    policed_drops: 1,
                },
            ],
            histograms: vec![Tally::with_base(DELAY_BASE); 2],
            total_packets: 8,
            events: 100,
            peak_backlog: 7,
        };
        assert_eq!(r.max_delay(), 0.05);
        assert_eq!(r.total_misses(), 2);
    }
}

//! Simulation result aggregation.

/// A fixed logarithmic delay histogram: buckets at
/// `[0, 1µs), [1µs, 2µs), [2µs, 4µs), ...` — 48 octaves cover delays up
/// to ~3 hours, far beyond anything a simulation produces.
#[derive(Clone, Debug)]
pub struct DelayHistogram {
    counts: [u64; 48],
    total: u64,
}

impl Default for DelayHistogram {
    fn default() -> Self {
        Self {
            counts: [0; 48],
            total: 0,
        }
    }
}

impl DelayHistogram {
    const BASE: f64 = 1e-6; // first bucket boundary: 1 µs

    /// Bucket of a delay in seconds.
    fn bucket(delay: f64) -> usize {
        if delay < Self::BASE {
            0
        } else {
            ((delay / Self::BASE).log2().floor() as usize + 1).min(47)
        }
    }

    /// [`bucket`](Self::bucket) of `ns as f64 / 1e9` without the `log2`
    /// call. Both are non-decreasing in `ns`, so agreeing on either side
    /// of every boundary is agreeing everywhere. At `1000·2^k` ns the float
    /// quotient is exactly `2^k` (`1000 / 1e9` rounds to the double `1e-6`,
    /// scaling by `2^k` is exact); 1 ns below it is short by a relative
    /// `2^-k / 1000`, which `log2` resolves up to `k = 38`, a delay of
    /// 3.2 days. From `2^48` ns on the float path is taken as it is.
    fn bucket_ns(ns: u64) -> usize {
        if ns < 1000 {
            0
        } else if ns < 1 << 48 {
            (ns / 1000).ilog2() as usize + 1
        } else {
            Self::bucket(ns as f64 / 1e9)
        }
    }

    /// Records one delay (seconds).
    pub fn record(&mut self, delay: f64) {
        self.counts[Self::bucket(delay)] += 1;
        self.total += 1;
    }

    /// Records one delay in whole nanoseconds: `record(ns as f64 / 1e9)`.
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket_ns(ns)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0 < q <= 1`), or `None` when empty. Quantiles from a log
    /// histogram are bucket-resolution (a factor-of-2 band), which is
    /// what tail reporting needs.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0, "quantile in (0, 1]");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 {
                    Self::BASE
                } else {
                    Self::BASE * 2f64.powi(i as i32)
                });
            }
        }
        Some(Self::BASE * 2f64.powi(47))
    }
}

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
    /// Per-class end-to-end delay histograms (same indexing).
    pub histograms: Vec<DelayHistogram>,
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

/// Incremental accumulator used by the engine.
#[derive(Clone, Debug, Default)]
pub(crate) struct StatsAccumulator {
    packets: u64,
    sum_delay: f64,
    max_delay: f64,
    misses: u64,
}

impl StatsAccumulator {
    pub(crate) fn record(&mut self, delay: f64, deadline: f64) {
        self.packets += 1;
        self.sum_delay += delay;
        if delay > self.max_delay {
            self.max_delay = delay;
        }
        if delay > deadline {
            self.misses += 1;
        }
    }

    #[cfg(test)]
    pub(crate) fn finish(&self) -> ClassStats {
        self.finish_with_drops(0)
    }

    pub(crate) fn finish_with_drops(&self, policed_drops: u64) -> ClassStats {
        ClassStats {
            packets: self.packets,
            max_delay: self.max_delay,
            mean_delay: if self.packets > 0 {
                self.sum_delay / self.packets as f64
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
        let s = acc.finish();
        assert_eq!(s.packets, 3);
        assert_eq!(s.deadline_misses, 1);
        assert!((s.max_delay - 0.2).abs() < 1e-15);
        assert!((s.mean_delay - 0.08).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator() {
        let s = StatsAccumulator::default().finish();
        assert_eq!(s.packets, 0);
        assert_eq!(s.mean_delay, 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = DelayHistogram::default();
        for _ in 0..90 {
            h.record(1e-3); // ~1 ms
        }
        for _ in 0..10 {
            h.record(0.1); // 100 ms tail
        }
        assert_eq!(h.total(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 3e-3, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 0.05, "p99 {p99}");
    }

    #[test]
    fn integer_bucket_is_the_float_bucket() {
        let same = |ns: u64| {
            let (int, float) = (
                DelayHistogram::bucket_ns(ns),
                DelayHistogram::bucket(ns as f64 / 1e9),
            );
            assert_eq!(int, float, "{ns} ns");
        };
        [0, 999, 1000].into_iter().for_each(same);
        for k in 0..=46 {
            let boundary = 1000u64 << k;
            [boundary - 1, boundary, boundary + 1]
                .into_iter()
                .for_each(same);
        }
        // Below 2^48 ns, where the integer path runs, a delay just under
        // a boundary stays in the lower bucket.
        assert_eq!(DelayHistogram::bucket_ns((1000 << 38) - 1), 38);
        uba_obs::check("integer_bucket_is_the_float_bucket", 100_000, |rng| {
            // Every magnitude: a random width, then random bits of it.
            let ns = rng.next_u64() >> rng.index(64);
            same(ns);
            Ok(())
        });
    }

    #[test]
    fn histogram_empty() {
        let h = DelayHistogram::default();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_tiny_delays_in_first_bucket() {
        let mut h = DelayHistogram::default();
        h.record(0.0);
        h.record(1e-9);
        assert_eq!(h.total(), 2);
        assert!(h.quantile(1.0).unwrap() <= 1e-6);
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
            histograms: vec![DelayHistogram::default(); 2],
            total_packets: 8,
            events: 100,
            peak_backlog: 7,
        };
        assert_eq!(r.max_delay(), 0.05);
        assert_eq!(r.total_misses(), 2);
    }
}

//! Burst/overuse telemetry: per-class arrival-rate and inter-arrival
//! CV estimators plus a GCC-style overuse detector. Observe-only.
//!
//! ROADMAP item 2 wants burst-aware *policies*; this module is the
//! measured foundation they compose over. Nothing here makes decisions:
//! the admit path counts per-class arrivals into its thread-local
//! metrics buffer (one `Cell` bump per decision), and once per buffer
//! flush the aggregated counts feed an [`ArrivalMonitor`] —
//! per class, an EWMA arrival-rate / inter-arrival-CV estimator
//! ([`ArrivalEstimator`]) and an overuse detector
//! ([`OveruseDetector`]) in the style of Google congestion control
//! (gradient of the observed rate against a slow baseline, compared to
//! a threshold, with a sustain time before latching). The results are
//! published as `admission.arrival.class<i>.rate` / `.cv` and
//! `admission.overuse_state` gauges, which the SLO engine
//! ([`uba_obs::slo`]) can consume like any other signal.
//!
//! Everything takes time as an explicit `t` parameter (seconds on the
//! caller's clock — the metrics layer passes
//! [`uba_obs::process_secs`]), so this module never reads a wall clock
//! (xtask rule 5) and tests replay scenarios deterministically.
//!
//! **Granularity caveat**: fed from the buffered metrics path, one
//! observation covers everything since the previous flush (up to
//! `FLUSH_EVERY` decisions), so the estimators see batch-granular
//! arrival counts, not individual arrival instants. Rates are exact in
//! the limit; the "CV" is the coefficient of variation of the
//! *short-window arrival rate* across batches — for a renewal process
//! observed in windows this tracks the classic inter-arrival CV (both
//! are 0 for deterministic arrivals, ~1 for Poisson, large for on/off
//! bursts), and unlike a per-batch gap estimate it still separates
//! smooth from bursty load when batches land on a regular flush
//! cadence (see the tests), at zero per-decision cost beyond the
//! counter bump.

/// Numerical floor below which a rate/gap is treated as zero.
const EPS: f64 = 1e-12;

/// EWMA arrival-rate and inter-arrival-CV estimator.
///
/// Updates are time-weighted: an observation after a gap `g` carries
/// weight `1 − exp(−g/τ)`, so the estimate's memory is `τ` seconds of
/// history regardless of how often the caller flushes.
#[derive(Clone, Debug)]
pub struct ArrivalEstimator {
    tau: f64,
    rate: f64,
    rate_sq: f64,
    obs: u64,
    last_t: Option<f64>,
    carry: u64,
    total: u64,
}

impl ArrivalEstimator {
    /// An estimator with time constant `tau` seconds (must be positive).
    pub fn new(tau: f64) -> Self {
        assert!(tau > 0.0 && tau.is_finite(), "tau must be positive");
        Self {
            tau,
            rate: 0.0,
            rate_sq: 0.0,
            obs: 0,
            last_t: None,
            carry: 0,
            total: 0,
        }
    }

    /// Observes `n` arrivals at time `t` (seconds, monotone per
    /// estimator). `n = 0` is a heartbeat: it decays the rate toward
    /// zero so an idle class does not freeze at its last busy reading.
    pub fn observe_n(&mut self, t: f64, n: u64) {
        if !t.is_finite() {
            return;
        }
        self.total += n;
        let Some(last) = self.last_t else {
            self.last_t = Some(t);
            self.carry = n;
            return;
        };
        let gap = t - last;
        if gap <= EPS {
            // Same clock tick: fold into the next real gap.
            self.carry += n;
            return;
        }
        self.last_t = Some(t);
        let n = n + std::mem::take(&mut self.carry);
        let w = 1.0 - (-gap / self.tau).exp();
        // Short-window rate of this batch; its first two moments carry
        // the burstiness signal (see the module docs).
        let inst_rate = n as f64 / gap;
        self.rate += w * (inst_rate - self.rate);
        self.rate_sq += w * (inst_rate * inst_rate - self.rate_sq);
        self.obs += 1;
    }

    /// Smoothed arrivals per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Coefficient of variation of the short-window arrival rate
    /// (`0.0` until two batches have been observed). Smooth arrivals
    /// sit near 0; on/off bursty arrivals push to 1 and beyond.
    pub fn cv(&self) -> f64 {
        if self.obs < 2 || self.rate <= EPS {
            return 0.0;
        }
        let var = (self.rate_sq - self.rate * self.rate).max(0.0);
        var.sqrt() / self.rate
    }

    /// Lifetime arrivals observed.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Detector verdict. Encoded in the `admission.overuse_state` gauge as
/// `1.0` / `0.0` / `-1.0` respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OveruseState {
    /// The observed rate is climbing past the baseline faster than the
    /// threshold, sustained: the class is overusing its recent budget.
    Overuse,
    /// Rate tracking its baseline.
    Normal,
    /// Rate sustainedly below baseline.
    Underuse,
}

impl OveruseState {
    /// Gauge encoding (`1` overuse, `0` normal, `-1` underuse).
    pub fn as_gauge(self) -> f64 {
        match self {
            OveruseState::Overuse => 1.0,
            OveruseState::Normal => 0.0,
            OveruseState::Underuse => -1.0,
        }
    }

    /// Stable lower-snake name for logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            OveruseState::Overuse => "overuse",
            OveruseState::Normal => "normal",
            OveruseState::Underuse => "underuse",
        }
    }
}

/// GCC-style overuse detector over an observed-rate series.
///
/// Compares each observation's relative gradient against a slow EWMA
/// baseline: `(rate − baseline) / baseline`. A gradient beyond
/// `±threshold` must persist for `sustain` seconds before the state
/// latches to [`OveruseState::Overuse`] / [`OveruseState::Underuse`]
/// (the sustain guard is what keeps one bursty batch from flapping the
/// state); any in-band observation snaps back to normal. A cold-start
/// ramp from zero reads as overuse by design — a class whose arrival
/// rate is climbing faster than its history *is* overusing its recent
/// budget.
#[derive(Clone, Debug)]
pub struct OveruseDetector {
    threshold: f64,
    sustain: f64,
    tau: f64,
    baseline: f64,
    last_t: Option<f64>,
    /// `(is_overuse, since)` for the current out-of-band excursion.
    breach: Option<(bool, f64)>,
    state: OveruseState,
}

impl OveruseDetector {
    /// A detector with relative-gradient `threshold` (e.g. `0.25`),
    /// `sustain` seconds before latching, and baseline time constant
    /// `tau` seconds (slower than the rate estimator's).
    pub fn new(threshold: f64, sustain: f64, tau: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        assert!(sustain >= 0.0, "sustain must be non-negative");
        assert!(tau > 0.0, "tau must be positive");
        Self {
            threshold,
            sustain,
            tau,
            baseline: 0.0,
            last_t: None,
            breach: None,
            state: OveruseState::Normal,
        }
    }

    /// Feeds one rate observation at time `t`; returns the (possibly
    /// updated) state.
    pub fn update(&mut self, t: f64, rate: f64) -> OveruseState {
        if !t.is_finite() || !rate.is_finite() {
            return self.state;
        }
        let gradient = if self.baseline > EPS {
            (rate - self.baseline) / self.baseline
        } else if rate > EPS {
            // No history yet: any traffic is a full-scale ramp.
            1.0
        } else {
            0.0
        };
        // Baseline update after the comparison, so the gradient is
        // measured against history, not against itself. The clock mark
        // only moves forward: after a step back, the next forward step
        // is weighted by the time since the latest mark, never by time
        // already credited.
        let gap = self.last_t.map_or(0.0, |last| (t - last).max(0.0));
        if self.last_t.is_none_or(|last| t > last) {
            self.last_t = Some(t);
        }
        let w = 1.0 - (-gap / self.tau).exp();
        self.baseline += w * (rate - self.baseline);

        let excursion = if gradient > self.threshold {
            Some(true)
        } else if gradient < -self.threshold {
            Some(false)
        } else {
            None
        };
        match excursion {
            None => {
                self.breach = None;
                self.state = OveruseState::Normal;
            }
            Some(over) => match self.breach {
                Some((dir, since)) if dir == over => {
                    if t - since >= self.sustain {
                        self.state = if over {
                            OveruseState::Overuse
                        } else {
                            OveruseState::Underuse
                        };
                    }
                }
                _ => {
                    self.breach = Some((over, t));
                    if self.sustain == 0.0 {
                        self.state = if over {
                            OveruseState::Overuse
                        } else {
                            OveruseState::Underuse
                        };
                    }
                }
            },
        }
        self.state
    }

    /// Current state.
    pub fn state(&self) -> OveruseState {
        self.state
    }

    /// The slow-EWMA rate baseline the gradient is measured against.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }
}

/// One estimator + detector per traffic class; the unit the buffered
/// metrics layer holds behind a mutex and feeds once per flush.
#[derive(Debug)]
pub struct ArrivalMonitor {
    classes: Vec<(ArrivalEstimator, OveruseDetector)>,
}

/// Rate-estimator time constant (seconds). Short enough that the serve
/// background loop's per-batch flushes converge within a test, long
/// enough to smooth single-batch noise.
pub const RATE_TAU: f64 = 0.25;

/// Detector baseline time constant — deliberately slower than
/// [`RATE_TAU`] so a sustained rate climb shows as a gradient against
/// history instead of being instantly absorbed.
pub const BASELINE_TAU: f64 = 2.0;

/// Detector relative-gradient threshold.
pub const OVERUSE_THRESHOLD: f64 = 0.25;

/// Detector sustain time (seconds) before latching out of normal.
pub const OVERUSE_SUSTAIN: f64 = 0.05;

impl ArrivalMonitor {
    /// A monitor for `classes` traffic classes (at least one).
    pub fn new(classes: usize) -> Self {
        Self {
            classes: (0..classes.max(1))
                .map(|_| {
                    (
                        ArrivalEstimator::new(RATE_TAU),
                        OveruseDetector::new(OVERUSE_THRESHOLD, OVERUSE_SUSTAIN, BASELINE_TAU),
                    )
                })
                .collect(),
        }
    }

    /// Number of classes tracked.
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    /// Feeds per-class arrival counts observed at time `t` (indexes
    /// beyond the class count fold into the last class, mirroring the
    /// metric layer's fixed slot array).
    pub fn observe(&mut self, t: f64, counts: &[u64]) {
        let last = self.classes.len() - 1;
        let mut folded = vec![0u64; self.classes.len()];
        for (i, &n) in counts.iter().enumerate() {
            folded[i.min(last)] += n;
        }
        for ((est, det), &n) in self.classes.iter_mut().zip(&folded) {
            est.observe_n(t, n);
            det.update(t, est.rate());
        }
    }

    /// Smoothed arrival rate of `class` (arrivals/sec).
    pub fn rate(&self, class: usize) -> f64 {
        self.classes.get(class).map_or(0.0, |(e, _)| e.rate())
    }

    /// Inter-arrival CV estimate of `class`.
    pub fn cv(&self, class: usize) -> f64 {
        self.classes.get(class).map_or(0.0, |(e, _)| e.cv())
    }

    /// Detector state of `class`.
    pub fn state(&self, class: usize) -> OveruseState {
        self.classes
            .get(class)
            .map_or(OveruseState::Normal, |(_, d)| d.state())
    }

    /// The worst state across classes (overuse dominates underuse
    /// dominates normal) — what the single `admission.overuse_state`
    /// gauge publishes.
    pub fn worst_state(&self) -> OveruseState {
        let mut worst = OveruseState::Normal;
        for (_, d) in &self.classes {
            match d.state() {
                OveruseState::Overuse => return OveruseState::Overuse,
                OveruseState::Underuse => worst = OveruseState::Underuse,
                OveruseState::Normal => {}
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_arrivals_converge_to_the_true_rate_with_low_cv() {
        let mut est = ArrivalEstimator::new(0.5);
        // 100 arrivals/sec in perfectly even 10ms batches of 1.
        for i in 0..1000 {
            est.observe_n(i as f64 * 0.01, 1);
        }
        assert!((est.rate() - 100.0).abs() < 5.0, "rate {}", est.rate());
        assert!(
            est.cv() < 0.05,
            "steady traffic must read smooth: {}",
            est.cv()
        );
        assert_eq!(est.total(), 1000);
    }

    #[test]
    fn bursty_arrivals_read_high_cv_at_the_same_mean_rate() {
        // Same 100/s mean as above, but delivered as 100-packet slugs
        // once a second: per-arrival gap estimates alternate wildly.
        let mut est = ArrivalEstimator::new(0.5);
        for i in 0..100 {
            est.observe_n(i as f64, 100);
            est.observe_n(i as f64 + 0.5, 0); // idle heartbeat between slugs
        }
        let mut smooth = ArrivalEstimator::new(0.5);
        for i in 0..10_000 {
            smooth.observe_n(i as f64 * 0.01, 1);
        }
        assert!(
            est.cv() > 3.0 * smooth.cv().max(0.01),
            "bursty {} vs smooth {}",
            est.cv(),
            smooth.cv()
        );
    }

    #[test]
    fn idle_heartbeats_decay_the_rate() {
        let mut est = ArrivalEstimator::new(0.1);
        for i in 0..100 {
            est.observe_n(i as f64 * 0.01, 10); // 1000/s
        }
        let busy = est.rate();
        assert!(busy > 500.0, "{busy}");
        for i in 0..100 {
            est.observe_n(1.0 + i as f64 * 0.01, 0);
        }
        assert!(est.rate() < busy / 100.0, "idle must decay: {}", est.rate());
    }

    #[test]
    fn same_tick_observations_fold_into_the_next_gap() {
        let mut a = ArrivalEstimator::new(0.5);
        let mut b = ArrivalEstimator::new(0.5);
        for i in 0..300 {
            let t = i as f64 * 0.01;
            a.observe_n(t, 3);
            // b sees the same arrivals split across same-tick calls;
            // only a boundary sliver (b's trailing carry) can differ,
            // and it decays with the EWMA.
            b.observe_n(t, 1);
            b.observe_n(t, 2);
        }
        assert!(
            (a.rate() - b.rate()).abs() < 0.1,
            "{} vs {}",
            a.rate(),
            b.rate()
        );
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn detector_latches_overuse_on_a_sustained_ramp_and_recovers() {
        let mut det = OveruseDetector::new(0.25, 0.05, 1.0);
        // Steady 100/s for a while: normal.
        let mut t = 0.0;
        for _ in 0..200 {
            det.update(t, 100.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Normal);
        // Rate triples and stays: overuse after the sustain window.
        for _ in 0..20 {
            det.update(t, 300.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Overuse);
        // The baseline adapts to the new level; state returns to normal.
        for _ in 0..1000 {
            det.update(t, 300.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Normal);
        // Collapse to a trickle: underuse, then normal again as the
        // baseline tracks down.
        for _ in 0..20 {
            det.update(t, 10.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Underuse);
    }

    #[test]
    fn one_spike_inside_the_sustain_window_does_not_latch() {
        let mut det = OveruseDetector::new(0.25, 0.05, 1.0);
        let mut t = 0.0;
        // Warm up long enough (≫ tau) that the baseline has converged
        // and the cold-start ramp has fully cleared.
        for _ in 0..1000 {
            det.update(t, 100.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Normal);
        // A single out-of-band sample shorter than `sustain`:
        det.update(t, 500.0);
        t += 0.001;
        assert_eq!(det.update(t, 100.0), OveruseState::Normal);
    }

    #[test]
    fn a_clock_that_steps_back_is_not_credited_twice() {
        let feed = |ts: &[f64]| {
            let mut det = OveruseDetector::new(0.25, 0.05, 1.0);
            for &t in ts {
                det.update(t, 100.0);
            }
            det.baseline()
        };
        // The back-step to 0.5 credits nothing, and 1.0 → 1.5 is half a
        // second, not the full second since 0.5.
        assert_eq!(feed(&[0.0, 1.0, 0.5, 1.5]), feed(&[0.0, 1.0, 1.5]));
    }

    #[test]
    fn monitor_folds_overflow_classes_and_reports_worst_state() {
        let mut mon = ArrivalMonitor::new(2);
        // Class 0 steady; class 1 gets everything from slots 1..4.
        for i in 0..200 {
            let t = i as f64 * 0.01;
            mon.observe(t, &[1, 5, 5, 5]);
        }
        assert!(mon.rate(0) > 50.0, "{}", mon.rate(0));
        assert!(
            mon.rate(1) > 10.0 * mon.rate(0),
            "{} vs {}",
            mon.rate(1),
            mon.rate(0)
        );
        assert_eq!(mon.rate(7), 0.0, "out-of-range class reads zero");
        // Ramp class 1 hard: worst state goes overuse.
        for i in 0..20 {
            let t = 2.0 + i as f64 * 0.01;
            mon.observe(t, &[1, 200]);
        }
        assert_eq!(mon.state(1), OveruseState::Overuse);
        assert_eq!(mon.worst_state(), OveruseState::Overuse);
        assert_eq!(OveruseState::Overuse.as_gauge(), 1.0);
        assert_eq!(OveruseState::Underuse.as_gauge(), -1.0);
        assert_eq!(OveruseState::Normal.as_str(), "normal");
    }
}

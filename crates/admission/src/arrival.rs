//! Per-class arrival-rate estimator and GCC-style overuse detector: the
//! signal the AIMD policy stage ([`crate::policy::AimdStage`]) gates on.
//! The stage holds one [`ArrivalEstimator`] + [`OveruseDetector`] per
//! class and feeds them every admission attempt at the decision's `t`.
//!
//! The estimator is a time-weighted EWMA of the offered arrival rate.
//! The detector compares that rate's relative gradient against a slow
//! baseline, in the style of Google congestion control, with a sustain
//! time before it latches. Both take time as an explicit `t` (seconds
//! on the caller's clock), so this module never reads a wall clock
//! (xtask rule 5) and tests replay scenarios deterministically.

/// Numerical floor below which a rate/gap is treated as zero.
const EPS: f64 = 1e-12;

/// Rate-estimator time constant (seconds): long enough to smooth
/// single-batch noise, short enough to follow a burst.
pub const RATE_TAU: f64 = 0.25;

/// Detector baseline time constant — deliberately slower than
/// [`RATE_TAU`] so a sustained rate climb shows as a gradient against
/// history instead of being instantly absorbed.
pub const BASELINE_TAU: f64 = 2.0;

/// Detector relative-gradient threshold.
pub const OVERUSE_THRESHOLD: f64 = 0.25;

/// Detector sustain time (seconds) before latching out of normal.
pub const OVERUSE_SUSTAIN: f64 = 0.05;

/// EWMA arrival-rate estimator.
///
/// Updates are time-weighted: an observation after a gap `g` carries
/// weight `1 − exp(−g/τ)` with `τ` = [`RATE_TAU`], so the estimate's
/// memory is `τ` seconds of history regardless of how often the caller
/// observes.
#[derive(Clone, Debug, Default)]
pub struct ArrivalEstimator {
    rate: f64,
    last_t: Option<f64>,
    carry: u64,
}

impl ArrivalEstimator {
    /// Observes `n` arrivals at time `t` (seconds, monotone per
    /// estimator). `n = 0` is a heartbeat: it decays the rate toward
    /// zero so an idle class does not freeze at its last busy reading.
    pub fn observe_n(&mut self, t: f64, n: u64) {
        if !t.is_finite() {
            return;
        }
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
        let w = 1.0 - (-gap / RATE_TAU).exp();
        self.rate += w * (n as f64 / gap - self.rate);
    }

    /// Smoothed arrivals per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// Detector verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OveruseState {
    /// The observed rate is climbing past the baseline faster than the
    /// threshold, sustained: the class is overusing its recent budget.
    Overuse,
    /// Rate tracking its baseline.
    #[default]
    Normal,
    /// Rate sustainedly below baseline.
    Underuse,
}

impl OveruseState {
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
/// baseline (time constant [`BASELINE_TAU`]): `(rate − baseline) /
/// baseline`. A gradient beyond `±`[`OVERUSE_THRESHOLD`] must persist
/// for [`OVERUSE_SUSTAIN`] seconds before the state latches to
/// [`OveruseState::Overuse`] / [`OveruseState::Underuse`] (the sustain
/// guard is what keeps one bursty batch from flapping the state); any
/// in-band observation snaps back to normal. A cold-start ramp from zero
/// reads as overuse by design — a class whose arrival rate is climbing
/// faster than its history *is* overusing its recent budget.
#[derive(Clone, Debug, Default)]
pub struct OveruseDetector {
    baseline: f64,
    last_t: Option<f64>,
    /// `(is_overuse, since)` for the current out-of-band excursion.
    breach: Option<(bool, f64)>,
    state: OveruseState,
}

impl OveruseDetector {
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
        let w = 1.0 - (-gap / BASELINE_TAU).exp();
        self.baseline += w * (rate - self.baseline);

        let over = if gradient > OVERUSE_THRESHOLD {
            true
        } else if gradient < -OVERUSE_THRESHOLD {
            false
        } else {
            self.breach = None;
            self.state = OveruseState::Normal;
            return self.state;
        };
        match self.breach {
            Some((dir, since)) if dir == over => {
                if t - since >= OVERUSE_SUSTAIN {
                    self.state = if over {
                        OveruseState::Overuse
                    } else {
                        OveruseState::Underuse
                    };
                }
            }
            _ => self.breach = Some((over, t)),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_arrivals_converge_to_the_true_rate() {
        let mut est = ArrivalEstimator::default();
        // 100 arrivals/sec in perfectly even 10ms batches of 1.
        for i in 0..1000 {
            est.observe_n(i as f64 * 0.01, 1);
        }
        assert!((est.rate() - 100.0).abs() < 5.0, "rate {}", est.rate());
    }

    #[test]
    fn idle_heartbeats_decay_the_rate() {
        let mut est = ArrivalEstimator::default();
        for i in 0..100 {
            est.observe_n(i as f64 * 0.01, 10); // 1000/s
        }
        let busy = est.rate();
        assert!(busy > 500.0, "{busy}");
        // Eight time constants of silence.
        for i in 0..200 {
            est.observe_n(1.0 + i as f64 * 0.01, 0);
        }
        assert!(est.rate() < busy / 100.0, "idle must decay: {}", est.rate());
    }

    #[test]
    fn same_tick_observations_fold_into_the_next_gap() {
        let mut a = ArrivalEstimator::default();
        let mut b = ArrivalEstimator::default();
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
    }

    #[test]
    fn detector_latches_overuse_on_a_sustained_ramp_and_recovers() {
        let mut det = OveruseDetector::default();
        // Steady 100/s for 2.5 baseline time constants: the cold-start
        // ramp clears and the state reads normal.
        let mut t = 0.0;
        for _ in 0..500 {
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
        // Collapse to a trickle: underuse.
        for _ in 0..20 {
            det.update(t, 10.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Underuse);
    }

    #[test]
    fn one_spike_inside_the_sustain_window_does_not_latch() {
        let mut det = OveruseDetector::default();
        let mut t = 0.0;
        // Warm up for five baseline time constants, so the baseline has
        // converged and the cold-start ramp has fully cleared.
        for _ in 0..1000 {
            det.update(t, 100.0);
            t += 0.01;
        }
        assert_eq!(det.state(), OveruseState::Normal);
        // A single out-of-band sample shorter than the sustain time:
        det.update(t, 500.0);
        t += 0.001;
        assert_eq!(det.update(t, 100.0), OveruseState::Normal);
    }

    #[test]
    fn a_clock_that_steps_back_is_not_credited_twice() {
        let feed = |ts: &[f64]| {
            let mut det = OveruseDetector::default();
            for &t in ts {
                det.update(t, 100.0);
            }
            det.baseline()
        };
        // The back-step to 0.5 credits nothing, and 1.0 → 1.5 is half a
        // second, not the full second since 0.5.
        assert_eq!(feed(&[0.0, 1.0, 0.5, 1.5]), feed(&[0.0, 1.0, 1.5]));
    }
}

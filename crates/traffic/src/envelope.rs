//! Piecewise-linear concave traffic-constraint functions.
//!
//! A traffic-constraint function `F(I)` (Definition 2) bounds the traffic a
//! stream may present in *any* interval of length `I`. Everything the
//! paper's delay machinery needs is closed over piecewise-linear concave
//! functions:
//!
//! * a leaky-bucket source is `min(C·I, T + ρ·I)`;
//! * aggregation (Eq. 2) is a pointwise *sum*;
//! * upstream jitter `Y` (Theorem 1 / Theorem 2.1 of Cruz) is a *shift*
//!   `F(I + Y)`;
//! * the physical per-input-link cap is a *min with the line* `C·I`;
//! * the worst-case delay (Eq. 3) is `max_{I>0}(F(I) − C·I) / C`, the
//!   scaled maximal vertical deviation above the service line.
//!
//! The representation is a list of breakpoints `(I, F(I))` with `I`
//! strictly increasing from `0`, plus the slope after the last breakpoint.
//! `F(0)` may be positive (an instantaneous burst).

/// A non-decreasing, concave, piecewise-linear function on `[0, ∞)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Breakpoints `(I, F(I))`, `I` strictly increasing, first `I == 0`.
    points: Vec<(f64, f64)>,
    /// Slope for `I` beyond the last breakpoint.
    final_slope: f64,
}

const EPS: f64 = 1e-9;

impl Envelope {
    /// The zero function.
    pub fn zero() -> Self {
        Self {
            points: vec![(0.0, 0.0)],
            final_slope: 0.0,
        }
    }

    /// A pure token bucket `σ + ρ·I` (no link-rate cap): an instantaneous
    /// burst `σ` plus sustained rate `ρ`.
    pub fn token_bucket(sigma: f64, rho: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "burst must be >= 0");
        assert!(rho >= 0.0 && rho.is_finite(), "rate must be >= 0");
        Self {
            points: vec![(0.0, sigma)],
            final_slope: rho,
        }
    }

    /// The line `rate · I` through the origin.
    pub fn line(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be >= 0");
        Self {
            points: vec![(0.0, 0.0)],
            final_slope: rate,
        }
    }

    /// A leaky-bucket source on a link of capacity `c`:
    /// `min(c·I, σ + ρ·I)` (Section 3).
    ///
    /// # Examples
    /// ```
    /// use uba_traffic::Envelope;
    /// // The paper's VoIP source on a 100 Mb/s link.
    /// let e = Envelope::leaky_bucket(640.0, 32_000.0, 100e6);
    /// assert_eq!(e.eval(0.0), 0.0);              // the link caps the origin
    /// assert!((e.eval(1.0) - 32_640.0) < 1e-9);  // burst + one second of rate
    /// // Aggregating 10 such flows against a 1 Mb/s server queues:
    /// let agg = e.scale(10.0);
    /// assert!(agg.delay(1e6).unwrap() >= 0.0);
    /// ```
    pub fn leaky_bucket(sigma: f64, rho: f64, c: f64) -> Self {
        Self::token_bucket(sigma, rho).min_with_line(c)
    }

    /// The breakpoints, for inspection.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Slope beyond the last breakpoint — the long-run rate.
    pub fn final_slope(&self) -> f64 {
        self.final_slope
    }

    /// The burst at the origin, `F(0)`.
    pub fn burst(&self) -> f64 {
        self.points[0].1
    }

    /// Evaluates `F(I)`.
    pub fn eval(&self, i: f64) -> f64 {
        assert!(i >= 0.0, "envelope domain is [0, inf)");
        let pts = &self.points;
        // Find the last breakpoint with x <= i.
        let idx = match pts.binary_search_by(|&(x, _)| x.total_cmp(&i)) {
            Ok(k) => k,
            Err(0) => 0, // impossible given first x == 0, but stay safe
            Err(k) => k - 1,
        };
        let (x0, y0) = pts[idx];
        let slope = if idx + 1 < pts.len() {
            let (x1, y1) = pts[idx + 1];
            (y1 - y0) / (x1 - x0)
        } else {
            self.final_slope
        };
        y0 + slope * (i - x0)
    }

    /// True if segment slopes are non-increasing (within tolerance).
    pub fn is_concave(&self) -> bool {
        let mut prev = f64::INFINITY;
        for w in self.points.windows(2) {
            let s = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            if s > prev * (1.0 + 1e-9) + EPS {
                return false;
            }
            prev = s;
        }
        self.final_slope <= prev * (1.0 + 1e-9) + EPS
    }

    /// Pointwise sum `F + G` (aggregation of streams, Eq. 2).
    pub fn sum(&self, other: &Envelope) -> Envelope {
        let mut xs: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(x, _)| x)
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() <= EPS * (1.0 + a.abs()));
        let points = xs
            .into_iter()
            .map(|x| (x, self.eval(x) + other.eval(x)))
            .collect();
        Envelope {
            points,
            final_slope: self.final_slope + other.final_slope,
        }
        .normalized()
    }

    /// Scales values by `k >= 0` (aggregating `k` identical flows when `k`
    /// is an integer; Theorem 1 uses `n_{k,j} · H_k(I)`).
    pub fn scale(&self, k: f64) -> Envelope {
        assert!(k >= 0.0 && k.is_finite(), "scale factor must be >= 0");
        Envelope {
            points: self.points.iter().map(|&(x, v)| (x, v * k)).collect(),
            final_slope: self.final_slope * k,
        }
    }

    /// The jitter shift `G(I) = F(I + y)` (Cruz's Theorem 2.1: after
    /// suffering at most `y` seconds of delay, a stream constrained by `F`
    /// is constrained by `F(I + y)`).
    pub fn shift(&self, y: f64) -> Envelope {
        assert!(y >= 0.0 && y.is_finite(), "shift must be >= 0");
        if y == 0.0 {
            return self.clone();
        }
        let mut points = vec![(0.0, self.eval(y))];
        for &(x, v) in &self.points {
            if x > y + EPS {
                points.push((x - y, v));
            }
        }
        Envelope {
            points,
            final_slope: self.final_slope,
        }
        .normalized()
    }

    /// Pointwise `min(F(I), c·I)` — the physical cap of a link of capacity
    /// `c` feeding a server.
    pub fn min_with_line(&self, c: f64) -> Envelope {
        assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
        // h(x) = F(x) − c·x; crossings of h with 0 become new breakpoints.
        let mut xs: Vec<f64> = self.points.iter().map(|&(x, _)| x).collect();
        let h = |x: f64| self.eval(x) - c * x;
        // Interior crossings.
        for w in self.points.windows(2) {
            let (x0, x1) = (w[0].0, w[1].0);
            let (h0, h1) = (h(x0), h(x1));
            if (h0 > 0.0 && h1 < 0.0) || (h0 < 0.0 && h1 > 0.0) {
                let t = h0 / (h0 - h1);
                xs.push(x0 + t * (x1 - x0));
            }
        }
        // Crossing in the final open segment.
        let (xn, _) = *self.points.last().unwrap();
        let hn = h(xn);
        let hslope = self.final_slope - c;
        if hn > 0.0 && hslope < 0.0 {
            xs.push(xn + hn / -hslope);
        } else if hn < 0.0 && hslope > 0.0 {
            xs.push(xn + -hn / hslope);
        }
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() <= EPS * (1.0 + a.abs()));
        let points: Vec<(f64, f64)> = xs
            .into_iter()
            .map(|x| (x, self.eval(x).min(c * x)))
            .collect();
        // Beyond the last breakpoint both branches are linear; the final
        // slope belongs to whichever branch is lower asymptotically.
        let final_slope = {
            let (xl, _) = *points.last().unwrap();
            let probe = xl + 1.0;
            if self.eval(probe) <= c * probe {
                self.final_slope
            } else {
                c
            }
        };
        Envelope {
            points,
            final_slope,
        }
        .normalized()
    }

    /// `max_{I >= 0} (F(I) − c·I)` and its arg-max, i.e. the worst-case
    /// backlog of Eq. (3); the delay is this divided by `c`.
    ///
    /// Returns `None` when the maximum is unbounded (`final_slope > c`,
    /// an unstable server).
    pub fn busy_max(&self, c: f64) -> Option<(f64, f64)> {
        assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
        if self.final_slope > c + EPS {
            return None;
        }
        let mut best = (f64::NEG_INFINITY, 0.0);
        for &(x, v) in &self.points {
            let hv = v - c * x;
            if hv > best.0 {
                best = (hv, x);
            }
        }
        Some(best)
    }

    /// Worst-case queueing delay of a work-conserving server of capacity
    /// `c` fed by this aggregate: `max(0, busy_max / c)`. `None` if the
    /// server is unstable.
    pub fn delay(&self, c: f64) -> Option<f64> {
        self.busy_max(c).map(|(h, _)| (h / c).max(0.0))
    }

    /// Removes collinear interior breakpoints (keeps eval identical).
    fn normalized(mut self) -> Envelope {
        if self.points.len() < 2 {
            return self;
        }
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(self.points.len());
        out.push(self.points[0]);
        for i in 1..self.points.len() {
            let (x2, y2) = self.points[i];
            loop {
                if out.len() < 2 {
                    break;
                }
                let (x0, y0) = out[out.len() - 2];
                let (x1, y1) = out[out.len() - 1];
                let s01 = (y1 - y0) / (x1 - x0);
                let s12 = (y2 - y1) / (x2 - x1);
                if (s01 - s12).abs() <= EPS * (1.0 + s01.abs()) {
                    out.pop();
                } else {
                    break;
                }
            }
            out.push((x2, y2));
        }
        // Last interior point collinear with the final slope?
        while out.len() >= 2 {
            let (x0, y0) = out[out.len() - 2];
            let (x1, y1) = out[out.len() - 1];
            let s01 = (y1 - y0) / (x1 - x0);
            if (s01 - self.final_slope).abs() <= EPS * (1.0 + s01.abs()) {
                out.pop();
            } else {
                break;
            }
        }
        self.points = out;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 100e6;

    fn voip_source() -> Envelope {
        Envelope::leaky_bucket(640.0, 32_000.0, C)
    }

    #[test]
    fn token_bucket_eval() {
        let e = Envelope::token_bucket(100.0, 10.0);
        assert_eq!(e.eval(0.0), 100.0);
        assert_eq!(e.eval(2.0), 120.0);
        assert_eq!(e.burst(), 100.0);
    }

    #[test]
    fn leaky_bucket_has_knee_at_drain_time() {
        let e = voip_source();
        // Knee where C·I = 640 + 32000·I  =>  I* = 640 / (C − 32000).
        let knee = 640.0 / (C - 32_000.0);
        assert_eq!(e.eval(0.0), 0.0);
        assert!((e.eval(knee) - C * knee).abs() < 1e-3);
        assert!((e.eval(1.0) - 32_640.0).abs() < 1e-6);
        assert_eq!(e.final_slope(), 32_000.0);
        assert!(e.is_concave());
    }

    #[test]
    fn sum_is_pointwise() {
        let a = Envelope::token_bucket(10.0, 1.0);
        let b = Envelope::token_bucket(20.0, 2.0);
        let s = a.sum(&b);
        for &x in &[0.0, 0.5, 1.0, 3.0, 100.0] {
            assert!((s.eval(x) - (a.eval(x) + b.eval(x))).abs() < 1e-9);
        }
        assert_eq!(s.final_slope(), 3.0);
    }

    #[test]
    fn scale_matches_repeated_sum() {
        let a = voip_source();
        let threefold = a.scale(3.0);
        let summed = a.sum(&a).sum(&a);
        for &x in &[0.0, 1e-6, 1e-4, 0.01, 1.0] {
            assert!(
                (threefold.eval(x) - summed.eval(x)).abs() < 1e-6,
                "mismatch at {x}"
            );
        }
    }

    #[test]
    fn shift_advances_the_function() {
        let e = Envelope::token_bucket(100.0, 10.0);
        let s = e.shift(2.0);
        // F(I + 2) = 100 + 10(I + 2) = 120 + 10 I.
        assert!((s.eval(0.0) - 120.0).abs() < 1e-12);
        assert!((s.eval(1.0) - 130.0).abs() < 1e-12);
    }

    #[test]
    fn shift_zero_is_identity() {
        let e = voip_source();
        assert_eq!(e.shift(0.0), e);
    }

    #[test]
    fn shift_of_capped_envelope_keeps_concavity() {
        let e = voip_source().shift(0.003);
        assert!(e.is_concave());
        // Shifting past the knee leaves a pure token bucket.
        assert!((e.final_slope() - 32_000.0).abs() < 1e-9);
        assert!(e.burst() > 640.0);
    }

    #[test]
    fn min_with_line_caps_the_burst() {
        let tb = Envelope::token_bucket(1000.0, 10.0);
        let capped = tb.min_with_line(100.0);
        assert_eq!(capped.eval(0.0), 0.0);
        // Before the knee the line rules.
        assert!((capped.eval(1.0) - 100.0).abs() < 1e-9);
        // Knee at 1000/(100-10) ≈ 11.11; after it the bucket rules.
        assert!((capped.eval(20.0) - 1200.0).abs() < 1e-9);
        assert!(capped.is_concave());
    }

    #[test]
    fn min_with_line_when_line_never_binds() {
        let tb = Envelope::token_bucket(10.0, 1.0);
        // Rate cap far above: only near 0 does the line bind.
        let capped = tb.min_with_line(1e9);
        assert_eq!(capped.eval(0.0), 0.0);
        assert!((capped.eval(1.0) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn min_with_line_when_rate_exceeds_capacity() {
        // Bucket rate above capacity: after the burst clears, the cap rules
        // forever.
        let tb = Envelope::token_bucket(10.0, 200.0);
        let capped = tb.min_with_line(100.0);
        assert_eq!(capped.final_slope(), 100.0);
        assert!((capped.eval(1.0) - 100.0).abs() < 1e-9);
        assert!(capped.is_concave());
    }

    #[test]
    fn busy_max_of_stable_aggregate() {
        // 10 voip flows, each jitter-free: aggregate burst 6400 bits.
        let agg = Envelope::token_bucket(6400.0, 320_000.0).min_with_line(C);
        let (h, at) = agg.busy_max(C).unwrap();
        // Max of min(C·I, σ + ρI) − C·I is σ·(1 − ρ/C)... at the knee? The
        // curve is below C·I only at the knee onward; deviation maxes at the
        // knee: h = 0 there. For a single input link feeding a server of the
        // same capacity there is no queueing.
        assert!(h.abs() < 1e-6, "h = {h} at {at}");
    }

    #[test]
    fn busy_max_detects_instability() {
        let agg = Envelope::token_bucket(100.0, 2.0 * C);
        assert!(agg.busy_max(C).is_none());
        assert!(agg.delay(C).is_none());
    }

    #[test]
    fn delay_of_two_input_aggregate_positive() {
        // Two input links each delivering a capped burst: the server sees
        // more than C for a while and queues.
        let per_link = Envelope::token_bucket(1e6, 0.3 * C).min_with_line(C);
        let agg = per_link.sum(&per_link);
        let d = agg.delay(C).unwrap();
        assert!(d > 0.0);
        // Sanity: delay bounded by total burst / C.
        assert!(d <= 2.0 * 1e6 / C + 1e-9);
    }

    #[test]
    fn delay_at_exact_saturation_is_finite() {
        let agg = Envelope::token_bucket(1000.0, C);
        let d = agg.delay(C).unwrap();
        assert!((d - 1000.0 / C).abs() < 1e-12);
    }
}

//! Traffic source models.
//!
//! Every model conforms to its class's leaky bucket `(T, ρ)` — the
//! admission guarantee only covers policed traffic — but they differ in
//! adversarialness: the greedy model realizes the bucket's worst case
//! (full burst at `t = 0`, then sustained rate), while CBR models a real
//! voice codec.

/// How a flow emits packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SourceModel {
    /// Worst-case bucket exerciser: emits `⌈T/packet⌉` packets back to
    /// back at `start`, then one packet every `packet/ρ` seconds.
    GreedyOnOff {
        /// Burst size `T` in bits.
        burst_bits: f64,
        /// Sustained rate `ρ` in bits/s.
        rate_bps: f64,
        /// Packet size in bits.
        packet_bits: u64,
        /// Time of the initial burst, seconds.
        start: f64,
    },
    /// Constant bit rate: one packet of `packet_bits` every `period`
    /// seconds starting at `offset` (a G.711-style voice codec is
    /// `packet_bits = 640`, `period = 0.02`).
    Cbr {
        /// Inter-packet period, seconds.
        period: f64,
        /// Packet size in bits.
        packet_bits: u64,
        /// First-packet offset, seconds.
        offset: f64,
    },
    /// Phase-alternating on/off source with a bounded lifetime: emits at
    /// `peak_bps` during on-phases, nothing during off-phases, and only
    /// within `[start, stop]`. Its *mean* rate is
    /// `peak_bps · on_s / (on_s + off_s)` — declare that as the flow's
    /// `ρ` and the source is burstier than its contract looks, which is
    /// exactly the workload the policy-pipeline burst benchmarks feed
    /// the token-bucket/AIMD stages.
    OnOff {
        /// Emission rate during an on-phase, bits/s.
        peak_bps: f64,
        /// Packet size in bits.
        packet_bits: u64,
        /// On-phase length, seconds.
        on_s: f64,
        /// Off-phase length, seconds.
        off_s: f64,
        /// Source activation time (first on-phase begins here), seconds.
        start: f64,
        /// Source teardown time — no emissions after this, seconds.
        stop: f64,
    },
    /// A *misbehaving* source that ignores its traffic contract: emits at
    /// `factor` times the nominal CBR rate. Exists to exercise ingress
    /// policing — without a policer it would invade other flows'
    /// guarantees.
    Rogue {
        /// Nominal inter-packet period the contract assumed, seconds.
        period: f64,
        /// Packet size in bits.
        packet_bits: u64,
        /// Rate violation factor (> 1).
        factor: f64,
    },
}

impl SourceModel {
    /// The worst-case VoIP source of the paper's experiment: 640-bit
    /// packets, 32 kbit/s, burst of one packet, synchronized at `start`.
    pub fn voip_greedy(start: f64) -> Self {
        SourceModel::GreedyOnOff {
            burst_bits: 640.0,
            rate_bps: 32_000.0,
            packet_bits: 640,
            start,
        }
    }

    /// A well-behaved VoIP codec with the given phase offset.
    pub fn voip_cbr(offset: f64) -> Self {
        SourceModel::Cbr {
            period: 0.02,
            packet_bits: 640,
            offset,
        }
    }

    /// Packet size in bits.
    pub fn packet_bits(&self) -> u64 {
        match *self {
            SourceModel::GreedyOnOff { packet_bits, .. } => packet_bits,
            SourceModel::Cbr { packet_bits, .. } => packet_bits,
            SourceModel::OnOff { packet_bits, .. } => packet_bits,
            SourceModel::Rogue { packet_bits, .. } => packet_bits,
        }
    }

    /// What [`emission_iter`](Self::emission_iter) yields, collected.
    pub fn emissions(&self, horizon: f64) -> Vec<f64> {
        self.emission_iter(horizon).collect()
    }

    /// The emission time (seconds) of every packet up to `horizon`, in
    /// non-decreasing order: the one walk over a source.
    ///
    /// The engine keeps one of these per flow as a resumable cursor and
    /// takes each flow's emissions a time window at a time, so a run holds
    /// only the emissions of the window it is reading, whatever the
    /// horizon. `horizon` must be finite for the walk to end (the engine
    /// asserts it).
    ///
    /// # Panics
    /// Panics, before the first emission, on parameters whose walk would
    /// not end or would silently emit nothing: a zero packet size, a
    /// non-positive period or rate, a `start` / `offset` that is not
    /// finite, a rogue factor of at most 1, or on/off phases that are not
    /// positive. Also on a negative `start` / `offset`: the engine's clock
    /// starts at 0, so every earlier emission would enter at once, a burst
    /// the source's `(T, ρ)` contract forbids. And on a packet gap (or an
    /// on/off cycle) that cannot move the clock where the walk ends — zero,
    /// as an infinite rate or rogue factor gives, or below the spacing of
    /// floats there — which would hold the walk at one instant for ever.
    pub fn emission_iter(&self, horizon: f64) -> Emissions {
        let steady = |t, copies, gap| {
            assert_advances(gap, horizon, "the packet gap");
            Emissions {
                t,
                gap,
                end: horizon,
                walk: Walk::Steady { copies },
            }
        };
        match *self {
            SourceModel::GreedyOnOff {
                burst_bits,
                rate_bps,
                packet_bits,
                start,
            } => {
                assert!(packet_bits > 0, "packet size must be positive");
                assert!(
                    rate_bps > 0.0 && rate_bps.is_finite(),
                    "rate must be positive and finite"
                );
                assert!(start.is_finite(), "start must be finite");
                assert!(start >= 0.0, "start must be non-negative");
                // The burst is emitted instantaneously at `start` (the
                // access shaper serializes it at link rate), then steady
                // state at rho. Token-bucket conformance: after the burst
                // the bucket is empty and refills at rho, so the next
                // packet may leave when `packet_bits` tokens are back.
                let burst_pkts = (burst_bits / packet_bits as f64).floor().max(1.0) as u64;
                steady(start, burst_pkts, packet_bits as f64 / rate_bps)
            }
            SourceModel::Cbr {
                period,
                packet_bits,
                offset,
            } => {
                assert!(packet_bits > 0 && period > 0.0, "bad CBR parameters");
                assert!(offset.is_finite(), "offset must be finite");
                assert!(offset >= 0.0, "offset must be non-negative");
                steady(offset, 1, period)
            }
            SourceModel::OnOff {
                peak_bps,
                packet_bits,
                on_s,
                off_s,
                start,
                stop,
            } => {
                assert!(packet_bits > 0, "packet size must be positive");
                assert!(
                    peak_bps > 0.0 && on_s > 0.0 && off_s >= 0.0,
                    "bad on/off parameters"
                );
                assert!(start.is_finite(), "start must be finite");
                assert!(start >= 0.0, "start must be non-negative");
                assert!(stop >= start, "stop must not precede start");
                let (gap, end, cycle) = (
                    packet_bits as f64 / peak_bps,
                    stop.min(horizon),
                    on_s + off_s,
                );
                assert_advances(gap, end, "the packet gap");
                assert_advances(cycle, end, "the on/off cycle");
                Emissions {
                    t: start,
                    gap,
                    end,
                    walk: Walk::Phased {
                        k: 0,
                        on: on_s * (1.0 - 1e-12),
                        cycle,
                    },
                }
            }
            SourceModel::Rogue {
                period,
                packet_bits,
                factor,
            } => {
                assert!(packet_bits > 0 && period > 0.0, "bad rogue parameters");
                assert!(factor > 1.0, "a rogue source must exceed its contract");
                steady(0.0, 1, period / factor)
            }
        }
    }
}

/// Panics unless stepping by `step` moves every time a walk can reach
/// before `end`: `t + step > t` for each `t` in `[0, end]`, which holds
/// once `step` is at least the spacing of floats at `end` (`end + step >
/// end` alone can still round a tie down below `end`).
fn assert_advances(step: f64, end: f64, what: &str) {
    let reach = end.max(0.0);
    assert!(
        step >= reach.next_up() - reach,
        "{what} must move the clock at the horizon"
    );
}

/// A source's emission times up to a horizon, from
/// [`SourceModel::emission_iter`].
#[derive(Clone, Debug)]
pub struct Emissions {
    /// The next emission time; on/off, the current on-phase's start.
    t: f64,
    /// Time between consecutive packets.
    gap: f64,
    /// No emission after this.
    end: f64,
    walk: Walk,
}

/// The two shapes every model's emissions take.
#[derive(Clone, Copy, Debug)]
enum Walk {
    /// `copies` emissions at `t`, then one at each `t += gap` (greedy
    /// burst and steady state, CBR, rogue). The time accumulates, as the
    /// models' definitions step it.
    Steady { copies: u64 },
    /// On-phases starting at `t` and every `cycle` after, each emitting
    /// at `t + k·gap` while `k·gap` is below `on`. Times come from the
    /// packet index, not an accumulator, so a 50-packet phase stays 50
    /// packets instead of drifting an extra one past its end; a packet
    /// landing exactly on the phase end belongs to the silence after it.
    Phased { k: u64, on: f64, cycle: f64 },
}

impl Emissions {
    /// Hands `visit` one emission after another until it returns `false`
    /// (that emission is taken too) or the walk ends. The walk's shape is
    /// matched once per call, not once per emission.
    pub(crate) fn visit_while(&mut self, mut visit: impl FnMut(f64) -> bool) {
        match &mut self.walk {
            Walk::Steady { copies } => loop {
                if *copies == 0 {
                    self.t += self.gap;
                } else {
                    *copies -= 1;
                }
                if !(self.t <= self.end && visit(self.t)) {
                    return;
                }
            },
            Walk::Phased { k, on, cycle } => {
                while self.t <= self.end {
                    let off = *k as f64 * self.gap;
                    let t = self.t + off;
                    if off < *on && t <= self.end {
                        *k += 1;
                        if !visit(t) {
                            return;
                        }
                    } else {
                        self.t += *cycle;
                        *k = 0;
                    }
                }
            }
        }
    }
}

impl Iterator for Emissions {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let mut next = None;
        self.visit_while(|t| {
            next = Some(t);
            false
        });
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_voip_emits_burst_then_cbr() {
        let s = SourceModel::voip_greedy(0.0);
        let e = s.emissions(0.1);
        // Burst of 1 packet at 0, then every 20 ms: 0, 0.02, ..., 0.10.
        assert_eq!(e.len(), 6);
        assert_eq!(e[0], 0.0);
        assert!((e[1] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn greedy_with_multi_packet_burst() {
        let s = SourceModel::GreedyOnOff {
            burst_bits: 3200.0,
            rate_bps: 32_000.0,
            packet_bits: 640,
            start: 0.0,
        };
        let e = s.emissions(0.0);
        assert_eq!(e.len(), 5); // 5 back-to-back packets at t = 0
        assert!(e.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn conformance_to_bucket() {
        // Over any window [t, t+I], emitted bits <= T + rho*I + packet
        // (one packet of slack for the discrete boundary).
        let s = SourceModel::voip_greedy(0.0);
        let e = s.emissions(2.0);
        let bits = 640.0;
        for i in 0..e.len() {
            for j in i..e.len() {
                let window = e[j] - e[i];
                let emitted = (j - i + 1) as f64 * bits;
                assert!(
                    emitted <= 640.0 + 32_000.0 * window + bits + 1e-6,
                    "burst violation over [{}, {}]",
                    e[i],
                    e[j]
                );
            }
        }
    }

    #[test]
    fn cbr_spacing() {
        let s = SourceModel::voip_cbr(0.005);
        let e = s.emissions(0.1);
        assert_eq!(e.len(), 5);
        for w in e.windows(2) {
            assert!((w[1] - w[0] - 0.02).abs() < 1e-12);
        }
        assert!((e[0] - 0.005).abs() < 1e-12);
    }

    #[test]
    fn onoff_emits_only_during_on_phases_within_its_lifetime() {
        // 400 kb/s peak, 8000-bit packets (gap 20 ms), on 1 s / off 3 s,
        // alive on [2, 12]: mean rate 100 kb/s, but 4x that while on.
        let s = SourceModel::OnOff {
            peak_bps: 400_000.0,
            packet_bits: 8000,
            on_s: 1.0,
            off_s: 3.0,
            start: 2.0,
            stop: 12.0,
        };
        let e = s.emissions(20.0);
        assert!(!e.is_empty());
        // Every emission falls inside an on-phase of the [2, 12] window.
        for &t in &e {
            assert!((2.0..=12.0).contains(&t), "emission {t} outside lifetime");
            let in_cycle = (t - 2.0) % 4.0;
            assert!(in_cycle < 1.0, "emission {t} during an off-phase");
        }
        // Three whole cycles fit (on-phases at 2, 6, 10): 50 packets
        // each — the half-open phase end excludes the 51st.
        assert_eq!(e.len(), 150);
        // Long-run mean matches the duty-cycled rate: 150 packets ×
        // 8000 bits over the 10 s lifetime ≈ 120 kb/s (the final
        // on-phase has no trailing off-phase to average it down).
        let bits = e.len() as f64 * 8000.0;
        assert!((bits / 10.0 - 120_000.0).abs() < 1e-6);
    }

    #[test]
    fn onoff_stop_and_horizon_both_clip() {
        let s = SourceModel::OnOff {
            peak_bps: 80_000.0,
            packet_bits: 8000,
            on_s: 1.0,
            off_s: 1.0,
            start: 0.0,
            stop: 3.5,
        };
        // Horizon shorter than lifetime clips to the horizon.
        let by_horizon = s.emissions(1.5);
        assert!(by_horizon.iter().all(|&t| t <= 1.5));
        assert_eq!(by_horizon.len(), 10); // only the [0, 1) on-phase
                                          // Lifetime shorter than horizon clips to `stop`.
        let by_stop = s.emissions(100.0);
        assert!(by_stop.iter().all(|&t| t <= 3.5));
        assert_eq!(by_stop.len(), 20); // the [0,1) and [2,3) on-phases, in full
    }

    #[test]
    fn horizon_respected() {
        let s = SourceModel::voip_cbr(0.0);
        assert!(s.emissions(0.0).len() == 1);
        assert!(s.emissions(-1.0).is_empty());
    }

    // Each of these walks would step backwards or stay at −∞ forever, or
    // (NaN) emit nothing and pass for a silent source.

    fn greedy(rate_bps: f64, start: f64) -> SourceModel {
        SourceModel::GreedyOnOff {
            burst_bits: 640.0,
            rate_bps,
            packet_bits: 640,
            start,
        }
    }

    fn onoff(start: f64) -> SourceModel {
        SourceModel::OnOff {
            peak_bps: 64_000.0,
            packet_bits: 640,
            on_s: 0.1,
            off_s: 0.1,
            start,
            stop: 1.0,
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive and finite")]
    fn a_negative_greedy_rate_is_rejected() {
        greedy(-32_000.0, 0.0).emissions(1.0);
    }

    #[test]
    #[should_panic(expected = "start must be finite")]
    fn a_greedy_start_at_minus_infinity_is_rejected() {
        greedy(32_000.0, f64::NEG_INFINITY).emissions(1.0);
    }

    #[test]
    #[should_panic(expected = "start must be finite")]
    fn a_nan_greedy_start_is_rejected() {
        greedy(32_000.0, f64::NAN).emissions(1.0);
    }

    #[test]
    #[should_panic(expected = "offset must be finite")]
    fn a_cbr_offset_at_minus_infinity_is_rejected() {
        SourceModel::voip_cbr(f64::NEG_INFINITY).emissions(1.0);
    }

    #[test]
    #[should_panic(expected = "offset must be finite")]
    fn a_nan_cbr_offset_is_rejected() {
        SourceModel::voip_cbr(f64::NAN).emissions(1.0);
    }

    #[test]
    #[should_panic(expected = "start must be finite")]
    fn an_onoff_start_at_minus_infinity_is_rejected() {
        onoff(f64::NEG_INFINITY).emissions(1.0);
    }

    #[test]
    #[should_panic(expected = "start must be finite")]
    fn a_nan_onoff_start_is_rejected() {
        onoff(f64::NAN).emissions(1.0);
    }

    // Before time 0, where the engine's clock starts: its emissions would
    // all enter at 0, as one burst.

    #[test]
    #[should_panic(expected = "start must be non-negative")]
    fn a_negative_greedy_start_is_rejected() {
        greedy(32_000.0, -1.0).emissions(0.1);
    }

    #[test]
    #[should_panic(expected = "offset must be non-negative")]
    fn a_negative_cbr_offset_is_rejected() {
        SourceModel::voip_cbr(-0.5).emissions(0.1);
    }

    #[test]
    #[should_panic(expected = "start must be non-negative")]
    fn a_negative_onoff_start_is_rejected() {
        onoff(-0.5).emissions(1.0);
    }

    // A walk that cannot advance would never end: each of these once
    // emitted without end at one instant (or, at 1e300 b/s, crept along
    // near 3e-290 s).

    #[test]
    #[should_panic(expected = "the packet gap must move the clock")]
    fn an_infinite_rogue_factor_is_rejected() {
        let rogue = SourceModel::Rogue {
            period: 0.02,
            packet_bits: 640,
            factor: f64::INFINITY,
        };
        rogue.emission_iter(0.1);
    }

    #[test]
    #[should_panic(expected = "the packet gap must move the clock")]
    fn an_infinite_onoff_peak_is_rejected() {
        let s = SourceModel::OnOff {
            peak_bps: f64::INFINITY,
            packet_bits: 8000,
            on_s: 1.0,
            off_s: 3.0,
            start: 0.0,
            stop: 12.0,
        };
        s.emission_iter(0.1);
    }

    #[test]
    #[should_panic(expected = "the packet gap must move the clock")]
    fn a_greedy_rate_whose_gap_vanishes_is_rejected() {
        greedy(1e300, 0.0).emission_iter(0.1);
    }

    #[test]
    #[should_panic(expected = "the packet gap must move the clock")]
    fn a_cbr_period_below_the_float_spacing_is_rejected() {
        let cbr = SourceModel::Cbr {
            period: 1e-300,
            packet_bits: 640,
            offset: 0.0,
        };
        cbr.emission_iter(0.1);
    }

    #[test]
    #[should_panic(expected = "the on/off cycle must move the clock")]
    fn an_onoff_cycle_below_the_float_spacing_is_rejected() {
        let s = SourceModel::OnOff {
            peak_bps: 1e12,
            packet_bits: 1,
            on_s: 1e-300,
            off_s: 0.0,
            start: 0.0,
            stop: 12.0,
        };
        s.emission_iter(0.1);
    }

    #[test]
    fn a_gap_of_one_float_spacing_at_the_horizon_still_walks() {
        let end = 0.1f64;
        let cbr = SourceModel::Cbr {
            period: end.next_up() - end,
            packet_bits: 640,
            offset: end - 4.0 * (end.next_up() - end),
        };
        assert_eq!(cbr.emissions(end).len(), 5);
    }
}

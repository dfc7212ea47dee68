//! The workspace's one histogram layout: log2 majors split into [`SUB`]
//! linear sub-buckets (the HDR-histogram layout) over a configurable base
//! unit, with a micro-unit sum and a max. A quantile reads to `1/SUB` of
//! the value — 12.5% — instead of a pure log2 layout's 2× band.
//!
//! [`Histogram`] has atomic slots, so hot paths record without locks at
//! three relaxed atomic ops a sample. [`Tally`] is its single-owner mirror
//! in plain fields (a simulation's per-class delays, a committed state's
//! solver residuals), which [`Histogram::merge`] publishes exactly. Only
//! this module maps a value to a slot or a slot back to a value.
//! A histogram also keeps an occupancy bitmap, one bit a slot, so its
//! readouts walk the slots a sample ever reached (a few dozen in
//! practice) rather than all [`BUCKETS`].
//! Whole-number samples (queue depths, hop, retry and iteration counts)
//! are counted per value by their owners and published with
//! [`Histogram::record_n`].

use crate::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 major buckets. Major 0 spans `[0, base)`; major
/// `m >= 1` spans `[base·2^(m-1), base·2^m)`; the last also absorbs
/// overflow.
const MAJORS: usize = 64;

/// Linear sub-buckets per major bucket. Each major's span is divided
/// into `SUB` equal slices, bounding the quantile readout error to
/// `1/SUB` of the sample value (12.5% at 8) rather than a factor of 2.
/// A power of two: a sample's sub-bucket is its leading mantissa bits.
pub const SUB: usize = 8;
const _: () = assert!(SUB.is_power_of_two());

/// Total slot count. Public APIs ([`Histogram::bucket_counts`],
/// [`slot_lower_bound`], the sparse JSON layout) are all indexed by slot
/// `0..BUCKETS`.
pub const BUCKETS: usize = MAJORS * SUB;

/// Words of the occupancy bitmap: one bit per slot.
const WORDS: usize = BUCKETS / 64;

/// Mantissa bits below a sample's sub-bucket bits.
const REST_BITS: u32 = 52 - SUB.trailing_zeros();

/// The bases the layout takes. Every slot bound of such a base is a
/// normal number, rounded once, which `slot_of` relies on.
const BASE_RANGE: std::ops::RangeInclusive<f64> = 1e-280..=1e280;

/// Micro-unit scale used for the running sum (so means stay exact to a
/// millionth of the base-unit over u64 ranges).
const SUM_SCALE: f64 = 1e6;

/// A concurrent log2-with-linear-sub-bucket histogram of non-negative
/// `f64` samples.
#[derive(Debug)]
pub struct Histogram {
    base: f64,
    // padding: bucket writes are sparse (threads batch locally and flush
    // every FLUSH_EVERY ops), so contention on any one line is rare;
    // padding each slot would blow a histogram up to ~64 KiB.
    buckets: [AtomicU64; BUCKETS],
    /// Bit `i % 64` of word `i / 64` is set once slot `i` has held a
    /// count: by the write whose `fetch_add` found the slot at zero, so
    /// a slot is non-zero only after (or while) its bit is set, and a
    /// bit is never cleared.
    occupied: [AtomicU64; WORDS],
    /// Running sum in micro-units (`value · 1e6`, rounded).
    sum_micro: AtomicU64,
    /// Largest recorded sample, as `f64` bits (valid because samples are
    /// non-negative, where the IEEE bit pattern is order-preserving).
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram whose first major-bucket boundary is `base` (e.g.
    /// `1e-9` for seconds-denominated latencies, `1.0` for counts).
    ///
    /// # Panics
    /// Panics unless `base` lies in `[1e-280, 1e280]`.
    pub fn with_base(base: f64) -> Self {
        assert!(BASE_RANGE.contains(&base), "base out of range");
        Self {
            base,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            occupied: [const { AtomicU64::new(0) }; WORDS],
            sum_micro: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// The first major-bucket boundary.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Records one sample. Negative or non-finite samples are clamped
    /// to zero (metrics must never panic in a hot path).
    #[inline]
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let (slot, units, v) = place(self.base, v);
        self.add(slot, n);
        self.sum_micro
            .fetch_add(units.saturating_mul(n), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds a tally's samples: every slot count, the micro-unit sum and
    /// the max, exactly as one [`record`](Self::record) per sample would
    /// have.
    ///
    /// # Panics
    /// Panics when the tally's base is not this histogram's.
    pub fn merge(&self, t: &Tally) {
        assert_eq!(
            self.base.to_bits(),
            t.base.to_bits(),
            "merging a tally of another base"
        );
        for (slot, &n) in t.counts.iter().enumerate().filter(|(_, &n)| n > 0) {
            self.add(slot, n);
        }
        self.sum_micro.fetch_add(t.sum_micro, Ordering::Relaxed);
        self.max_bits.fetch_max(t.max.to_bits(), Ordering::Relaxed);
    }

    /// Adds `n > 0` samples to `slot`, marking the slot occupied when
    /// it was empty.
    #[inline]
    fn add(&self, slot: usize, n: u64) {
        if self.buckets[slot].fetch_add(n, Ordering::Relaxed) == 0 {
            self.occupied[slot / 64].fetch_or(1 << (slot % 64), Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.occupied_counts().map(|(_, c)| c).sum()
    }

    /// Sum of the recorded samples (exact to the micro-unit).
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }

    /// Largest recorded sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Mean of the recorded samples, or `None` when empty. Exact to the
    /// micro-unit (not bucket resolution).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Upper bound of the slot containing the `q`-quantile
    /// (`0 < q <= 1`), or `None` when empty. Sub-bucket resolution —
    /// within `1/SUB` (12.5%) of the true value — which is tight enough
    /// for tail-latency gating.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let slots = self.sparse_counts();
        let total = slots.iter().map(|&(_, c)| c).sum();
        let [v] = quantiles_of_slots(self.base, &slots, total, [q]);
        v
    }

    /// A point-in-time copy of the non-zero slot counts, `(slot, count)`
    /// ascending by slot: what [`bucket_counts`](Self::bucket_counts)
    /// holds apart from its zeros, read from the occupied slots alone.
    pub fn sparse_counts(&self) -> Vec<(u32, u64)> {
        self.occupied_counts().map(|(i, c)| (i as u32, c)).collect()
    }

    /// The occupied slots' non-zero counts, ascending by slot. A slot
    /// whose count wrapped back to zero is skipped, as a zero is.
    fn occupied_counts(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.occupied.iter().enumerate().flat_map(move |(w, word)| {
            let mut bits = word.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let c = self.buckets[slot].load(Ordering::Relaxed);
                    if c != 0 {
                        return Some((slot, c));
                    }
                }
                None
            })
        })
    }

    /// A point-in-time copy of every slot count, index-aligned with
    /// [`slot_lower_bound`].
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// A [`Histogram`] with one owner: the same slots, micro-unit sum and
/// max in plain fields. Read it in place, or publish it into a registry
/// histogram of the same base with [`Histogram::merge`].
#[derive(Clone, Debug, PartialEq)]
pub struct Tally {
    base: f64,
    counts: [u64; BUCKETS],
    /// Running sum in micro-units, wrapping like the histogram's.
    sum_micro: u64,
    max: f64,
}

impl Tally {
    /// An empty tally whose first major-bucket boundary is `base`.
    ///
    /// # Panics
    /// Panics unless `base` lies in `[1e-280, 1e280]`.
    pub fn with_base(base: f64) -> Self {
        assert!(BASE_RANGE.contains(&base), "base out of range");
        Self {
            base,
            counts: [0; BUCKETS],
            sum_micro: 0,
            max: 0.0,
        }
    }

    /// Records one sample, sanitized as [`Histogram::record`] does.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let (slot, units, v) = place(self.base, v);
        self.counts[slot] += 1;
        self.sum_micro = self.sum_micro.wrapping_add(units);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest recorded sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// What [`Histogram::quantile`] reads for the same samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let [v] = quantiles_from_counts(self.base, &self.counts, self.count(), [q]);
        v
    }
}

/// Where a sample lands: its slot, its micro-units and its value, with a
/// negative or non-finite sample clamped to zero (metrics must never
/// panic in a hot path).
#[inline]
fn place(base: f64, v: f64) -> (usize, u64, f64) {
    let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
    (slot_of(base, v), micro(v), v)
}

/// A sanitized sample in micro-units, `(v · 1e6).round() as u64`, below
/// 2^63 without `round`'s library call: there `x - i` is exact.
#[inline]
fn micro(v: f64) -> u64 {
    const TWO_POW_63: f64 = (1u64 << 63) as f64;
    let x = v * SUM_SCALE;
    if x < TWO_POW_63 {
        let i = x as i64;
        (i + i64::from(x - i as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

/// Slot index of a sanitized sample for first boundary `base`. The guess
/// reads the ratio `v · (1 / base)` (the caller's work on `v` overlaps
/// the reciprocal, where `v / base` would wait on it). The ratio rounds,
/// so near an edge the guess can be one slot off (never two: a slot spans
/// at least 1/16 of its values); there the fix-up step re-anchors against
/// [`slot_lower_bound`], so a sample equal to a slot's lower bound lands
/// back in that slot, as the sparse-JSON replay needs.
#[inline]
fn slot_of(base: f64, v: f64) -> usize {
    let ratio = v * base.recip();
    let guess = if ratio < 1.0 {
        // Major 0 is linear over [0, base).
        ((ratio * SUB as f64) as usize).min(SUB - 1)
    } else {
        // For a ratio in [2^p, 2^(p+1)), p is its binary exponent and
        // the linear position inside the major, ratio/2^p in [1, 2),
        // is in its leading mantissa bits: read both off the bits, no
        // `powi` or integer conversion. An exponent beyond the last
        // major (or an infinite ratio) clamps to the top slot.
        let bits = ratio.to_bits();
        let p = (bits >> 52) as usize - 1023;
        if p >= MAJORS - 1 {
            BUCKETS - 1
        } else {
            let sub = (bits >> REST_BITS) as usize & (SUB - 1);
            let s = (p + 1) * SUB + sub;
            // The bits below count the ratio's ulps above the slot's
            // dyadic lower edge. The ratio is under two ulps off `v / base`
            // and each bound `base · edge` under one (the base range keeps
            // them normal), so 8 ulps inside both edges is inside the slot.
            let rest = bits & ((1 << REST_BITS) - 1);
            if (8..(1 << REST_BITS) - 8).contains(&rest) {
                return s;
            }
            s
        }
    };
    // One step, not a loop: a loop here is vectorized into a batch of
    // bound computations that costs more than the guess it checks.
    let s = guess.min(BUCKETS - 1);
    if s + 1 < BUCKETS && v >= slot_lower_bound(base, s + 1) {
        s + 1
    } else if s > 0 && v < slot_lower_bound(base, s) {
        s - 1
    } else {
        s
    }
}

/// Lower bound of slot `i` of a histogram with first boundary `base`
/// (`0.0` for slot 0). Every bound is an exact dyadic multiple of `base`.
///
/// # Panics
/// Panics when `i >= BUCKETS`.
pub fn slot_lower_bound(base: f64, i: usize) -> f64 {
    assert!(i < BUCKETS, "bucket index out of range");
    let (m, k) = (i / SUB, i % SUB);
    if m == 0 {
        base * k as f64 / SUB as f64
    } else {
        // `m - 1 <= 62`: the shift is exactly 2^(m-1), with no `powi` call.
        base * (1u64 << (m - 1)) as f64 * (SUB + k) as f64 / SUB as f64
    }
}

/// Upper bound of slot `i` of a histogram with first boundary `base`:
/// the lower bound of slot `i + 1`, and `base·2^63` for the top slot.
///
/// # Panics
/// Panics when `i >= BUCKETS`.
pub fn slot_upper_bound(base: f64, i: usize) -> f64 {
    assert!(i < BUCKETS, "bucket index out of range");
    if i + 1 == BUCKETS {
        base * 2f64.powi(MAJORS as i32 - 1)
    } else {
        slot_lower_bound(base, i + 1)
    }
}

/// Quantile over an externally supplied slot-count array laid out like
/// [`Histogram::bucket_counts`] for a histogram with the given `base`.
/// `None` when the counts are all zero. Interval snapshots diff two
/// slot arrays and read window quantiles through this same path, so the
/// readout semantics cannot drift between live and delta views.
pub fn quantile_from_counts(base: f64, counts: &[u64; BUCKETS], q: f64) -> Option<f64> {
    let [v] = quantiles_from_counts(base, counts, counts.iter().sum(), [q]);
    v
}

/// The `qs`-quantiles (ascending) of a slot-count array whose sum is
/// `total`, in one cumulative walk: each is what [`quantile_from_counts`]
/// returns for it.
///
/// # Panics
/// Panics unless every `q` is in `(0, 1]` and the `qs` ascend.
pub(crate) fn quantiles_from_counts<const N: usize>(
    base: f64,
    counts: &[u64; BUCKETS],
    total: u64,
    qs: [f64; N],
) -> [Option<f64>; N] {
    let slots = counts.iter().enumerate().filter(|(_, &c)| c != 0);
    quantiles_walk(base, slots.map(|(i, &c)| (i, c)), total, qs)
}

/// [`quantiles_from_counts`] over sparse `(slot, count)` pairs, strictly
/// ascending by slot and inside `0..BUCKETS` (what a snapshot holds).
pub(crate) fn quantiles_of_slots<const N: usize>(
    base: f64,
    slots: &[(u32, u64)],
    total: u64,
    qs: [f64; N],
) -> [Option<f64>; N] {
    quantiles_walk(base, slots.iter().map(|&(i, c)| (i as usize, c)), total, qs)
}

/// The one quantile walk: over the non-zero slots, ascending, the first
/// slot whose cumulative count reaches `⌈q · total⌉`; the top slot if
/// none does. Zero slots cannot end the walk, so skipping them reads
/// what a walk over every slot reads.
fn quantiles_walk<const N: usize>(
    base: f64,
    mut slots: impl Iterator<Item = (usize, u64)>,
    total: u64,
    qs: [f64; N],
) -> [Option<f64>; N] {
    let mut out = [None; N];
    let (mut slot, mut seen, mut last_q) = (0, 0, 0.0);
    for (o, q) in out.iter_mut().zip(qs) {
        assert!(q > 0.0 && q <= 1.0, "quantile in (0, 1]");
        assert!(q >= last_q, "quantiles must ascend");
        last_q = q;
        if total == 0 {
            continue;
        }
        let target = (q * total as f64).ceil() as u64;
        while seen < target {
            match slots.next() {
                Some((i, c)) => (slot, seen) = (i, seen + c),
                None => {
                    slot = BUCKETS - 1;
                    break;
                }
            }
        }
        *o = Some(slot_upper_bound(base, slot));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_boundaries() {
        let h = |v| slot_of(1.0, v);
        // Major 0 is linear over [0, 1) in eighths.
        assert_eq!(h(0.0), 0);
        assert_eq!(h(0.124), 0);
        assert_eq!(h(0.125), 1);
        assert_eq!(h(0.99), 7);
        // Major 1 spans [1, 2) in eighths.
        assert_eq!(h(1.0), 8);
        assert_eq!(h(1.124), 8);
        assert_eq!(h(1.125), 9);
        assert_eq!(h(1.99), 15);
        // Major 2 spans [2, 4) in quarters.
        assert_eq!(h(2.0), 16);
        assert_eq!(h(2.24), 16);
        assert_eq!(h(2.25), 17);
        assert_eq!(h(3.99), 23);
        assert_eq!(h(4.0), 24);
        assert_eq!(h(1e30), BUCKETS - 1);
    }

    #[test]
    fn lower_bounds_land_back_in_their_own_slot() {
        // The replay invariant, exhaustively over every slot and several
        // bases (including awkward non-dyadic ones).
        for base in [1.0, 1e-9, 3.7, 0.3, 1e6] {
            for i in 0..BUCKETS {
                let lb = slot_lower_bound(base, i);
                assert_eq!(slot_of(base, lb), i, "base {base}, slot {i}, lb {lb}");
                assert!(lb < slot_upper_bound(base, i), "base {base}, slot {i}");
            }
        }
    }

    #[test]
    fn the_guess_is_never_more_than_one_slot_off() {
        // What `slot_of` must return: the last slot whose lower bound the
        // sample reaches, found by walking up from slot 0.
        fn walked(base: f64, v: f64) -> usize {
            let mut s = 0;
            while s + 1 < BUCKETS && v >= slot_lower_bound(base, s + 1) {
                s += 1;
            }
            s
        }
        let mut rng = crate::SplitMix64::new(0x510f);
        for base in [1.0, 1e-15, 1e-9, 1e-6, 3.7, 0.3, 1e6] {
            for i in 1..BUCKETS {
                // Both sides of every boundary, ulp by ulp, past the
                // eight ulps inside which the guess is checked.
                let lb = slot_lower_bound(base, i);
                let (mut below, mut above) = (lb, lb);
                for _ in 0..=16 {
                    for v in [below, above] {
                        assert_eq!(slot_of(base, v), walked(base, v), "base {base}, v {v}");
                    }
                    (below, above) = (below.next_down(), above.next_up());
                }
            }
            for _ in 0..20_000 {
                let v = base * 2f64.powf(70.0 * rng.next_f64() - 4.0);
                assert_eq!(slot_of(base, v), walked(base, v), "base {base}, v {v}");
            }
        }
    }

    #[test]
    fn quantile_error_is_within_one_sub_bucket() {
        let h = Histogram::with_base(1e-9);
        // A single sample: the reported quantile must exceed the sample
        // by at most one sub-bucket width (12.5%).
        for v in [3e-9, 7.77e-6, 1.0, 123.456] {
            let h2 = Histogram::with_base(1e-9);
            h2.record(v);
            let q = h2.quantile(0.5).unwrap();
            assert!(q > v, "upper bound must exceed the sample");
            assert!(q <= v * (1.0 + 1.0 / SUB as f64) * 1.0000001, "{v} -> {q}");
        }
        let _ = h;
    }

    #[test]
    fn quantiles_track_mass() {
        let h = Histogram::with_base(1e-6);
        for _ in 0..90 {
            h.record(1e-3);
        }
        for _ in 0..10 {
            h.record(0.1);
        }
        assert_eq!(h.count(), 100);
        assert!(h.quantile(0.5).unwrap() <= 1.125e-3);
        assert!(h.quantile(0.99).unwrap() >= 0.1);
        assert_eq!(h.max(), 0.1);
        let mean = h.mean().unwrap();
        assert!((mean - (90.0 * 1e-3 + 10.0 * 0.1) / 100.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::with_base(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_sample() {
        let h = Histogram::with_base(1.0);
        h.record(5.0);
        assert_eq!(h.count(), 1);
        // 5 lies in [5, 5.5) — major [4, 8), sub-bucket 2 — so every
        // quantile reports the sub-bucket top.
        assert_eq!(h.quantile(0.01), Some(5.5));
        assert_eq!(h.quantile(1.0), Some(5.5));
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.mean(), Some(5.0));
    }

    #[test]
    fn overflow_lands_in_top_slot() {
        let h = Histogram::with_base(1.0);
        h.record(f64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(2f64.powi(63)));
        assert_eq!(h.max(), f64::MAX);
    }

    #[test]
    fn hostile_samples_clamped_not_panicking() {
        let h = Histogram::with_base(1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-3.0);
        assert_eq!(h.count(), 3);
        assert!(h.max().is_finite());
    }

    #[test]
    fn concurrent_max_keeps_the_largest_sample() {
        // Regression for the running-max update: `fetch_max` on the f64
        // bit pattern must never lose the largest sample, whatever the
        // interleaving (the loom model in uba-admission checks a small
        // instance exhaustively; this stresses a big one).
        use std::sync::Arc;
        let h = Arc::new(Histogram::with_base(1.0));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        h.record(f64::from(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(h.max(), 7999.0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = Histogram::with_base(1.0);
        let b = Histogram::with_base(1.0);
        for _ in 0..7 {
            a.record(3.0);
        }
        b.record_n(3.0, 7);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.mean(), b.mean());
    }

    /// Samples into one histogram a `record` at a time, and the same
    /// samples through a tally merged into another: every slot count, the
    /// sum and the max agree bit for bit, and so does every quantile.
    fn merged_tally_matches_direct(base: f64, samples: &[f64]) {
        let (direct, merged) = (Histogram::with_base(base), Histogram::with_base(base));
        let mut tally = Tally::with_base(base);
        for &v in samples {
            direct.record(v);
            tally.record(v);
        }
        merged.merge(&tally);
        assert_eq!(
            direct.bucket_counts(),
            merged.bucket_counts(),
            "base {base}"
        );
        assert_eq!(
            direct.sum().to_bits(),
            merged.sum().to_bits(),
            "base {base}"
        );
        assert_eq!(
            direct.max().to_bits(),
            merged.max().to_bits(),
            "base {base}"
        );
        assert_eq!(direct.max().to_bits(), tally.max().to_bits(), "base {base}");
        assert_eq!(direct.count(), tally.count(), "base {base}");
        for q in [0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(direct.quantile(q), tally.quantile(q), "base {base}, q {q}");
        }
    }

    #[test]
    fn a_merged_tally_adds_what_one_record_per_sample_adds() {
        let mut rng = crate::SplitMix64::new(0x5107);
        // Whole numbers: from 17 on, one slot holds several integers.
        let integers: Vec<f64> = (0..5_000).map(|_| (rng.next_u64() % 300) as f64).collect();
        // Fourteen decades, then values a tenth of a micro-unit apart,
        // several to a slot and rounding to different micro-units, then
        // the samples the layout clamps to zero.
        let spread: Vec<f64> = (0..5_000)
            .map(|_| 10f64.powf(-15.0 + 14.0 * rng.next_f64()))
            .chain((0..2_000).map(|i| 2e-6 + (i % 20) as f64 * 0.1e-6))
            .chain([0.0, -1.0, f64::NAN, f64::INFINITY])
            .collect();
        for base in [1.0, 1e-15, 1e-6] {
            merged_tally_matches_direct(base, &integers);
            merged_tally_matches_direct(base, &spread);
        }
        let empty = Tally::with_base(1.0);
        assert_eq!(
            (empty.count(), empty.max(), empty.quantile(0.5)),
            (0, 0.0, None)
        );
    }

    #[test]
    #[should_panic(expected = "merging a tally of another base")]
    fn a_tally_does_not_merge_across_bases() {
        Histogram::with_base(1e-6).merge(&Tally::with_base(1e-9));
    }

    #[test]
    fn micro_units_round_as_round_does() {
        let mut rng = crate::SplitMix64::new(0x301c);
        let edges = (0..64).flat_map(|e| {
            let x = 2f64.powi(e) / SUM_SCALE;
            [x.next_down(), x, x.next_up(), x * 1.5]
        });
        let halves = (0..1_000).map(|i| (i as f64 + 0.5) / SUM_SCALE);
        let random = (0..20_000).map(|_| 10f64.powf(-9.0 + 30.0 * rng.next_f64()));
        for v in edges
            .chain(halves)
            .chain(random)
            .chain([0.0, 0.4999999e-6, 0.5e-6, f64::MAX])
        {
            assert_eq!(micro(v), (v * SUM_SCALE).round() as u64, "{v}");
        }
    }

    #[test]
    fn quantile_from_counts_empty_digest_is_none() {
        // An all-zero slot array (empty window digest) has no quantiles
        // at any q, including the extremes.
        let counts = [0u64; BUCKETS];
        for q in [0.001, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_from_counts(1.0, &counts, q), None, "q={q}");
            assert_eq!(quantile_from_counts(1e-9, &counts, q), None, "q={q}");
        }
    }

    #[test]
    fn quantile_from_counts_single_slot_mass() {
        // All mass in one slot: every quantile reports that slot's upper
        // bound, regardless of q or how much mass there is.
        for slot in [0, 1, 7, 8, 100, BUCKETS - 2] {
            let mut counts = [0u64; BUCKETS];
            counts[slot] = 12_345;
            let expect = slot_upper_bound(1.0, slot);
            for q in [0.001, 0.5, 0.99, 1.0] {
                assert_eq!(
                    quantile_from_counts(1.0, &counts, q),
                    Some(expect),
                    "slot={slot} q={q}"
                );
            }
        }
    }

    #[test]
    fn quantile_from_counts_max_slot_overflow_bucket() {
        // Mass in the top (overflow) slot reads back as its synthetic
        // upper bound base·2^63 — both alone and as the tail of a
        // distribution with lower mass.
        let mut counts = [0u64; BUCKETS];
        counts[BUCKETS - 1] = 3;
        assert_eq!(quantile_from_counts(1.0, &counts, 0.5), Some(2f64.powi(63)));
        counts[0] = 97;
        // 97% of the mass is in slot 0; the p99 crosses into overflow.
        assert_eq!(
            quantile_from_counts(1.0, &counts, 0.5),
            Some(slot_upper_bound(1.0, 0))
        );
        assert_eq!(
            quantile_from_counts(1.0, &counts, 0.99),
            Some(2f64.powi(63))
        );
        // A non-unit base scales the overflow bound with it.
        assert_eq!(
            quantile_from_counts(1e-9, &counts, 1.0),
            Some(1e-9 * 2f64.powi(63))
        );
    }

    #[test]
    fn quantile_from_counts_matches_live_readout() {
        let h = Histogram::with_base(1e-9);
        for i in 1..=1000 {
            h.record(i as f64 * 3.1e-8);
        }
        let counts = h.bucket_counts();
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(quantile_from_counts(1e-9, &counts, q), h.quantile(q));
        }
        assert_eq!(quantile_from_counts(1e-9, &[0; BUCKETS], 0.5), None);
    }
}

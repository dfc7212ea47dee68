//! Composable admission policy pipeline (ROADMAP item 2).
//!
//! The paper's admission decision is a single hard-wired predicate —
//! the utilization check against `α_i·C`. This module turns the
//! decision path into a *chain* of [`PolicyStage`]s evaluated before
//! the backend reservation; the utilization check stays exactly where
//! it was and becomes the chain's terminal stage. Two stages ship with
//! the chain:
//!
//! * [`TokenBucketStage`] — a per-class integer token bucket over
//!   *admitted demand*: each admitted flow of class `i` costs its
//!   declared rate `ρ_i` in millibits, the bucket refills at a
//!   configured millibit rate and is capped at a configured burst
//!   depth. All arithmetic is integer millibits on lock-free CAS
//!   atomics (same discipline as the reservation backends), so a
//!   refill racing an admit can never over-grant — proven by the loom
//!   model in `tests/loom_models.rs`.
//! * [`AimdStage`] — an AIMD rate controller gated by an overuse
//!   detector ([`crate::arrival`]): the stage feeds every admission
//!   attempt into its own per-class [`ArrivalEstimator`] +
//!   [`OveruseDetector`] and maintains a ceiling on admitted demand —
//!   multiplicative clamp while the detector reads `Overuse`, additive
//!   recovery under `Normal`, hold under `Underuse`.
//!
//! Ordering rule: shaping stages run in declaration order
//! ([`STAGE_NAMES`]) and the utilization check is always terminal — a
//! stage may only *narrow* what the utilization test would admit, so
//! an empty ("static") chain is decision-identical to the pre-pipeline
//! controller (the `policy_equiv` suite proves it decision-for-
//! decision). Stages consume on success; when a later stage or the
//! backend reservation rejects, the controller refunds every stage
//! that already consumed, so a rejected flow leaves no residue in the
//! chain.
//!
//! A run of identical flows arriving together is put through the chain
//! in one step — each stage grants up to what it is handed
//! ([`PolicyStage::admit_up_to`]), the links place what they can, the
//! excess is refunded — with the outcome and the stage state of the
//! one-by-one walk. That walk fixes who turns the rest of the run away
//! (the first stage, in chain order, with no budget for one more flow;
//! the links only if every stage could afford one) and which stages see
//! it (a stage hears of a flow only if every earlier stage passes it);
//! DESIGN.md §13.1 has both rules in full.
//!
//! Time is always an explicit `t` parameter (seconds on the caller's
//! clock); this module never reads a wall clock (xtask rule 5).

use crate::arrival::{ArrivalEstimator, OveruseDetector, OveruseState};
use crate::state::{to_millibits, SCALE};
use std::fmt;
use uba_obs::sync::atomic::{AtomicU64, Ordering};
use uba_obs::sync::{CachePadded, Mutex};

/// Every shipped policy stage name, in chain order. Each gets a
/// reject-cause counter `admission.rejects.policy.<name>`, registered
/// eagerly, so the live manifest test sees every one.
pub const STAGE_NAMES: [&str; 2] = ["token_bucket", "aimd"];

/// One stage of the admission policy chain, evaluated before the
/// backend reservation. Implementations must be exact under
/// concurrency: [`admit_up_to`](Self::admit_up_to) consumes atomically
/// and must never grant what the stage's own budget cannot cover.
pub trait PolicyStage: fmt::Debug + Send + Sync {
    /// Stable lower-snake stage name; must be one of [`STAGE_NAMES`]
    /// (reject counters and tracepoints key on it).
    fn name(&self) -> &'static str;

    /// Consults the stage for each of `n` flows of `class` arriving
    /// together at time `t` (seconds) and returns how many it admits,
    /// their budget consumed. The definition is `n` single-flow calls
    /// (`admit_up_to(class, 1, t)`) in a row, turned-away flows included,
    /// so a stage that watches offered load sees all `n`; an
    /// implementation answers for the whole run at once but must leave
    /// the stage in exactly the state that walk would: this is what lets
    /// the controller decide a run of identical flows in one step
    /// ([`PolicyChain`] holds the rule for the flows a later stage or the
    /// links then turn away).
    fn admit_up_to(&self, class: usize, n: u64, t: f64) -> u64;

    /// Returns the budget of `n` previously granted flows (a later stage
    /// or the backend turned them away).
    fn refund_n(&self, class: usize, n: u64);

    /// Whether [`admit_up_to`](Self::admit_up_to) would currently grant
    /// all `n` flows, without consuming anything. Advisory; may race
    /// concurrent admissions like every other dry read. The equivalence
    /// ladders in `tests/admit_equiv.rs` and `tests/burst_equiv.rs` probe
    /// each stage's budget with it.
    fn would_admit(&self, class: usize, n: u64, t: f64) -> bool;
}

/// An ordered chain of policy stages. The empty chain is the `Static`
/// (utilization-only) policy: it grants every flow it is asked about,
/// and the controller's decision reduces to exactly the utilization
/// predicate.
#[derive(Debug, Default)]
pub struct PolicyChain {
    stages: Vec<Box<dyn PolicyStage>>,
}

impl PolicyChain {
    /// The utilization-only chain: no shaping stages at all.
    pub fn static_only() -> Self {
        Self { stages: Vec::new() }
    }

    /// Appends a stage (stages run in push order).
    pub fn push(&mut self, stage: Box<dyn PolicyStage>) {
        self.stages.push(stage);
    }

    /// Whether this is the utilization-only chain (no shaping stages).
    pub fn is_static(&self) -> bool {
        self.stages.is_empty()
    }

    /// The shaping stages, in evaluation order.
    pub fn stages(&self) -> &[Box<dyn PolicyStage>] {
        &self.stages
    }

    /// Decides a run of `n` identical flows of `class` arriving together
    /// at `t`: each stage grants what it can of what the stages before
    /// it passed on ([`PolicyStage::admit_up_to`]), `reserve` is then
    /// asked to place that many flows on the links and answers how many
    /// it placed, and every stage is left holding budget for exactly
    /// those. Returns the number admitted and, when the chain rather
    /// than the links turned the rest away, the index of the stage that
    /// did.
    ///
    /// The result and every stage's state are those of the one-by-one
    /// walk, `n` times over: each stage's [`PolicyStage::admit_up_to`] of
    /// one flow in chain order, the stages before the first that refuses
    /// refunded; then the reservation, and every stage refunded if it
    /// failed. That walk fixes two things about the flows turned away:
    ///
    /// * **Who rejects them.** All of them meet the same fate: the first
    ///   stage, in chain order, left with no budget for one more flow;
    ///   the links only if every stage could still afford one.
    /// * **Who observes them.** A stage is consulted for a flow only if
    ///   every stage before it passes the flow. So a stage that was
    ///   handed fewer than `n` flows because an earlier one clipped the
    ///   run hears of the remainder after all when the run is clipped
    ///   *further* downstream — the earlier stage gets that budget back
    ///   and would have passed them. They are put to it as a second
    ///   consult whose grant is refunded at once: no net consumption,
    ///   but a stage that estimates offered load has seen them.
    pub(crate) fn admit_up_to(
        &self,
        class: usize,
        n: u64,
        t: f64,
        reserve: impl FnOnce(u64) -> u64,
    ) -> (u64, Option<usize>) {
        let mut granted = n;
        let mut limiter = None;
        // `stages[..heard]` have been consulted for all `n` flows, the
        // consulted ones after them for `granted`.
        let mut heard = 0;
        let mut consulted = 0;
        let hear_rest = |stages: &[Box<dyn PolicyStage>], granted: u64| {
            for stage in stages {
                let extra = stage.admit_up_to(class, n - granted, t);
                stage.refund_n(class, extra);
            }
        };
        for (i, stage) in self.stages.iter().enumerate() {
            if granted == 0 {
                break;
            }
            consulted = i + 1;
            let got = stage.admit_up_to(class, granted, t);
            if got < granted {
                for held in &self.stages[..i] {
                    held.refund_n(class, granted - got);
                }
                if granted < n {
                    hear_rest(&self.stages[heard..=i], granted);
                }
                heard = i + 1;
                granted = got;
                limiter = Some(i);
            }
        }
        let placed = if granted > 0 { reserve(granted) } else { 0 };
        if placed < granted {
            for held in &self.stages[..consulted] {
                held.refund_n(class, granted - placed);
            }
            if granted < n {
                hear_rest(&self.stages[heard..consulted], granted);
            }
            limiter = None;
        }
        (placed, limiter)
    }

    /// Builds the chain a [`PolicyConfig`] describes, for traffic
    /// classes with the given per-flow rates (bits/s) — each admitted
    /// flow of class `i` costs `rates_bps[i]` against the shaping
    /// budgets.
    pub fn from_config(cfg: &PolicyConfig, rates_bps: &[f64]) -> Self {
        let mut chain = Self::static_only();
        match cfg.chain {
            ChainKind::Static => {}
            ChainKind::TokenBucket => {
                chain.push(Box::new(TokenBucketStage::new(
                    cfg.bucket_rate_bps,
                    cfg.bucket_burst_bits,
                    rates_bps,
                )));
            }
            ChainKind::Adaptive => {
                chain.push(Box::new(TokenBucketStage::new(
                    cfg.bucket_rate_bps,
                    cfg.bucket_burst_bits,
                    rates_bps,
                )));
                chain.push(Box::new(AimdStage::new(cfg.aimd, rates_bps)));
            }
        }
        chain
    }
}

/// Which shaping stages a scenario's `[policy]` table enables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChainKind {
    /// Utilization check only — decision-identical to the
    /// pre-pipeline controller.
    #[default]
    Static,
    /// Token bucket, then the utilization check.
    TokenBucket,
    /// Token bucket, then AIMD overuse gating, then the utilization
    /// check.
    Adaptive,
}

impl ChainKind {
    /// Stable lower-snake name (the `[policy] chain = "..."` value).
    pub fn as_str(self) -> &'static str {
        match self {
            ChainKind::Static => "static",
            ChainKind::TokenBucket => "token_bucket",
            ChainKind::Adaptive => "adaptive",
        }
    }

    /// Parses a `[policy] chain` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(ChainKind::Static),
            "token_bucket" => Some(ChainKind::TokenBucket),
            "adaptive" => Some(ChainKind::Adaptive),
            _ => None,
        }
    }
}

/// AIMD controller parameters (all demand-denominated, bits/s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AimdParams {
    /// Floor the multiplicative decrease can never clamp below.
    pub min_rate_bps: f64,
    /// Ceiling additive recovery can never raise above (also the
    /// initial ceiling — the stage starts permissive).
    pub max_rate_bps: f64,
    /// Multiplicative decrease factor applied under `Overuse`
    /// (`0 < decrease < 1`).
    pub decrease: f64,
    /// Additive recovery step (bits/s) applied under `Normal`.
    pub increase_bps: f64,
}

impl Default for AimdParams {
    fn default() -> Self {
        Self {
            min_rate_bps: 64_000.0,
            max_rate_bps: 1e8,
            decrease: 0.7,
            increase_bps: 64_000.0,
        }
    }
}

/// Declarative policy-chain configuration — what a scenario's
/// `[policy]` TOML table deserializes into.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyConfig {
    /// Which stages to build.
    pub chain: ChainKind,
    /// Token-bucket refill rate (bits/s of admitted demand per class).
    pub bucket_rate_bps: f64,
    /// Token-bucket depth (bits): the largest admitted-demand burst a
    /// quiet class can absorb at once.
    pub bucket_burst_bits: f64,
    /// AIMD stage parameters.
    pub aimd: AimdParams,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            chain: ChainKind::Static,
            bucket_rate_bps: 1e6,
            bucket_burst_bits: 1e6,
            aimd: AimdParams::default(),
        }
    }
}

/// One class's token bucket: tokens and the last-refill timestamp,
/// each on its own atomic (the timestamp stores `f64::to_bits`).
/// `CachePadded` so concurrent classes never share a line.
#[derive(Debug)]
struct Bucket {
    /// Remaining tokens, millibits.
    tokens: AtomicU64,
    /// Last refill time, seconds, as `f64` bits.
    last_bits: AtomicU64,
}

/// Per-class integer token bucket over admitted demand (see the
/// module docs). Buckets start full.
#[derive(Debug)]
pub struct TokenBucketStage {
    /// Refill rate, millibits per second.
    rate_mb: u64,
    /// Bucket depth, millibits.
    burst_mb: u64,
    /// Per-class cost of one admitted flow, millibits (`ρ_i`).
    cost_mb: Vec<u64>,
    buckets: Vec<CachePadded<Bucket>>,
}

impl TokenBucketStage {
    /// A bucket per class: refill `rate_bps` bits/s of admitted
    /// demand, depth `burst_bits` bits, one-flow cost `rates_bps[i]`.
    pub fn new(rate_bps: f64, burst_bits: f64, rates_bps: &[f64]) -> Self {
        let burst_mb = to_millibits(burst_bits);
        Self {
            rate_mb: to_millibits(rate_bps),
            burst_mb,
            cost_mb: rates_bps.iter().map(|&r| to_millibits(r)).collect(),
            buckets: rates_bps
                .iter()
                .map(|_| {
                    CachePadded::new(Bucket {
                        tokens: AtomicU64::new(burst_mb),
                        last_bits: AtomicU64::new(0.0f64.to_bits()),
                    })
                })
                .collect(),
        }
    }

    /// Current tokens of `class`, bits (diagnostic).
    pub fn tokens_bits(&self, class: usize) -> f64 {
        self.buckets.get(class).map_or(0.0, |b| {
            // ordering: Acquire — advisory read, no older than what the
            // caller already observed (same contract as backend
            // snapshots).
            b.tokens.load(Ordering::Acquire) as f64 / SCALE
        })
    }

    /// The millibit cost of an `n`-flow grab of `class` (flows of an
    /// unknown class are free — the chain never blocks what it cannot
    /// account).
    fn want(&self, class: usize, n: u64) -> u64 {
        self.cost_mb.get(class).map_or(0, |&c| c.saturating_mul(n))
    }

    /// Credits the elapsed interval since the last refill into the
    /// bucket, clamped at the burst depth. Exactly one thread claims
    /// any given `[last, t]` interval (the CAS on `last_bits`), so
    /// racing refills can never credit the same elapsed time twice —
    /// the never-over-grant half of the loom model.
    fn refill(&self, bucket: &Bucket, t: f64) {
        loop {
            // ordering: Acquire — pairs with the claim CAS below so a
            // loser re-reads the winner's published timestamp.
            let last = f64::from_bits(bucket.last_bits.load(Ordering::Acquire));
            if !t.is_finite() || t <= last {
                return;
            }
            // ordering: AcqRel — claiming the interval publishes the new
            // timestamp before the credit lands; a racing claimer either
            // sees it and credits only its own later sliver, or retries.
            if bucket
                .last_bits
                .compare_exchange(
                    last.to_bits(),
                    t.to_bits(),
                    Ordering::AcqRel,
                    // ordering: Acquire on failure — the loser re-reads
                    // the winner's published timestamp on retry.
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // Clamping the credit at the depth keeps the arithmetic in
            // range for any elapsed time; the CAS loop below clamps the
            // sum again so tokens never exceed the depth.
            let credit = ((t - last) * self.rate_mb as f64).min(self.burst_mb as f64) as u64;
            if credit == 0 {
                return;
            }
            let mut cur = bucket.tokens.load(Ordering::Relaxed);
            loop {
                let new = cur.saturating_add(credit).min(self.burst_mb);
                // ordering: AcqRel — publishing refilled tokens pairs
                // with the consuming CAS in `admit_up_to`, like a backend
                // release pairs with the next reserve.
                match bucket.tokens.compare_exchange_weak(
                    cur,
                    new,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(actual) => cur = actual,
                }
            }
        }
    }
}

impl PolicyStage for TokenBucketStage {
    fn name(&self) -> &'static str {
        "token_bucket"
    }

    fn admit_up_to(&self, class: usize, n: u64, t: f64) -> u64 {
        let cost = self.want(class, 1);
        if cost == 0 || n == 0 {
            return n;
        }
        let Some(bucket) = self.buckets.get(class) else {
            return n;
        };
        self.refill(bucket, t);
        let mut cur = bucket.tokens.load(Ordering::Relaxed);
        loop {
            let got = (cur / cost).min(n);
            if got == 0 {
                return 0;
            }
            // ordering: AcqRel — the consuming CAS pairs with refill's
            // publish; it takes only as many whole flows as the observed
            // tokens cover, so concurrent grabs can never jointly
            // overdraw the bucket.
            match bucket.tokens.compare_exchange_weak(
                cur,
                cur - got * cost,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return got,
                Err(actual) => cur = actual,
            }
        }
    }

    fn refund_n(&self, class: usize, n: u64) {
        let want = self.want(class, n);
        if want == 0 {
            return;
        }
        let Some(bucket) = self.buckets.get(class) else {
            return;
        };
        let mut cur = bucket.tokens.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_add(want).min(self.burst_mb);
            // ordering: AcqRel — a refund republishes tokens exactly
            // like a refill (clamped at the depth, so a refund racing a
            // refill cannot mint tokens).
            match bucket
                .tokens
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    fn would_admit(&self, class: usize, n: u64, t: f64) -> bool {
        let want = self.want(class, n);
        if want == 0 {
            return true;
        }
        let Some(bucket) = self.buckets.get(class) else {
            return true;
        };
        // ordering: Acquire ×2 — advisory dry read of (tokens, last);
        // mirrors what admit_up_to would see without claiming the interval.
        let tokens = bucket.tokens.load(Ordering::Acquire);
        let last = f64::from_bits(bucket.last_bits.load(Ordering::Acquire));
        let credit = if t > last {
            ((t - last) * self.rate_mb as f64).min(self.burst_mb as f64) as u64
        } else {
            0
        };
        tokens.saturating_add(credit).min(self.burst_mb) >= want
    }
}

/// How often (seconds) the AIMD stage may adjust its ceiling. Paces
/// the multiplicative decrease so one sustained overuse episode clamps
/// geometrically over the episode instead of collapsing to the floor
/// on consecutive admissions within the same batch.
const AIMD_ADJUST_EVERY: f64 = 0.1;

/// One class's AIMD state, behind its own padded mutex.
#[derive(Debug)]
struct AimdClass {
    est: ArrivalEstimator,
    det: OveruseDetector,
    /// Current admitted-demand ceiling, millibits/s.
    cap_mb: u64,
    /// Enforcement tokens, millibits (refilled at `cap_mb`/s, depth one
    /// second of ceiling).
    tokens_mb: u64,
    last_refill: f64,
    last_adjust: f64,
}

/// AIMD rate controller gated by the overuse detector (see the module
/// docs). Enforcement is a token bucket whose refill rate *is* the
/// adaptive ceiling (depth: one second of ceiling), so "admitted
/// demand per second" is what the ceiling actually bounds.
#[derive(Debug)]
pub struct AimdStage {
    min_mb: u64,
    max_mb: u64,
    decrease: f64,
    increase_mb: u64,
    /// Per-class cost of one admitted flow, millibits (`ρ_i`).
    cost_mb: Vec<u64>,
    classes: Vec<CachePadded<Mutex<AimdClass>>>,
}

impl AimdStage {
    /// An AIMD stage for classes with per-flow rates `rates_bps`.
    pub fn new(params: AimdParams, rates_bps: &[f64]) -> Self {
        assert!(
            params.decrease > 0.0 && params.decrease < 1.0,
            "decrease must be a fraction in (0, 1)"
        );
        assert!(params.increase_bps > 0.0, "increase step must be positive");
        let min_mb = to_millibits(params.min_rate_bps);
        let max_mb = to_millibits(params.max_rate_bps).max(min_mb);
        Self {
            min_mb,
            max_mb,
            decrease: params.decrease,
            increase_mb: to_millibits(params.increase_bps).max(1),
            cost_mb: rates_bps.iter().map(|&r| to_millibits(r)).collect(),
            classes: rates_bps
                .iter()
                .map(|_| {
                    CachePadded::new(Mutex::new(AimdClass {
                        est: ArrivalEstimator::default(),
                        det: OveruseDetector::default(),
                        cap_mb: max_mb,
                        tokens_mb: max_mb,
                        last_refill: 0.0,
                        last_adjust: 0.0,
                    }))
                })
                .collect(),
        }
    }

    /// Current admitted-demand ceiling of `class`, bits/s.
    pub fn cap_bps(&self, class: usize) -> f64 {
        self.classes
            .get(class)
            .map_or(0.0, |c| c.lock().unwrap().cap_mb as f64 / SCALE)
    }

    /// Detector state of `class` (diagnostic).
    pub fn state(&self, class: usize) -> OveruseState {
        self.classes
            .get(class)
            .map_or(OveruseState::Normal, |c| c.lock().unwrap().det.state())
    }

    fn want(&self, class: usize, n: u64) -> u64 {
        self.cost_mb.get(class).map_or(0, |&c| c.saturating_mul(n))
    }

    /// Advances `st` to time `t`: detector update, at most one paced
    /// ceiling adjustment, then the enforcement-token refill.
    fn advance(&self, st: &mut AimdClass, t: f64, offered: u64) {
        st.est.observe_n(t, offered);
        let rate = st.est.rate();
        st.det.update(t, rate);
        // Paced on finite readings only, as the estimator, the detector
        // and the refill are: a mark at +inf would hold off every later
        // adjustment for good.
        if t.is_finite() && t - st.last_adjust >= AIMD_ADJUST_EVERY {
            st.last_adjust = t;
            match st.det.state() {
                OveruseState::Overuse => {
                    st.cap_mb = ((st.cap_mb as f64 * self.decrease) as u64).max(self.min_mb);
                }
                OveruseState::Normal => {
                    st.cap_mb = st.cap_mb.saturating_add(self.increase_mb).min(self.max_mb);
                }
                OveruseState::Underuse => {}
            }
            st.tokens_mb = st.tokens_mb.min(st.cap_mb);
        }
        // Only time past the last refill is credited, as in the token
        // bucket: a clock that steps back, or reads NaN, credits nothing
        // and leaves the mark where it was, so no interval is credited
        // twice and none is lost across a bad reading.
        if t.is_finite() && t > st.last_refill {
            let credit = ((t - st.last_refill) * st.cap_mb as f64).min(st.cap_mb as f64) as u64;
            st.last_refill = t;
            st.tokens_mb = st.tokens_mb.saturating_add(credit).min(st.cap_mb);
        }
    }
}

impl PolicyStage for AimdStage {
    fn name(&self) -> &'static str {
        "aimd"
    }

    fn admit_up_to(&self, class: usize, n: u64, t: f64) -> u64 {
        let Some(slot) = self.classes.get(class) else {
            return n;
        };
        if n == 0 {
            return 0;
        }
        let mut st = slot.lock().unwrap();
        // The first consult at `t` does the work; every later one at the
        // same `t` only adds its flow to the estimator's carry (no time
        // has passed for the cap adjustment or the refill to act on).
        // The detector is the exception: its first update moves the
        // baseline, so the second compares against a different one and
        // may read the excursion differently; from the third on nothing
        // changes. Two calls therefore stand for any `n ≥ 2`.
        self.advance(&mut st, t, 1);
        if n > 1 {
            self.advance(&mut st, t, n - 1);
        }
        let cost = self.want(class, 1);
        if cost == 0 {
            return n;
        }
        let got = (st.tokens_mb / cost).min(n);
        st.tokens_mb -= got * cost;
        got
    }

    fn refund_n(&self, class: usize, n: u64) {
        let want = self.want(class, n);
        if want == 0 {
            return;
        }
        let Some(slot) = self.classes.get(class) else {
            return;
        };
        let mut st = slot.lock().unwrap();
        st.tokens_mb = st.tokens_mb.saturating_add(want).min(st.cap_mb);
    }

    fn would_admit(&self, class: usize, n: u64, t: f64) -> bool {
        let want = self.want(class, n);
        if want == 0 {
            return true;
        }
        let Some(slot) = self.classes.get(class) else {
            return true;
        };
        let st = slot.lock().unwrap();
        let gap = (t - st.last_refill).max(0.0);
        let credit = (gap * st.cap_mb as f64).min(st.cap_mb as f64) as u64;
        st.tokens_mb.saturating_add(credit).min(st.cap_mb) >= want
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    const VOIP: f64 = 32_000.0;

    fn bucket(rate_bps: f64, burst_bits: f64) -> TokenBucketStage {
        TokenBucketStage::new(rate_bps, burst_bits, &[VOIP])
    }

    /// The one-by-one walk [`PolicyChain::admit_up_to`] is defined by,
    /// kept here as the reference its tests compare against.
    impl PolicyChain {
        /// Runs one flow of `class` through every stage in order, each
        /// granting it through `admit_up_to(class, 1, t)`. On the first
        /// stage that turns it away, every earlier stage is refunded and
        /// that stage's index is returned.
        fn admit_one(&self, class: usize, t: f64) -> Result<(), usize> {
            for (i, stage) in self.stages.iter().enumerate() {
                if stage.admit_up_to(class, 1, t) == 0 {
                    for held in &self.stages[..i] {
                        held.refund_n(class, 1);
                    }
                    return Err(i);
                }
            }
            Ok(())
        }

        /// Refunds an `n`-flow grant from every stage (the reservation
        /// failed after the whole chain had granted).
        fn refund_n(&self, class: usize, n: u64) {
            for stage in &self.stages {
                stage.refund_n(class, n);
            }
        }
    }

    #[test]
    fn stage_names_match_the_manifest_registry() {
        let tb = bucket(VOIP, VOIP);
        let aimd = AimdStage::new(AimdParams::default(), &[VOIP]);
        assert_eq!([tb.name(), aimd.name()], STAGE_NAMES);
    }

    #[test]
    fn token_bucket_depth_bounds_a_cold_burst() {
        // Depth 3 flows, so a burst of 3 fits and the 4th is rejected.
        let tb = bucket(VOIP, 3.0 * VOIP);
        assert_eq!(tb.admit_up_to(0, 3, 0.0), 3);
        assert_eq!(tb.admit_up_to(0, 1, 0.0), 0);
        assert_eq!(tb.tokens_bits(0), 0.0);
    }

    #[test]
    fn token_bucket_refills_at_the_configured_rate() {
        // Refill one flow-cost per second.
        let tb = bucket(VOIP, 2.0 * VOIP);
        assert_eq!(tb.admit_up_to(0, 2, 0.0), 2);
        assert_eq!(tb.admit_up_to(0, 1, 0.5), 0, "half a flow refilled");
        assert!(tb.would_admit(0, 1, 1.5));
        assert_eq!(tb.admit_up_to(0, 1, 1.5), 1);
        // Idle refill clamps at the depth: 100 s only restores 2 flows.
        assert_eq!(tb.admit_up_to(0, 3, 101.5), 2);
    }

    #[test]
    fn token_bucket_refund_restores_exactly_what_was_taken() {
        let tb = bucket(VOIP, 2.0 * VOIP);
        assert_eq!(tb.admit_up_to(0, 2, 0.0), 2);
        tb.refund_n(0, 2);
        assert_eq!(tb.admit_up_to(0, 2, 0.0), 2);
        // Refund over a full bucket clamps at the depth.
        tb.refund_n(0, 2);
        tb.refund_n(0, 2);
        assert_eq!(tb.admit_up_to(0, 3, 0.0), 2);
    }

    #[test]
    fn would_admit_consumes_nothing() {
        let tb = bucket(VOIP, VOIP);
        for _ in 0..10 {
            assert!(tb.would_admit(0, 1, 0.0));
        }
        assert_eq!(tb.admit_up_to(0, 1, 0.0), 1);
        assert!(!tb.would_admit(0, 1, 0.0));
    }

    #[test]
    fn unknown_classes_are_free() {
        let tb = bucket(VOIP, VOIP);
        assert_eq!(tb.admit_up_to(7, 1000, 0.0), 1000);
        let aimd = AimdStage::new(AimdParams::default(), &[VOIP]);
        assert_eq!(aimd.admit_up_to(7, 1000, 0.0), 1000);
    }

    #[test]
    fn aimd_clamps_under_sustained_overuse_and_recovers() {
        let params = AimdParams {
            min_rate_bps: VOIP,
            max_rate_bps: 100.0 * VOIP,
            decrease: 0.5,
            increase_bps: 10.0 * VOIP,
        };
        let aimd = AimdStage::new(params, &[VOIP]);
        assert_eq!(aimd.cap_bps(0), 100.0 * VOIP);
        // Sustained ramp: heavy offered load every 10 ms. The cold-start
        // gradient reads overuse and the paced decrease bites.
        let mut t = 0.0;
        for _ in 0..100 {
            aimd.admit_up_to(0, 50, t);
            t += 0.01;
        }
        let clamped = aimd.cap_bps(0);
        assert!(
            clamped < 100.0 * VOIP,
            "sustained overuse must clamp: {clamped}"
        );
        assert_eq!(aimd.state(0), OveruseState::Overuse);
        // Long steady trickle: the detector settles and additive
        // recovery raises the ceiling back toward the max.
        for _ in 0..3000 {
            aimd.admit_up_to(0, 1, t);
            t += 0.1;
        }
        assert!(
            aimd.cap_bps(0) > clamped,
            "recovery must raise the ceiling: {} vs {clamped}",
            aimd.cap_bps(0)
        );
    }

    #[test]
    fn aimd_ceiling_bounds_admitted_demand_per_second() {
        // Pin the ceiling at min == max == 2 flows/s worth of demand:
        // no adjustment can move it, so enforcement is pure.
        let params = AimdParams {
            min_rate_bps: 2.0 * VOIP,
            max_rate_bps: 2.0 * VOIP,
            decrease: 0.5,
            increase_bps: VOIP,
        };
        let aimd = AimdStage::new(params, &[VOIP]);
        // The first second's depth admits 2; the 3rd in the same tick
        // must fail, and refund restores it.
        assert_eq!(aimd.admit_up_to(0, 2, 0.0), 2);
        assert_eq!(aimd.admit_up_to(0, 1, 0.0), 0);
        aimd.refund_n(0, 1);
        assert_eq!(aimd.admit_up_to(0, 1, 0.0), 1);
        // After a second of refill the ceiling grants 2 more.
        assert!(aimd.would_admit(0, 2, 1.0));
        assert_eq!(aimd.admit_up_to(0, 3, 1.0), 2);
    }

    /// 1 000 single-flow calls at a ceiling pinned at two flows a second:
    /// two flows of depth, and one more for the half second of credit
    /// the clock passes through — however it gets there. A clock that
    /// alternates between 0 and 0.5 s crosses that half second once, and
    /// a NaN reading between two others loses nothing of the interval
    /// across it.
    #[test]
    fn aimd_credits_each_interval_once_whatever_the_clock_does() {
        let params = AimdParams {
            min_rate_bps: 2.0 * VOIP,
            max_rate_bps: 2.0 * VOIP,
            decrease: 0.5,
            increase_bps: VOIP,
        };
        let admitted = |clock: fn(u32) -> f64| {
            let aimd = AimdStage::new(params, &[VOIP]);
            (0..1_000)
                .filter(|&i| aimd.admit_up_to(0, 1, clock(i)) == 1)
                .count()
        };
        let monotone = admitted(|i| f64::from(i) * 1e-3);
        let alternating = admitted(|i| if i % 2 == 0 { 0.0 } else { 0.5 });
        let nan_between = admitted(|i| {
            if i % 2 == 0 {
                f64::from(i) * 1e-3
            } else {
                f64::NAN
            }
        });
        assert_eq!(monotone, 3);
        assert_eq!(alternating, 3, "a clock stepping back was credited again");
        assert_eq!(nan_between, 3, "a NaN reading lost the interval across it");
    }

    /// The ramp of `aimd_clamps_under_sustained_overuse_and_recovers`
    /// clamps the ceiling to its floor, then 3 000 trickle admits 0.1 s
    /// apart raise it back to the max — also with one admit at `t = +∞`
    /// in between. Pacing once marked that reading as the last
    /// adjustment, and no finite reading came 0.1 s after it.
    #[test]
    fn an_infinite_clock_reading_does_not_freeze_the_aimd_ceiling() {
        let params = AimdParams {
            min_rate_bps: VOIP,
            max_rate_bps: 100.0 * VOIP,
            decrease: 0.5,
            increase_bps: 10.0 * VOIP,
        };
        for infinite in [false, true] {
            let aimd = AimdStage::new(params, &[VOIP]);
            let mut t = 0.0;
            for _ in 0..100 {
                aimd.admit_up_to(0, 50, t);
                t += 0.01;
            }
            assert_eq!(aimd.cap_bps(0), VOIP, "the ramp clamps to the floor");
            if infinite {
                aimd.admit_up_to(0, 1, f64::INFINITY);
            }
            for _ in 0..3000 {
                aimd.admit_up_to(0, 1, t);
                t += 0.1;
            }
            assert_eq!(
                aimd.cap_bps(0),
                100.0 * VOIP,
                "recovery with a reading at +inf: {infinite}"
            );
        }
    }

    /// Applies random steps to a stage and its twin: the stage decides
    /// each run of `n` flows at once, the twin one flow at a time, and
    /// both refund the same share of the grant. The clock mostly steps
    /// forward by up to 20 ms; otherwise it repeats, steps back, reads NaN
    /// or +-inf, or jumps by 1e6 s. The class is sometimes one the stage
    /// does not know. After every step the grants and the two stages'
    /// `Debug` (all of their state) agree. Returns how many steps changed
    /// `watch` of the stage.
    fn at_once_matches_one_by_one_on_any_clock<S: PolicyStage>(
        name: &str,
        make: impl Fn() -> S,
        watch: impl Fn(&S) -> f64,
    ) -> usize {
        let mut moved = 0;
        uba_obs::check(name, 32, |rng| {
            let (at_once, walked) = (make(), make());
            let mut now = 0.0;
            for step in 0..400 {
                let t = match rng.index(16) {
                    0 => now,
                    1 => {
                        now -= rng.range_f64(0.0, 1.0);
                        now
                    }
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5 => {
                        now += 1e6;
                        now
                    }
                    _ => {
                        now += rng.range_f64(0.0, 0.02);
                        now
                    }
                };
                let class = if rng.index(8) == 0 { 2 } else { rng.index(2) };
                let n = 1 + rng.index(200) as u64;
                let before = watch(&at_once);
                let got = at_once.admit_up_to(class, n, t);
                let walked_got: u64 = (0..n).map(|_| walked.admit_up_to(class, 1, t)).sum();
                uba_obs::ensure!(
                    got == walked_got,
                    "step {step}: {n} flows of class {class} at {t}: {got} vs {walked_got}"
                );
                if rng.index(3) == 0 {
                    let back = rng.index(got as usize + 1) as u64;
                    at_once.refund_n(class, back);
                    walked.refund_n(class, back);
                }
                let (a, b) = (format!("{at_once:?}"), format!("{walked:?}"));
                uba_obs::ensure!(a == b, "step {step} at {t}:\n{a}\n{b}");
                moved += usize::from(watch(&at_once) != before);
            }
            Ok(())
        });
        moved
    }

    #[test]
    fn a_run_decided_at_once_matches_the_walk_on_a_hostile_clock() {
        let rates = [VOIP, 3.0 * VOIP];
        let refilled = at_once_matches_one_by_one_on_any_clock(
            "token_bucket_on_a_hostile_clock",
            || TokenBucketStage::new(3_000.0 * VOIP, 60.0 * VOIP, &rates),
            |tb| tb.tokens_bits(0),
        );
        assert!(refilled > 100, "the bucket moved {refilled} times");
        let params = AimdParams {
            min_rate_bps: 1_000.0 * VOIP,
            max_rate_bps: 8_000.0 * VOIP,
            decrease: 0.7,
            increase_bps: 500.0 * VOIP,
        };
        let adjusted = at_once_matches_one_by_one_on_any_clock(
            "aimd_on_a_hostile_clock",
            || AimdStage::new(params, &rates),
            |aimd| aimd.cap_bps(0),
        );
        assert!(adjusted > 100, "the AIMD ceiling moved {adjusted} times");
    }

    #[test]
    fn chain_is_all_or_nothing_and_names_the_rejecting_stage() {
        /// A test-only stage that always rejects.
        #[derive(Debug)]
        struct Wall;
        impl PolicyStage for Wall {
            fn name(&self) -> &'static str {
                "aimd" // stand-in; names must come from STAGE_NAMES
            }
            fn admit_up_to(&self, _: usize, _: u64, _: f64) -> u64 {
                0
            }
            fn refund_n(&self, _: usize, _: u64) {}
            fn would_admit(&self, _: usize, _: u64, _: f64) -> bool {
                false
            }
        }
        let mut chain = PolicyChain::static_only();
        chain.push(Box::new(bucket(VOIP, 2.0 * VOIP)));
        chain.push(Box::new(Wall));
        assert_eq!(chain.admit_one(0, 0.0), Err(1));
        assert_eq!(chain.stages()[1].name(), "aimd");
        // The token bucket was refunded: its full depth is intact.
        assert!(chain.stages()[0].would_admit(0, 2, 0.0));
        assert!(!chain.stages()[1].would_admit(0, 2, 0.0));
    }

    #[test]
    fn chain_refund_returns_every_stage() {
        let mut chain = PolicyChain::static_only();
        chain.push(Box::new(bucket(VOIP, VOIP)));
        assert!(chain.admit_one(0, 0.0).is_ok());
        assert!(!chain.stages()[0].would_admit(0, 1, 0.0));
        chain.refund_n(0, 1);
        assert!(chain.stages()[0].would_admit(0, 1, 0.0));
    }

    /// A chain small enough that every stage and the links all get to
    /// clip: a 60-flow bucket refilling 3 000 flows/s, an AIMD ceiling
    /// between 1 000 and 8 000 flows/s.
    fn tight_chain() -> PolicyChain {
        let cfg = PolicyConfig {
            chain: ChainKind::Adaptive,
            bucket_rate_bps: 3_000.0 * VOIP,
            bucket_burst_bits: 60.0 * VOIP,
            aimd: AimdParams {
                min_rate_bps: 1_000.0 * VOIP,
                max_rate_bps: 8_000.0 * VOIP,
                decrease: 0.7,
                increase_bps: 500.0 * VOIP,
            },
        };
        PolicyChain::from_config(&cfg, &[VOIP])
    }

    /// The closed forms against their definition: seeded runs of 1–120
    /// flows, the links taking a random share, decided in one step on one
    /// chain and flow by flow (`admit_one`, reserve, `refund_n` on
    /// failure) on its twin. Same admitted count, same rejecting stage,
    /// and after every run the same state in every stage down to the
    /// estimator's carry — compared through `Debug`, which prints all of
    /// it. The tallies show each way of clipping a run was met,
    /// including the one where a stage hears of flows it was not handed.
    #[test]
    fn a_run_decided_at_once_leaves_the_chain_as_the_one_by_one_walk_does() {
        let (at_once, walked) = (tight_chain(), tight_chain());
        let mut rng = uba_obs::SplitMix64::new(18);
        let mut t = 0.0;
        // Clipped by: nothing, the bucket, AIMD, the links; and runs the
        // bucket clipped that were clipped again further down.
        let mut met = [0usize; 5];
        for step in 0..20_000 {
            // Three quarters of each 4 000 steps are heavy (the onset
            // latches the overuse detector, so the AIMD ceiling comes
            // down and binds), the last quarter a trickle.
            let busy = step % 4_000 < 3_000;
            t += [0.0, 0.001, 0.001, 0.02][rng.index(4)];
            let n = 1 + rng.index(if busy { 120 } else { 3 }) as u64;
            let room = rng.index(150) as u64;
            let mut asked_of_links = 0;
            let (admitted, stage) = at_once.admit_up_to(0, n, t, |granted| {
                asked_of_links = granted;
                granted.min(room)
            });

            let mut placed = 0;
            // Who turned each of the other flows away (`None`: the links).
            let mut turned_away_by = Vec::new();
            for _ in 0..n {
                match walked.admit_one(0, t) {
                    Err(at) => turned_away_by.push(Some(at)),
                    Ok(()) if placed < room => placed += 1,
                    Ok(()) => {
                        walked.refund_n(0, 1);
                        turned_away_by.push(None);
                    }
                }
            }
            assert_eq!(admitted, placed, "step {step}: {n} flows, room {room}");
            assert!(
                turned_away_by.iter().all(|&by| by == stage),
                "step {step}: {stage:?} vs {turned_away_by:?}"
            );
            assert_eq!(
                format!("{at_once:?}"),
                format!("{walked:?}"),
                "step {step}: {n} flows at {t}, room {room}"
            );
            met[match stage {
                _ if admitted == n => 0,
                Some(at) => 1 + at,
                None => 3,
            }] += 1;
            if asked_of_links < n && admitted < asked_of_links {
                met[4] += 1;
            }
        }
        assert!(met.iter().all(|&n| n > 50), "{met:?}");
    }

    #[test]
    fn static_chain_is_empty_and_always_passes() {
        let chain = PolicyChain::static_only();
        assert!(chain.is_static());
        assert_eq!(chain.admit_up_to(0, u64::MAX, 0.0, |n| n), (u64::MAX, None));
        assert!(chain.stages().is_empty());
    }

    #[test]
    fn from_config_builds_the_configured_stages() {
        let rates = [VOIP];
        let mut cfg = PolicyConfig::default();
        assert!(PolicyChain::from_config(&cfg, &rates).is_static());
        cfg.chain = ChainKind::TokenBucket;
        let tb = PolicyChain::from_config(&cfg, &rates);
        assert_eq!(
            tb.stages().iter().map(|s| s.name()).collect::<Vec<_>>(),
            ["token_bucket"]
        );
        cfg.chain = ChainKind::Adaptive;
        let ad = PolicyChain::from_config(&cfg, &rates);
        assert_eq!(
            ad.stages().iter().map(|s| s.name()).collect::<Vec<_>>(),
            STAGE_NAMES
        );
    }

    #[test]
    fn chain_kind_round_trips_its_names() {
        for kind in [
            ChainKind::Static,
            ChainKind::TokenBucket,
            ChainKind::Adaptive,
        ] {
            assert_eq!(ChainKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ChainKind::parse("always"), None);
    }

    #[test]
    fn concurrent_admits_never_overdraw_the_bucket() {
        use std::sync::Arc;
        // Depth 5 flows, no refill (t fixed at 0): 8 threads each ask
        // five times for 1-3 flows, and the grants sum to exactly 5.
        let tb = Arc::new(bucket(VOIP, 5.0 * VOIP));
        let mut handles = Vec::new();
        for thread in 0..8 {
            let tb = Arc::clone(&tb);
            handles.push(std::thread::spawn(move || {
                (0..5)
                    .map(|i| tb.admit_up_to(0, 1 + (thread + i) % 3, 0.0))
                    .sum::<u64>()
            }));
        }
        let won: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(won, 5, "depth 5 must grant exactly 5 concurrent flows");
    }
}

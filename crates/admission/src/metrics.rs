//! Admission-path instrumentation.
//!
//! All counters live in a [`uba_obs::Registry`] (the process-global one
//! by default). The bare admit walk is ~100 ns, so even relaxed atomic
//! increments (a full fence each on x86) would cost tens of percent;
//! instead the hot-path events (admit + route length, release) go into a
//! **thread-local buffer** of plain integer cells and are published with
//! a few `fetch_add`s every [`FLUSH_EVERY`] events, when a thread exits,
//! when the buffer is adopted by a different metrics instance, and on
//! [`AdmissionMetrics::flush`] /
//! [`crate::AdmissionController::refresh_gauges`]. That keeps the
//! metered admit path within a few percent of the bare CAS walk —
//! `uba-bench`'s `obs_overhead` binary checks that claim. Rejection
//! counters stay direct atomics (the reject path already pays for state
//! reads), and the per-class utilization gauges are *not* updated per
//! admit; they are refreshed on demand by
//! [`crate::AdmissionController::refresh_gauges`] so the hot path never
//! pays for them.

use crate::policy::STAGE_NAMES;
use crate::sync::CachePadded;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use uba_obs::{Counter, Gauge, Histogram, Registry, Stopwatch};

/// Hot-path events buffered per thread before one atomic publish.
pub const FLUSH_EVERY: u32 = 1024;

/// Admission decisions between latency samples (per thread). Timing
/// every decision would put two clock reads (~tens of ns) on a ~100 ns
/// walk and blow the overhead budget; a 1-in-64 sample keeps the
/// amortized cost under a nanosecond per decision while still feeding
/// the `admission.admit_ns` histogram thousands of samples per second
/// under any real load. The histogram is therefore a statistical sample
/// of decision latency, not a census.
pub const LATENCY_SAMPLE_EVERY: u32 = 64;

/// Route-length slots in the thread-local buffer; the last slot absorbs
/// longer routes (far beyond any real diameter).
const HOP_SLOTS: usize = 32;

/// CAS-retry slots in the thread-local buffer; the last slot absorbs
/// pathological retry counts.
const RETRY_SLOTS: usize = 16;

/// Buffered latency samples between flushes. At one sample per
/// [`LATENCY_SAMPLE_EVERY`] decisions and a flush at least every
/// [`FLUSH_EVERY`] events, 32 slots cannot overflow; if external flush
/// patterns ever defeat that, the recorder falls through to a direct
/// histogram record.
const LAT_SLOTS: usize = 32;

/// Flush targets of the thread-local buffer (kept alive by the `Arc`s,
/// so the owner pointer below can never dangle).
struct HotHandles {
    admits: Arc<Counter>,
    releases: Arc<Counter>,
    path_hops: Arc<Histogram>,
    admit_ns: Arc<Histogram>,
    retries_per_op: Arc<Histogram>,
}

/// Per-thread buffered deltas for the admission hot path.
struct Pending {
    /// Identity of the owning metrics instance (its `admits` allocation).
    owner: Cell<*const Counter>,
    handles: RefCell<Option<HotHandles>>,
    admits: Cell<u64>,
    releases: Cell<u64>,
    hops: [Cell<u32>; HOP_SLOTS],
    /// Per-decision CAS retry counts, one slot per retry count.
    retries: [Cell<u32>; RETRY_SLOTS],
    /// Sampled decision latencies (ns) awaiting flush.
    lat: [Cell<f64>; LAT_SLOTS],
    lat_len: Cell<usize>,
    /// Decisions until the next latency sample.
    lat_countdown: Cell<u32>,
    /// Events since the last flush.
    ops: Cell<u32>,
}

impl Pending {
    const fn new() -> Self {
        Self {
            owner: Cell::new(std::ptr::null()),
            handles: RefCell::new(None),
            admits: Cell::new(0),
            releases: Cell::new(0),
            hops: [const { Cell::new(0) }; HOP_SLOTS],
            retries: [const { Cell::new(0) }; RETRY_SLOTS],
            lat: [const { Cell::new(0.0) }; LAT_SLOTS],
            lat_len: Cell::new(0),
            lat_countdown: Cell::new(0),
            ops: Cell::new(0),
        }
    }

    /// Publishes the buffered deltas into the owner's shared counters.
    fn flush(&self) {
        self.ops.set(0);
        let handles = self.handles.borrow();
        let Some(h) = handles.as_ref() else {
            return;
        };
        let n = self.admits.replace(0);
        if n > 0 {
            h.admits.add(n);
        }
        let n = self.releases.replace(0);
        if n > 0 {
            h.releases.add(n);
        }
        for (i, c) in self.hops.iter().enumerate() {
            let n = c.replace(0);
            if n > 0 {
                h.path_hops.record_n(i as f64, n as u64);
            }
        }
        for (i, c) in self.retries.iter().enumerate() {
            let n = c.replace(0);
            if n > 0 {
                h.retries_per_op.record_n(i as f64, n as u64);
            }
        }
        let lat_len = self.lat_len.replace(0);
        for cell in &self.lat[..lat_len] {
            h.admit_ns.record(cell.get());
        }
    }

    /// Re-points the buffer at `m`, flushing the previous owner's deltas.
    #[cold]
    fn adopt(&self, m: &AdmissionMetrics) {
        self.flush();
        self.owner.set(Arc::as_ptr(&m.admits));
        *self.handles.borrow_mut() = Some(HotHandles {
            admits: Arc::clone(&m.admits),
            releases: Arc::clone(&m.releases),
            path_hops: Arc::clone(&m.path_hops),
            admit_ns: Arc::clone(&m.admit_ns),
            retries_per_op: Arc::clone(&m.retries_per_op),
        });
    }

    #[inline]
    fn bump(&self) {
        self.bump_n(1);
    }

    /// Counts `n` buffered events towards the next flush.
    #[inline]
    fn bump_n(&self, n: u32) {
        let ops = self.ops.get().saturating_add(n);
        if ops >= FLUSH_EVERY {
            self.flush();
        } else {
            self.ops.set(ops);
        }
    }
}

/// Adds `n` to a buffer cell. A run far longer than any batch that fits
/// in memory saturates the cell instead of wrapping it.
#[inline]
fn add(cell: &Cell<u32>, n: u64) {
    cell.set(
        cell.get()
            .saturating_add(u32::try_from(n).unwrap_or(u32::MAX)),
    );
}

impl Drop for Pending {
    fn drop(&mut self) {
        // Thread exit: publish whatever is still buffered.
        self.flush();
    }
}

thread_local! {
    // CachePadded: TLS blocks of different threads can be allocated
    // adjacently, and this buffer's counters are the hottest stores on
    // the admit path — padding keeps one thread's buffer from
    // false-sharing a cache line with a neighbor thread's (DESIGN.md §11
    // padding audit).
    static PENDING: CachePadded<Pending> = const { CachePadded::new(Pending::new()) };
}

/// Handles to every admission-layer metric.
///
/// Metric names (all under the `admission.` prefix):
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `admission.admits` | counter | flows admitted |
/// | `admission.rejects.no_route` | counter | rejects: no configured route |
/// | `admission.rejects.link_full` | counter | rejects: some link at budget |
/// | `admission.rejects.link_full.class<i>` | counter | ditto, split by class |
/// | `admission.rejects.policy.<stage>` | counter | rejects by policy stage `<stage>` (one counter per [`STAGE_NAMES`] entry) |
/// | `admission.cas_retries` | counter | CAS reservation retries |
/// | `admission.releases` | counter | flows torn down |
/// | `admission.path_hops` | histogram | route length per admitted flow |
/// | `admission.class<i>.max_share` | gauge | peak budget share of class i |
/// | `admission.class<i>.reserved_bps` | gauge | total reserved rate of class i |
/// | `admission.generation` | gauge | id of the current config generation |
/// | `admission.generations.retired_pinned` | gauge | flows pinned to retired generations |
/// | `admission.reconfigures` | counter | generation swaps applied |
/// | `admission.reconfigure_ns` | histogram | swap latency (pointer install), ns |
/// | `admission.admit_ns` | histogram | sampled per-decision latency, ns (1 in [`LATENCY_SAMPLE_EVERY`]) |
/// | `admission.retries_per_op` | histogram | CAS retries per decision (mean = retry rate) |
/// | `admission.batches` | counter | batched admission decisions ([`try_admit_batch`](crate::AdmissionController::try_admit_batch)) |
/// | `admission.batch_fallbacks` | counter | batches that turned a routed flow away (some run clipped by a link or the chain) |
#[derive(Clone, Debug)]
pub struct AdmissionMetrics {
    /// Flows admitted.
    pub admits: Arc<Counter>,
    /// Rejections because no route was configured.
    pub rejects_no_route: Arc<Counter>,
    /// Rejections because a link had no headroom (all classes).
    pub rejects_link_full: Arc<Counter>,
    /// Per-class split of the link-full rejections.
    pub rejects_link_full_class: Vec<Arc<Counter>>,
    /// Rejections by policy stage, indexed like [`STAGE_NAMES`]. Direct
    /// atomics like the other reject counters: a policy reject is off
    /// the admitted-flow hot path.
    pub rejects_policy: Vec<Arc<Counter>>,
    /// CAS retries across all reservation loops.
    pub cas_retries: Arc<Counter>,
    /// Flows released (handle dropped).
    pub releases: Arc<Counter>,
    /// Route length (hops) per admitted flow.
    pub path_hops: Arc<Histogram>,
    /// Per-class maximum budget share across servers (refreshed on demand).
    pub class_max_share: Vec<Arc<Gauge>>,
    /// Per-class total reserved rate in bits/s (refreshed on demand).
    pub class_reserved_bps: Vec<Arc<Gauge>>,
    /// Id of the currently installed configuration generation.
    pub generation: Arc<Gauge>,
    /// Flows still pinned to retired generations (refreshed by
    /// `drain`/`refresh_gauges`).
    pub retired_pinned: Arc<Gauge>,
    /// Configuration generation swaps applied.
    pub reconfigures: Arc<Counter>,
    /// Latency of the generation-pointer swap itself, nanoseconds.
    pub reconfigure_ns: Arc<Histogram>,
    /// Sampled admission-decision latency, nanoseconds (one decision in
    /// [`LATENCY_SAMPLE_EVERY`] is timed; see the module docs).
    pub admit_ns: Arc<Histogram>,
    /// CAS retries per decision (zero-retry decisions are recorded too,
    /// so the histogram's mean is the retry *rate*).
    pub retries_per_op: Arc<Histogram>,
    /// Batched admission decisions
    /// ([`try_admit_batch`](crate::AdmissionController::try_admit_batch)
    /// calls).
    pub batches: Arc<Counter>,
    /// Batches that turned a routed flow away: some run was clipped by
    /// a link or by the policy chain (`fast_path` false).
    pub batch_fallbacks: Arc<Counter>,
}

impl AdmissionMetrics {
    /// Registers (or re-attaches to) the admission metrics in `registry`
    /// for `classes` traffic classes.
    pub fn register(registry: &Registry, classes: usize) -> Self {
        Self {
            admits: registry.counter("admission.admits"),
            rejects_no_route: registry.counter("admission.rejects.no_route"),
            rejects_link_full: registry.counter("admission.rejects.link_full"),
            rejects_link_full_class: (0..classes)
                .map(|i| registry.counter(&format!("admission.rejects.link_full.class{i}")))
                .collect(),
            rejects_policy: STAGE_NAMES
                .iter()
                .map(|s| registry.counter(&format!("admission.rejects.policy.{s}")))
                .collect(),
            cas_retries: registry.counter("admission.cas_retries"),
            releases: registry.counter("admission.releases"),
            path_hops: registry.histogram("admission.path_hops", 1.0),
            class_max_share: (0..classes)
                .map(|i| registry.gauge(&format!("admission.class{i}.max_share")))
                .collect(),
            class_reserved_bps: (0..classes)
                .map(|i| registry.gauge(&format!("admission.class{i}.reserved_bps")))
                .collect(),
            generation: registry.gauge("admission.generation"),
            retired_pinned: registry.gauge("admission.generations.retired_pinned"),
            reconfigures: registry.counter("admission.reconfigures"),
            reconfigure_ns: registry.histogram("admission.reconfigure_ns", 2.0),
            admit_ns: registry.histogram("admission.admit_ns", 2.0),
            retries_per_op: registry.histogram("admission.retries_per_op", 1.0),
            batches: registry.counter("admission.batches"),
            batch_fallbacks: registry.counter("admission.batch_fallbacks"),
        }
    }

    /// Registers against the process-global registry.
    pub fn global(classes: usize) -> Self {
        Self::register(uba_obs::global(), classes)
    }

    /// Records one flow teardown into this thread's buffer.
    #[inline]
    pub fn record_release(&self) {
        PENDING.with(|p| {
            if p.owner.get() != Arc::as_ptr(&self.admits) {
                p.adopt(self);
            }
            p.releases.set(p.releases.get() + 1);
            p.bump();
        });
    }

    /// Records one admission decision into this thread's buffer, in one
    /// update: a run of identical flows — one for a single admission.
    /// `admits` of them were admitted on a `hops`-hop route (each
    /// counted in `admission.admits` and `admission.path_hops`);
    /// `decisions` of them reached the reservation state (the admits
    /// plus the link-full rejects) and each is one
    /// `admission.retries_per_op` sample — the run's `retries` CAS
    /// retries booked on one, the others retry-free. Published by
    /// [`flush`](Self::flush), thread exit, or automatically every
    /// [`FLUSH_EVERY`] buffered events (an admit and a retry sample are
    /// one event each).
    #[inline]
    pub fn record_run(&self, hops: usize, admits: u64, decisions: u64, retries: u32) {
        PENDING.with(|p| {
            if p.owner.get() != Arc::as_ptr(&self.admits) {
                p.adopt(self);
            }
            p.admits.set(p.admits.get() + admits);
            add(&p.hops[hops.min(HOP_SLOTS - 1)], admits);
            if decisions > 0 {
                add(&p.retries[(retries as usize).min(RETRY_SLOTS - 1)], 1);
                add(&p.retries[0], decisions - 1);
            }
            p.bump_n(u32::try_from(admits + decisions).unwrap_or(u32::MAX));
        });
    }

    /// Starts a latency sample for the decision about to run, one in
    /// [`LATENCY_SAMPLE_EVERY`] calls per thread; `None` on unsampled
    /// decisions. The non-sampled path costs one thread-local decrement
    /// — no clock read.
    #[inline]
    pub fn admit_timer(&self) -> Option<Stopwatch> {
        PENDING.with(|p| {
            let left = p.lat_countdown.get();
            if left > 0 {
                p.lat_countdown.set(left - 1);
                None
            } else {
                p.lat_countdown.set(LATENCY_SAMPLE_EVERY - 1);
                Some(Stopwatch::start())
            }
        })
    }

    /// Finishes a latency sample started by [`admit_timer`](Self::admit_timer)
    /// into this thread's buffer. A no-op for unsampled (`None`)
    /// decisions.
    #[inline]
    pub fn record_admit_ns(&self, timer: Option<Stopwatch>) {
        let Some(t) = timer else {
            return;
        };
        let ns = t.elapsed_ns();
        PENDING.with(|p| {
            if p.owner.get() != Arc::as_ptr(&self.admits) {
                p.adopt(self);
            }
            let len = p.lat_len.get();
            if len < LAT_SLOTS {
                p.lat[len].set(ns);
                p.lat_len.set(len + 1);
            } else {
                // Buffer defeated by an unusual flush pattern: record
                // directly rather than dropping the sample.
                self.admit_ns.record(ns);
            }
            p.bump();
        });
    }

    /// Counts `n` flows turned away by the policy stage named `stage`
    /// (one of [`STAGE_NAMES`]). Unknown names are ignored — a custom
    /// [`PolicyStage`](crate::PolicyStage) outside the shipped registry
    /// simply has no counter.
    pub fn record_policy_reject(&self, stage: &str, n: u64) {
        if let Some(i) = STAGE_NAMES.iter().position(|s| *s == stage) {
            self.rejects_policy[i].add(n);
        }
    }

    /// Publishes this thread's buffered hot-path deltas into the shared
    /// counters. Call before reading `admits`/`releases`/`path_hops` on
    /// the recording thread; other threads publish on their own flushes
    /// (at the latest on thread exit).
    pub fn flush(&self) {
        PENDING.with(|p| p.flush());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_creates_per_class_families() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 3);
        assert_eq!(m.rejects_link_full_class.len(), 3);
        assert_eq!(m.class_max_share.len(), 3);
        m.admits.inc();
        m.path_hops.record(4.0);
        let snap = r.snapshot();
        assert!(snap.get("admission.admits").is_some());
        assert!(snap.get("admission.class2.max_share").is_some());
        assert!(snap.get("admission.rejects.link_full.class0").is_some());
    }

    #[test]
    fn re_register_attaches_to_same_metrics() {
        let r = Registry::new();
        let a = AdmissionMetrics::register(&r, 1);
        let b = AdmissionMetrics::register(&r, 1);
        a.admits.inc();
        assert_eq!(b.admits.get(), 1);
    }

    #[test]
    fn hot_path_buffers_until_flush() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        m.flush(); // reset this thread's ops count
        for _ in 0..5 {
            m.record_run(3, 1, 1, 0);
        }
        m.record_release();
        assert_eq!(m.admits.get(), 0, "deltas must stay buffered");
        m.flush();
        assert_eq!(m.admits.get(), 5);
        assert_eq!(m.releases.get(), 1);
        assert_eq!(m.path_hops.count(), 5);
        assert_eq!(m.path_hops.max(), 3.0);
    }

    #[test]
    fn instance_switch_flushes_previous_owner() {
        let a = AdmissionMetrics::register(&Registry::new(), 1);
        let b = AdmissionMetrics::register(&Registry::new(), 1);
        a.flush();
        a.record_run(2, 1, 1, 0);
        b.record_run(4, 1, 1, 0); // adopting the buffer publishes a's delta
        assert_eq!(a.admits.get(), 1);
        assert_eq!(a.path_hops.count(), 1);
        assert_eq!(b.admits.get(), 0);
        b.flush();
        assert_eq!(b.admits.get(), 1);
    }

    #[test]
    fn automatic_flush_after_threshold() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        m.flush();
        // A one-flow admission is two buffered events: the admit and its
        // retry sample.
        let admits = u64::from(FLUSH_EVERY.div_ceil(2));
        for _ in 1..admits {
            m.record_run(1, 1, 1, 0);
        }
        assert_eq!(m.admits.get(), 0, "one admission short of the threshold");
        m.record_run(1, 1, 1, 0);
        assert_eq!(m.admits.get(), admits);
    }

    #[test]
    fn admit_timer_samples_one_in_n() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        // Each test runs on its own thread, so the countdown starts at
        // zero: the first decision is sampled, then exactly one in every
        // LATENCY_SAMPLE_EVERY after it.
        assert!(m.admit_timer().is_some());
        for _ in 0..LATENCY_SAMPLE_EVERY - 1 {
            assert!(m.admit_timer().is_none());
        }
        assert!(m.admit_timer().is_some());
    }

    #[test]
    fn record_admit_ns_buffers_until_flush() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        m.flush();
        m.record_admit_ns(None); // unsampled decision: no-op
        m.record_admit_ns(Some(Stopwatch::start()));
        m.record_admit_ns(Some(Stopwatch::start()));
        assert_eq!(m.admit_ns.count(), 0, "samples must stay buffered");
        m.flush();
        assert_eq!(m.admit_ns.count(), 2);
        assert!(m.admit_ns.max() >= 0.0);
    }

    #[test]
    fn retries_count_every_decision_and_clamp() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        m.flush();
        // Five one-flow decisions that reached the links (admitted or
        // link-full alike).
        for _ in 0..3 {
            m.record_run(1, 1, 1, 0);
        }
        m.record_run(1, 0, 1, 100); // clamps to the last slot
        m.record_run(1, 0, 1, 2);
        m.flush();
        assert_eq!(m.retries_per_op.count(), 5);
        assert_eq!(m.retries_per_op.max(), (RETRY_SLOTS - 1) as f64);
        // Zero-retry decisions are part of the population, so the mean
        // is retries-per-operation.
        let mean = (RETRY_SLOTS - 1 + 2) as f64 / 5.0;
        assert_eq!(m.retries_per_op.mean(), Some(mean));
    }

    #[test]
    fn a_run_books_what_its_flows_would_one_at_a_time() {
        let flow_by_flow = AdmissionMetrics::register(&Registry::new(), 1);
        let at_once = AdmissionMetrics::register(&Registry::new(), 1);
        // A 12-flow run on a 3-hop route: 7 admitted, 3 link-full, 2
        // turned away by the chain; the reservation retried twice.
        for i in 0..12 {
            let (admits, decisions) = match i {
                0..7 => (1, 1),
                7..10 => (0, 1),
                _ => (0, 0),
            };
            let retries = if i == 0 { 2 } else { 0 };
            flow_by_flow.record_run(3, admits, decisions, retries);
        }
        flow_by_flow.flush();
        at_once.record_run(3, 7, 10, 2);
        at_once.flush();
        for (a, b) in [
            (&flow_by_flow.path_hops, &at_once.path_hops),
            (&flow_by_flow.retries_per_op, &at_once.retries_per_op),
        ] {
            assert_eq!(
                (a.count(), a.max(), a.mean()),
                (b.count(), b.max(), b.mean())
            );
        }
        assert_eq!(flow_by_flow.admits.get(), at_once.admits.get());
        assert_eq!(at_once.admits.get(), 7);
        assert_eq!(at_once.retries_per_op.count(), 10);
    }

    #[test]
    fn policy_reject_counters_key_on_stage_names() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        assert_eq!(m.rejects_policy.len(), STAGE_NAMES.len());
        m.record_policy_reject("token_bucket", 2);
        m.record_policy_reject("aimd", 1);
        m.record_policy_reject("not_a_stage", 5); // silently ignored
        let tb = STAGE_NAMES
            .iter()
            .position(|s| *s == "token_bucket")
            .unwrap();
        let aimd = STAGE_NAMES.iter().position(|s| *s == "aimd").unwrap();
        assert_eq!(m.rejects_policy[tb].get(), 2);
        assert_eq!(m.rejects_policy[aimd].get(), 1);
        let snap = r.snapshot();
        assert!(snap.get("admission.rejects.policy.token_bucket").is_some());
        assert!(snap.get("admission.rejects.policy.aimd").is_some());
    }

    #[test]
    fn thread_exit_publishes_buffered_deltas() {
        let r = Registry::new();
        let m = AdmissionMetrics::register(&r, 1);
        let m2 = m.clone();
        std::thread::spawn(move || {
            m2.record_run(2, 1, 1, 0);
            m2.record_release();
        })
        .join()
        .unwrap();
        assert_eq!(m.admits.get(), 1);
        assert_eq!(m.releases.get(), 1);
    }
}

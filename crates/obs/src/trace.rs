//! Structured event tracing: a fixed-capacity flight recorder.
//!
//! Aggregate metrics (the [`Registry`](crate::Registry)) answer *how
//! often*; this module answers *what happened, in what order*. Every
//! instrumented layer can emit compact [`Event`] records — a monotonic
//! timestamp, an [`EventKind`], a class, a flow id, a link/server id, and
//! two `f64` payload slots — into a [`Tracer`]: a fixed-capacity ring
//! buffer holding the most recent events ("flight recorder" semantics:
//! when full, the *oldest* event is overwritten and a drop counter
//! ticks). Draining returns everything currently buffered plus that drop
//! count, so consumers always know exactly how much history was lost.
//!
//! Hot paths must not pay for a mutex per event, so emissions into the
//! process-global tracer ([`global()`]) go through a **thread-local
//! batch buffer** published under the ring lock every [`PUBLISH_EVERY`]
//! events, on [`Tracer::flush`]/[`Tracer::drain`], and on thread exit —
//! the same discipline as the admission layer's buffered counters. The
//! whole tracer is disabled by default; a disabled [`Tracer::emit`] is a
//! single relaxed load and a branch, cheap enough to leave call sites
//! compiled into the admit path unconditionally (the tracing gate of
//! `uba-bench`'s `obs_overhead` binary checks the enabled cost too).
//!
//! A thread can also [`hold`] its emissions into the global tracer: work
//! whose outcome is not yet wanted (a speculative search probe) gets its
//! events back instead of publishing them, and whoever adopts the work
//! [`release`]s them, in order, as if emitted then — or drops them.

use crate::json;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{CachePadded, Mutex, OnceLock};
use std::fmt::Write as _;
use std::time::Instant;

/// Ring capacity of the process-global tracer (events retained).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Events buffered per thread before one locked publish into the ring.
pub const PUBLISH_EVERY: usize = 128;

/// What an [`Event`] records. Kinds are shared across layers so one
/// drained stream interleaves admission, solver, routing, and simulator
/// history in timestamp order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// Admission: a flow was admitted (`server` = first hop, `a` = rate
    /// bits/s, `b` = route length in hops).
    Admit,
    /// Admission: rejected, some link at budget (`server` = saturated
    /// link, `a` = reserved bits/s, `b` = budget bits/s).
    RejectLinkFull,
    /// Admission: rejected, no configured route (`a` = src router id,
    /// `b` = dst router id).
    RejectNoRoute,
    /// Admission: a flow handle was dropped (`server` = first hop,
    /// `a` = rate bits/s, `b` = route length in hops).
    Release,
    /// Delay solver: a fixed-point solve started (`server` = server
    /// count, `a` = route count, `b` = 1.0 when warm-started).
    SolveBegin,
    /// Delay solver: a solve finished (`a` = final sup-norm residual in
    /// seconds, `b` = iterations; `server` = server count).
    SolveEnd,
    /// Delay solver: a warm start stayed monotone to convergence
    /// (`a` = iterations).
    WarmStartAccept,
    /// Delay solver: a warm-started solve lowered some delay, so its
    /// start sat above the least fixed point (`a` = iterations).
    WarmStartFallback,
    /// Routing: one α-probe of the §5.3 bisection (`flow` = probe index,
    /// `a` = alpha, `b` = 1.0 when feasible).
    SearchProbe,
    /// Simulator: a delivered packet missed its class deadline
    /// (`server` = last hop, `a` = delay s, `b` = deadline s).
    DeadlineMiss,
    /// Simulator: a station backlog reached a new run-wide peak
    /// (`server` = station, `a` = backlog, `b` = sim time s).
    QueueHighWater,
    /// Admission: a new configuration generation was installed
    /// (`flow` = new generation id, `a` = previous generation id,
    /// `b` = flows still pinned to the previous generation).
    ReconfigApplied,
    /// Admission: a retired configuration generation fully drained
    /// (`flow` = generation id).
    GenerationRetired,
    /// Admission: the admitted prefix of one run of identical flows in a
    /// batch (`class` / `server` = the run's class and first hop,
    /// `flow` = first flow id of the prefix, ids contiguous, `a` = flows
    /// admitted, `b` = 0). The per-flow admit tracepoints of a run are
    /// coalesced into this one event; rejects and releases still trace
    /// under each flow's own id.
    AdmitBatch,
    /// SLO engine: a rule crossed into firing after breaching for its
    /// `for` hysteresis count of consecutive windows (`flow` = rule
    /// index, `a` = observed value, `b` = threshold).
    AlertFire,
    /// SLO engine: a firing rule resolved after holding clear for its
    /// `clear` hysteresis count of consecutive windows (`flow` = rule
    /// index, `a` = observed value, `b` = threshold).
    AlertResolve,
    /// Admission: rejected by a policy stage before the backend
    /// reservation was attempted (`a` = stage index in the generation's
    /// chain, `b` = flows turned away by this decision, `flow` = the
    /// first of them; their ids are contiguous).
    RejectPolicy,
}

impl EventKind {
    /// Every kind, in declaration order. Lets tooling (the metrics
    /// manifest test, exporters) enumerate the tracepoint namespace
    /// without a hand-maintained list.
    pub const ALL: [EventKind; 17] = [
        EventKind::Admit,
        EventKind::RejectLinkFull,
        EventKind::RejectNoRoute,
        EventKind::Release,
        EventKind::SolveBegin,
        EventKind::SolveEnd,
        EventKind::WarmStartAccept,
        EventKind::WarmStartFallback,
        EventKind::SearchProbe,
        EventKind::DeadlineMiss,
        EventKind::QueueHighWater,
        EventKind::ReconfigApplied,
        EventKind::GenerationRetired,
        EventKind::AdmitBatch,
        EventKind::AlertFire,
        EventKind::AlertResolve,
        EventKind::RejectPolicy,
    ];

    /// Stable lower-snake name used in the JSON exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::RejectLinkFull => "reject_link_full",
            EventKind::RejectNoRoute => "reject_no_route",
            EventKind::Release => "release",
            EventKind::SolveBegin => "solve_begin",
            EventKind::SolveEnd => "solve_end",
            EventKind::WarmStartAccept => "warm_start_accept",
            EventKind::WarmStartFallback => "warm_start_fallback",
            EventKind::SearchProbe => "search_probe",
            EventKind::DeadlineMiss => "deadline_miss",
            EventKind::QueueHighWater => "queue_high_water",
            EventKind::ReconfigApplied => "reconfig_applied",
            EventKind::GenerationRetired => "generation_retired",
            EventKind::AdmitBatch => "admit_batch",
            EventKind::AlertFire => "alert_fire",
            EventKind::AlertResolve => "alert_resolve",
            EventKind::RejectPolicy => "reject_policy",
        }
    }
}

/// One trace record. Fixed-size and `Copy` so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Nanoseconds since the tracer's epoch (monotonic clock). For
    /// events recorded into the [`global()`] tracer the timestamp is
    /// **batch-granular**: the clock is read once per thread batch (at
    /// most [`PUBLISH_EVERY`] events), and all events of a batch share
    /// it — hot paths cannot afford a clock read per record. Emission
    /// order within a batch is preserved by the stable drain sort.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Traffic class index (`0` when not applicable).
    pub class: u16,
    /// Flow / probe / packet identifier (`0` when not applicable).
    pub flow: u64,
    /// Link server or station index (`u32::MAX` when not applicable).
    pub server: u32,
    /// First payload slot (meaning per [`EventKind`]).
    pub a: f64,
    /// Second payload slot (meaning per [`EventKind`]).
    pub b: f64,
}

impl Event {
    /// One-line JSON rendering, e.g.
    /// `{"t_ns":1203,"kind":"admit","class":0,"flow":7,"server":3,"a":32000.0,"b":4.0}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        write!(
            out,
            "{{\"t_ns\":{},\"kind\":\"{}\",\"class\":{},\"flow\":{},\"server\":{},\"a\":{},\"b\":{}}}",
            self.t_ns,
            self.kind.as_str(),
            self.class,
            self.flow,
            self.server,
            json::number(self.a),
            json::number(self.b),
        )
        .unwrap();
        out
    }
}

/// The shared ring. Holds the newest `capacity` events; older ones are
/// overwritten (counted in `dropped`). `buf` fills in arrival order until
/// it holds `capacity` events; from then on the oldest sits at `head` and
/// each publish overwrites from there, wrapping.
struct Ring {
    buf: Vec<Event>,
    head: usize,
    capacity: usize,
    dropped: u64,
    /// Largest timestamp published since the last drain.
    newest: u64,
    /// Some publish since the last drain carried a timestamp below one
    /// published before it, so the drain must sort.
    interleaved: bool,
}

impl Ring {
    /// Appends a batch in at most two slice copies, overwriting the
    /// oldest events when full — the ring and `dropped` end as if the
    /// events had been pushed one by one.
    fn push_all(&mut self, events: &[Event]) {
        for ev in events {
            self.interleaved |= ev.t_ns < self.newest;
            self.newest = self.newest.max(ev.t_ns);
        }
        // Only the newest `capacity` events of a batch can survive it.
        let skip = events.len().saturating_sub(self.capacity);
        let (fill, wrap) =
            events[skip..].split_at((self.capacity - self.buf.len()).min(events.len() - skip));
        self.buf.extend_from_slice(fill);
        self.dropped += (skip + wrap.len()) as u64;
        let first = wrap.len().min(self.capacity - self.head);
        self.buf[self.head..self.head + first].copy_from_slice(&wrap[..first]);
        self.buf[..wrap.len() - first].copy_from_slice(&wrap[first..]);
        self.head = (self.head + wrap.len()) % self.capacity;
    }

    /// Every event, oldest first, in at most two slice copies, with the
    /// drop count and whether the events need sorting; leaves the ring
    /// empty.
    fn take(&mut self) -> (Drained, bool) {
        let (newer, older) = self.buf.split_at(self.head);
        let mut events = Vec::with_capacity(self.buf.len());
        events.extend_from_slice(older);
        events.extend_from_slice(newer);
        self.buf.clear();
        self.head = 0;
        self.newest = 0;
        let dropped = std::mem::take(&mut self.dropped);
        (
            Drained { events, dropped },
            std::mem::take(&mut self.interleaved),
        )
    }
}

/// A flight recorder of [`Event`]s. See the module docs for the
/// buffering and drop semantics.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    ring: Mutex<Ring>,
    /// Whether emissions go through the thread-local batch buffer (true
    /// only for the [`global()`] tracer — the flag is cached here so the
    /// hot emit path never touches the `OnceLock`).
    buffered: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

/// What a [`Tracer::drain`] hands back: every buffered event (oldest
/// first) and how many older events the ring overwrote since the last
/// drain.
#[derive(Clone, Debug, Default)]
pub struct Drained {
    /// Buffered events, oldest first (stable-sorted by timestamp, so
    /// batches published by different threads interleave correctly).
    pub events: Vec<Event>,
    /// Events lost to ring overflow since the last drain.
    pub dropped: u64,
}

impl Drained {
    /// JSON-lines rendering: one line per event, then one trailer object
    /// `{"kind":"trace_meta","events":N,"dropped":M}` so consumers can
    /// detect loss without counting.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        writeln!(
            out,
            "{{\"kind\":\"trace_meta\",\"events\":{},\"dropped\":{}}}",
            self.events.len(),
            self.dropped
        )
        .unwrap();
        out
    }
}

impl Tracer {
    /// A disabled tracer retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity.min(4096)),
                head: 0,
                capacity,
                dropped: 0,
                newest: 0,
                interleaved: false,
            }),
            buffered: false,
        }
    }

    /// Turns recording on or off. Off (the default) makes [`emit`]
    /// a single relaxed load and branch.
    ///
    /// [`emit`]: Self::emit
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the tracer is currently recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer's epoch (its construction time).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one event (timestamped now). A no-op when disabled.
    ///
    /// Emissions into the [`global()`] tracer are buffered per thread and
    /// published every [`PUBLISH_EVERY`] events / on [`flush`] / on
    /// thread exit; any other tracer publishes directly under its lock
    /// (tests and tools, where the per-event lock is irrelevant).
    ///
    /// [`flush`]: Self::flush
    #[inline]
    pub fn emit(&self, kind: EventKind, class: usize, flow: u64, server: u32, a: f64, b: f64) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(kind, class, flow, server, a, b);
    }

    #[inline(never)]
    fn emit_slow(&self, kind: EventKind, class: usize, flow: u64, server: u32, a: f64, b: f64) {
        let mut ev = Event {
            t_ns: 0,
            kind,
            class: class.min(u16::MAX as usize) as u16,
            flow,
            server,
            a,
            b,
        };
        if self.buffered {
            // Batch-granular timestamps: the monotonic clock is read once
            // per thread batch (at its first event), not per event — a
            // `clock_gettime` per record would dwarf the ~100ns admit
            // path itself (see `obs_overhead`'s tracing gate). Events within
            // a batch share that timestamp and stay in emission order
            // through the stable drain sort.
            LOCAL.with(|cell| {
                if let Some(held) = cell.held.borrow_mut().as_mut() {
                    // Stamped when released.
                    held.push(ev);
                    return;
                }
                let mut buf = cell.buf.borrow_mut();
                if buf.is_empty() {
                    cell.batch_t.set(self.now_ns());
                }
                ev.t_ns = cell.batch_t.get();
                buf.push(ev);
                if buf.len() >= PUBLISH_EVERY {
                    self.publish(&buf);
                    buf.clear();
                }
            });
        } else {
            // Non-global tracers (tests, tools) are not on hot paths:
            // exact per-event timestamps, direct publish.
            ev.t_ns = self.now_ns();
            self.publish(std::slice::from_ref(&ev));
        }
    }

    fn publish(&self, events: &[Event]) {
        self.ring.lock().unwrap().push_all(events);
    }

    /// Publishes this thread's buffered events into the ring (only
    /// meaningful for the [`global()`] tracer; other threads publish on
    /// their own cadence, at the latest on thread exit).
    pub fn flush(&self) {
        if !self.buffered {
            return;
        }
        LOCAL.with(|cell| {
            let mut buf = cell.buf.borrow_mut();
            if !buf.is_empty() {
                self.publish(&buf);
                buf.clear();
            }
        });
    }

    /// Number of events currently buffered in the ring (after a
    /// [`flush`](Self::flush) of the calling thread).
    pub fn len(&self) -> usize {
        self.flush();
        self.ring.lock().unwrap().buf.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered event (and the overflow drop count) out of
    /// the ring, leaving it empty. Flushes the calling thread first.
    pub fn drain(&self) -> Drained {
        self.flush();
        let (mut drained, interleaved) = self.ring.lock().unwrap().take();
        // Batches from different threads land in publish order; a stable
        // sort by timestamp restores one coherent timeline. A stream no
        // publish took back in time (one emitting thread) is already that
        // timeline, and the sort would be the identity.
        if interleaved {
            drained.events.sort_by_key(|e| e.t_ns);
        }
        drained
    }
}

/// Per-thread emission buffer for the global tracer; publishes whatever
/// is left when the thread exits.
struct LocalBuf {
    buf: std::cell::RefCell<Vec<Event>>,
    /// Timestamp of the current batch's first event (see `emit_slow`).
    batch_t: std::cell::Cell<u64>,
    /// Under [`hold`], the events emitted so far, unstamped.
    held: std::cell::RefCell<Option<Vec<Event>>>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        if let Some(g) = GLOBAL.get() {
            let buf = self.buf.borrow();
            if !buf.is_empty() {
                g.publish(&buf);
            }
        }
    }
}

thread_local! {
    // `const` init keeps the TLS access on the emit path branch-light.
    // CachePadded: TLS blocks of different threads can be allocated
    // adjacently; padding the staging buffer keeps one thread's hot
    // Vec len/ptr from false-sharing a line with a neighbor thread's
    // (DESIGN.md §11 padding audit).
    static LOCAL: CachePadded<LocalBuf> = const {
        CachePadded::new(LocalBuf {
            buf: std::cell::RefCell::new(Vec::new()),
            batch_t: std::cell::Cell::new(0),
            held: std::cell::RefCell::new(None),
        })
    };
}

/// Runs `f` with this thread's emissions into the [`global()`] tracer
/// held back: they reach neither the thread's batch nor the ring, and
/// come back, in emission order, beside `f`'s result — to [`release`]
/// once the work is adopted, or to drop. A hold inside a hold returns
/// the inner events to its caller and leaves the outer hold as it was.
pub fn hold<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    /// Puts the enclosing hold (or none) back when dropped, whether `f`
    /// returned or unwound.
    struct Restore(Option<Vec<Event>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            LOCAL.with(|cell| *cell.held.borrow_mut() = outer);
        }
    }
    let restore = Restore(LOCAL.with(|cell| cell.held.replace(Some(Vec::new()))));
    let out = f();
    let held = LOCAL.with(|cell| cell.held.take());
    drop(restore);
    (out, held.unwrap_or_default())
}

/// Emits events a [`hold`] returned into the [`global()`] tracer from
/// this thread, in their order, as if emitted now (timestamped with this
/// thread's batch; into the enclosing hold, if there is one).
pub fn release(events: Vec<Event>) {
    let tracer = global();
    for e in events {
        tracer.emit(e.kind, e.class.into(), e.flow, e.server, e.a, e.b);
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide flight recorder the instrumented crates emit into.
/// Created disabled; `uba-cli serve` (and tests) enable it.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(|| {
        let mut t = Tracer::with_capacity(DEFAULT_CAPACITY);
        t.buffered = true;
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn ev(t: &Tracer, kind: EventKind, flow: u64) {
        t.emit(kind, 0, flow, 1, 1.5, 2.5);
    }

    /// `ALL` holds every kind once, at the index listed here. The match
    /// has no wildcard arm, so a new variant does not compile until it
    /// is listed with an index, and then fails until `ALL` — which the
    /// manifest's trace test enumerates — holds it there.
    #[test]
    fn all_lists_every_kind_at_its_index() {
        macro_rules! kinds {
            ($($kind:ident => $i:expr,)*) => {{
                let index = |k: EventKind| match k {
                    $(EventKind::$kind => $i,)*
                };
                $(assert_eq!(EventKind::ALL[index(EventKind::$kind)], EventKind::$kind);)*
                assert_eq!(EventKind::ALL.len(), [$($i),*].len());
            }};
        }
        kinds! {
            Admit => 0,
            RejectLinkFull => 1,
            RejectNoRoute => 2,
            Release => 3,
            SolveBegin => 4,
            SolveEnd => 5,
            WarmStartAccept => 6,
            WarmStartFallback => 7,
            SearchProbe => 8,
            DeadlineMiss => 9,
            QueueHighWater => 10,
            ReconfigApplied => 11,
            GenerationRetired => 12,
            AdmitBatch => 13,
            AlertFire => 14,
            AlertResolve => 15,
            RejectPolicy => 16,
        }
    }

    #[test]
    fn an_event_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::with_capacity(8);
        ev(&t, EventKind::Admit, 1);
        assert!(t.is_empty());
        assert_eq!(t.drain().events.len(), 0);
    }

    #[test]
    fn events_round_trip_in_order() {
        let t = Tracer::with_capacity(8);
        t.set_enabled(true);
        ev(&t, EventKind::Admit, 1);
        ev(&t, EventKind::Release, 2);
        let d = t.drain();
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].kind, EventKind::Admit);
        assert_eq!(d.events[1].kind, EventKind::Release);
        assert!(d.events[0].t_ns <= d.events[1].t_ns);
        assert_eq!(d.events[0].flow, 1);
        assert_eq!(d.events[0].a, 1.5);
        // A drain empties the ring.
        assert!(t.drain().events.is_empty());
    }

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        t.set_enabled(true);
        for i in 0..10 {
            ev(&t, EventKind::Admit, i);
        }
        let d = t.drain();
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.dropped, 6);
        let flows: Vec<u64> = d.events.iter().map(|e| e.flow).collect();
        assert_eq!(flows, vec![6, 7, 8, 9], "flight recorder keeps the tail");
        // Drop count resets after a drain.
        ev(&t, EventKind::Admit, 10);
        assert_eq!(t.drain().dropped, 0);
    }

    fn at(t_ns: u64, flow: u64) -> Event {
        Event {
            t_ns,
            kind: EventKind::Admit,
            class: 0,
            flow,
            server: 0,
            a: 0.0,
            b: 0.0,
        }
    }

    /// A batch enters the ring in slices and leaves it the way the ring
    /// of one-by-one pushes it replaced did: same events, same order,
    /// same drop count — for batches below, at and above the capacity,
    /// across wraps and drains.
    #[test]
    fn block_publish_matches_pushing_one_by_one() {
        let mut rng = crate::SplitMix64::new(7);
        for capacity in [1, 2, 4, 7, 64] {
            let t = Tracer::with_capacity(capacity);
            let (mut reference, mut reference_dropped) = (VecDeque::new(), 0);
            let mut flow = 0;
            for round in 0..300 {
                let batch: Vec<Event> = (0..rng.index(3 * capacity + 2))
                    .map(|_| {
                        flow += 1;
                        at(flow, flow)
                    })
                    .collect();
                t.publish(&batch);
                for &ev in &batch {
                    if reference.len() == capacity {
                        reference.pop_front();
                        reference_dropped += 1;
                    }
                    reference.push_back(ev);
                }
                if round % 7 == 6 {
                    let d = t.drain();
                    assert_eq!(d.events, Vec::from(std::mem::take(&mut reference)));
                    assert_eq!(d.dropped, std::mem::take(&mut reference_dropped));
                }
            }
        }
    }

    /// The drain sorts only when a publish went back in time, and the
    /// sort is stable.
    #[test]
    fn drain_sorts_only_interleaved_streams() {
        let t = Tracer::with_capacity(16);
        t.publish(&[at(10, 1), at(10, 2)]);
        t.publish(&[at(4, 3), at(4, 4)]);
        t.publish(&[at(12, 5)]);
        let flows: Vec<u64> = t.drain().events.iter().map(|e| e.flow).collect();
        assert_eq!(flows, [3, 4, 1, 2, 5]);
        // A drain forgets what came before it.
        t.publish(&[at(1, 6), at(1, 7)]);
        t.publish(&[at(2, 8)]);
        assert!(!t.ring.lock().unwrap().interleaved);
        let flows: Vec<u64> = t.drain().events.iter().map(|e| e.flow).collect();
        assert_eq!(flows, [6, 7, 8]);
    }

    #[test]
    fn json_lines_parse_back() {
        let t = Tracer::with_capacity(8);
        t.set_enabled(true);
        t.emit(EventKind::RejectLinkFull, 2, 77, 13, 320_000.0, 320_000.0);
        t.emit(EventKind::SolveEnd, 0, 0, u32::MAX, f64::NAN, 4.0);
        let d = t.drain();
        let text = d.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "two events plus the meta trailer");
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("kind").and_then(crate::json::JsonValue::as_str),
            Some("reject_link_full")
        );
        assert_eq!(
            first
                .get("class")
                .and_then(crate::json::JsonValue::as_number),
            Some(2.0)
        );
        assert_eq!(
            first.get("a").and_then(crate::json::JsonValue::as_number),
            Some(320_000.0)
        );
        // Non-finite payloads serialize as null and still parse.
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("a"), Some(&crate::json::JsonValue::Null));
        let meta = crate::json::parse(lines[2]).unwrap();
        assert_eq!(
            meta.get("events")
                .and_then(crate::json::JsonValue::as_number),
            Some(2.0)
        );
        assert_eq!(
            meta.get("dropped")
                .and_then(crate::json::JsonValue::as_number),
            Some(0.0)
        );
    }

    #[test]
    fn global_tracer_buffers_per_thread_and_flushes() {
        let g = global();
        g.set_enabled(true);
        // Drain any events left over from other tests sharing the global.
        g.drain();
        g.emit(EventKind::SearchProbe, 0, 1, u32::MAX, 0.25, 1.0);
        let d = g.drain(); // drain flushes this thread's buffer
        g.set_enabled(false);
        assert!(
            d.events.iter().any(|e| e.kind == EventKind::SearchProbe),
            "buffered event must surface on drain: {d:?}"
        );
    }

    #[test]
    fn thread_exit_publishes_into_global() {
        let g = global();
        g.set_enabled(true);
        std::thread::spawn(|| {
            global().emit(EventKind::QueueHighWater, 0, 42, 5, 3.0, 0.1);
        })
        .join()
        .unwrap();
        let d = g.drain();
        g.set_enabled(false);
        assert!(d
            .events
            .iter()
            .any(|e| e.kind == EventKind::QueueHighWater && e.flow == 42));
    }
}

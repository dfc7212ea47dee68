//! The discrete-event engine.
//!
//! Stations = real link servers plus one virtual access shaper per
//! (ingress router, first server) pair. Each station is a non-preemptive
//! class-based queue under the run's [`Discipline`] — by default static
//! priority, FIFO within a class: the paper's packet forwarding module.
//!
//! **Ordering contract.** Events are processed in `(time, seq)` order,
//! so runs are bit-for-bit deterministic. At one instant the policed
//! source emissions go first, by flow index, then the events created
//! while the run is in progress — completions and next-hop arrivals.
//! Every event takes the next `seq` when it enters the loop: an emission
//! when the loop takes it from the calendar, a completion or a forwarded
//! arrival when it is created. So `seq` is arrival order at every
//! station, which the schedulers' FIFO / finish-tag tie-breaks read.
//!
//! The loop draws from three sources that together realize that order:
//! the emissions, streamed from a calendar of time windows (each flow a
//! resumable cursor over its source and its policer, linked into the
//! window of its next conforming emission; a window is read sorted by
//! `(time, flow)`), so memory is bounded by the flows, not the packets;
//! the completions in flight (at most one per station), in one sorted
//! run per service duration; and a FIFO of the next-hop arrivals of the
//! current instant.
//!
//! Service only starts at `now`, which never decreases, under a fresh and
//! larger `seq`, so completions sharing a duration are created in
//! `(time, seq)` order: each duration's FIFO is a sorted run. A binary heap
//! over the non-empty runs' heads merges them in exactly the order one heap
//! over every completion would pop, because `seq` is unique. With one
//! duration, as on a uniform network, that heap is one entry deep.
//!
//! A forwarded packet never waits, so it needs no priority queue: (1) a
//! completion at `now` stamps the arrival it forwards `now` and gives it
//! the largest `seq` so far; (2) every completion stamped `now` was pushed
//! before `now`, when its service of ≥ 1 ns began, so its `seq` is smaller;
//! (3) whatever is pushed during `now` is stamped later; (4) hence the
//! order within `now` is emissions, completions, forwarded arrivals as
//! created, and the FIFO is empty when time advances.
//!
//! The arrival still may not be handled inside the completion creating
//! it: a completion of the *next* station due the same nanosecond picks
//! its successor first (static priority would otherwise start the
//! newcomer over a waiting low-class packet; `engine_equiv`'s
//! `forwarded_arrival_follows_same_instant_completions`).

use crate::metrics::{sim, SimMetrics};
use crate::report::{SimReport, StatsAccumulator};
use crate::sched::{Discipline, SchedJob, Scheduler};
use crate::source::{Emissions, SourceModel};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One flow to simulate.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Class index (0 = highest priority).
    pub class: usize,
    /// Ingress router id — flows sharing (ingress, first server) share an
    /// access shaper.
    pub ingress: u32,
    /// Real link servers traversed, in order.
    pub route: Vec<u32>,
    /// Emission model.
    pub source: SourceModel,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Sources emit packets up to this time (seconds); the run then
    /// drains until every packet is delivered.
    pub horizon: f64,
    /// Per-class deadlines, for miss counting.
    pub deadlines: Vec<f64>,
    /// Optional per-class ingress policers `(burst bits, rate bits/s)`:
    /// non-conforming packets are dropped at the network entrance, as the
    /// paper's edge routers do. `None` disables policing (sources are
    /// then trusted to conform).
    pub policers: Option<Vec<(f64, f64)>>,
    /// Scheduling discipline of every station, access shapers included.
    pub discipline: Discipline,
}

impl SimConfig {
    /// Config with the given horizon and deadlines, no policing, and the
    /// paper's class-based static-priority forwarding.
    pub fn new(horizon: f64, deadlines: Vec<f64>) -> Self {
        Self {
            horizon,
            deadlines,
            policers: None,
            discipline: Discipline::StaticPriority,
        }
    }
}

const NS: f64 = 1e9;

#[derive(Clone, Copy, Debug)]
struct Job {
    flow: u32,
    /// Where the packet is: an index into the run's `hops`, on its
    /// flow's sim-route.
    at: u32,
    /// Measurement start (ns): arrival at the first real server.
    t0: u64,
    /// Arrival (ns) at the station it is at.
    arrived: u64,
}

/// One hop of a sim-route: the station, how long it serves one of the
/// owning flow's packets, and which of the simulation's distinct service
/// durations that is (the sorted run its completions join).
struct Hop {
    station: u32,
    run: u32,
    service_ns: u64,
}

/// The completions in flight, `(done, seq, station)`, popped in
/// `(done, seq)` order: one FIFO per service duration, each sorted because
/// a duration's completions are created in that order (module docs), and
/// a heap over the non-empty FIFOs' heads.
struct Completions {
    runs: Vec<VecDeque<(u64, u64, u32)>>,
    /// `(done, seq, run)` of each non-empty run's front.
    heads: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl Completions {
    fn new(runs: usize) -> Self {
        Self {
            runs: vec![VecDeque::new(); runs],
            heads: BinaryHeap::with_capacity(runs),
        }
    }

    /// Adds a completion to `run`, after everything already in it.
    fn push(&mut self, run: u32, done: u64, seq: u64, station: u32) {
        let fifo = &mut self.runs[run as usize];
        debug_assert!(fifo.back().is_none_or(|&(t, s, _)| (t, s) < (done, seq)));
        if fifo.is_empty() {
            self.heads.push(Reverse((done, seq, run)));
        }
        fifo.push_back((done, seq, station));
    }

    /// When the earliest completion is due.
    fn due(&self) -> Option<u64> {
        self.heads.peek().map(|&Reverse((t, ..))| t)
    }

    /// Removes the earliest completion. Its run's next one takes its place
    /// in the heap of heads, which leaves that heap only when the run empties.
    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let mut head = self.heads.peek_mut()?;
        let Reverse((_, _, run)) = *head;
        let fifo = &mut self.runs[run as usize];
        let first = fifo.pop_front().expect("a head names a non-empty run");
        match fifo.front() {
            Some(&(t, s, _)) => *head = Reverse((t, s, run)),
            None => {
                PeekMut::pop(head);
            }
        }
        Some(first)
    }
}

/// Seconds to the clock's nanoseconds, rounded half away from zero as
/// `f64::round` does, without its library call: below 2^53 the fraction
/// `x - ⌊x⌋` is exact, and above it `x` is already whole.
fn ns(t: f64) -> u64 {
    let x = t * NS;
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// A class's ingress policer as one flow meets it: a token bucket
/// `(burst, rate)` silently dropping non-conforming packets (edge-router
/// policing, Section 3), with its tokens and what it has dropped.
struct Policer {
    burst: f64,
    rate: f64,
    bits: f64,
    tokens: f64,
    last_t: f64,
    dropped: u64,
}

impl Policer {
    fn new((burst, rate): (f64, f64), bits: f64) -> Self {
        Self {
            burst,
            rate,
            bits,
            tokens: burst,
            last_t: 0.0,
            dropped: 0,
        }
    }

    /// Whether the packet emitted at `t` (seconds) conforms; counts it
    /// as dropped if not.
    fn passes(&mut self, t: f64) -> bool {
        self.tokens = (self.tokens + self.rate * (t - self.last_t)).min(self.burst);
        self.last_t = t;
        if self.tokens + 1e-9 < self.bits {
            self.dropped += 1;
            return false;
        }
        self.tokens -= self.bits;
        true
    }
}

/// Hands `take` the emissions (ns) of `walk` that `policer` lets through
/// until it returns `false`, and returns that emission: the first not
/// taken, or `None` once the source has no more. A flow's cursor is its
/// walk and its policer; both are matched once per call, not once per
/// emission.
fn conforming(
    walk: &mut Emissions,
    policer: Option<&mut Policer>,
    mut take: impl FnMut(u64) -> bool,
) -> Option<u64> {
    let mut rest = None;
    let mut offer = |t: f64| {
        let t = ns(t);
        take(t) || {
            rest = Some(t);
            false
        }
    };
    match policer {
        None => walk.visit_while(offer),
        Some(policer) => walk.visit_while(|t| !policer.passes(t) || offer(t)),
    }
    rest
}

/// No flow: the end of a window's list.
const NONE: u32 = u32::MAX;
/// A flow drained by the window being read, to be relinked after its sort.
const RELINK: u32 = u32::MAX - 1;

/// The source emissions, streamed in `(t, flow)` order: a calendar of
/// time windows (2048 to 4095 of a power-of-two width over the horizon),
/// each the head of a list of the flows whose next conforming emission
/// falls in it. Reading a window drains each of its flows to the window's
/// end and sorts what they emitted; the flows then join the lists of the
/// windows of their next emissions in that sorted order, so a window
/// whose flows keep their phases (CBR at one period) reads out sorted
/// already. Memory: the cursors, the windows and one window's emissions,
/// whatever the horizon.
struct Calendar {
    walks: Vec<Emissions>,
    /// One per flow, or none in an unpoliced run.
    policers: Vec<Policer>,
    /// Each linked flow's next conforming emission (ns).
    due: Vec<u64>,
    /// The next flow in the same window's list, `NONE`, or `RELINK`.
    link: Vec<u32>,
    /// The first and last flow of each window's list (`NONE` if empty).
    lists: Vec<(u32, u32)>,
    /// A window is `1 << shift` ns wide.
    shift: u32,
    /// A key is `(t - window start) << flow_bits | flow`.
    flow_bits: u32,
    /// The next window to read.
    window: usize,
}

impl Calendar {
    /// The calendar of `flows` up to `horizon`, under `policers` (one per
    /// class). Panics, before the first event, on bad source parameters.
    fn new(flows: &[FlowSpec], horizon: f64, policers: Option<&[(f64, f64)]>) -> Self {
        let end = ns(horizon);
        let flow_bits = usize::BITS - flows.len().saturating_sub(1).leading_zeros();
        // Narrower only where a key could not hold the offset beside the
        // flow: a horizon of hours with billions of flows.
        let shift = (end >> 12)
            .checked_ilog2()
            .map_or(0, |b| b + 1)
            .min(u64::BITS - flow_bits);
        let mut calendar = Self {
            walks: flows
                .iter()
                .map(|f| f.source.emission_iter(horizon))
                .collect(),
            policers: policers.map_or_else(Vec::new, |p| {
                flows
                    .iter()
                    .map(|f| Policer::new(p[f.class], f.source.packet_bits() as f64))
                    .collect()
            }),
            due: vec![0; flows.len()],
            link: vec![NONE; flows.len()],
            lists: vec![(NONE, NONE); (end >> shift) as usize + 1],
            shift,
            flow_bits,
            window: 0,
        };
        for flow in 0..flows.len() {
            let (walk, policer) = calendar.cursor(flow);
            if let Some(t) = conforming(walk, policer, |_| false) {
                calendar.due[flow] = t;
                calendar.append(flow);
            }
        }
        calendar
    }

    /// Flow `flow`'s cursor: its source's walk and its policer, if any.
    fn cursor(&mut self, flow: usize) -> (&mut Emissions, Option<&mut Policer>) {
        (&mut self.walks[flow], self.policers.get_mut(flow))
    }

    /// Appends `flow` to the list of the window its next emission is due in.
    fn append(&mut self, flow: usize) {
        let list = &mut self.lists[(self.due[flow] >> self.shift) as usize];
        self.link[flow] = NONE;
        if list.0 == NONE {
            list.0 = flow as u32;
        } else {
            self.link[list.1 as usize] = flow as u32;
        }
        list.1 = flow as u32;
    }

    /// Puts the keys of the next window that holds an emission into
    /// `keys`, sorted, and returns the window's first nanosecond; leaves
    /// `keys` empty once the calendar ends.
    #[inline(never)]
    fn next_window(&mut self, keys: &mut Vec<u64>) -> u64 {
        keys.clear();
        let (shift, flow_bits) = (self.shift, self.flow_bits);
        loop {
            let w = self.window;
            if w == self.lists.len() {
                return 0;
            }
            self.window += 1;
            let base = (w as u64) << shift;
            let mut flow = std::mem::replace(&mut self.lists[w], (NONE, NONE)).0;
            while flow != NONE {
                let f = flow as usize;
                flow = self.link[f];
                let mut take = |t: u64| {
                    let inside = (t >> shift) as usize == w;
                    if inside {
                        keys.push((t - base) << flow_bits | f as u64);
                    }
                    inside
                };
                take(self.due[f]);
                let (walk, policer) = self.cursor(f);
                match conforming(walk, policer, take) {
                    Some(next) => {
                        self.due[f] = next;
                        self.link[f] = RELINK;
                    }
                    None => self.link[f] = NONE,
                }
            }
            if !keys.is_empty() {
                keys.sort_unstable();
                for &key in keys.iter() {
                    let f = self.flow_of(key) as usize;
                    if self.link[f] == RELINK {
                        self.append(f);
                    }
                }
                return base;
            }
        }
    }

    /// The flow a key names.
    fn flow_of(&self, key: u64) -> u32 {
        (key & ((1 << self.flow_bits) - 1)) as u32
    }

    /// The emission `(t_ns, flow)` a key of the window starting at `base` names.
    fn decode(&self, base: u64, key: u64) -> (u64, u32) {
        (base + (key >> self.flow_bits), self.flow_of(key))
    }
}

enum Event {
    Arrive(Job),
    Complete { station: u32 },
}

struct Station {
    capacity: f64,
    sched: Scheduler<Job>,
    current: Option<Job>,
    backlog: usize,
}

impl Station {
    fn new(capacity: f64, classes: usize, discipline: &Discipline) -> Self {
        Self {
            capacity,
            sched: Scheduler::new(discipline.clone(), classes),
            current: None,
            backlog: 0,
        }
    }
}

/// Runs the simulation to the end: sources emit up to `cfg.horizon`,
/// then the network drains, every station forwarding under
/// `cfg.discipline`.
///
/// `capacities[k]` is the capacity of real link server `k`; flows' routes
/// index into it. Every flow must have a non-empty route.
pub fn simulate(capacities: &[f64], flows: &[FlowSpec], cfg: &SimConfig) -> SimReport {
    run(capacities, flows, cfg, sim())
}

fn run(capacities: &[f64], flows: &[FlowSpec], cfg: &SimConfig, metrics: &SimMetrics) -> SimReport {
    let t_run = uba_obs::Stopwatch::start();
    let classes = cfg.deadlines.len();
    assert!(classes > 0, "need at least one class deadline");
    assert!(
        cfg.horizon.is_finite() && cfg.horizon >= 0.0,
        "horizon must be finite and non-negative"
    );
    for f in flows {
        assert!(!f.route.is_empty(), "flow route must be non-empty");
        assert!(f.class < classes, "flow class out of range");
        for &k in &f.route {
            assert!((k as usize) < capacities.len(), "route server out of range");
        }
    }
    // A job indexes its hops in `u32`: with every route and its shaper
    // in range, no index below truncates, and a flow index
    // stays below the calendar's two markers.
    let total_hops: usize = flows.iter().map(|f| f.route.len() + 1).sum();
    assert!(
        u32::try_from(total_hops).is_ok(),
        "the sim-routes may total at most u32::MAX = {} hops",
        u32::MAX
    );
    if let Some(policers) = &cfg.policers {
        let valid = |x: f64| x.is_finite() && x >= 0.0;
        assert!(
            policers.len() == classes && policers.iter().all(|&(b, r)| valid(b) && valid(r)),
            "need one finite, non-negative policer per class"
        );
    }

    // Stations: real servers first, then one access shaper per (ingress,
    // first server) pair, created when a route first needs it.
    let mut stations: Vec<Station> = capacities
        .iter()
        .map(|&c| Station::new(c, classes, &cfg.discipline))
        .collect();
    let mut shaper_of: HashMap<(u32, u32), u32> = HashMap::new();
    // Every flow's sim-route — the shaper, then the real route — laid end
    // to end; a route is named by `(index of its shaper hop, of its last)`.
    let mut hops: Vec<Hop> = Vec::new();
    let mut routes: Vec<(u32, u32)> = Vec::with_capacity(flows.len());
    // Each distinct service duration's run, numbered in first-seen order.
    let mut run_of: HashMap<u64, u32> = HashMap::new();
    for f in flows {
        let shaper = *shaper_of.entry((f.ingress, f.route[0])).or_insert_with(|| {
            let cap = capacities[f.route[0] as usize];
            stations.push(Station::new(cap, classes, &cfg.discipline));
            stations.len() as u32 - 1
        });
        routes.push((hops.len() as u32, (hops.len() + f.route.len()) as u32));
        let bits = f.source.packet_bits() as f64;
        for station in std::iter::once(shaper).chain(f.route.iter().copied()) {
            let dur = (bits / stations[station as usize].capacity * NS).round() as u64;
            let service_ns = dur.max(1);
            let runs = run_of.len() as u32;
            hops.push(Hop {
                station,
                run: *run_of.entry(service_ns).or_insert(runs),
                service_ns,
            });
        }
    }

    let mut calendar = Calendar::new(flows, cfg.horizon, cfg.policers.as_deref());
    // What the loop reads of a flow, without the `FlowSpec` around it.
    let packets: Vec<(usize, u64)> = flows
        .iter()
        .map(|f| (f.class, f.source.packet_bits()))
        .collect();

    // Completions `(t, seq, station)` in their runs, this instant's
    // forwarded `(seq, job)` in the FIFO; `seq` numbers every event.
    let mut seq = 0u64;
    let mut completions = Completions::new(run_of.len());
    let mut forwarded: VecDeque<(u64, Job)> = VecDeque::new();

    // Puts `job` into service at the station it has reached.
    let serve = |st: &mut Station,
                 st_id: usize,
                 job: Job,
                 t: u64,
                 completions: &mut Completions,
                 seq: &mut u64| {
        st.current = Some(job);
        *seq += 1;
        let hop = &hops[job.at as usize];
        completions.push(hop.run, t + hop.service_ns, *seq, st_id as u32);
    };

    let mut acc: Vec<StatsAccumulator> = vec![StatsAccumulator::default(); classes];
    // The largest sojourn (ns) per (real server, class), `k · classes + c`.
    let mut sojourn_ns = vec![0u64; capacities.len() * classes];
    let mut total_packets = 0u64;
    let mut total_misses = 0u64;
    let mut events = 0u64;
    let mut peak_backlog = 0usize;
    let tracer = uba_obs::trace::global();
    let mut now = 0u64;
    // `sim.queue_depth` samples, counted per backlog value and published
    // in bulk at the end of the run.
    let mut depth_counts: Vec<u64> = Vec::new();
    // The calendar window being read: its first nanosecond, its sorted
    // keys and how many of them are taken.
    let mut base = 0;
    let mut keys: Vec<u64> = Vec::new();
    let mut read = 0;

    loop {
        if read == keys.len() {
            base = calendar.next_window(&mut keys);
            read = 0;
        }
        let emission = keys.get(read).map(|&key| calendar.decode(base, key));
        let due = completions.due();
        let (t, s, ev) = match (forwarded.front(), emission) {
            // Forwarded: after its instant's completions, before all else.
            (Some(&(s, job)), _) if due.is_none_or(|due| due > now) => {
                forwarded.pop_front();
                (now, s, Event::Arrive(job))
            }
            // On a tie the emission goes first: the ordering contract.
            (None, Some((t, flow))) if due.is_none_or(|due| t <= due) => {
                read += 1;
                seq += 1;
                let job = Job {
                    flow,
                    at: routes[flow as usize].0,
                    t0: t,
                    arrived: t,
                };
                (t, seq, Event::Arrive(job))
            }
            _ => match completions.pop() {
                Some((t, s, station)) => (t, s, Event::Complete { station }),
                None => break,
            },
        };
        debug_assert!(t == now || forwarded.is_empty() && t > now);
        events += 1;
        now = t;
        match ev {
            Event::Arrive(mut job) => {
                job.arrived = t;
                let (class, bits) = packets[job.flow as usize];
                let st_id = hops[job.at as usize].station as usize;
                let st = &mut stations[st_id];
                st.backlog += 1;
                if st.backlog > peak_backlog {
                    peak_backlog = st.backlog;
                    tracer.emit(
                        uba_obs::EventKind::QueueHighWater,
                        class,
                        job.flow as u64,
                        st_id as u32,
                        peak_backlog as f64,
                        t as f64 / NS,
                    );
                }
                if st.backlog >= depth_counts.len() {
                    depth_counts.resize(st.backlog + 1, 0);
                }
                depth_counts[st.backlog] += 1;
                if st.current.is_none() {
                    // Idle, hence nothing queued: no trip through the queue.
                    st.sched.pass_through(class, bits, t as f64 / NS);
                    serve(st, st_id, job, t, &mut completions, &mut seq);
                } else {
                    let queued = SchedJob {
                        payload: job,
                        bits,
                        seq: s,
                    };
                    st.sched.enqueue(class, queued, t as f64 / NS);
                }
            }
            Event::Complete { station } => {
                let st_id = station as usize;
                let st = &mut stations[st_id];
                st.backlog -= 1;
                let mut job = st.current.take().expect("completion without job");
                let class = packets[job.flow as usize].0;
                if let Some(worst) = sojourn_ns.get_mut(st_id * classes + class) {
                    // A real server (their cells come first): arrival to
                    // the end of transmission.
                    *worst = (*worst).max(t - job.arrived);
                } else {
                    // Leaving the access shaper (the stations past the
                    // real servers): the guarantee clock starts now.
                    job.t0 = t;
                }
                if job.at < routes[job.flow as usize].1 {
                    job.at += 1;
                    seq += 1;
                    forwarded.push_back((seq, job));
                } else {
                    let delay = (t - job.t0) as f64 / NS;
                    let deadline = cfg.deadlines[class];
                    if delay > deadline {
                        total_misses += 1;
                        tracer.emit(
                            uba_obs::EventKind::DeadlineMiss,
                            class,
                            job.flow as u64,
                            st_id as u32,
                            delay,
                            deadline,
                        );
                    }
                    acc[class].record(delay, deadline);
                    total_packets += 1;
                }
                // After the forwarded packet's arrival, so that event
                // keeps the lower seq.
                if let Some(next) = st.sched.dequeue() {
                    serve(st, st_id, next.payload, t, &mut completions, &mut seq);
                }
            }
        }
    }

    let mut policed_drops = vec![0u64; classes];
    for (p, &(class, _)) in calendar.policers.iter().zip(&packets) {
        policed_drops[class] += p.dropped;
    }
    let report = SimReport {
        classes: acc
            .iter()
            .zip(&policed_drops)
            .map(|(a, &d)| a.finish_with_drops(d))
            .collect(),
        histograms: acc.into_iter().map(|a| a.delays).collect(),
        max_sojourn: sojourn_ns.iter().map(|&ns| ns as f64 / NS).collect(),
        total_packets,
        events,
        peak_backlog,
    };
    let elapsed = t_run.elapsed_secs();
    metrics.runs.inc();
    metrics.events.add(events);
    metrics.packets.add(total_packets);
    metrics.deadline_misses.add(total_misses);
    metrics.policed_drops.add(policed_drops.iter().sum());
    for (depth, &n) in depth_counts.iter().enumerate() {
        metrics.queue_depth.record_n(depth as f64, n);
    }
    metrics.run_seconds.record(elapsed);
    if elapsed > 0.0 {
        metrics.events_per_sec.set(events as f64 / elapsed);
    }
    metrics.peak_backlog.set(peak_backlog as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 1e6; // 1 Mb/s links for visible delays

    fn cfg(classes: usize) -> SimConfig {
        SimConfig::new(0.2, vec![0.1; classes])
    }

    /// [`cfg`] under another discipline.
    fn under(discipline: Discipline, classes: usize) -> SimConfig {
        SimConfig {
            discipline,
            ..cfg(classes)
        }
    }

    #[test]
    fn single_flow_single_hop_transmission_only() {
        // One CBR flow over one server: per-packet delay = one
        // transmission time (the shaper hands packets over serially).
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let r = simulate(&[C], &flows, &cfg(1));
        assert!(r.total_packets > 0);
        let tx = 640.0 / C;
        assert!(
            (r.classes[0].max_delay - tx).abs() < 2e-9,
            "max {} vs tx {tx}",
            r.classes[0].max_delay
        );
        assert_eq!(r.total_misses(), 0);
    }

    #[test]
    fn two_greedy_flows_collide_at_merge() {
        // Flows from different ingresses merge on server 0: the second
        // packet waits one transmission.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let r = simulate(&[C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!(r.classes[0].max_delay >= 1.9 * tx);
        assert!(r.classes[0].max_delay <= 2.1 * tx);
        // One server, so its largest sojourn is the largest delay.
        assert_eq!(r.max_sojourn, vec![r.classes[0].max_delay]);
    }

    #[test]
    fn same_ingress_flows_are_shaped() {
        // Same ingress, same first server: the shaper serializes them, so
        // the real server never queues; per-packet delay stays one tx.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 7,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 7,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let r = simulate(&[C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!(
            r.classes[0].max_delay <= tx + 2e-9,
            "max {} vs tx {tx}",
            r.classes[0].max_delay
        );
    }

    #[test]
    fn high_priority_unaffected_by_low() {
        // A saturating low-priority flow shares the link with one
        // high-priority CBR flow; the high class sees at most one
        // packet of non-preemption blocking per hop.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.001),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.9 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            },
        ];
        let r = simulate(&[C], &flows, &cfg(2));
        let blocking = 8000.0 / C; // one low-priority packet
        let tx = 640.0 / C;
        assert!(
            r.classes[0].max_delay <= blocking + tx + 1e-9,
            "high-priority delay {} exceeds non-preemption bound",
            r.classes[0].max_delay
        );
        // The low class, by contrast, queues heavily.
        assert!(r.classes[1].max_delay > r.classes[0].max_delay);
    }

    #[test]
    fn fifo_within_class() {
        // Two same-class CBR flows, phase-shifted; delivery order at the
        // sink must follow arrival order => delays stay bounded by one
        // extra transmission.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::voip_cbr(0.01),
            },
        ];
        let r = simulate(&[C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!(r.classes[0].max_delay <= tx + 1e-9);
    }

    #[test]
    fn multi_hop_route_accumulates_transmissions() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0, 1, 2],
            source: SourceModel::voip_cbr(0.0),
        }];
        let r = simulate(&[C, C, C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!((r.classes[0].max_delay - 3.0 * tx).abs() < 3e-9);
        // Each server's sojourn is one transmission: nothing queues.
        assert!(
            r.max_sojourn.iter().all(|&s| (s - tx).abs() < 2e-9),
            "{:?}",
            r.max_sojourn
        );
    }

    #[test]
    fn deterministic_runs() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let a = simulate(&[C, C], &flows, &cfg(1));
        let b = simulate(&[C, C], &flows, &cfg(1));
        assert_eq!(a.total_packets, b.total_packets);
        assert_eq!(a.classes[0].max_delay, b.classes[0].max_delay);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn deadline_misses_counted() {
        // Deadline of ~0: every packet misses.
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let r = simulate(&[C], &flows, &SimConfig::new(0.1, vec![1e-12]));
        assert_eq!(r.total_misses(), r.total_packets);
        assert!(r.total_packets > 0);
    }

    #[test]
    fn fifo_lets_low_priority_hurt_high() {
        // Two bulk ingresses merge on server 0 (joint arrival rate up to
        // 2C), so a real backlog builds; under FIFO the voice packets
        // wait inside it, under priority they jump it.
        let mut flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.001),
        }];
        for ingress in [1, 2] {
            flows.push(FlowSpec {
                class: 1,
                ingress,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.45 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            });
        }
        let pri = simulate(&[C], &flows, &cfg(2));
        let fifo = simulate(&[C], &flows, &under(Discipline::Fifo, 2));
        assert!(
            fifo.classes[0].max_delay > 3.0 * pri.classes[0].max_delay,
            "FIFO {} vs priority {}",
            fifo.classes[0].max_delay,
            pri.classes[0].max_delay
        );
    }

    #[test]
    fn wfq_isolates_better_than_fifo() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.001),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.9 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            },
        ];
        let fifo = simulate(&[C], &flows, &under(Discipline::Fifo, 2));
        let wfq = Discipline::Wfq {
            weights: vec![1.0, 1.0],
        };
        let wfq = simulate(&[C], &flows, &under(wfq, 2));
        assert!(wfq.classes[0].max_delay < fifo.classes[0].max_delay);
    }

    #[test]
    fn virtual_clock_bounds_voice_delay() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.001),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.5 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            },
        ];
        let vc = Discipline::VirtualClock {
            rates: vec![0.1 * C, 0.9 * C],
        };
        let vc = simulate(&[C], &flows, &under(vc, 2));
        // Voice is light against its clock; it never waits for more than
        // a couple of bulk packets.
        assert!(vc.classes[0].max_delay <= 3.0 * 8000.0 / C);
        assert_eq!(vc.total_misses(), 0);
    }

    #[test]
    fn all_disciplines_conserve_packets() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![1, 0],
                source: SourceModel::voip_cbr(0.003),
            },
        ];
        let disciplines = [
            Discipline::StaticPriority,
            Discipline::Fifo,
            Discipline::Wfq {
                weights: vec![1.0, 2.0],
            },
            Discipline::VirtualClock {
                rates: vec![0.2 * C, 0.2 * C],
            },
        ];
        let reference = simulate(&[C, C], &flows, &cfg(2)).total_packets;
        for d in disciplines {
            let r = simulate(&[C, C], &flows, &under(d.clone(), 2));
            assert_eq!(r.total_packets, reference, "discipline {d:?}");
        }
    }

    #[test]
    fn policer_passes_conforming_traffic() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let policed = simulate(&[C], &flows, &c);
        let open = simulate(&[C], &flows, &cfg(1));
        assert_eq!(policed.total_packets, open.total_packets);
        assert_eq!(policed.classes[0].policed_drops, 0);
    }

    #[test]
    fn policer_drops_rogue_excess() {
        // Rogue at 4x the contract: ~3/4 of its packets must be dropped.
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::Rogue {
                period: 0.02,
                packet_bits: 640,
                factor: 4.0,
            },
        }];
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let r = simulate(&[C], &flows, &c);
        let emitted = flows[0].source.emissions(0.2).len() as u64;
        assert_eq!(r.total_packets + r.classes[0].policed_drops, emitted);
        assert!(
            r.classes[0].policed_drops as f64 >= 0.6 * emitted as f64,
            "only {} of {emitted} dropped",
            r.classes[0].policed_drops
        );
    }

    #[test]
    fn policing_isolates_conforming_flows_from_a_rogue() {
        // A rogue same-class source shares the link with a conforming
        // flow. Without policing the conforming flow's delay explodes;
        // with policing it stays at the two-flow contention level.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::Rogue {
                    period: 0.02,
                    packet_bits: 640,
                    factor: 40.0, // 1.28 Mb/s > link rate
                },
            },
        ];
        let unpoliced = simulate(&[C], &flows, &cfg(1));
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let policed = simulate(&[C], &flows, &c);
        assert!(
            policed.classes[0].max_delay * 5.0 < unpoliced.classes[0].max_delay,
            "policed {} vs unpoliced {}",
            policed.classes[0].max_delay,
            unpoliced.classes[0].max_delay
        );
        assert!(policed.classes[0].policed_drops > 0);
    }

    #[test]
    fn runs_record_metrics() {
        // `run` against metrics in a private registry: exact counts,
        // immune to the sibling tests that bump the process-global ones.
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let tight = SimConfig::new(0.1, vec![1e-12]);
        let m = SimMetrics::register(&uba_obs::Registry::new());
        let r = run(&[C], &flows, &tight, &m);
        assert_eq!(m.runs.get(), 1);
        assert_eq!(m.events.get(), r.events);
        assert_eq!(m.packets.get(), r.total_packets);
        assert_eq!(m.deadline_misses.get(), r.total_packets);
        // One sample per enqueue: the shaper plus one real hop.
        assert_eq!(m.queue_depth.count(), 2 * r.total_packets);
        assert_eq!(m.queue_depth.max(), r.peak_backlog as f64);
        assert!(m.peak_backlog.get() >= 1.0);
    }

    #[test]
    fn the_cursor_counts_what_the_policer_passes() {
        // A rogue at 6x its contract: the cursor hands out the sixth the
        // policer lets through and counts the rest as dropped.
        let rogue = FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::Rogue {
                period: 0.02,
                packet_bits: 640,
                factor: 6.0,
            },
        };
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let mut walk = rogue.source.emission_iter(c.horizon);
        let mut policer = Policer::new((640.0, 32_000.0), 640.0);
        let next = || conforming(&mut walk, Some(&mut policer), |_| false);
        let passed = std::iter::from_fn(next).count() as u64;
        let r = simulate(&[C], std::slice::from_ref(&rogue), &c);
        assert_eq!((passed, policer.dropped), (11, 50));
        assert_eq!(r.total_packets, passed);
        assert_eq!(r.classes[0].policed_drops, policer.dropped);
    }

    fn policed(policers: Vec<(f64, f64)>) {
        let flows = vec![FlowSpec {
            class: 1,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let mut c = cfg(2);
        c.policers = Some(policers);
        simulate(&[C], &flows, &c);
    }

    #[test]
    #[should_panic(expected = "one finite, non-negative policer per class")]
    fn a_class_without_a_policer_is_rejected() {
        policed(vec![(640.0, 32_000.0)]);
    }

    #[test]
    #[should_panic(expected = "one finite, non-negative policer per class")]
    fn a_nan_policer_is_rejected() {
        // NaN tokens compare false with everything: every packet would pass.
        policed(vec![(640.0, 32_000.0), (f64::NAN, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "one finite, non-negative policer per class")]
    fn a_negative_policer_is_rejected() {
        policed(vec![(640.0, 32_000.0), (640.0, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite")]
    fn non_finite_horizon_rejected() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        simulate(&[C], &flows, &SimConfig::new(f64::INFINITY, vec![0.1]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_route_rejected() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![],
            source: SourceModel::voip_cbr(0.0),
        }];
        simulate(&[C], &flows, &cfg(1));
    }

    #[test]
    fn a_route_of_65_536_hops_is_delivered_at_its_end() {
        // One packet, 640 µs per hop. Counted in 16 bits, the hops ahead
        // wrapped to 0 and the packet was delivered by its shaper.
        assert_eq!(std::mem::size_of::<Job>(), 24);
        let hops = 65_536;
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0; hops],
            source: SourceModel::Cbr {
                period: 1.0,
                packet_bits: 640,
                offset: 0.0,
            },
        }];
        let r = simulate(&[C], &flows, &SimConfig::new(0.1, vec![100.0]));
        assert_eq!((r.total_packets, r.events), (1, 2 + 2 * hops as u64));
        let delay = hops as f64 * 640.0 / C;
        assert!((r.max_delay() - delay).abs() < 1e-9, "{}", r.max_delay());
    }

    #[test]
    fn ns_rounds_as_f64_round_does() {
        let exact = |t: f64| (t * NS).round() as u64;
        let mut rng = uba_obs::SplitMix64::new(0x5EC0);
        for _ in 0..100_000 {
            let t = rng.range_f64(0.0, 10.0);
            assert_eq!(ns(t), exact(t), "{t}");
            // Halves and their neighbours.
            let half = (rng.index(1 << 20) as f64 + 0.5) / NS;
            for t in [half, half.next_down(), half.next_up()] {
                assert_eq!(ns(t), exact(t), "{t}");
            }
        }
        for t in [
            0.0,
            0.5e-9,
            0.5f64.next_down() / NS,
            2f64.powi(53) / NS,
            1e10,
            1e30,
        ] {
            assert_eq!(ns(t), exact(t), "{t}");
        }
    }

    /// The calendar against the sort it replaces: every flow's conforming
    /// emissions, found by walking its source through a literal token
    /// bucket, sorted by `(t_ns, flow)` (a flow's own emissions of one
    /// nanosecond are alike), and the same drops per flow.
    #[test]
    fn the_calendar_streams_the_sort_of_every_flows_emissions() {
        use uba_obs::{check, ensure};
        check("the_calendar_streams_the_sort", 256, |rng| {
            let horizon = match rng.index(4) {
                0 => 0.0,
                _ => rng.range_f64(0.0, 0.3),
            };
            let end = (horizon * NS).round() as u64;
            let width = 1u64 << Calendar::new(&[], horizon, None).shift;
            // Starts on window boundaries, inside the horizon and past it.
            let start = |rng: &mut uba_obs::SplitMix64| match rng.index(3) {
                0 => (rng.index((end / width) as usize + 2) as u64 * width) as f64 / NS,
                1 => rng.range_f64(0.0, horizon.max(1e-9)),
                _ => horizon + rng.range_f64(0.0, 0.01),
            };
            let flows: Vec<FlowSpec> = (0..1 + rng.index(40))
                .map(|_| {
                    let packet_bits = [640, 1000, 8000][rng.index(3)];
                    let source = match rng.index(4) {
                        0 => SourceModel::GreedyOnOff {
                            burst_bits: (packet_bits * (1 + rng.index(5) as u64)) as f64,
                            rate_bps: rng.range_f64(16_000.0, 400_000.0),
                            packet_bits,
                            start: start(rng),
                        },
                        1 => SourceModel::Cbr {
                            period: rng.range_f64(1e-4, 0.03),
                            packet_bits,
                            offset: start(rng),
                        },
                        2 => {
                            let start = start(rng);
                            SourceModel::OnOff {
                                peak_bps: rng.range_f64(64_000.0, 1e6),
                                packet_bits,
                                on_s: rng.range_f64(1e-3, 0.05),
                                off_s: rng.range_f64(0.0, 0.05),
                                start,
                                stop: start + rng.range_f64(0.0, 0.3),
                            }
                        }
                        _ => SourceModel::Rogue {
                            period: rng.range_f64(1e-3, 0.03),
                            packet_bits,
                            factor: rng.range_f64(1.5, 8.0),
                        },
                    };
                    FlowSpec {
                        class: rng.index(2),
                        ingress: 0,
                        route: vec![0],
                        source,
                    }
                })
                .collect();
            let policers = (rng.index(2) == 0).then(|| {
                (0..2)
                    .map(|_| {
                        (
                            rng.range_f64(640.0, 20_000.0),
                            rng.range_f64(8_000.0, 200_000.0),
                        )
                    })
                    .collect::<Vec<_>>()
            });

            let mut want = Vec::new();
            let mut want_drops = Vec::new();
            for (flow, f) in flows.iter().enumerate() {
                let bits = f.source.packet_bits() as f64;
                let policer = policers.as_ref().map(|p| p[f.class]);
                let (mut tokens, mut last_t, mut dropped) =
                    (policer.map_or(0.0, |(burst, _)| burst), 0.0, 0);
                for t in f.source.emissions(horizon) {
                    if let Some((burst, rate)) = policer {
                        tokens = f64::min(tokens + rate * (t - last_t), burst);
                        last_t = t;
                        if tokens + 1e-9 < bits {
                            dropped += 1;
                            continue;
                        }
                        tokens -= bits;
                    }
                    want.push(((t * NS).round() as u64, flow as u32));
                }
                want_drops.push(dropped);
            }
            want.sort_unstable();

            let mut calendar = Calendar::new(&flows, horizon, policers.as_deref());
            let mut got = Vec::new();
            let mut keys = Vec::new();
            loop {
                let base = calendar.next_window(&mut keys);
                if keys.is_empty() {
                    break;
                }
                ensure!(keys.is_sorted(), "a window read out of order");
                got.extend(keys.iter().map(|&key| calendar.decode(base, key)));
            }
            ensure!(
                got == want,
                "{} emissions streamed, {} sorted",
                got.len(),
                want.len()
            );
            let drops: Vec<u64> = calendar.policers.iter().map(|p| p.dropped).collect();
            let want_drops = if policers.is_some() {
                want_drops
            } else {
                Vec::new()
            };
            ensure!(drops == want_drops, "drops {drops:?} vs {want_drops:?}");
            Ok(())
        });
    }

    /// The sorted runs against one heap over every completion, under the
    /// loop's own rules: service starts at `now`, `now` never decreases
    /// and `seq` only grows. Three durations make completions of different
    /// runs fall on one nanosecond; continuous ones make many runs.
    #[test]
    fn completions_pop_in_the_order_of_one_heap() {
        use uba_obs::{check, ensure};
        check("completions_pop_in_the_order_of_one_heap", 64, |rng| {
            let durations: Vec<u64> = if rng.index(2) == 0 {
                vec![2, 3, 4]
            } else {
                (0..1 + rng.index(60))
                    .map(|_| 1 + rng.index(10_000) as u64)
                    .collect()
            };
            let mut runs = Completions::new(durations.len());
            let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for _ in 0..2_000 {
                ensure!(runs.due() == heap.peek().map(|&Reverse((t, ..))| t));
                match rng.index(8) {
                    0..4 => {
                        let run = rng.index(durations.len());
                        let station = rng.index(116) as u32;
                        seq += 1;
                        let done = now + durations[run];
                        runs.push(run as u32, done, seq, station);
                        heap.push(Reverse((done, seq, station)));
                    }
                    // An emission: time moves on, at most to the next
                    // completion.
                    4 => now = (now + rng.index(5) as u64).min(runs.due().unwrap_or(u64::MAX)),
                    _ => {
                        let popped = runs.pop();
                        ensure!(popped == heap.pop().map(|Reverse(c)| c), "at seq {seq}");
                        if let Some((t, ..)) = popped {
                            now = t;
                        }
                    }
                }
            }
            while let Some(c) = runs.pop() {
                ensure!(heap.pop() == Some(Reverse(c)), "draining at {c:?}");
            }
            ensure!(heap.is_empty());
            Ok(())
        });
    }
}

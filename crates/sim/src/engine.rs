//! The discrete-event engine.
//!
//! Stations = real link servers plus one virtual access shaper per
//! (ingress router, first server) pair. Each station is a non-preemptive
//! class-based static-priority queue (FIFO within a class) — the paper's
//! packet forwarding module.
//!
//! **Ordering contract.** Events are processed in `(time, seq)` order,
//! so runs are bit-for-bit deterministic. The `E` policed source
//! emissions are numbered first (`seq = 1..=E`, flow-major); every event
//! created while the run is in progress — completions, next-hop
//! arrivals, the reconfiguration marker — gets `seq > E`. An emission
//! therefore sorts before any dynamic event of the same instant, and the
//! schedulers' FIFO / finish-tag tie-breaks read that same `seq`.
//!
//! The loop draws from three sources that together realize that order:
//! the emissions, laid down once in `(time, seq)` order in a block of
//! their exact size and read through a cursor; a small binary heap of the
//! completions in flight (at most one per station, plus the
//! reconfiguration marker); and a FIFO of the next-hop arrivals of the
//! current instant. A forwarded packet never waits, so it needs no
//! priority queue: (1) a completion at `now` stamps the arrival it
//! forwards `now` and gives it the largest `seq` so far; (2) every heap
//! entry stamped `now` was pushed before `now` — a completion when its
//! service of ≥ 1 ns began, the marker before the loop — so its `seq` is
//! smaller; (3) whatever is pushed during `now` is stamped later; (4)
//! hence the order within `now` is emissions, heap entries, forwarded
//! arrivals as created, and the FIFO is empty when time advances.
//!
//! The arrival still may not be handled inside the completion creating
//! it: a completion of the *next* station due the same nanosecond picks
//! its successor first (static priority would otherwise start the
//! newcomer over a waiting low-class packet; `engine_equiv`'s
//! `forwarded_arrival_follows_same_instant_completions`).

use crate::metrics::{sim, SimMetrics};
use crate::report::{SimReport, StatsAccumulator};
use crate::sched::{Discipline, SchedJob, Scheduler};
use crate::source::SourceModel;
use std::cmp::Reverse;
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
}

impl SimConfig {
    /// Config with the given horizon and deadlines, no policing.
    pub fn new(horizon: f64, deadlines: Vec<f64>) -> Self {
        Self {
            horizon,
            deadlines,
            policers: None,
        }
    }
}

/// A mid-run routing reconfiguration for
/// [`simulate_with`]: at sim time `at` the listed flows switch
/// to their new routes. Packets already inside the network finish on the
/// route they entered with (exactly the live-swap semantics of
/// `AdmissionController::reconfigure`: in-flight work drains against the
/// old configuration while new arrivals see the new one).
#[derive(Clone, Debug)]
pub struct Reconfiguration {
    /// Sim time (seconds) at which the swap takes effect.
    pub at: f64,
    /// `(flow index, new route)` — flows not listed keep their route.
    pub reroutes: Vec<(usize, Vec<u32>)>,
}

const NS: f64 = 1e9;

/// Cumulative progress of a running simulation, handed to the observer
/// of [`simulate_with`] at each observation interval and once more at
/// the end of the run.
///
/// By the time the observer runs, the engine has already published the
/// covered packet/miss deltas into the global `sim.packets` /
/// `sim.deadline_misses` counters, so an observer that snapshots the
/// registry (e.g. to feed [`uba_obs::SloEngine`]) sees the window it is
/// being told about.
#[derive(Clone, Copy, Debug)]
pub struct SimProgress {
    /// Sim time of the observation, seconds.
    pub t: f64,
    /// Packets delivered end to end so far.
    pub packets: u64,
    /// Deadline misses so far.
    pub misses: u64,
    /// True exactly once, on the final end-of-run observation.
    pub done: bool,
}

#[derive(Clone, Copy, Debug)]
struct Job {
    flow: u32,
    /// Where the packet is: an index into the run's `hops`. It entered
    /// at the start of whichever of its flow's routes was in force and
    /// walks that route for life.
    at: u32,
    /// Hops still ahead of `at`.
    remaining: u16,
    /// Measurement start (ns): arrival at the first real server.
    t0: u64,
}

/// One hop of a sim-route: the station, and how long it serves one of
/// the owning flow's packets.
struct Hop {
    station: u32,
    service_ns: u64,
}

enum Event {
    Arrive(Job),
    Complete {
        station: u32,
    },
    /// The mid-run route swap (pushed once, at the configured time).
    Reconfigure,
}

/// The station a heap entry names when it is the reconfiguration marker.
const RECONFIGURE: u32 = u32::MAX;

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

/// Runs the simulation under the paper's class-based static-priority
/// forwarding. See [`simulate_with`] to choose another discipline, swap
/// routes mid-run or observe progress.
///
/// `capacities[k]` is the capacity of real link server `k`; flows' routes
/// index into it. Every flow must have a non-empty route.
pub fn simulate(capacities: &[f64], flows: &[FlowSpec], cfg: &SimConfig) -> SimReport {
    simulate_with(
        capacities,
        flows,
        cfg,
        &Discipline::StaticPriority,
        None,
        None,
    )
}

/// Runs the simulation under an arbitrary scheduling discipline, with an
/// optional mid-run routing reconfiguration and an optional observer.
///
/// **`reconfig`.** Until `reconfig.at` the run is identical to one
/// without it; from then on, packets entering the network from a
/// rerouted flow follow the flow's new route, while packets already in
/// flight drain along the old one. Emissions at exactly `reconfig.at`
/// still use the old routes (the swap is processed after same-instant
/// arrivals), keeping runs bit-for-bit deterministic. A
/// `ReconfigApplied` trace event marks the swap (`a` = swap time in
/// seconds, `b` = number of rerouted flows).
///
/// **`observe = (every, observer)`.** `observer` is invoked every
/// `every` sim seconds (measured on packet deliveries) and once at the
/// end of the run, with cumulative delivery/miss tallies. Observed runs
/// also publish `sim.packets` / `sim.deadline_misses` *incrementally* —
/// the delta covered by each observation is added just before the
/// observer runs, with the remainder published at the end — so windowed
/// consumers ([`uba_obs::Snapshot::delta_since`], the SLO engine) see
/// deadline misses as they happen instead of one end-of-run burst (and,
/// with `reconfig`, watch them change across a route swap: see the
/// `slo_sees_misses_across_a_route_swap` test). Lifetime totals are
/// unchanged, the [`SimReport`] is the unobserved run's, and observation
/// points are derived from deterministic sim time, so runs stay
/// bit-for-bit reproducible.
pub fn simulate_with(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
    reconfig: Option<&Reconfiguration>,
    observe: Option<(f64, &mut dyn FnMut(SimProgress))>,
) -> SimReport {
    run(capacities, flows, cfg, discipline, reconfig, observe, sim())
}

fn validate_every(every: f64) {
    assert!(
        every > 0.0 && every.is_finite(),
        "observation interval must be positive"
    );
}

fn validate_reconfig(capacities: &[f64], flows: &[FlowSpec], reconfig: &Reconfiguration) {
    assert!(
        reconfig.at.is_finite() && reconfig.at >= 0.0,
        "reconfiguration time must be finite and non-negative"
    );
    for (fi, route) in &reconfig.reroutes {
        assert!(*fi < flows.len(), "reroute flow index out of range");
        assert!(!route.is_empty(), "reroute must be non-empty");
        for &k in route {
            assert!(
                (k as usize) < capacities.len(),
                "reroute server out of range"
            );
        }
    }
}

/// Calls `visit` with each emission time of `f` that its class's ingress
/// policer lets through (a token bucket silently dropping non-conforming
/// packets: edge-router policing, Section 3); returns how many it dropped.
fn conforming_emissions(f: &FlowSpec, cfg: &SimConfig, mut visit: impl FnMut(f64)) -> u64 {
    let bits = f.source.packet_bits() as f64;
    let policer = cfg.policers.as_ref().map(|p| p[f.class]);
    let mut tokens = policer.map_or(0.0, |(burst, _)| burst);
    let mut last_t = 0.0f64;
    let mut dropped = 0;
    f.source.for_each_emission(cfg.horizon, |t| {
        if let Some((burst, rate)) = policer {
            tokens = (tokens + rate * (t - last_t)).min(burst);
            last_t = t;
            if tokens + 1e-9 < bits {
                dropped += 1;
                return;
            }
            tokens -= bits;
        }
        visit(t);
    });
    dropped
}

/// Publishes the locally counted `sim.queue_depth` samples
/// (`counts[d]` enqueues that left a backlog of `d`) and zeroes them.
fn flush_queue_depths(histogram: &uba_obs::Histogram, counts: &mut [u64]) {
    for (depth, n) in counts.iter_mut().enumerate() {
        histogram.record_n(depth as f64, std::mem::take(n));
    }
}

fn run(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
    reconfig: Option<&Reconfiguration>,
    observe: Option<(f64, &mut dyn FnMut(SimProgress))>,
    metrics: &SimMetrics,
) -> SimReport {
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
    if let Some(policers) = &cfg.policers {
        let valid = |x: f64| x.is_finite() && x >= 0.0;
        assert!(
            policers.len() == classes && policers.iter().all(|&(b, r)| valid(b) && valid(r)),
            "need one finite, non-negative policer per class"
        );
    }
    if let Some(rc) = reconfig {
        validate_reconfig(capacities, flows, rc);
    }
    if let Some((every, _)) = &observe {
        validate_every(*every);
    }

    // Stations: real servers first, then one access shaper per (ingress,
    // first server) pair, created when a route first needs it.
    let mut stations: Vec<Station> = capacities
        .iter()
        .map(|&c| Station::new(c, classes, discipline))
        .collect();
    let mut shaper_of: HashMap<(u32, u32), u32> = HashMap::new();
    // Every sim-route — the shaper, then the real route — laid end to
    // end; a route is named by `(index of its shaper hop, hops after it)`.
    let mut hops: Vec<Hop> = Vec::new();
    let mut lay_route = |f: &FlowSpec, route: &[u32]| -> (u32, u16) {
        let shaper = *shaper_of.entry((f.ingress, route[0])).or_insert_with(|| {
            let cap = capacities[route[0] as usize];
            stations.push(Station::new(cap, classes, discipline));
            stations.len() as u32 - 1
        });
        let start = hops.len() as u32;
        let bits = f.source.packet_bits() as f64;
        for station in std::iter::once(shaper).chain(route.iter().copied()) {
            let dur = (bits / stations[station as usize].capacity * NS).round() as u64;
            hops.push(Hop {
                station,
                service_ns: dur.max(1),
            });
        }
        (start, route.len() as u16)
    };
    // `routes[0]` until the swap, `routes[1]` after it: identical except
    // for the rerouted flows.
    let before: Vec<(u32, u16)> = flows.iter().map(|f| lay_route(f, &f.route)).collect();
    let mut after = before.clone();
    for (fi, new_route) in reconfig.iter().flat_map(|rc| &rc.reroutes) {
        after[*fi] = lay_route(&flows[*fi], new_route);
    }
    let routes = [before, after];

    // Source emissions `(t_ns, seq, flow)` that the ingress policer lets
    // through: the run's one large block, allocated once at its final size
    // (grown by doubling, its peak footprint hung on whether a step grew it
    // or copied it) and ordered as it is laid down: a counting walk tallies
    // each time bucket (2048 to 4095 of a power-of-two width), offsets
    // follow, the fill walk places each record, only buckets are sorted.
    let ns = |t: f64| (t * NS).round() as u64;
    let shift = (ns(cfg.horizon) >> 12).checked_ilog2().map_or(0, |b| b + 1);
    let mut ends = vec![0usize; (ns(cfg.horizon) >> shift) as usize + 2];
    for f in flows {
        conforming_emissions(f, cfg, |t| ends[(ns(t) >> shift) as usize + 1] += 1);
    }
    for b in 1..ends.len() {
        ends[b] += ends[b - 1];
    }
    let emitted = ends[ends.len() - 1];
    assert!(emitted <= u32::MAX as usize, "too many packets to number");
    let mut arrivals = vec![(0u64, 0u32, 0u32); emitted];
    let mut policed_drops = vec![0u64; classes];
    let mut numbered = 0u32;
    for (fi, f) in flows.iter().enumerate() {
        policed_drops[f.class] += conforming_emissions(f, cfg, |t| {
            numbered += 1;
            let t = ns(t);
            let slot = &mut ends[(t >> shift) as usize];
            arrivals[*slot] = (t, numbered, fi as u32);
            *slot += 1;
        });
    }
    // `seq` is unique, so the tuple order is `(t, seq)`: same-instant
    // emissions keep their flow-major order, and no scratch buffer.
    let mut start = 0;
    for &end in &ends {
        arrivals[start..end].sort_unstable();
        start = end;
    }
    // What the loop reads of a flow, without the `FlowSpec` around it.
    let packets: Vec<(usize, u64)> = flows
        .iter()
        .map(|f| (f.class, f.source.packet_bits()))
        .collect();

    // Dynamic events number on from the emissions: completions `(t, seq,
    // station)` in the heap, this instant's forwarded `(seq, job)` in the FIFO.
    let mut seq = arrivals.len() as u64;
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut forwarded: VecDeque<(u64, Job)> = VecDeque::new();

    // Arrivals at exactly `at` sort before the swap event and still use
    // the old routes.
    if let Some(rc) = reconfig {
        seq += 1;
        heap.push(Reverse((ns(rc.at), seq, RECONFIGURE)));
    }

    // Puts `job` into service at the station it has reached.
    let serve = |st: &mut Station, st_id: usize, job: Job, t: u64, heap: &mut _, seq: &mut u64| {
        st.current = Some(job);
        *seq += 1;
        let done = t + hops[job.at as usize].service_ns;
        BinaryHeap::push(heap, Reverse((done, *seq, st_id as u32)));
    };

    let mut acc: Vec<StatsAccumulator> = vec![StatsAccumulator::default(); classes];
    let mut histograms = vec![crate::report::DelayHistogram::default(); classes];
    let mut total_packets = 0u64;
    let mut total_misses = 0u64;
    let mut events = 0u64;
    let mut peak_backlog = 0usize;
    let tracer = uba_obs::trace::global();
    let mut reconfigured = false;
    // Observation state: next sim-time mark, and how much of the
    // packet/miss tallies has already been published incrementally.
    let mut observe = observe;
    let mut next_obs = observe.as_ref().map(|&(every, _)| every);
    let mut published_packets = 0u64;
    let mut published_misses = 0u64;
    let mut now = 0u64;
    // `sim.queue_depth` samples, counted per backlog value and published
    // in bulk (end of run, and before each observer call).
    let mut depth_counts: Vec<u64> = Vec::new();
    let mut next_arrival = 0usize;

    loop {
        let due = heap.peek().map(|&Reverse((t, ..))| t);
        let (t, s, ev) = match (forwarded.front(), arrivals.get(next_arrival)) {
            // Forwarded: after its instant's heap entries, before all else.
            (Some(&(s, job)), _) if due.is_none_or(|due| due > now) => {
                forwarded.pop_front();
                (now, s, Event::Arrive(job))
            }
            // On a tie the emission goes first: its seq is the lower.
            (None, Some(&(t, s, flow))) if due.is_none_or(|due| t <= due) => {
                next_arrival += 1;
                // Entering the network: the packet commits to the
                // routes in force right now.
                let (at, remaining) = routes[reconfigured as usize][flow as usize];
                let job = Job {
                    flow,
                    at,
                    remaining,
                    t0: t,
                };
                (t, s as u64, Event::Arrive(job))
            }
            _ => match heap.pop() {
                Some(Reverse((t, s, RECONFIGURE))) => (t, s, Event::Reconfigure),
                Some(Reverse((t, s, station))) => (t, s, Event::Complete { station }),
                None => break,
            },
        };
        debug_assert!(t == now || forwarded.is_empty() && t > now);
        events += 1;
        now = t;
        match ev {
            Event::Arrive(job) => {
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
                    serve(st, st_id, job, t, &mut heap, &mut seq);
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
                if st_id >= capacities.len() {
                    // Leaving the access shaper (the stations past the
                    // real servers): the guarantee clock starts now.
                    job.t0 = t;
                }
                if job.remaining > 0 {
                    job.at += 1;
                    job.remaining -= 1;
                    seq += 1;
                    forwarded.push_back((seq, job));
                } else {
                    let class = packets[job.flow as usize].0;
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
                    histograms[class].record_ns(t - job.t0);
                    total_packets += 1;
                    if let (Some((every, obs)), Some(mark)) = (observe.as_mut(), next_obs.as_mut())
                    {
                        let t_secs = t as f64 / NS;
                        if t_secs >= *mark {
                            while *mark <= t_secs {
                                *mark += *every;
                            }
                            // Publish the covered delta before the
                            // observer runs, so a registry snapshot
                            // taken inside it reflects this window.
                            metrics.packets.add(total_packets - published_packets);
                            metrics.deadline_misses.add(total_misses - published_misses);
                            published_packets = total_packets;
                            published_misses = total_misses;
                            flush_queue_depths(&metrics.queue_depth, &mut depth_counts);
                            obs(SimProgress {
                                t: t_secs,
                                packets: total_packets,
                                misses: total_misses,
                                done: false,
                            });
                        }
                    }
                }
                // After the forwarded packet's arrival, so that event
                // keeps the lower seq.
                if let Some(next) = st.sched.dequeue() {
                    serve(st, st_id, next.payload, t, &mut heap, &mut seq);
                }
            }
            Event::Reconfigure => {
                reconfigured = true;
                let rc = reconfig.expect("reconfigure event without config");
                tracer.emit(
                    uba_obs::EventKind::ReconfigApplied,
                    0,
                    0,
                    u32::MAX,
                    rc.at,
                    rc.reroutes.len() as f64,
                );
            }
        }
    }

    let report = SimReport {
        classes: acc
            .iter()
            .zip(&policed_drops)
            .map(|(a, &d)| a.finish_with_drops(d))
            .collect(),
        histograms,
        total_packets,
        events,
        peak_backlog,
    };
    let elapsed = t_run.elapsed_secs();
    metrics.runs.inc();
    metrics.events.add(events);
    // Observed runs published most of these deltas mid-run; only the
    // remainder lands here, so lifetime totals match unobserved runs.
    metrics.packets.add(total_packets - published_packets);
    metrics.deadline_misses.add(total_misses - published_misses);
    metrics.policed_drops.add(policed_drops.iter().sum());
    flush_queue_depths(&metrics.queue_depth, &mut depth_counts);
    metrics.run_seconds.record(elapsed);
    if elapsed > 0.0 {
        metrics.events_per_sec.set(events as f64 / elapsed);
    }
    metrics.peak_backlog.set(peak_backlog as f64);
    if let Some((_, obs)) = observe.as_mut() {
        obs(SimProgress {
            t: now as f64 / NS,
            packets: total_packets,
            misses: total_misses,
            done: true,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 1e6; // 1 Mb/s links for visible delays

    fn cfg(classes: usize) -> SimConfig {
        SimConfig {
            horizon: 0.2,
            deadlines: vec![0.1; classes],
            policers: None,
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
        let cfg = SimConfig {
            horizon: 0.1,
            deadlines: vec![1e-12],
            policers: None,
        };
        let r = simulate(&[C], &flows, &cfg);
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
        let fifo = simulate_with(&[C], &flows, &cfg(2), &Discipline::Fifo, None, None);
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
        let fifo = simulate_with(&[C], &flows, &cfg(2), &Discipline::Fifo, None, None);
        let wfq = simulate_with(
            &[C],
            &flows,
            &cfg(2),
            &Discipline::Wfq {
                weights: vec![1.0, 1.0],
            },
            None,
            None,
        );
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
        let vc = simulate_with(
            &[C],
            &flows,
            &cfg(2),
            &Discipline::VirtualClock {
                rates: vec![0.1 * C, 0.9 * C],
            },
            None,
            None,
        );
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
            let r = simulate_with(&[C, C], &flows, &cfg(2), &d, None, None);
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

    /// `run` against metrics in a private registry: exact counts, immune
    /// to the sibling tests that bump the process-global ones.
    /// The route-swap tests' run: static priority, no observer.
    fn swapped(
        capacities: &[f64],
        flows: &[FlowSpec],
        cfg: &SimConfig,
        rc: &Reconfiguration,
    ) -> SimReport {
        let d = Discipline::StaticPriority;
        simulate_with(capacities, flows, cfg, &d, Some(rc), None)
    }

    fn run_metered(
        capacities: &[f64],
        flows: &[FlowSpec],
        cfg: &SimConfig,
        observe: Option<(f64, &mut dyn FnMut(SimProgress))>,
    ) -> (SimReport, SimMetrics) {
        let m = SimMetrics::register(&uba_obs::Registry::new());
        let d = Discipline::StaticPriority;
        let r = run(capacities, flows, cfg, &d, None, observe, &m);
        (r, m)
    }

    #[test]
    fn runs_record_metrics() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let tight = SimConfig {
            horizon: 0.1,
            deadlines: vec![1e-12],
            policers: None,
        };
        let (r, m) = run_metered(&[C], &flows, &tight, None);
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
    fn reconfigure_conserves_packets() {
        // Moving a flow to a fresh link mid-run loses nothing: every
        // emitted packet is still delivered, on one route or the other.
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
                route: vec![0],
                source: SourceModel::voip_cbr(0.003),
            },
        ];
        let plain = simulate(&[C, C, C], &flows, &cfg(1));
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(0, vec![2])],
        };
        let rec = swapped(&[C, C, C], &flows, &cfg(1), &rc);
        assert_eq!(rec.total_packets, plain.total_packets);
    }

    #[test]
    fn reconfigure_identity_matches_plain_run() {
        // Swapping a flow onto its own route is a semantic no-op: the
        // report matches the plain run exactly (one extra heap event).
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
                route: vec![1, 0],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let plain = simulate(&[C, C], &flows, &cfg(1));
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(0, vec![0, 1])],
        };
        let rec = swapped(&[C, C], &flows, &cfg(1), &rc);
        assert_eq!(rec.total_packets, plain.total_packets);
        assert_eq!(rec.classes[0].max_delay, plain.classes[0].max_delay);
        assert_eq!(rec.total_misses(), plain.total_misses());
        assert_eq!(rec.events, plain.events + 1);
    }

    #[test]
    fn reconfigure_runs_are_deterministic() {
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
        let rc = Reconfiguration {
            at: 0.07,
            reroutes: vec![(1, vec![1])],
        };
        let a = swapped(&[C, C], &flows, &cfg(1), &rc);
        let b = swapped(&[C, C], &flows, &cfg(1), &rc);
        assert_eq!(a.total_packets, b.total_packets);
        assert_eq!(a.classes[0].max_delay, b.classes[0].max_delay);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn reconfigure_moves_load_off_the_congested_link() {
        // Two bulk ingresses merge on server 0 at a joint rate above C,
        // so a real (post-shaper) queue builds and late packets miss
        // their deadline. Rerouting one flow to an idle link mid-run
        // caps the damage — packets entering after the swap see an
        // empty server, and the old queue drains.
        let bulk = |ingress| FlowSpec {
            class: 0,
            ingress,
            route: vec![0],
            source: SourceModel::GreedyOnOff {
                burst_bits: 64_000.0,
                rate_bps: 0.9 * C,
                packet_bits: 8000,
                start: 0.0,
            },
        };
        let flows = vec![bulk(0), bulk(1)];
        let c = SimConfig {
            horizon: 0.2,
            deadlines: vec![0.02],
            policers: None,
        };
        let plain = simulate(&[C, C], &flows, &c);
        let rc = Reconfiguration {
            at: 0.05,
            reroutes: vec![(1, vec![1])],
        };
        let rec = swapped(&[C, C], &flows, &c, &rc);
        assert_eq!(rec.total_packets, plain.total_packets);
        assert!(plain.total_misses() > 0);
        assert!(
            rec.total_misses() < plain.total_misses(),
            "reroute {} vs plain {} misses",
            rec.total_misses(),
            plain.total_misses()
        );
    }

    #[test]
    fn observed_run_reports_monotone_progress_and_exact_totals() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let tight = SimConfig {
            horizon: 0.1,
            deadlines: vec![1e-12], // every packet misses
            policers: None,
        };
        let mut seen: Vec<SimProgress> = Vec::new();
        let (r, m) = run_metered(&[C], &flows, &tight, Some((0.02, &mut |p| seen.push(p))));
        assert!(seen.len() >= 3, "only {} observations", seen.len());
        for w in seen.windows(2) {
            assert!(w[1].t >= w[0].t);
            assert!(w[1].packets >= w[0].packets);
            assert!(w[1].misses >= w[0].misses);
        }
        let last = seen.last().unwrap();
        assert!(last.done);
        assert!(!seen[0].done);
        assert_eq!(last.packets, r.total_packets);
        assert_eq!(last.misses, r.total_misses());
        // Mid-run observations saw genuinely partial tallies.
        assert!(seen[0].packets < r.total_packets);
        // Incremental publishing left the lifetime counters exactly
        // where an unobserved run would have.
        assert_eq!(m.packets.get(), r.total_packets);
        assert_eq!(m.deadline_misses.get(), r.total_misses());
    }

    #[test]
    fn observed_run_matches_unobserved_report() {
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
        let (plain, plain_m) = run_metered(&[C, C], &flows, &cfg(1), None);
        // The observer reads the histogram through a second handle to
        // the same registry entry.
        let registry = uba_obs::Registry::new();
        let m = SimMetrics::register(&registry);
        let depth = registry.histogram("sim.queue_depth", 1.0);
        let mut mid_run = 0;
        let observed = run(
            &[C, C],
            &flows,
            &cfg(1),
            &Discipline::StaticPriority,
            None,
            Some((0.01, &mut |p: SimProgress| {
                // Buffered samples are flushed before the observer runs:
                // every delivered packet was enqueued at three stations.
                assert!(depth.count() >= 3 * p.packets);
                mid_run += usize::from(!p.done && p.packets > 0);
            })),
            &m,
        );
        assert!(mid_run > 0);
        assert_eq!(observed.total_packets, plain.total_packets);
        assert_eq!(observed.events, plain.events);
        assert_eq!(observed.classes[0].max_delay, plain.classes[0].max_delay);
        // One sample per enqueue (shaper + two real hops) on both paths.
        assert_eq!(plain_m.queue_depth.count(), 3 * plain.total_packets);
        assert_eq!(m.queue_depth.count(), 3 * observed.total_packets);
        assert_eq!(m.queue_depth.max(), plain_m.queue_depth.max());
        assert_eq!(m.queue_depth.mean(), plain_m.queue_depth.mean());
    }

    #[test]
    fn slo_sees_misses_across_a_route_swap() {
        // The end-to-end story of ISSUE 8's tentpole, in miniature: a
        // congested link drives the deadline-miss SLO pending→firing;
        // the mid-run reroute drains the queue, misses stop, and the
        // rule resolves. The observer bridges sim progress into a
        // private registry so the test is immune to other tests'
        // traffic on the global counters, and miss-ratio rules are
        // window-width independent, so this is fully deterministic.
        use uba_obs::{Cmp, Registry, RuleState, SloEngine, SloRule, SloSignal};
        let bulk = |ingress| FlowSpec {
            class: 0,
            ingress,
            route: vec![0],
            source: SourceModel::GreedyOnOff {
                burst_bits: 64_000.0,
                rate_bps: 0.9 * C,
                packet_bits: 8000,
                start: 0.0,
            },
        };
        let flows = vec![bulk(0), bulk(1)];
        let c = SimConfig {
            horizon: 0.4,
            deadlines: vec![0.02],
            policers: None,
        };
        // Both flows move to their own fresh link: server 0 drains its
        // backlog at full rate, and each flow alone at 0.9C is
        // miss-free — so post-drain windows are clean and the rule can
        // actually resolve within the horizon.
        let rc = Reconfiguration {
            at: 0.05,
            reroutes: vec![(0, vec![1]), (1, vec![2])],
        };
        let registry = Registry::new();
        let packets = registry.counter("sim.packets");
        let misses = registry.counter("sim.deadline_misses");
        let rule = SloRule::named(
            "deadline_miss_ratio",
            SloSignal::Ratio {
                numerator: "sim.deadline_misses".into(),
                denominator: "sim.packets".into(),
            },
            Cmp::Above,
            0.01,
            2,
            2,
        );
        let mut engine = SloEngine::new(&registry, vec![rule]);
        engine.evaluate(registry.snapshot()); // anchor
        let mut states: Vec<RuleState> = Vec::new();
        let mut prev = (0u64, 0u64);
        let r = simulate_with(
            &[C, C, C],
            &flows,
            &c,
            &Discipline::StaticPriority,
            Some(&rc),
            Some((0.01, &mut |p| {
                packets.add(p.packets - prev.0);
                misses.add(p.misses - prev.1);
                prev = (p.packets, p.misses);
                engine.evaluate(registry.snapshot());
                states.push(engine.state_of("deadline_miss_ratio").unwrap());
            })),
        );
        assert!(r.total_misses() > 0, "the congested phase must miss");
        assert!(
            states.contains(&RuleState::Firing),
            "congestion must fire the rule: {states:?}"
        );
        assert_eq!(
            *states.last().unwrap(),
            RuleState::Ok,
            "post-swap windows must resolve the alert: {states:?}"
        );
        assert_eq!(engine.active_alerts().len(), 0);
        let recent: Vec<_> = engine.recent_alerts().collect();
        assert_eq!(recent.len(), 1, "exactly one fire→resolve cycle");
        assert!(recent[0].resolved_at.is_some());
    }

    #[test]
    #[should_panic(expected = "flow index out of range")]
    fn reconfigure_rejects_bad_flow_index() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(3, vec![0])],
        };
        swapped(&[C], &flows, &cfg(1), &rc);
    }

    #[test]
    #[should_panic(expected = "server out of range")]
    fn reconfigure_rejects_bad_server() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(0, vec![9])],
        };
        swapped(&[C], &flows, &cfg(1), &rc);
    }

    #[test]
    fn the_sizing_walk_counts_what_the_policer_passes() {
        // A rogue at 6x its contract: the block is sized by the sixth the
        // policer lets through, not by what the source emits.
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
        let mut passed = 0;
        let dropped = conforming_emissions(&rogue, &c, |_| passed += 1);
        let r = simulate(&[C], std::slice::from_ref(&rogue), &c);
        assert_eq!((passed, dropped), (11, 50));
        assert_eq!(r.total_packets, passed);
        assert_eq!(r.classes[0].policed_drops, dropped);
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
}

//! Simulation result aggregation.
//!
//! Each class's end-to-end delays go into a [`Tally`] at base 1 µs,
//! `uba_obs`'s one histogram layout, which gives the class its packet
//! count, its max and its quantiles (slot upper bounds, at most 12.5 %
//! above the true value); their exact `f64` sum is kept beside it for the
//! mean, which `uba-cli simulate` prints to the microsecond. Each real
//! server also keeps its largest sojourn per class, so [`check_bounds`]
//! can hold every server to its own delay bound.

use crate::engine::FlowSpec;
use uba_obs::Tally;

/// First slot boundary of the per-class delay tallies: 1 µs.
const DELAY_BASE: f64 = 1e-6;

/// Per-class delivery statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Packets delivered end to end.
    pub packets: u64,
    /// Maximum observed end-to-end delay, seconds.
    pub max_delay: f64,
    /// Mean end-to-end delay, seconds.
    pub mean_delay: f64,
    /// Packets that exceeded the class deadline (should be zero whenever
    /// the configuration was verified safe).
    pub deadline_misses: u64,
    /// Packets dropped by the ingress policer (non-conforming traffic;
    /// zero unless policing is enabled and a source misbehaves).
    pub policed_drops: u64,
}

/// Everything a simulation run measured.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Per-class statistics, indexed by class.
    pub classes: Vec<ClassStats>,
    /// Per-class end-to-end delay distributions, seconds, at base 1 µs
    /// (same indexing).
    pub histograms: Vec<Tally>,
    /// The largest sojourn, seconds, per (real server `k`, class `c`) at
    /// `k · classes + c`: from a packet's arrival at the server to the
    /// end of its transmission there. `0.0` where the server carried no
    /// packet of the class.
    pub max_sojourn: Vec<f64>,
    /// Total packets delivered.
    pub total_packets: u64,
    /// Total simulated events processed.
    pub events: u64,
    /// Largest backlog (packets) observed at any station.
    pub peak_backlog: usize,
}

impl SimReport {
    /// Worst observed delay across all classes.
    pub fn max_delay(&self) -> f64 {
        self.classes.iter().map(|c| c.max_delay).fold(0.0, f64::max)
    }

    /// Total deadline misses across classes.
    pub fn total_misses(&self) -> u64 {
        self.classes.iter().map(|c| c.deadline_misses).sum()
    }
}

/// An observed worst delay against the bound it must stay under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The server, for a per-server reading; `None` for an end-to-end one.
    pub server: Option<usize>,
    /// The class.
    pub class: usize,
    /// Observed worst delay, seconds.
    pub observed: f64,
    /// The analytic bound, seconds.
    pub bound: f64,
    /// The packetization slack the observation may exceed the bound by
    /// (DESIGN.md §5, the simulator: per hop, one non-preemption block
    /// plus one quantization packet), seconds.
    pub slack: f64,
}

impl Reading {
    /// Observed ÷ bound.
    pub fn ratio(&self) -> f64 {
        self.observed / self.bound
    }

    /// How far under bound + slack the observation is; negative for a
    /// violation.
    pub fn margin(&self) -> f64 {
        self.bound + self.slack - self.observed
    }
}

/// What [`check_bounds`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundCheck {
    /// The (server, class) whose largest sojourn is the largest share of
    /// its bound `d_k`.
    pub worst_server: Option<Reading>,
    /// The class whose worst end-to-end delay is the largest share of the
    /// largest bound among its routes (the report keeps each class's
    /// worst delay, not each route's).
    pub worst_route: Option<Reading>,
    /// The first reading past bound + slack: servers in index order,
    /// then classes end to end.
    pub violation: Option<Reading>,
}

/// Holds a run to the analysis: every (server, class) a flow crosses
/// against its own delay bound, and each class's worst end-to-end delay
/// against the largest of its routes' bounds.
///
/// `delays` are the analysis's per-server delays in its cell layout,
/// `k · n + c` for `n = delays.len() / capacities.len()` classes; the
/// flows and capacities are the run's, and give the routes, the packet
/// sizes and the slack. One hop's slack at server `k` is twice the
/// largest packet any flow sends through `k`, over `k`'s capacity.
///
/// # Panics
/// Panics unless `delays` holds a whole number of cells per server and
/// every flow's class has cells there.
pub fn check_bounds(
    report: &SimReport,
    delays: &[f64],
    flows: &[FlowSpec],
    capacities: &[f64],
) -> BoundCheck {
    let servers = capacities.len();
    let n = delays.len() / servers.max(1);
    assert_eq!(
        n * servers,
        delays.len(),
        "one delay cell per (server, class)"
    );
    let classes = report.classes.len();
    let mut largest_packet = vec![0.0f64; servers];
    let mut crossed = vec![false; servers * classes];
    for f in flows {
        assert!(f.class < n, "flow class {} has no delay cells", f.class);
        for &k in &f.route {
            let k = k as usize;
            largest_packet[k] = largest_packet[k].max(f.source.packet_bits() as f64);
            crossed[k * classes + f.class] = true;
        }
    }
    let hop_slack = |k: usize| 2.0 * largest_packet[k] / capacities[k];
    let per_server = (0..servers * classes)
        .filter(|&cell| crossed[cell])
        .map(|cell| {
            let (k, c) = (cell / classes, cell % classes);
            Reading {
                server: Some(k),
                class: c,
                observed: report.max_sojourn[cell],
                bound: delays[k * n + c],
                slack: hop_slack(k),
            }
        });
    let end_to_end = (0..classes).filter_map(|c| {
        // The largest route bound, and the largest route slack.
        let (bound, slack) = (flows.iter().filter(|f| f.class == c))
            .map(|f| {
                let hops = f.route.iter().map(|&k| k as usize);
                let bound: f64 = hops.clone().map(|k| delays[k * n + c]).sum();
                (bound, hops.map(hop_slack).sum::<f64>())
            })
            .reduce(|(b, s), (b2, s2)| (b.max(b2), s.max(s2)))?;
        Some(Reading {
            server: None,
            class: c,
            observed: report.classes[c].max_delay,
            bound,
            slack,
        })
    });
    let readings: Vec<Reading> = per_server.chain(end_to_end).collect();
    // The first of the largest ratios among the server or the end-to-end
    // readings.
    let worst = |servers: bool| {
        let mut of = readings.iter().filter(|r| r.server.is_some() == servers);
        let first = *of.next()?;
        Some(of.fold(first, |w, &r| if r.ratio() > w.ratio() { r } else { w }))
    };
    BoundCheck {
        worst_server: worst(true),
        worst_route: worst(false),
        violation: readings.iter().copied().find(|r| r.margin() < 0.0),
    }
}

/// One class's delays as the engine gathers them: their distribution,
/// count and max in the tally, their exact sum beside it for the mean.
#[derive(Clone, Debug)]
pub(crate) struct StatsAccumulator {
    pub(crate) delays: Tally,
    sum_delay: f64,
    misses: u64,
}

impl Default for StatsAccumulator {
    fn default() -> Self {
        Self {
            delays: Tally::with_base(DELAY_BASE),
            sum_delay: 0.0,
            misses: 0,
        }
    }
}

impl StatsAccumulator {
    pub(crate) fn record(&mut self, delay: f64, deadline: f64) {
        self.delays.record(delay);
        self.sum_delay += delay;
        if delay > deadline {
            self.misses += 1;
        }
    }

    pub(crate) fn finish_with_drops(&self, policed_drops: u64) -> ClassStats {
        let packets = self.delays.count();
        ClassStats {
            packets,
            max_delay: self.delays.max(),
            mean_delay: if packets > 0 {
                self.sum_delay / packets as f64
            } else {
                0.0
            },
            deadline_misses: self.misses,
            policed_drops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_statistics() {
        let mut acc = StatsAccumulator::default();
        acc.record(0.01, 0.1);
        acc.record(0.03, 0.1);
        acc.record(0.2, 0.1);
        let s = acc.finish_with_drops(0);
        assert_eq!(s.packets, 3);
        assert_eq!(s.deadline_misses, 1);
        assert!((s.max_delay - 0.2).abs() < 1e-15);
        assert!((s.mean_delay - 0.08).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator() {
        let s = StatsAccumulator::default().finish_with_drops(0);
        assert_eq!(s.packets, 0);
        assert_eq!(s.mean_delay, 0.0);
    }

    #[test]
    fn report_rollups() {
        let r = SimReport {
            classes: vec![
                ClassStats {
                    packets: 5,
                    max_delay: 0.02,
                    mean_delay: 0.01,
                    deadline_misses: 0,
                    policed_drops: 0,
                },
                ClassStats {
                    packets: 3,
                    max_delay: 0.05,
                    mean_delay: 0.02,
                    deadline_misses: 2,
                    policed_drops: 1,
                },
            ],
            histograms: vec![Tally::with_base(DELAY_BASE); 2],
            max_sojourn: Vec::new(),
            total_packets: 8,
            events: 100,
            peak_backlog: 7,
        };
        assert_eq!(r.max_delay(), 0.05);
        assert_eq!(r.total_misses(), 2);
    }

    #[test]
    fn check_bounds_holds_each_server_to_its_own_bound() {
        use crate::SourceModel;
        // Two servers at 1 Mb/s, one class, one flow of 1 000-bit
        // packets over both: one hop's slack is 2 ms.
        let flows = [FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0, 1],
            source: SourceModel::Cbr {
                period: 1.0,
                packet_bits: 1_000,
                offset: 0.0,
            },
        }];
        let capacities = [1e6, 1e6];
        let mut r = SimReport {
            classes: vec![ClassStats {
                max_delay: 0.010,
                ..ClassStats::default()
            }],
            max_sojourn: vec![0.002, 0.008],
            ..SimReport::default()
        };
        // Server 1's sojourn is 0.8 of its 10 ms bound, the route's
        // 10 ms is 0.5 of 20 ms: all inside.
        let check = check_bounds(&r, &[0.010, 0.010], &flows, &capacities);
        let worst = check.worst_server.unwrap();
        assert_eq!((worst.server, worst.ratio()), (Some(1), 0.8));
        assert_eq!(worst.slack, 0.002);
        let route = check.worst_route.unwrap();
        assert_eq!(
            (route.server, route.bound, route.slack),
            (None, 0.020, 0.004)
        );
        assert_eq!(check.violation, None);
        // At half the bound server 1 is past d_1 + slack (8 > 5 + 2 ms),
        // though the route (10 ms against 10 + 4 ms) is not.
        let check = check_bounds(&r, &[0.005, 0.005], &flows, &capacities);
        let v = check.violation.unwrap();
        assert_eq!(v.server, Some(1));
        assert!((v.margin() + 0.001).abs() < 1e-12, "{v:?}");
        // End to end: past the route's bound + slack.
        r.classes[0].max_delay = 0.025;
        r.max_sojourn = vec![0.0, 0.0];
        let v = check_bounds(&r, &[0.010, 0.010], &flows, &capacities).violation;
        assert_eq!(v.map(|v| v.server), Some(None));
    }
}

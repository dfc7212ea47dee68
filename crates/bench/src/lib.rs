//! Shared helpers for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (see `DESIGN.md` §4 for the experiment index) and gate the run-time
//! claims: [`overhead_gate`] is the one A/B round loop behind the four
//! `*_overhead` binaries, each of which supplies its two subjects and
//! the justification of its bound.
#![forbid(unsafe_code)]

use std::time::Instant;
use uba::admission::{AdmissionController, ConfigGeneration, FlowHandle, Reject, RoutingTable};
use uba::prelude::*;

/// The paper's Section 6 setting: MCI topology, uniform 100 Mbit/s links,
/// fan-in 6, VoIP class, all ordered pairs.
pub struct PaperSetting {
    /// The MCI backbone approximation.
    pub g: Digraph,
    /// Uniform servers (C = 100 Mb/s, N = 6).
    pub servers: Servers,
    /// The VoIP class.
    pub voip: TrafficClass,
    /// All 342 ordered router pairs.
    pub pairs: Vec<Pair>,
}

impl PaperSetting {
    /// Builds the setting.
    pub fn new() -> Self {
        let g = uba::topology::mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let pairs = all_ordered_pairs(&g);
        Self {
            g,
            servers,
            voip: TrafficClass::voip(),
            pairs,
        }
    }

    /// Stands up a ready-to-use admission controller from a selection.
    pub fn controller(&self, sel: &Selection, alpha: f64) -> AdmissionController {
        AdmissionController::from_generation(self.generation(&sel.paths, alpha))
    }

    /// Metered + unmetered controllers over the same SP routing table —
    /// the two subjects of the `obs_overhead` benchmark.
    pub fn controller_pair(&self, alpha: f64) -> (AdmissionController, AdmissionController) {
        let paths = sp_selection(&self.g, &self.pairs).expect("the MCI backbone is connected");
        (
            AdmissionController::from_generation(self.generation(&paths, alpha)),
            AdmissionController::from_generation_unmetered(self.generation(&paths, alpha)),
        )
    }

    /// A generation routing the VoIP class over `paths` at `alpha`.
    fn generation(&self, paths: &[Path], alpha: f64) -> ConfigGeneration {
        let mut table = RoutingTable::new();
        table.insert_all(ClassId(0), paths.iter());
        let caps: Vec<f64> = (0..self.servers.len())
            .map(|k| self.servers.capacity_at(k))
            .collect();
        ConfigGeneration::new(table, &ClassSet::single(self.voip.clone()), &caps, &[alpha])
    }
}

impl Default for PaperSetting {
    fn default() -> Self {
        Self::new()
    }
}

/// Median of `xs` (the upper one for an even count); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// One measured batch of the overhead gates: `iters` round-robin
/// admit+release decisions over `pairs` through `admit`, in seconds.
/// The gates run it at a low alpha that keeps a couple of flows per link
/// admissible, so the loop exercises the full reserve/rollback/release
/// CAS machinery (and, traced, the full admit/reject/release event mix)
/// without saturating into the pure-reject path.
pub fn admit_release_batch(
    pairs: &[Pair],
    iters: usize,
    mut admit: impl FnMut(Pair) -> Result<FlowHandle, Reject>,
) -> f64 {
    let t0 = Instant::now();
    let mut admitted = 0usize;
    for i in 0..iters {
        if let Ok(handle) = admit(pairs[i % pairs.len()]) {
            admitted += 1;
            drop(handle);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    assert!(admitted > 0, "workload must exercise the admit path");
    std::hint::black_box(admitted);
    dt
}

/// The A/B round loop of the overhead gates. `subject` and `baseline` are
/// `(column label, batch)`: each batch times the given number of
/// admissions, in seconds. After a quarter-length warm-up of both, every
/// round runs the two back to back, alternating which goes first so
/// frequency drift and cache warm-up hit both equally, and the median
/// per-round overhead (`what` names it) must stay below the bound. The
/// bound is on the percentage; beside it the gate prints what it is a
/// percentage of — the median nanoseconds per admit+release of each
/// subject and of their per-round difference — because a faster baseline
/// makes the same added nanoseconds read as a larger share.
/// `full` and `smoke` are `(rounds, iters, bound_pct)`; the process's
/// first argument `smoke` selects the latter (the `scripts/verify.sh`
/// configuration: shorter, with a bound that survives CI noise).
pub fn overhead_gate(
    what: &str,
    full: (usize, usize, f64),
    smoke: (usize, usize, f64),
    (sub, mut subject): (&str, impl FnMut(usize) -> f64),
    (base, mut baseline): (&str, impl FnMut(usize) -> f64),
) {
    let is_smoke = std::env::args().nth(1).as_deref() == Some("smoke");
    let (rounds, iters, bound_pct) = if is_smoke { smoke } else { full };

    // Warm-up: fault in routes, branch predictors, metric handles and
    // whatever state the subject registers lazily.
    subject(iters / 4);
    baseline(iters / 4);

    let mut ratios = Vec::with_capacity(rounds);
    let mut times = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (t_subject, t_baseline) = if round % 2 == 0 {
            let s = subject(iters);
            (s, baseline(iters))
        } else {
            let b = baseline(iters);
            (subject(iters), b)
        };
        let pct = (t_subject / t_baseline - 1.0) * 100.0;
        ratios.push(pct);
        times.push((t_subject, t_baseline));
        println!(
            "round {round:>2}: {sub} {:>8.3} ms, {base} {:>8.3} ms, overhead {pct:+6.2}%",
            t_subject * 1e3,
            t_baseline * 1e3,
        );
    }

    let median = median(&mut ratios);
    println!();
    println!(
        "median {what} overhead: {median:+.2}% over {rounds} rounds of {iters} admits \
         (bound {bound_pct}%)"
    );
    let median_ns = |of: fn((f64, f64)) -> f64| {
        let per_op = 1e9 / iters as f64;
        crate::median(&mut times.iter().map(|&t| of(t) * per_op).collect::<Vec<_>>())
    };
    println!(
        "median ns per admit+release: {sub} {:.1}, {base} {:.1}, difference {:+.1}",
        median_ns(|t| t.0),
        median_ns(|t| t.1),
        median_ns(|t| t.0 - t.1),
    );
    assert!(
        median < bound_pct,
        "{sub} admit path {median:.2}% over the {base} one, bound {bound_pct}%"
    );
    println!("overhead check: median < {bound_pct}%  ✓");
}

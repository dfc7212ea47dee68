//! Shared helpers for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (see `DESIGN.md` §4 for the experiment index) and gate the run-time
//! claims: [`overhead_gate`] is the one A/B round loop behind every
//! admit-path gate of the `obs_overhead` binary, each of which supplies
//! its two subjects and the justification of its bound.
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
        AdmissionController::from_generation(generation(
            &self.servers,
            &self.voip,
            &sel.paths,
            alpha,
        ))
    }
}

impl Default for PaperSetting {
    fn default() -> Self {
        Self::new()
    }
}

/// A generation routing `class` over shortest paths for `pairs` on `g`
/// at `alpha`: the one controller set-up behind every admit-path gate.
pub fn sp_generation(
    g: &Digraph,
    servers: &Servers,
    class: &TrafficClass,
    pairs: &[Pair],
    alpha: f64,
) -> ConfigGeneration {
    let paths = sp_selection(g, pairs).expect("the topology must be connected");
    generation(servers, class, &paths, alpha)
}

/// A generation routing `class` over `paths` at `alpha`.
fn generation(
    servers: &Servers,
    class: &TrafficClass,
    paths: &[Path],
    alpha: f64,
) -> ConfigGeneration {
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths.iter());
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    ConfigGeneration::new(table, &ClassSet::single(class.clone()), &caps, &[alpha])
}

/// Panics unless the independent checker certifies the selection `found`
/// reached at its α\*, the selection's cells × (1 + 1e-9) the witness:
/// the message names `topology`, the selector and the refused cell or
/// route. A search that found nothing has nothing to certify.
pub fn certify(
    topology: &str,
    selector: &str,
    servers: &Servers,
    class: &TrafficClass,
    found: &MaxUtilResult,
) {
    let Some(sel) = &found.selection else {
        return;
    };
    let d_hat: Vec<f64> = sel.delays.iter().map(|d| d * (1.0 + 1e-9)).collect();
    let alphas = vec![found.alpha; servers.len()];
    let classes = ClassSet::single(class.clone());
    if let Err(e) = uba::delay::certificate::check(servers, &classes, &alphas, &sel.routes, &d_hat)
    {
        panic!(
            "{topology}: the {selector} selection at alpha* {} is refused: {e:?}",
            found.alpha
        );
    }
}

/// Median of `xs` (the upper one for an even count); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// One measured batch of the A/B overhead gates: `iters` round-robin
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

/// The A/B round loop of every admit-path gate. `subject` and `baseline`
/// are `(column label, batch)`: each batch times the given number of
/// admissions, in seconds. After a quarter-length warm-up of both, each
/// of `rounds` rounds runs the two back to back, alternating which goes
/// first so frequency drift and cache warm-up hit both equally, and the
/// median per-round overhead (`what` names it) must stay below
/// `bound_pct` — a negative bound demands a speed-up (−33.3 % of the
/// time is 1.5× the throughput). Beside the percentage the gate prints
/// what it is a percentage of — the median nanoseconds per admit+release
/// of each subject and of their per-round difference — because a faster
/// baseline makes the same added nanoseconds read as a larger share.
/// Returns the verdict rather than asserting it, so one failed gate
/// cannot hide the ones after it.
pub fn overhead_gate(
    what: &str,
    (rounds, iters, bound_pct): (usize, usize, f64),
    (sub, mut subject): (&str, impl FnMut(usize) -> f64),
    (base, mut baseline): (&str, impl FnMut(usize) -> f64),
) -> Result<(), String> {
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
         (bound {bound_pct:.1}%)"
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
    if median < bound_pct {
        println!("{what} check: median < {bound_pct:.1}%  ✓");
        Ok(())
    } else {
        Err(format!(
            "{sub} admit path {median:+.2}% over the {base} one, bound {bound_pct:.1}%"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::overhead_gate;
    use std::cell::RefCell;

    /// A synthetic batch taking `scale` seconds per admission.
    fn at(scale: f64) -> impl FnMut(usize) -> f64 {
        move |iters| scale * iters as f64
    }

    #[test]
    fn a_subject_at_twice_the_baseline_fails_a_five_percent_bound() {
        let verdict = overhead_gate("t", (7, 100, 5.0), ("s", at(2.0)), ("b", at(1.0)));
        assert!(verdict.unwrap_err().contains("+100.00%"));
    }

    #[test]
    fn the_batching_bound_passes_half_the_time_and_fails_an_equal_one() {
        let bound = (1.0 / 1.5 - 1.0) * 100.0;
        assert!(overhead_gate("t", (5, 100, bound), ("s", at(0.5)), ("b", at(1.0))).is_ok());
        assert!(overhead_gate("t", (5, 100, bound), ("s", at(1.0)), ("b", at(1.0))).is_err());
    }

    #[test]
    fn the_rounds_alternate_which_side_runs_first() {
        let calls = RefCell::new(Vec::new());
        let side = |name: &'static str| {
            let calls = &calls;
            move |iters: usize| {
                calls.borrow_mut().push(name);
                iters as f64
            }
        };
        overhead_gate("t", (4, 8, 5.0), ("s", side("s")), ("b", side("b"))).unwrap();
        // The warm-up runs the subject first; then the rounds alternate.
        assert_eq!(
            calls.into_inner(),
            ["s", "b", "s", "b", "b", "s", "s", "b", "b", "s"]
        );
    }
}

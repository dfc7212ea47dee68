//! Property tests: the sufficiency chain of the classical tests.
//!
//! For rate-monotonic priority order:
//! `LL bound ⇒ hyperbolic ⇒ RTA-schedulable`, and everything
//! fixed-priority-schedulable is EDF-schedulable (U ≤ 1)
//! (`uba_obs::check`: 256 seeded cases per property, the same every run).

use uba_obs::{check, ensure, SplitMix64};
use uba_sched::{
    edf_schedulable, hyperbolic_schedulable, response_times, rm_schedulable_by_bound,
    rta_schedulable, Task, TaskSet,
};

const CASES: u64 = 256;

/// Random task set in RM order with bounded size/periods.
fn arb_taskset(rng: &mut SplitMix64) -> TaskSet {
    let mut s = TaskSet::new();
    for _ in 0..1 + rng.index(7) {
        let period = rng.range_f64(1.0, 100.0);
        let ratio = rng.range_f64(1.0, 10.0);
        // wcet <= period via ratio in (1, 10]: wcet = period/ratio/k.
        let wcet = (period / ratio / 4.0).max(1e-3).min(period);
        s.push(Task::new(wcet, period));
    }
    s.sort_rate_monotonic();
    s
}

/// `premise ⇒ conclusion` over random task sets; the premise has to
/// hold for a fair share of them for the implication to mean anything.
fn check_implies(name: &str, premise: fn(&TaskSet) -> bool, conclusion: fn(&TaskSet) -> bool) {
    let mut reached = 0;
    check(name, CASES, |rng| {
        let set = arb_taskset(rng);
        if premise(&set) {
            reached += 1;
            ensure!(conclusion(&set), "U = {}", set.utilization());
        }
        Ok(())
    });
    assert!(
        reached >= CASES / 8,
        "only {reached} of {CASES} premises held"
    );
}

#[test]
fn ll_bound_implies_hyperbolic() {
    check_implies(
        "ll_bound_implies_hyperbolic",
        rm_schedulable_by_bound,
        hyperbolic_schedulable,
    );
}

#[test]
fn hyperbolic_implies_rta() {
    check_implies(
        "hyperbolic_implies_rta",
        hyperbolic_schedulable,
        rta_schedulable,
    );
}

#[test]
fn rta_implies_edf() {
    check_implies("rta_implies_edf", rta_schedulable, edf_schedulable);
}

#[test]
fn response_times_at_least_wcet() {
    let mut reached = 0;
    check("response_times_at_least_wcet", CASES, |rng| {
        let set = arb_taskset(rng);
        if let Some(rs) = response_times(&set) {
            reached += 1;
            for (t, r) in set.tasks().iter().zip(&rs) {
                ensure!(*r + 1e-12 >= t.wcet);
                ensure!(*r <= t.period + 1e-9);
            }
            // Highest-priority task's response time is exactly its wcet.
            ensure!((rs[0] - set.tasks()[0].wcet).abs() < 1e-12);
        }
        Ok(())
    });
    assert!(
        reached >= CASES / 8,
        "only {reached} of {CASES} sets had response times"
    );
}

/// Scale invariance: multiplying all times by a constant changes
/// nothing about schedulability.
#[test]
fn scale_invariance() {
    check("scale_invariance", CASES, |rng| {
        let set = arb_taskset(rng);
        let k = rng.range_f64(0.1, 100.0);
        let scaled = TaskSet::from_tasks(
            set.tasks()
                .iter()
                .map(|t| Task::new(t.wcet * k, t.period * k))
                .collect(),
        );
        ensure!(rta_schedulable(&set) == rta_schedulable(&scaled));
        ensure!(rm_schedulable_by_bound(&set) == rm_schedulable_by_bound(&scaled));
        Ok(())
    });
}

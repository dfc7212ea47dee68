//! A committed state's `delay.solve.*` records, timed samples included,
//! handed back with `take_tally` and published later add exactly what
//! the state's drop publishes. The registry is one per process, so this
//! binary holds this one test.

use uba_delay::committed::CommittedState;
use uba_delay::metrics::{solver, TIME_EVERY};
use uba_delay::routeset::Route;
use uba_delay::rule::Theorem5;
use uba_delay::servers::Servers;
use uba_obs::histogram::BUCKETS;
use uba_topology::line;
use uba_traffic::{ClassId, TrafficClass};

/// Every `delay.solve.*` series: counts, slots and sums — for the timed
/// samples only how many there are, since their values are the clock's.
#[derive(Debug, PartialEq)]
struct Reading {
    counters: [u64; 3],
    slots: [[u64; BUCKETS]; 2],
    sums: [u64; 2],
    timed: u64,
}

fn reading() -> Reading {
    let m = solver();
    let micro = |h: &uba_obs::Histogram| (h.sum() * 1e6).round() as u64;
    Reading {
        counters: [
            m.divergence.get(),
            m.sweeps_skipped.get(),
            m.servers_touched.get(),
        ],
        slots: [m.iterations.bucket_counts(), m.residual.bucket_counts()],
        sums: [micro(&m.iterations), micro(&m.residual)],
        timed: m.seconds.count(),
    }
}

fn delta(after: &Reading, before: &Reading) -> Reading {
    let sub = |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(a, b)| a - b).collect() };
    Reading {
        counters: sub(&after.counters, &before.counters).try_into().unwrap(),
        slots: [0, 1].map(|i| sub(&after.slots[i], &before.slots[i]).try_into().unwrap()),
        sums: sub(&after.sums, &before.sums).try_into().unwrap(),
        timed: after.timed - before.timed,
    }
}

#[test]
fn a_handed_back_tally_publishes_what_dropping_the_state_did() {
    // A 5-router line; forward edges are the even indices.
    let g = line(5);
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let route = |servers: Vec<u32>| Route {
        class: ClassId(0),
        servers,
    };
    let candidates = [vec![0], vec![0, 2], vec![2, 4, 6], vec![6, 4]];
    let evaluations = 2 * TIME_EVERY + 2;
    let evaluated = || {
        let rule = Theorem5::new([&voip], vec![0.3; servers.len()]);
        let mut state = CommittedState::empty(&servers, rule);
        assert!(state.commit(&route(vec![0, 2, 4])));
        for i in 0..evaluations as usize {
            state.try_route(
                &route(candidates[i % candidates.len()].clone()),
                f64::INFINITY,
            );
        }
        state
    };

    let before = reading();
    drop(evaluated());
    let dropped = delta(&reading(), &before);
    // The commit's evaluation and the candidates': one in `TIME_EVERY`
    // of them timed, the first included.
    assert_eq!(dropped.timed, (evaluations + 1).div_ceil(TIME_EVERY));
    assert_eq!(dropped.slots[0].iter().sum::<u64>(), evaluations + 1);

    let before = reading();
    let mut state = evaluated();
    let tally = state.take_tally();
    drop(state);
    assert_eq!(
        delta(&reading(), &before),
        delta(&before, &before),
        "nothing is published while the tally is out, timed samples included"
    );
    tally.publish();
    assert_eq!(delta(&reading(), &before), dropped);
}

//! Property tests of the discrete-event engine's invariants.

// Gated behind the non-default `prop-tests` feature: the `proptest`
// dev-dependency is not declared so the default build stays hermetic
// (offline, no registry). To run: re-add `proptest = "1"` under
// [dev-dependencies] and `cargo test --features prop-tests`.
#![cfg(feature = "prop-tests")]

use proptest::prelude::*;
use uba_sim::{simulate, simulate_with, Discipline, FlowSpec, SimConfig, SourceModel};

/// Random small flow set over a 3-server line (servers 0, 1, 2).
fn arb_flows() -> impl Strategy<Value = Vec<FlowSpec>> {
    proptest::collection::vec(
        (
            0usize..2, // class
            0u32..4,   // ingress
            0usize..3, // route start
            1usize..3, // route length (clamped)
            0u8..2,    // source kind
            0u32..20,  // offset in ms
        ),
        1..8,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(class, ingress, start, len, kind, off)| {
                let end = (start + len).min(3);
                let route: Vec<u32> = (start..end.max(start + 1)).map(|x| x as u32).collect();
                let source = if kind == 0 {
                    SourceModel::voip_cbr(off as f64 / 1e3)
                } else {
                    SourceModel::voip_greedy(off as f64 / 1e3)
                };
                FlowSpec {
                    class,
                    ingress,
                    route,
                    source,
                }
            })
            .collect()
    })
}

const C: f64 = 1e6;

fn cfg() -> SimConfig {
    SimConfig {
        horizon: 0.1,
        deadlines: vec![1.0, 1.0],
        policers: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every emitted packet is delivered exactly once, under
    /// every discipline.
    #[test]
    fn packets_conserved(flows in arb_flows()) {
        let emitted: u64 = flows
            .iter()
            .map(|f| f.source.emissions(0.1).len() as u64)
            .sum();
        for d in [
            Discipline::StaticPriority,
            Discipline::Fifo,
            Discipline::Wfq { weights: vec![1.0, 1.0] },
            Discipline::VirtualClock { rates: vec![0.5 * C, 0.5 * C] },
        ] {
            let r = simulate_with(&[C, C, C], &flows, &cfg(), &d, None, None);
            prop_assert_eq!(r.total_packets, emitted, "discipline {:?}", d);
        }
    }

    /// Determinism: identical runs give identical reports.
    #[test]
    fn runs_deterministic(flows in arb_flows()) {
        let a = simulate(&[C, C, C], &flows, &cfg());
        let b = simulate(&[C, C, C], &flows, &cfg());
        prop_assert_eq!(a.total_packets, b.total_packets);
        prop_assert_eq!(a.events, b.events);
        for (x, y) in a.classes.iter().zip(&b.classes) {
            prop_assert_eq!(x.max_delay, y.max_delay);
            prop_assert_eq!(x.mean_delay, y.mean_delay);
        }
    }

    /// Under static priority, class 0 never does worse than it does under
    /// FIFO with the same traffic.
    #[test]
    fn priority_at_least_as_good_as_fifo_for_class0(flows in arb_flows()) {
        prop_assume!(flows.iter().any(|f| f.class == 0));
        let pri = simulate(&[C, C, C], &flows, &cfg());
        let fifo = simulate_with(&[C, C, C], &flows, &cfg(), &Discipline::Fifo, None, None);
        prop_assert!(pri.classes[0].max_delay <= fifo.classes[0].max_delay + 1e-9);
    }

    /// Delays are nonnegative and below the trivial everything-queued
    /// bound.
    #[test]
    fn delays_physical(flows in arb_flows()) {
        let r = simulate(&[C, C, C], &flows, &cfg());
        let total_bits: f64 = flows
            .iter()
            .map(|f| f.source.emissions(0.1).len() as f64 * f.source.packet_bits() as f64)
            .sum();
        // Worst possible: everything serialized through 3 hops.
        let trivial_bound = 3.0 * total_bits / C + 1.0;
        for c in &r.classes {
            prop_assert!(c.max_delay >= 0.0);
            prop_assert!(c.max_delay <= trivial_bound);
            prop_assert!(c.mean_delay <= c.max_delay + 1e-12);
        }
    }
}

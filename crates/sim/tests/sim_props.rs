//! Property tests of the discrete-event engine's invariants
//! (`uba_obs::check`: 48 seeded flow sets per property, the same every
//! run).

use uba_obs::{check, ensure, SplitMix64};
use uba_sim::{simulate, Discipline, FlowSpec, SimConfig, SourceModel};

const CASES: u64 = 48;

/// Random small flow set over a 3-server line (servers 0, 1, 2).
fn arb_flows(rng: &mut SplitMix64) -> Vec<FlowSpec> {
    (0..1 + rng.index(7))
        .map(|_| {
            let class = rng.index(2);
            let ingress = rng.index(4) as u32;
            let start = rng.index(3);
            let len = 1 + rng.index(2); // clamped to the line below
            let kind = rng.index(2);
            let off = rng.index(20) as f64 / 1e3; // offset, 0–19 ms
            let end = (start + len).min(3);
            let route: Vec<u32> = (start..end.max(start + 1)).map(|x| x as u32).collect();
            let source = if kind == 0 {
                SourceModel::voip_cbr(off)
            } else {
                SourceModel::voip_greedy(off)
            };
            FlowSpec {
                class,
                ingress,
                route,
                source,
            }
        })
        .collect()
}

const C: f64 = 1e6;

fn cfg() -> SimConfig {
    SimConfig::new(0.1, vec![1.0, 1.0])
}

/// Conservation: every emitted packet is delivered exactly once, under
/// every discipline.
#[test]
fn packets_conserved() {
    check("packets_conserved", CASES, |rng| {
        let flows = arb_flows(rng);
        let emitted: u64 = flows
            .iter()
            .map(|f| f.source.emissions(0.1).len() as u64)
            .sum();
        for d in [
            Discipline::StaticPriority,
            Discipline::Fifo,
            Discipline::Wfq {
                weights: vec![1.0, 1.0],
            },
            Discipline::VirtualClock {
                rates: vec![0.5 * C, 0.5 * C],
            },
        ] {
            let cfg = SimConfig {
                discipline: d.clone(),
                ..cfg()
            };
            let r = simulate(&[C, C, C], &flows, &cfg);
            ensure!(
                r.total_packets == emitted,
                "discipline {d:?}: {} delivered of {emitted}",
                r.total_packets
            );
        }
        Ok(())
    });
}

/// Determinism: identical runs give identical reports.
#[test]
fn runs_deterministic() {
    check("runs_deterministic", CASES, |rng| {
        let flows = arb_flows(rng);
        let a = simulate(&[C, C, C], &flows, &cfg());
        let b = simulate(&[C, C, C], &flows, &cfg());
        ensure!(a.total_packets == b.total_packets);
        ensure!(a.events == b.events);
        for (x, y) in a.classes.iter().zip(&b.classes) {
            ensure!(x.max_delay == y.max_delay);
            ensure!(x.mean_delay == y.mean_delay);
        }
        Ok(())
    });
}

/// Under static priority, class 0 never does worse than it does under
/// FIFO with the same traffic.
#[test]
fn priority_at_least_as_good_as_fifo_for_class0() {
    let mut reached = 0;
    check(
        "priority_at_least_as_good_as_fifo_for_class0",
        CASES,
        |rng| {
            let flows = arb_flows(rng);
            if !flows.iter().any(|f| f.class == 0) {
                return Ok(());
            }
            reached += 1;
            let pri = simulate(&[C, C, C], &flows, &cfg());
            let fifo_cfg = SimConfig {
                discipline: Discipline::Fifo,
                ..cfg()
            };
            let fifo = simulate(&[C, C, C], &flows, &fifo_cfg);
            ensure!(pri.classes[0].max_delay <= fifo.classes[0].max_delay + 1e-9);
            Ok(())
        },
    );
    // Only an all-class-1 flow set is discarded.
    assert!(
        reached >= CASES * 3 / 4,
        "only {reached} of {CASES} cases ran"
    );
}

/// Delays are nonnegative and below the trivial everything-queued
/// bound.
#[test]
fn delays_physical() {
    check("delays_physical", CASES, |rng| {
        let flows = arb_flows(rng);
        let r = simulate(&[C, C, C], &flows, &cfg());
        let total_bits: f64 = flows
            .iter()
            .map(|f| f.source.emissions(0.1).len() as f64 * f.source.packet_bits() as f64)
            .sum();
        // Worst possible: everything serialized through 3 hops.
        let trivial_bound = 3.0 * total_bits / C + 1.0;
        for c in &r.classes {
            ensure!(c.max_delay >= 0.0);
            ensure!(c.max_delay <= trivial_bound);
            ensure!(c.mean_delay <= c.max_delay + 1e-12);
        }
        Ok(())
    });
}

/// A station serves by arrival, whichever flow a packet belongs to:
/// reversing the flow list (so the flows' numbers) changes no report
/// under any discipline. Two ingresses, each flow entering at server 0
/// or 1 and merging on server 2, classes alternating, so an access
/// shaper often queues both classes; bursts of up to four packets keep
/// it queueing. Offsets are continuous, so no two flows emit on one
/// nanosecond.
#[test]
fn reports_do_not_depend_on_flow_numbering() {
    check("reports_do_not_depend_on_flow_numbering", CASES, |rng| {
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| {
                let offset = rng.range_f64(0.0, 0.002);
                let ingress = rng.index(2) as u32;
                let source = if rng.index(2) == 0 {
                    SourceModel::voip_cbr(offset)
                } else {
                    SourceModel::GreedyOnOff {
                        burst_bits: 640.0 * (1 + rng.index(4)) as f64,
                        rate_bps: 32_000.0,
                        packet_bits: 640,
                        start: offset,
                    }
                };
                FlowSpec {
                    class: i % 2,
                    ingress,
                    route: vec![ingress, 2],
                    source,
                }
            })
            .collect();
        let reversed: Vec<FlowSpec> = flows.iter().rev().cloned().collect();
        for discipline in [
            Discipline::StaticPriority,
            Discipline::Fifo,
            Discipline::Wfq {
                weights: vec![1.0, 1.0],
            },
            Discipline::VirtualClock {
                rates: vec![0.5 * C, 0.5 * C],
            },
        ] {
            let cfg = SimConfig {
                discipline,
                ..SimConfig::new(0.05, vec![1.0, 1.0])
            };
            let a = simulate(&[C, C, C], &flows, &cfg);
            let b = simulate(&[C, C, C], &reversed, &cfg);
            ensure!(
                format!("{a:?}") == format!("{b:?}"),
                "{:?}: the reversed flow list reports otherwise",
                cfg.discipline
            );
        }
        Ok(())
    });
}

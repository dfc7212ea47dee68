//! The flow-aware *general delay formula* (Eq. 2–3, and Eq. 24 for
//! several classes).
//!
//! Given the exact set of established flows, the worst-case delay of a
//! static-priority server is
//!
//! ```text
//! d_k = (1/C) · max_{I>0} ( Σ_j F_{k,j}(I) − C·I )        (Eq. 3)
//! ```
//!
//! where `F_{k,j}` is the aggregate constraint function of input link `j`
//! (the sum of its flows' jittered buckets, capped by the link rate).
//!
//! The paper's point is that this formula *cannot* be used at
//! configuration time — it depends on the run-time flow set — and is
//! expensive even at run time. We implement it anyway, for two purposes:
//!
//! * as the **intserv-style baseline** admission test (re-verify all flows
//!   on every arrival), the scalability comparator of experiment S-AC;
//! * as the **reference** the Theorem 3 and Theorem 5 bounds are tested
//!   against: for any admissible flow placement, they must dominate it.

use crate::servers::Servers;
use uba_traffic::{Envelope, LeakyBucket};

/// Worst-case delay of a single server of capacity `c` whose input links
/// carry the given (already jitter-inflated) buckets.
///
/// `inputs[j]` is the list of flows on input link `j`; each link's
/// aggregate is capped at the link rate `c` before summation. Returns
/// `None` when the server is unstable (aggregate long-run rate > `c`).
pub fn server_delay_general(c: f64, inputs: &[Vec<LeakyBucket>]) -> Option<f64> {
    let mut agg = Envelope::zero();
    for link in inputs {
        if link.is_empty() {
            continue;
        }
        let sigma: f64 = link.iter().map(|b| b.burst).sum();
        let rho: f64 = link.iter().map(|b| b.rate).sum();
        let env = Envelope::token_bucket(sigma, rho).min_with_line(c);
        agg = agg.sum(&env);
    }
    agg.delay(c)
}

/// One established flow for the network-wide general analysis.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Static-priority class, 0 = highest.
    pub class: usize,
    /// Source policer.
    pub bucket: LeakyBucket,
    /// End-to-end deadline in seconds.
    pub deadline: f64,
    /// Link servers traversed, in order (raw edge indices).
    pub servers: Vec<u32>,
}

/// Verdict of the flow-aware network analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeneralOutcome {
    /// Converged and every flow meets its deadline.
    Feasible,
    /// Some flow provably misses its deadline (index into the flow list).
    DeadlineExceeded {
        /// Index of the first offending flow.
        flow: usize,
    },
    /// A server's aggregate rate exceeds its capacity.
    Unstable {
        /// Raw index of the offending server.
        server: usize,
    },
    /// No convergence within the iteration cap.
    IterationLimit,
}

/// Result of [`analyze_flows`].
#[derive(Clone, Debug)]
pub struct GeneralResult {
    /// Verdict.
    pub outcome: GeneralOutcome,
    /// `delays[class][server]` at the last iterate.
    pub delays: Vec<Vec<f64>>,
    /// Per-flow end-to-end delays at the last iterate.
    pub flow_delays: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

/// Network-wide fixed point of the general formula for an explicit flow
/// set under class-based static priority with `classes` classes: Eq. (3)
/// for one class, Eq. (24) for several.
///
/// Each server's inputs are derived from the flows' routes: a flow arrives
/// at hop `p` on the input link identified by its hop `p−1` (or on its
/// ingress router's access link for `p = 0`; all locally originated flows
/// of a router share one access link). The per-hop jitter inflation is
/// `T + ρ·(accumulated upstream delay)`, per Cruz's Theorem 2.1.
///
/// A class-`i` packet at server `k` waits for the backlog of classes
/// `0..=i` *plus* the higher-priority traffic that keeps arriving while
/// it waits:
///
/// ```text
/// d_{i,k} = (1/C) · max_{I>0} ( Σ_{l<i} A_l(I + d_{i,k}) + A_i(I) − C·I )
/// ```
///
/// where `A_l` is class `l`'s per-input-link-capped aggregate envelope at
/// server `k`. The scalar recursion in `d_{i,k}` is itself solved by
/// monotone iteration inside the network-level fixed point; where no
/// higher class reaches server `k` it does not depend on `d_{i,k}` and
/// one evaluation is the answer.
///
/// Iterates monotonically from zero, so the same early-exit arguments as
/// the configuration-time solver apply.
pub fn analyze_flows(
    servers: &Servers,
    flows: &[Flow],
    classes: usize,
    tol: f64,
    max_iters: usize,
) -> GeneralResult {
    let s = servers.len();
    assert!(classes > 0, "need at least one class");
    for f in flows {
        assert!(f.class < classes, "flow class out of range");
    }
    // Stability pre-check: total rate per server across all classes.
    let mut rate = vec![0.0f64; s];
    for f in flows {
        for &k in &f.servers {
            rate[k as usize] += f.bucket.rate;
        }
    }
    if let Some(k) = (0..s).find(|&k| rate[k] > servers.capacity_at(k)) {
        return GeneralResult {
            outcome: GeneralOutcome::Unstable { server: k },
            delays: vec![vec![0.0; s]; classes],
            flow_delays: vec![0.0; flows.len()],
            iterations: 0,
        };
    }

    // Per server: which (flow, hop) arrive there, in flow order, and the
    // (class, predecessor link) group each joins (u32::MAX = ingress),
    // groups in key order. Precomputed once.
    struct Arrival {
        flow: u32,
        hop: u32,
        group: u32,
    }
    let mut arrivals: Vec<Vec<Arrival>> = (0..s).map(|_| Vec::new()).collect();
    let mut groups: Vec<Vec<(usize, u32)>> = vec![Vec::new(); s];
    for (fi, f) in flows.iter().enumerate() {
        for (p, &k) in f.servers.iter().enumerate() {
            let pred = if p == 0 { u32::MAX } else { f.servers[p - 1] };
            groups[k as usize].push((f.class, pred));
            arrivals[k as usize].push(Arrival {
                flow: fi as u32,
                hop: p as u32,
                group: 0,
            });
        }
    }
    for (keys, arrivals) in groups.iter_mut().zip(&mut arrivals) {
        let all = keys.clone();
        keys.sort_unstable();
        keys.dedup();
        for (a, key) in arrivals.iter_mut().zip(&all) {
            a.group = keys.binary_search(key).expect("every key is kept") as u32;
        }
    }

    let mut d = vec![vec![0.0f64; s]; classes];
    let mut iterations = 0;
    loop {
        iterations += 1;
        // Prefix delays per flow per hop under its own class's delays.
        let mut prefix: Vec<Vec<f64>> = Vec::with_capacity(flows.len());
        let mut flow_delays = Vec::with_capacity(flows.len());
        for f in flows {
            let dc = &d[f.class];
            let mut acc = 0.0;
            let mut pre = Vec::with_capacity(f.servers.len());
            for &k in &f.servers {
                pre.push(acc);
                acc += dc[k as usize];
            }
            prefix.push(pre);
            flow_delays.push(acc);
        }
        if let Some(fi) = (0..flows.len()).find(|&fi| flow_delays[fi] > flows[fi].deadline + 1e-12)
        {
            return GeneralResult {
                outcome: GeneralOutcome::DeadlineExceeded { flow: fi },
                delays: d,
                flow_delays,
                iterations,
            };
        }

        let mut max_diff: f64 = 0.0;
        let mut d_new = vec![vec![0.0f64; s]; classes];
        // Per group sigma/rho, summed in arrival order (the bits depend on
        // it), and per class the aggregate.
        let mut sums: Vec<(f64, f64)> = Vec::new();
        let mut aggs: Vec<Option<Envelope>> = Vec::with_capacity(classes);
        for k in 0..s {
            if arrivals[k].is_empty() {
                continue;
            }
            let c = servers.capacity_at(k);
            sums.clear();
            sums.resize(groups[k].len(), (0.0, 0.0));
            for a in &arrivals[k] {
                let f = &flows[a.flow as usize];
                let jit = prefix[a.flow as usize][a.hop as usize];
                let e = &mut sums[a.group as usize];
                e.0 += f.bucket.burst + f.bucket.rate * jit;
                e.1 += f.bucket.rate;
            }
            // Per-class aggregate envelopes A_l, groups in key order.
            aggs.clear();
            aggs.resize(classes, None);
            for (&(class, _), &(sigma, rho)) in groups[k].iter().zip(&sums) {
                let env = Envelope::token_bucket(sigma, rho).min_with_line(c);
                let slot = &mut aggs[class];
                *slot = Some(match slot.take() {
                    Some(prev) => prev.sum(&env),
                    None => env,
                });
            }
            // Class by class, highest priority first.
            for i in 0..classes {
                let Some(own) = aggs[i].as_ref() else {
                    continue;
                };
                let value = if aggs[..i].iter().all(Option::is_none) {
                    own.delay(c)
                } else {
                    // Scalar recursion d <- (1/C) max_I (Σ_{l<i} A_l(I+d)
                    // + A_i(I) − C·I); monotone from the previous network
                    // iterate's value.
                    let mut di = d[i][k];
                    let mut inner = 0;
                    loop {
                        inner += 1;
                        let mut total = own.clone();
                        for agg in aggs.iter().take(i).flatten() {
                            total = total.sum(&agg.shift(di));
                        }
                        match total.delay(c) {
                            Some(next) => {
                                if (next - di).abs() <= tol {
                                    break Some(next);
                                }
                                di = next;
                            }
                            None => break None,
                        }
                        if inner >= max_iters {
                            break Some(di);
                        }
                    }
                };
                match value {
                    Some(v) => {
                        max_diff = max_diff.max((v - d[i][k]).abs());
                        d_new[i][k] = v;
                    }
                    None => {
                        return GeneralResult {
                            outcome: GeneralOutcome::Unstable { server: k },
                            delays: d,
                            flow_delays,
                            iterations,
                        }
                    }
                }
            }
        }
        d = d_new;

        if max_diff <= tol {
            // Final flow delays at the fixed point.
            let mut flow_delays = Vec::with_capacity(flows.len());
            for f in flows {
                let dc = &d[f.class];
                flow_delays.push(f.servers.iter().map(|&k| dc[k as usize]).sum::<f64>());
            }
            let outcome =
                match (0..flows.len()).find(|&fi| flow_delays[fi] > flows[fi].deadline + 1e-12) {
                    Some(fi) => GeneralOutcome::DeadlineExceeded { flow: fi },
                    None => GeneralOutcome::Feasible,
                };
            return GeneralResult {
                outcome,
                delays: d,
                flow_delays,
                iterations,
            };
        }
        if iterations >= max_iters {
            return GeneralResult {
                outcome: GeneralOutcome::IterationLimit,
                delays: d,
                flow_delays,
                iterations,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_graph::{Digraph, NodeId};

    fn voip() -> LeakyBucket {
        LeakyBucket::new(640.0, 32_000.0)
    }

    #[test]
    fn single_input_link_no_delay() {
        // One link capped at C feeding a server of capacity C: the
        // aggregate never exceeds the service line.
        let d = server_delay_general(1e6, &[vec![voip(); 10]]).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn two_links_queue() {
        let c = 1e6;
        let flows = vec![voip(); 5];
        let d = server_delay_general(c, &[flows.clone(), flows]).unwrap();
        assert!(d > 0.0);
        // Bounded by total burst / C.
        assert!(d <= 10.0 * 640.0 / c);
    }

    #[test]
    fn unstable_server_detected() {
        let c = 100_000.0;
        // 4 flows at 32 kb/s = 128 kb/s > 100 kb/s.
        let d = server_delay_general(c, &[vec![voip(); 2], vec![voip(); 2]]);
        assert!(d.is_none());
    }

    #[test]
    fn empty_inputs_zero_delay() {
        assert_eq!(server_delay_general(1e6, &[]), Some(0.0));
        assert_eq!(server_delay_general(1e6, &[vec![], vec![]]), Some(0.0));
    }

    /// Even split over N links with M = αC/ρ flows total must equal the
    /// Theorem 3 closed form exactly (see DESIGN.md §2 and the Theorem 2
    /// proof): this is the paper's worst case realized concretely.
    #[test]
    fn even_split_matches_theorem3() {
        let c = 96e6;
        let n = 6usize;
        let alpha = 0.3;
        let b = voip();
        let m = alpha * c / b.rate; // 900 flows
        assert_eq!(m.fract(), 0.0);
        let per_link = (m as usize) / n;
        let inputs: Vec<Vec<LeakyBucket>> = (0..n).map(|_| vec![b; per_link]).collect();
        let general = server_delay_general(c, &inputs).unwrap();
        let t3 = crate::bound::theorem3_delay(alpha, b, n, 0.0).unwrap();
        assert!(
            (general - t3).abs() <= 1e-9 * (1.0 + t3),
            "general={general}, theorem3={t3}"
        );
    }

    /// Any admissible split is dominated by Theorem 3 (Theorem 2's claim).
    #[test]
    fn uneven_splits_dominated_by_theorem3() {
        let c = 96e6;
        let n = 6usize;
        let alpha = 0.3;
        let b = voip();
        let m = (alpha * c / b.rate) as usize; // 900
        let t3 = crate::bound::theorem3_delay(alpha, b, n, 0.0).unwrap();
        let splits: Vec<Vec<usize>> = vec![
            vec![900, 0, 0, 0, 0, 0],
            vec![450, 450, 0, 0, 0, 0],
            vec![300, 300, 300, 0, 0, 0],
            vec![500, 100, 100, 100, 50, 50],
            vec![150, 150, 150, 150, 150, 150],
        ];
        for split in splits {
            assert_eq!(split.iter().sum::<usize>(), m);
            let inputs: Vec<Vec<LeakyBucket>> = split.iter().map(|&k| vec![b; k]).collect();
            let general = server_delay_general(c, &inputs).unwrap();
            assert!(
                general <= t3 + 1e-9,
                "split {split:?}: general={general} > t3={t3}"
            );
        }
    }

    fn two_hop_flows() -> (Servers, Vec<Flow>) {
        // 0 -> 1 -> 2 line, directed; two flows along it, one cross flow
        // joining at router 1.
        let mut g = Digraph::with_nodes(4);
        let e01 = g.add_edge(NodeId(0), NodeId(1), 1.0).0;
        let e12 = g.add_edge(NodeId(1), NodeId(2), 1.0).0;
        let e31 = g.add_edge(NodeId(3), NodeId(1), 1.0).0;
        let servers = Servers::uniform(&g, 1e6, 4);
        let flows = vec![
            Flow {
                class: 0,
                bucket: voip(),
                deadline: 0.1,
                servers: vec![e01, e12],
            },
            Flow {
                class: 0,
                bucket: voip(),
                deadline: 0.1,
                servers: vec![e31, e12],
            },
        ];
        (servers, flows)
    }

    #[test]
    fn network_analysis_feasible_case() {
        let (servers, flows) = two_hop_flows();
        let r = analyze_flows(&servers, &flows, 1, 1e-12, 1000);
        assert_eq!(r.outcome, GeneralOutcome::Feasible);
        // The merge point (server e12) sees two input links and queues.
        assert!(r.delays[0][1] > 0.0);
        // First hops have a single (ingress) input link: no queueing.
        assert!(r.delays[0][0].abs() < 1e-12);
        assert!(r.delays[0][2].abs() < 1e-12);
        assert!(r.flow_delays.iter().all(|&fd| fd > 0.0 && fd < 0.1));
    }

    #[test]
    fn network_analysis_deadline_violation() {
        let (servers, mut flows) = two_hop_flows();
        flows[0].deadline = 1e-12;
        let r = analyze_flows(&servers, &flows, 1, 1e-12, 1000);
        assert_eq!(r.outcome, GeneralOutcome::DeadlineExceeded { flow: 0 });
    }

    #[test]
    fn network_analysis_unstable() {
        let (servers, flows) = two_hop_flows();
        // 40 copies of each flow: 80 * 32 kb/s = 2.56 Mb/s > 1 Mb/s,
        // whether they share one class or alternate between two.
        for classes in [1, 2] {
            let many: Vec<Flow> = (0..80)
                .map(|i| Flow {
                    class: i % classes,
                    ..flows[i % 2].clone()
                })
                .collect();
            let r = analyze_flows(&servers, &many, classes, 1e-12, 1000);
            assert!(matches!(r.outcome, GeneralOutcome::Unstable { .. }));
        }
    }

    #[test]
    fn network_analysis_empty_flows() {
        let (servers, _) = two_hop_flows();
        let r = analyze_flows(&servers, &[], 1, 1e-12, 1000);
        assert_eq!(r.outcome, GeneralOutcome::Feasible);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn multiclass_lower_priority_waits_longer() {
        // Two identical flow populations on a shared merge link, one per
        // class: the lower class must see at least the higher's delay.
        let (servers, flows) = two_hop_flows();
        let mut classed = Vec::new();
        for class in 0..2usize {
            for f in &flows {
                classed.push(Flow {
                    class,
                    deadline: 1.0,
                    ..f.clone()
                });
            }
        }
        let r = analyze_flows(&servers, &classed, 2, 1e-12, 1000);
        assert_eq!(r.outcome, GeneralOutcome::Feasible);
        // On the merge server (index 1) both classes queue; priority
        // ordering must show.
        assert!(r.delays[0][1] > 0.0);
        assert!(
            r.delays[1][1] > r.delays[0][1],
            "low {} vs high {}",
            r.delays[1][1],
            r.delays[0][1]
        );
    }

    #[test]
    fn multiclass_dominated_by_theorem5_bound() {
        // The configuration-time Theorem 5 bound dominates the exact
        // multi-class analysis for an admissible placement.
        use crate::multiclass::theorem5_delay;
        let c = 10e6;
        let n = 4usize;
        let alphas = [0.2, 0.2];
        let b = voip();
        let mut g = Digraph::with_nodes(n + 1);
        let mut in_edges = Vec::new();
        for i in 0..n {
            in_edges.push(g.add_edge(NodeId(i as u32 + 1), NodeId(0), 1.0).0);
        }
        // One outbound server fed by n links.
        let out = g.add_edge(NodeId(0), NodeId(1), 1.0).0;
        let servers = Servers::uniform(&g, c, n + 1);
        let mut classed = Vec::new();
        for (ci, &alpha) in alphas.iter().enumerate() {
            let per_link = (alpha * c / b.rate / n as f64).floor() as usize;
            for &e in &in_edges {
                for _ in 0..per_link {
                    classed.push(Flow {
                        class: ci,
                        bucket: b,
                        deadline: 1.0,
                        servers: vec![e, out],
                    });
                }
            }
        }
        let exact = analyze_flows(&servers, &classed, 2, 1e-10, 2000);
        assert_eq!(exact.outcome, GeneralOutcome::Feasible);
        // Upstream delay for the bound: the worst first-hop delay.
        for i in 0..2 {
            let y: Vec<f64> = (0..2)
                .map(|l| {
                    in_edges
                        .iter()
                        .map(|&e| exact.delays[l][e as usize])
                        .fold(0.0, f64::max)
                })
                .collect();
            let bound = theorem5_delay(&alphas, &[b; 2], i, n + 1, &y).unwrap();
            assert!(
                exact.delays[i][out as usize] <= bound + 1e-9,
                "class {i}: exact {} vs bound {bound}",
                exact.delays[i][out as usize]
            );
        }
    }

    #[test]
    fn ingress_flows_share_one_access_link() {
        // Ten flows all entering at router 0 toward 1: they share the
        // access link, so the first hop still cannot queue.
        let mut g = Digraph::with_nodes(2);
        let e01 = g.add_edge(NodeId(0), NodeId(1), 1.0).0;
        let servers = Servers::uniform(&g, 1e6, 4);
        let flows: Vec<Flow> = (0..10)
            .map(|_| Flow {
                class: 0,
                bucket: voip(),
                deadline: 0.1,
                servers: vec![e01],
            })
            .collect();
        let r = analyze_flows(&servers, &flows, 1, 1e-12, 1000);
        assert_eq!(r.outcome, GeneralOutcome::Feasible);
        assert!(r.delays[0][0].abs() < 1e-12);
    }
}

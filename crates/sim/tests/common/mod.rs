//! What the simulator-vs-bound tests share: the admission fill and the
//! packetization slack a packet-level run may exceed the fluid bound by.

use uba_delay::servers::Servers;
use uba_graph::Path;

/// Greedy fill: admit flows round-robin over routes while every link on
/// the route has `alpha*C` headroom for the class. Returns per-route flow
/// counts.
pub fn greedy_fill(paths: &[Path], servers: &Servers, alpha: f64, rate: f64) -> Vec<usize> {
    let mut reserved = vec![0.0f64; servers.len()];
    let mut counts = vec![0usize; paths.len()];
    let mut progress = true;
    while progress {
        progress = false;
        for (ri, p) in paths.iter().enumerate() {
            let fits = p.edges.iter().all(|e| {
                reserved[e.index()] + rate <= alpha * servers.capacity_at(e.index()) + 1e-9
            });
            if fits {
                for e in &p.edges {
                    reserved[e.index()] += rate;
                }
                counts[ri] += 1;
                progress = true;
            }
        }
    }
    counts
}

/// Packetization slack: per hop one non-preemption block plus one
/// quantization packet.
pub fn slack(hops: usize, packet_bits: f64, capacity: f64) -> f64 {
    hops as f64 * 2.0 * packet_bits / capacity
}

//! The random instances `random_differential` simulates and
//! `calculus_oracle` solves under two delay rules: the same property
//! names, so the same seeds, and the same draws — a topology, then α
//! inside Theorem 4's window.

use uba_delay::servers::Servers;
use uba_graph::Digraph;
use uba_obs::SplitMix64;
use uba_routing::bounds::utilization_bounds;
use uba_topology::{grid, line, ring, star, torus, waxman};
use uba_traffic::{LeakyBucket, TrafficClass};

/// Instances per arm.
pub const CASES: u64 = 24;
/// The one-class arm's property name, VoIP alone at [`CAPACITY`].
pub const ONE_CLASS: &str = "verified_random_instances_meet_their_bounds";
/// The two-class arm's, VoIP above [`video`] at [`TWO_CLASS_CAPACITY`].
pub const TWO_CLASS: &str = "verified_two_class_instances_meet_their_bounds";
/// Link capacity of the one-class arm, b/s.
pub const CAPACITY: f64 = 1e6;
/// Link capacity of the two-class arm, b/s.
pub const TWO_CLASS_CAPACITY: f64 = 4e6;

/// The two-class arm's lower class: 400 kb/s video, 300 ms deadline.
pub fn video() -> TrafficClass {
    TrafficClass::new("video", LeakyBucket::new(16_000.0, 400_000.0), 0.3)
}

/// A random strongly connected topology of at most 12 routers, named by
/// its family and size.
pub fn topology(rng: &mut SplitMix64) -> (String, Digraph) {
    match rng.index(6) {
        0 => {
            let n = 3 + rng.index(10);
            (format!("ring({n})"), ring(n))
        }
        1 => {
            let n = 2 + rng.index(11);
            (format!("line({n})"), line(n))
        }
        2 => {
            let spokes = 2 + rng.index(10);
            (format!("star({spokes})"), star(spokes))
        }
        3 => {
            let w = 2 + rng.index(2);
            let h = 2 + rng.index(12 / w - 1);
            (format!("grid({w}, {h})"), grid(w, h))
        }
        4 => {
            let (w, h) = [(3, 3), (3, 4), (4, 3)][rng.index(3)];
            (format!("torus({w}, {h})"), torus(w, h))
        }
        _ => {
            let (n, seed) = (4 + rng.index(9), rng.next_u64());
            (
                format!("waxman({n}, 0.4, 0.5, {seed:#x})"),
                waxman(n, 0.4, 0.5, seed),
            )
        }
    }
}

/// An α drawn inside `class`'s Theorem 4 window for `g`'s diameter and
/// `servers`' largest fan-in.
pub fn theorem4_alpha(
    rng: &mut SplitMix64,
    servers: &Servers,
    diameter: usize,
    class: &TrafficClass,
) -> f64 {
    let fan_in = (0..servers.len())
        .map(|k| servers.fan_in_at(k))
        .max()
        .unwrap_or(2);
    let (lb, ub) = utilization_bounds(fan_in.max(2), diameter.max(1), class);
    if ub > lb {
        rng.range_f64(lb, ub)
    } else {
        lb
    }
}

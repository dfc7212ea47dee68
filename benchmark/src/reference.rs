//! The reference kernel: a fixed amount of work that belongs to the
//! benchmark, not to the program, run in a burst next to everything the
//! harness times.
//!
//! The boxes this benchmark runs on are a few cores of a shared host, and
//! their speed moves by 10–25 % for seconds to minutes at a time with what
//! the neighbours do. No number of rounds inside a run averages out a
//! phase that outlasts the run, and two runs of the same code then
//! disagree by more than any useful regression bound. A burst takes
//! [`NOMINAL_S`] on the sizing box at its usual speed, so
//! `burst time ÷ NOMINAL_S` says how much slower (> 1) or faster (< 1) the
//! box is right now, and every end-to-end time is divided by the factor
//! measured right beside it: the metrics read "at the reference speed". A
//! change to the program cannot move the factor — the kernel calls nothing
//! of the program — so a gain or a regression shows in full.
//!
//! The kernel is a blend of four kinds of work, a quarter of a burst each,
//! because what slows this box — another guest on the sibling hyperthread —
//! slows them very differently, and the program is a blend too
//! (`NOISE.md` has the measurements): independent hashes with an
//! unpredictable branch (throughput-bound, +58 % beside a busy sibling),
//! dependent loads over a 1 MiB table (the shared L2, +23 %), a
//! floating-point fixed point and a binary heap (latency-bound, +5 % and +1 %).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What one burst takes on the sizing box at its usual speed, seconds.
pub const NOMINAL_S: f64 = 0.1;

/// Table entries: 1 MiB of `u64`, so that the benchmark's own memory stays
/// small beside the program's in `peak_rss_mb`.
const TABLE: usize = 1 << 17;
const HEAP: usize = 4096;
/// Steps of each part in one burst, sized to a quarter of [`NOMINAL_S`]
/// each on the sizing box.
const HASH_STEPS: u64 = 18_000_000;
const CHASE_STEPS: usize = 3_150_000;
const FIXED_POINT_STEPS: usize = 3_500_000;
const HEAP_STEPS: u64 = 675_000;

#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Reference {
    table: Vec<u64>,
    heap: BinaryHeap<u64>,
    state: u64,
}

impl Reference {
    /// Builds the kernel's state and runs one untimed burst, so that the
    /// first timed one finds its pages mapped and its caches warm.
    pub fn new() -> Self {
        let mut reference = Self {
            table: (0..TABLE as u64).map(mix).collect(),
            heap: (0..HEAP as u64).map(|i| mix(!i)).collect(),
            state: 1,
        };
        reference.burst_s();
        reference
    }

    /// One burst of fixed work; its wall time, seconds.
    pub fn burst_s(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.state;

        let mut folded = 0u64;
        for i in 0..HASH_STEPS {
            let h = mix(i ^ x);
            if h & 1 == 0 {
                folded = folded.wrapping_add(h);
            } else {
                folded ^= h >> 3;
            }
        }
        x = black_box(x ^ folded);

        for _ in 0..CHASE_STEPS {
            let slot = &mut self.table[x as usize & (TABLE - 1)];
            x = slot.wrapping_add(x.rotate_left(17));
            *slot = x ^ (x >> 29);
        }

        let mut d = 0.5 + (x >> 60) as f64 / 64.0;
        for _ in 0..FIXED_POINT_STEPS {
            d = (0.3 * d + 1.0) / (1.0 + 0.25 * d);
        }
        x ^= d.to_bits();

        for i in 0..HEAP_STEPS {
            let top = self.heap.pop().expect("the heap keeps its size");
            x ^= top;
            self.heap.push(mix(x ^ i));
        }

        self.state = black_box(x);
        t0.elapsed().as_secs_f64()
    }
}

/// The box's speed factor beside every entry of a run's timeline, where
/// `bursts[i]` is the burst time at position `i` and `None` marks timed
/// work: the mean of the nearest burst before the entry and the nearest
/// after it (the one there is, at either end of the run), ÷ [`NOMINAL_S`].
/// Above 1 the box is slower than the sizing box at its usual speed. In
/// sizing, wider windows (the nearest 6 or 12 bursts) tracked the timed
/// work worse: most of what moves this box lasts a second or two.
pub fn speed_factors(bursts: &[Option<f64>]) -> Vec<f64> {
    (0..bursts.len())
        .map(|i| {
            let before = bursts[..i].iter().rev().flatten().next();
            let after = bursts[i..].iter().flatten().next();
            let near: Vec<f64> = before.into_iter().chain(after).copied().collect();
            assert!(!near.is_empty(), "a run has bursts");
            near.iter().sum::<f64>() / near.len() as f64 / NOMINAL_S
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_do_the_same_work_and_keep_the_heap_size() {
        let mut a = Reference::new();
        let mut b = Reference::new();
        a.burst_s();
        b.burst_s();
        assert_eq!(a.state, b.state);
        assert_eq!(a.heap.len(), HEAP);
        assert_ne!(a.state, 1);
    }

    #[test]
    fn speed_factors_take_the_nearest_burst_on_either_side() {
        let n = Some(NOMINAL_S);
        let slow = Some(2.0 * NOMINAL_S);
        // set-up, burst, round, burst, round, slow burst, round, slow burst
        let timeline = [None, n, None, n, None, slow, None, slow];
        let f = speed_factors(&timeline);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // A set-up at the start has only the burst after it.
        assert!(close(f[0], 1.0));
        assert!(close(f[2], 1.0));
        // At the edge of a slow phase the two bursts disagree.
        assert!(close(f[4], 1.5));
        // Work inside it is judged by the bursts inside it.
        assert!(close(f[6], 2.0));
    }
}

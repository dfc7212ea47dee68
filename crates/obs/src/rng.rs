//! The workspace's deterministic PRNG.
//!
//! SplitMix64 (Steele, Lea & Flood 2014): 64 bits of state, one
//! add-xorshift-multiply round per draw, passes BigCrush, and is fully
//! reproducible from a seed — everything the topology generators, churn
//! driver, and Monte Carlo code need. An in-tree replacement for the
//! `rand` crate so the workspace builds with no external dependencies;
//! [`check`] is the randomized-test harness built on it.
//!
//! Not cryptographic. Do not use for anything security-relevant.

/// A seeded SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // 128-bit multiply-shift (Lemire); the modulo bias is at most
        // n/2^64, far below anything our workloads can detect.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + self.next_f64() * (hi - lo)
    }
}

/// Runs `property` on `cases` seeded generators — the workspace's
/// randomized-test harness, in place of an external property-testing
/// crate. The seed of case `i` is derived from `name` and `i` alone, so
/// every run of a test draws the same inputs and a failure repeats by
/// re-running the test; no environment variable selects anything and
/// nothing is shrunk. A property draws its inputs from the generator it
/// is handed and returns `Err` with what went wrong ([`ensure!`](crate::ensure)
/// keeps that short).
///
/// # Panics
/// On the first failing case, naming the property, the case and its
/// seed (`SplitMix64::new(seed)` reproduces the inputs).
pub fn check(
    name: &str,
    cases: u64,
    mut property: impl FnMut(&mut SplitMix64) -> Result<(), String>,
) {
    // FNV-1a of the name, so properties do not share input streams.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    for case in 0..cases {
        let seed = SplitMix64::new(base.wrapping_add(case)).next_u64();
        if let Err(why) = property(&mut SplitMix64::new(seed)) {
            panic!("property `{name}` failed at case {case} of {cases} (seed {seed:#018x}): {why}");
        }
    }
}

/// Inside a [`check`] property: returns `Err` — the formatted message,
/// or the condition's text and place — unless the condition holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "{} does not hold ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_draws_the_same_cases_every_run_and_names_the_failing_one() {
        let draws = |name: &str| {
            let mut seen = Vec::new();
            check(name, 8, |rng| {
                seen.push(rng.next_u64());
                Ok(())
            });
            seen
        };
        assert_eq!(draws("a"), draws("a"));
        assert_ne!(draws("a"), draws("b"));
        assert_ne!(draws("a")[0], draws("a")[1]);

        let failure = std::panic::catch_unwind(|| {
            let mut case = 0;
            check("third_case_fails", 8, |rng| {
                case += 1;
                let x = rng.index(10);
                ensure!(case < 3, "drew {x}");
                Ok(())
            })
        });
        let msg = *failure.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("`third_case_fails` failed at case 2 of 8 (seed 0x"),
            "{msg}"
        );
        assert!(msg.contains("): drew "), "{msg}");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn reference_vector() {
        // First outputs for seed 0, from the public-domain reference
        // implementation (Vigna, prng.di.unimi.it).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut r = SplitMix64::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn index_covers_range_roughly_uniformly() {
        let mut r = SplitMix64::new(99);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.index(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((8_000..12_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn range_f64_respects_bounds() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_index_range_panics() {
        SplitMix64::new(0).index(0);
    }
}

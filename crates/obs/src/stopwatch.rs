//! The workspace's wall-clock timer.

use std::time::Instant;

/// A started wall-clock timer — for call sites that want the elapsed
/// value itself (solver phase timings, the reconfigure swap cost, the
/// sampled admit latency).
///
/// This is the workspace's only sanctioned `Instant::now` outside
/// benchmarks: the `xtask check` clock-discipline rule keeps every other
/// crate off the raw clock so simulations and model checks stay
/// deterministic, and timing flows through one auditable type.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self { t0: Instant::now() }
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`start`](Self::start), as `f64` (the
    /// shape histograms record).
    pub fn elapsed_ns(&self) -> f64 {
        self.t0.elapsed().as_nanos() as f64
    }
}

//! The workspace's one loom `sync` shim.
//!
//! The shimmed modules — `trace`, `metrics` and `histogram` here, and
//! `state`, `generation`, `controller` and `policy` in `uba-admission`
//! (through `uba_obs::sync`) — import their atomics, `Arc`, `Mutex`,
//! `OnceLock` and `CachePadded` from here instead of `std::sync`
//! directly (the `xtask check` shim-purity rule enforces it). A normal
//! build re-exports `std` wholesale — the shim compiles away entirely
//! and the admit path is what it would be on `std` (`obs_overhead`'s
//! metering and generation-pointer gates check this). Under
//! `RUSTFLAGS="--cfg loom"` the same names resolve to `uba-loom`'s
//! modeled primitives, so every atomic op and lock acquisition of the
//! trace ring, the metric CAS loops and the reservation/reconfigure
//! protocol becomes an explored schedule point (see
//! `crates/admission/tests/loom_models.rs`).

#[cfg(not(loom))]
pub use std::sync::{Arc, Mutex, OnceLock};

/// Atomics for the shimmed modules; `std::sync::atomic` unless `--cfg
/// loom` swaps in the model checker's versions.
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
}

#[cfg(loom)]
pub use uba_loom::sync::{Arc, Mutex, OnceLock};

/// Atomics for the shimmed modules; `std::sync::atomic` unless `--cfg
/// loom` swaps in the model checker's versions.
#[cfg(loom)]
pub mod atomic {
    pub use uba_loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
}

/// Pads (and aligns) `T` to two cache lines so adjacent slots never
/// share a line. 128 bytes, not 64: Intel's spatial prefetcher pulls
/// line pairs, and aarch64 big cores have 128-byte lines. Used for the
/// per-thread trace and metric staging buffers and the policy stages'
/// per-class slots (DESIGN.md §11 padding audit).
#[cfg(not(loom))]
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// Transparent under the model checker — there is no cache to pad for,
/// and alignment would only bloat the model state.
#[cfg(loom)]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

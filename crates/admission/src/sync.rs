//! Sync primitives for the lock-free admission core.
//!
//! The shimmed modules (`state`, `generation`, `controller`, `policy`)
//! import their atomics, `Arc`, and `Mutex` from here instead of
//! `std::sync` directly (the `xtask check` shim-purity rule enforces
//! it). A normal build re-exports `std` wholesale — the shim compiles
//! away entirely and the admit path is byte-for-byte what it was (the
//! `obs_overhead`/`reconfig_overhead` benches gate this). Under
//! `RUSTFLAGS="--cfg loom"` the same names resolve to `uba-loom`'s
//! modeled primitives, turning every atomic op and lock acquisition in
//! the reservation/reconfigure protocol into an explored schedule point
//! (see `tests/loom_models.rs`).

#[cfg(not(loom))]
pub(crate) use std::sync::{Arc, Mutex};

/// Atomics for the shimmed modules; `std::sync::atomic` unless `--cfg
/// loom` swaps in the model checker's versions.
#[cfg(not(loom))]
pub(crate) mod atomic {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}

#[cfg(loom)]
pub(crate) use uba_loom::sync::{Arc, Mutex};

/// Atomics for the shimmed modules; `std::sync::atomic` unless `--cfg
/// loom` swaps in the model checker's versions.
#[cfg(loom)]
pub(crate) mod atomic {
    pub use uba_loom::sync::atomic::{AtomicU64, Ordering};
}

/// Pads (and aligns) `T` to two cache lines so adjacent slots of an
/// array never share a line. 128 bytes, not 64: Intel's spatial
/// prefetcher pulls line pairs, and aarch64 big cores have 128-byte
/// lines — padding to the pair kills both destructive-interference
/// modes. Used for the policy stages' per-class slots and the
/// per-thread metric buffer (see DESIGN.md §11 for the padding audit).
#[cfg(not(loom))]
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub T);

/// Under the model checker padding is pointless (there is no cache) and
/// alignment would only bloat the model state, so the shim is a
/// transparent wrapper with the same API.
#[cfg(loom)]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
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

//! Model-aware replacements for `std::sync` primitives.
//!
//! Each atomic wraps its std counterpart, but inside a model the std
//! cell is only a seed/mirror: every operation is routed through the
//! scheduler's weak-memory engine, which keeps the location's full
//! modification order and lets Relaxed/Acquire/Release loads observe
//! any happens-before-consistent store — not just the newest one. The
//! `Ordering` argument therefore *matters* now: an Acquire load
//! synchronizes with the Release store it observes, a Relaxed load
//! synchronizes with nothing, and `SeqCst` ops are additionally
//! totally ordered against each other. Every op is also a schedule
//! point, and loads with several visible stores fork a Read decision
//! explored like any other branch. Outside a model the types degrade
//! to plain `SeqCst` std behavior, so they also work in ordinary
//! `#[test]`s and static initializers.

use crate::scheduler::{self};

pub use std::sync::atomic::Ordering;
pub use std::sync::{Arc, LockResult, OnceLock};

pub(crate) fn acq(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

pub(crate) fn rel(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

pub(crate) fn is_sc(o: Ordering) -> bool {
    matches!(o, Ordering::SeqCst)
}

/// Modeled atomics; import as `use uba_loom::sync::atomic::{...}`.
pub mod atomic {
    pub use super::Ordering;

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty, $to:tt, $from:tt) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name(std::sync::atomic::$std);

            impl $name {
                /// Creates the atomic. `const` so it works in statics.
                pub const fn new(v: $ty) -> Self {
                    Self(std::sync::atomic::$std::new(v))
                }

                fn seed(&self) -> u64 {
                    ($to)(self.0.load(super::Ordering::SeqCst))
                }

                /// Runs a modeled read-modify-write through the
                /// scheduler and mirrors the committed value back into
                /// the std cell (the modification-order newest value,
                /// used to seed the location on the next execution).
                fn model_rmw(
                    &self,
                    exec: &crate::scheduler::Execution,
                    me: usize,
                    f: &mut dyn FnMut($ty) -> Option<$ty>,
                    success: super::Ordering,
                    failure: super::Ordering,
                    site: &'static std::panic::Location<'static>,
                ) -> ($ty, Option<$ty>) {
                    let addr = self as *const Self as usize;
                    let mut g = |cur: u64| f(($from)(cur)).map(|nv| ($to)(nv));
                    let (old, new) = exec.atomic_rmw(
                        me,
                        addr,
                        self.seed(),
                        &mut g,
                        super::acq(success),
                        super::rel(success),
                        super::is_sc(success) || super::is_sc(failure),
                        super::acq(failure),
                        site,
                    );
                    if new.is_some() {
                        // No other model thread can interleave here: the
                        // mirror races nothing.
                        self.0
                            .store(($from)(new.expect("checked")), super::Ordering::SeqCst);
                    }
                    (($from)(old), new.map(|v| ($from)(v)))
                }

                /// Modeled load: may observe any happens-before
                /// consistent store, per `order`.
                #[track_caller]
                pub fn load(&self, order: super::Ordering) -> $ty {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        let addr = self as *const Self as usize;
                        let v = exec.atomic_load(
                            me,
                            addr,
                            self.seed(),
                            super::acq(order),
                            super::is_sc(order),
                            site,
                        );
                        ($from)(v)
                    } else {
                        self.0.load(super::Ordering::SeqCst)
                    }
                }

                /// Modeled store: appends to the location's
                /// modification order, releasing per `order`.
                #[track_caller]
                pub fn store(&self, v: $ty, order: super::Ordering) {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        let addr = self as *const Self as usize;
                        exec.atomic_store(
                            me,
                            addr,
                            self.seed(),
                            ($to)(v),
                            super::rel(order),
                            super::is_sc(order),
                            site,
                        );
                        self.0.store(v, super::Ordering::SeqCst);
                    } else {
                        self.0.store(v, super::Ordering::SeqCst)
                    }
                }

                /// Modeled swap (an RMW: reads the newest store).
                #[track_caller]
                pub fn swap(&self, v: $ty, order: super::Ordering) -> $ty {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        self.model_rmw(&exec, me, &mut |_| Some(v), order, order, site)
                            .0
                    } else {
                        self.0.swap(v, super::Ordering::SeqCst)
                    }
                }

                /// Modeled compare-exchange. Like every atomic RMW it
                /// reads the newest store in the modification order, so
                /// success/failure depends only on the interleaving —
                /// never on stale visibility.
                #[track_caller]
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: super::Ordering,
                    failure: super::Ordering,
                ) -> Result<$ty, $ty> {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        let (old, stored) = self.model_rmw(
                            &exec,
                            me,
                            &mut |cur| if cur == current { Some(new) } else { None },
                            success,
                            failure,
                            site,
                        );
                        if stored.is_some() {
                            Ok(old)
                        } else {
                            Err(old)
                        }
                    } else {
                        self.0.compare_exchange(
                            current,
                            new,
                            super::Ordering::SeqCst,
                            super::Ordering::SeqCst,
                        )
                    }
                }

                /// Modeled weak compare-exchange. Never fails spuriously —
                /// spurious failure would add schedule-independent
                /// nondeterminism, and every correct retry loop must
                /// tolerate its absence anyway.
                #[track_caller]
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: super::Ordering,
                    failure: super::Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Modeled `fetch_update` (an RMW loop; in the model the
                /// closure runs once, atomically, against the newest
                /// store).
                #[track_caller]
                pub fn fetch_update<F>(
                    &self,
                    set_order: super::Ordering,
                    fetch_order: super::Ordering,
                    mut f: F,
                ) -> Result<$ty, $ty>
                where
                    F: FnMut($ty) -> Option<$ty>,
                {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        let (old, stored) =
                            self.model_rmw(&exec, me, &mut f, set_order, fetch_order, site);
                        if stored.is_some() {
                            Ok(old)
                        } else {
                            Err(old)
                        }
                    } else {
                        self.0.fetch_update(
                            super::Ordering::SeqCst,
                            super::Ordering::SeqCst,
                            f,
                        )
                    }
                }
            }
        };
    }

    macro_rules! model_atomic_int {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty, $to:tt, $from:tt) => {
            model_atomic!($(#[$doc])* $name, $std, $ty, $to, $from);

            impl $name {
                /// Modeled `fetch_add` (wrapping, like std).
                #[track_caller]
                pub fn fetch_add(&self, v: $ty, order: super::Ordering) -> $ty {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        self.model_rmw(
                            &exec,
                            me,
                            &mut |cur| Some(cur.wrapping_add(v)),
                            order,
                            order,
                            site,
                        )
                        .0
                    } else {
                        self.0.fetch_add(v, super::Ordering::SeqCst)
                    }
                }

                /// Modeled `fetch_sub` (wrapping, like std).
                #[track_caller]
                pub fn fetch_sub(&self, v: $ty, order: super::Ordering) -> $ty {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        self.model_rmw(
                            &exec,
                            me,
                            &mut |cur| Some(cur.wrapping_sub(v)),
                            order,
                            order,
                            site,
                        )
                        .0
                    } else {
                        self.0.fetch_sub(v, super::Ordering::SeqCst)
                    }
                }

                /// Modeled `fetch_or`.
                #[track_caller]
                pub fn fetch_or(&self, v: $ty, order: super::Ordering) -> $ty {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        self.model_rmw(
                            &exec,
                            me,
                            &mut |cur| Some(cur | v),
                            order,
                            order,
                            site,
                        )
                        .0
                    } else {
                        self.0.fetch_or(v, super::Ordering::SeqCst)
                    }
                }

                /// Modeled `fetch_max`.
                #[track_caller]
                pub fn fetch_max(&self, v: $ty, order: super::Ordering) -> $ty {
                    if let Some((exec, me)) = crate::scheduler::current() {
                        let site = std::panic::Location::caller();
                        self.model_rmw(
                            &exec,
                            me,
                            &mut |cur| Some(cur.max(v)),
                            order,
                            order,
                            site,
                        )
                        .0
                    } else {
                        self.0.fetch_max(v, super::Ordering::SeqCst)
                    }
                }
            }
        };
    }

    model_atomic!(
        /// Modeled [`std::sync::atomic::AtomicBool`].
        AtomicBool,
        AtomicBool,
        bool,
        (|v: bool| v as u64),
        (|v: u64| v != 0)
    );
    model_atomic_int!(
        /// Modeled [`std::sync::atomic::AtomicU32`].
        AtomicU32,
        AtomicU32,
        u32,
        (|v: u32| v as u64),
        (|v: u64| v as u32)
    );
    model_atomic_int!(
        /// Modeled [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        AtomicU64,
        u64,
        (|v: u64| v),
        (|v: u64| v)
    );
    model_atomic_int!(
        /// Modeled [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        AtomicUsize,
        usize,
        (|v: usize| v as u64),
        (|v: u64| v as usize)
    );
}

static NEXT_MUTEX_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A modeled [`std::sync::Mutex`]. Contention is resolved entirely at
/// the model level (a held-map in the scheduler, with blocked threads
/// parked until the holder releases), so the inner std mutex is
/// uncontended by construction — a preempted holder can never deadlock
/// the real OS threads. Lock/unlock pairs synchronize (release on
/// unlock, acquire on lock) in the happens-before model. Outside a
/// model it degrades to a plain mutex.
#[derive(Debug)]
pub struct Mutex<T> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex.
    pub fn new(value: T) -> Self {
        Self {
            id: NEXT_MUTEX_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Modeled lock. Mirrors std's signature (`LockResult`) so call
    /// sites written as `.lock().unwrap()` compile unchanged; modeled
    /// mutexes are never poisoned (a model panic aborts the execution
    /// before anyone re-locks).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some((exec, me)) = scheduler::current() {
            exec.mutex_lock(me, self.id);
            let guard = match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            Ok(MutexGuard {
                mutex: self,
                guard: Some(guard),
            })
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    mutex: self,
                    guard: Some(g),
                }),
                Err(p) => Ok(MutexGuard {
                    mutex: self,
                    guard: Some(p.into_inner()),
                }),
            }
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        match self.inner.into_inner() {
            Ok(v) => Ok(v),
            Err(p) => Ok(p.into_inner()),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Guard for [`Mutex`]; releases the model-level lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard taken")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std guard before the model-level unlock wakes
        // waiters, so a woken thread can never contend the inner mutex.
        self.guard.take();
        if let Some((exec, me)) = scheduler::current() {
            exec.mutex_unlock(me, self.mutex.id);
        }
    }
}

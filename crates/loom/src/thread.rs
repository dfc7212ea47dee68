//! Modeled threads: spawn/join under scheduler control.

use crate::scheduler;
use std::sync::{Arc, Mutex};

/// Handle to a modeled thread; [`join`](JoinHandle::join) blocks (at the
/// model level) until it finishes and yields its return value.
pub struct JoinHandle<T> {
    idx: usize,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish. Unlike std this never returns a
    /// panic payload: a panicking model thread fails the whole execution
    /// before any joiner resumes.
    pub fn join(self) -> std::thread::Result<T> {
        let (exec, me) = scheduler::current().expect("uba-loom: join outside a model");
        exec.join_thread(me, self.idx);
        let value = match self.slot.lock() {
            Ok(mut g) => g.take(),
            Err(p) => p.into_inner().take(),
        };
        Ok(value.expect("uba-loom: joined thread produced no value"))
    }
}

/// Spawns a modeled thread. The closure runs on a real OS thread, but
/// only when the scheduler makes it active; the spawn itself is a
/// schedule point (the child may run before `spawn` returns). The
/// thread is named after its spawn site (`t<idx>@file:line`) so
/// deadlock and race reports identify it without guesswork.
#[track_caller]
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let site = std::panic::Location::caller();
    let name = format!("{}:{}", site.file(), site.line());
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let idx = scheduler::spawn_controlled(Some(name), move || {
        let value = f();
        match slot2.lock() {
            Ok(mut g) => *g = Some(value),
            Err(p) => *p.into_inner() = Some(value),
        }
    });
    JoinHandle { idx, slot }
}

/// A plain schedule point: lets the scheduler preempt here. No-op
/// outside a model.
pub fn yield_now() {
    scheduler::yield_point();
}

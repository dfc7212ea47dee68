//! Model checks of the lock-free metric primitives.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see
//! `crates/admission/tests/loom_models.rs` for the invocation and for
//! the admission-protocol models; this file covers the `uba-obs`
//! primitives the admission hot path records into).

#![cfg(loom)]

use std::sync::Arc;
use uba_obs::{Gauge, Histogram};

/// Concurrent `Gauge::add`s never lose an update: the read-modify-write
/// is a `fetch_update` retry loop over the f64 bit pattern, so two
/// racing deltas must both land.
#[test]
fn gauge_concurrent_adds_never_lose_an_update() {
    let e = uba_loom::model(|| {
        let g = Arc::new(Gauge::new());
        let g2 = Arc::clone(&g);
        let peer = uba_loom::thread::spawn(move || g2.add(2.0));
        g.add(1.0);
        peer.join().unwrap();
        assert_eq!(g.get(), 3.0, "a concurrent add was lost");
    });
    eprintln!("uba-loom exploration: {e:?}");
    assert!(e.complete && e.executions > 1, "{e:?}");
}

/// Concurrent `Histogram::record`s: the count never loses a sample and
/// `max` is the true maximum (the `fetch_max` cannot be beaten back by
/// a smaller racing sample).
#[test]
fn histogram_concurrent_records_keep_count_and_max() {
    let e = uba_loom::model(|| {
        let h = Arc::new(Histogram::with_base(1.0));
        let h2 = Arc::clone(&h);
        let peer = uba_loom::thread::spawn(move || h2.record(64.0));
        h.record(3.0);
        peer.join().unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 64.0);
        assert_eq!(h.mean(), Some(33.5));
    });
    eprintln!("uba-loom exploration: {e:?}");
    assert!(e.complete && e.executions > 1, "{e:?}");
}

//! The per-thread hold on the global flight recorder: events emitted
//! under `trace::hold` reach the ring when released, in their order, or
//! never. The global tracer is one per process, so this binary holds
//! this one test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use uba_obs::trace::{self, global};
use uba_obs::{Event, EventKind};

fn emit(flow: u64) {
    global().emit(EventKind::SearchProbe, 0, flow, u32::MAX, 0.5, 1.0);
}

fn flows_of(events: &[Event]) -> Vec<u64> {
    events.iter().map(|e| e.flow).collect()
}

/// Drains the ring: the flow ids in it, oldest first.
fn drained() -> Vec<u64> {
    flows_of(&global().drain().events)
}

#[test]
fn held_events_are_released_in_order_or_dropped_entirely() {
    global().set_enabled(true);
    global().drain();

    emit(1);
    let ((), held) = trace::hold(|| {
        emit(2);
        emit(3);
    });
    emit(4);
    assert_eq!(drained(), [1, 4], "held events stay out of the ring");
    assert_eq!(flows_of(&held), [2, 3]);
    trace::release(held);
    emit(5);
    assert_eq!(drained(), [2, 3, 5], "released as if emitted then");

    let (n, dropped) = trace::hold(|| {
        (10..20).for_each(emit);
        7
    });
    assert_eq!((n, dropped.len()), (7, 10));
    drop(dropped);
    emit(6);
    assert_eq!(drained(), [6], "dropped events never reach the ring");

    // A hold inside a hold hands its events to its caller; released
    // there, they join the outer hold after what it already has.
    let ((), outer) = trace::hold(|| {
        emit(7);
        let ((), inner) = trace::hold(|| emit(8));
        emit(9);
        trace::release(inner);
    });
    assert_eq!(flows_of(&outer), [7, 9, 8]);
    assert!(drained().is_empty());

    // Held on one thread, released whole and in order by another.
    let held = std::thread::spawn(|| trace::hold(|| (30..40).for_each(emit)).1)
        .join()
        .unwrap();
    assert!(drained().is_empty(), "the exiting thread published nothing");
    trace::release(held);
    assert_eq!(drained(), (30..40).collect::<Vec<_>>());

    // A hold that unwinds leaves the thread emitting into the ring again.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        trace::hold(|| {
            emit(50);
            panic!("unwinds out of the hold");
        })
    }));
    assert!(unwound.is_err());
    emit(51);
    assert_eq!(drained(), [51]);
    global().set_enabled(false);
}

//! What `uba-obs` reads out, pinned: registry renderings, interval
//! deltas and drained flight-recorder streams.
//!
//! `TABLE` holds FNV-1a digests, one per named case:
//!
//! * `registry/*` — `render_table`, `render_json_lines` and
//!   `render_prometheus` of one `Registry::snapshot()`. The registry holds
//!   counters, gauges (finite, infinite, NaN) and histograms at bases
//!   1e-15, 1e-6, 1.0 and 2.0 with samples on slot boundaries, between
//!   them, clamped to zero and in the top slot, plus one empty histogram.
//! * `delta/<window>/*` — the same three renderings of `delta_since` with
//!   hand-set stamps: a normal window, a zero-width one, a window in which
//!   a counter and a histogram were registered, an `earlier` whose entries
//!   were reversed by hand, and a name-sorted hand-built `earlier` with
//!   names the later snapshot lacks and a kind that does not match.
//! * `trace/*` — every drained event without its timestamp (kind, class,
//!   flow, server, payload bits) and the drop count: one thread below
//!   capacity, `Tracer::with_capacity(4)` overflowed by single events,
//!   the global tracer across a `flush`, the global tracer overflowed by
//!   its own thread-batch publishes, and two threads whose batches
//!   interleave — digested per thread, since which batch a drain puts
//!   first follows the clock, and asserted non-decreasing in `t_ns` with
//!   each thread's own order kept.
//!
//! The global tracer is process-wide, so this binary holds one `#[test]`.
//! The table is not edited: a mismatch prints the computed table, and a
//! change that moves it has changed what a reader of the registry or of
//! the flight recorder sees.

use std::sync::mpsc;
use uba_obs::histogram::{slot_lower_bound, slot_upper_bound};
use uba_obs::trace::{self, Drained, Event, DEFAULT_CAPACITY, PUBLISH_EVERY};
use uba_obs::{EventKind, Histogram, Registry, Snapshot, SnapshotValue, Tracer};

/// Captured on 169f84e, before the ring published and drained by slice
/// and before a snapshot read each histogram once.
#[rustfmt::skip]
const TABLE: [(&str, u64); 28] = [
    ("registry/table", 0xc703acae754238b2),
    ("registry/json", 0xee4cf0aa93c30d20),
    ("registry/prometheus", 0x46c36e57b9390193),
    ("delta/normal/table", 0x444d17737ffd8f80),
    ("delta/normal/json", 0x828920e7b8224f17),
    ("delta/normal/prometheus", 0x25ba89501a2c1492),
    ("delta/zero_width/table", 0xc0ac371e7e49f184),
    ("delta/zero_width/json", 0x727e1ea7c0e7fea9),
    ("delta/zero_width/prometheus", 0x1b51075f40e86192),
    ("delta/registered_mid_window/table", 0x0006da608748544f),
    ("delta/registered_mid_window/json", 0xdac7a6b9acc803a7),
    ("delta/registered_mid_window/prometheus", 0x3646e132bf4903d9),
    ("delta/unsorted_earlier/table", 0x424e0b36cb2ac693),
    ("delta/unsorted_earlier/json", 0x57199a6f038993af),
    ("delta/unsorted_earlier/prometheus", 0x6886a429e23a02be),
    ("delta/sorted_hand_built/table", 0x77d6233c53b22982),
    ("delta/sorted_hand_built/json", 0x509e7104d6e04542),
    ("delta/sorted_hand_built/prometheus", 0xd41939188e1a3dc6),
    ("delta/unsorted_hand_built/table", 0x77d6233c53b22982),
    ("delta/unsorted_hand_built/json", 0x509e7104d6e04542),
    ("delta/unsorted_hand_built/prometheus", 0xd41939188e1a3dc6),
    ("trace/below_capacity", 0xb988d5f30168364e),
    ("trace/capacity_4_single_events", 0xcaef0cf41717a764),
    ("trace/capacity_4_after_drain", 0xd93db0b102292acf),
    ("trace/global_across_flush", 0xebf8571bcd1e7191),
    ("trace/global_overflowed_by_batches", 0x61cba917509b9840),
    ("trace/two_threads/a", 0x9e048558374c5d5c),
    ("trace/two_threads/b", 0x54c0ada77fc224bb),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

fn digest_events<'a>(events: impl IntoIterator<Item = &'a Event>, dropped: u64) -> u64 {
    let mut h = Fnv::new();
    let mut n = 0u64;
    for e in events {
        h.bytes(e.kind.as_str().as_bytes());
        h.u64(u64::from(e.class));
        h.u64(e.flow);
        h.u64(u64::from(e.server));
        h.u64(e.a.to_bits());
        h.u64(e.b.to_bits());
        n += 1;
    }
    h.u64(n);
    h.u64(dropped);
    h.0
}

fn renderings(out: &mut Vec<(String, u64)>, case: &str, snap: &Snapshot) {
    out.push((format!("{case}/table"), digest_text(&snap.render_table())));
    out.push((
        format!("{case}/json"),
        digest_text(&snap.render_json_lines()),
    ));
    out.push((
        format!("{case}/prometheus"),
        digest_text(&snap.render_prometheus()),
    ));
}

/// Records `n` samples at the lower bound of each listed slot, and one
/// just inside each slot's upper bound.
fn on_boundaries(h: &Histogram, slots: &[usize], n: u64) {
    for &i in slots {
        h.record_n(slot_lower_bound(h.base(), i), n);
        h.record(slot_upper_bound(h.base(), i) * (1.0 - 1e-12));
    }
}

fn populate(r: &Registry) {
    r.counter("admission.admits").add(42);
    r.counter("admission.rejects.link_full").add(7);
    r.counter("zero.counter");
    r.gauge("admission.class0.max_share").set(0.8125);
    r.gauge("load \"quoted\"\tname").set(-3.5);
    r.gauge("util.link-3").set(f64::INFINITY);
    r.gauge("util.nan").set(f64::NAN);

    let femto = r.histogram("delay.solve.residual", 1e-15);
    on_boundaries(&femto, &[0, 1, 7, 8, 9, 40, 63, 64, 200], 3);
    femto.record(2.5e-13);
    femto.record(0.0);

    let micro = r.histogram("delay.solve.seconds", 1e-6);
    on_boundaries(&micro, &[0, 8, 16, 17, 100, 160, 161], 5);
    for i in 1..=400 {
        micro.record(f64::from(i) * 3.7e-6);
    }

    let unit = r.histogram("admission.path_hops", 1.0);
    on_boundaries(&unit, &[0, 1, 2, 8, 15, 16, 24, 510, 511], 2);
    unit.record(f64::MAX);
    unit.record(1e300);
    unit.record(f64::NAN);
    unit.record(-4.0);
    unit.record_n(5.0, 1_000);

    let two = r.histogram("sim.queue_depth", 2.0);
    on_boundaries(&two, &[3, 9, 33, 34, 300], 1);
    two.record_n(f64::INFINITY, 4);
    for i in 0..64 {
        two.record(f64::from(i));
    }

    r.histogram("empty.histogram", 1.0);
}

fn registry_cases(out: &mut Vec<(String, u64)>) {
    let r = Registry::new();
    populate(&r);
    renderings(out, "registry", &r.snapshot());
}

fn delta_cases(out: &mut Vec<(String, u64)>) {
    let r = Registry::new();
    populate(&r);
    let mut early = r.snapshot();
    early.at = 10.0;

    let admits = r.counter("admission.admits");
    admits.add(1_000);
    r.histogram("admission.path_hops", 1.0).record_n(3.0, 250);
    r.histogram("delay.solve.seconds", 1e-6).record(4.2e-3);
    r.gauge("admission.class0.max_share").set(0.5);
    let mut late = r.snapshot();
    late.at = 12.5;
    renderings(out, "delta/normal", &late.delta_since(&early));

    let mut same = late.clone();
    same.at = early.at;
    renderings(out, "delta/zero_width", &same.delta_since(&early));

    r.counter("born.later").add(9);
    let born = r.histogram("born.later.hist", 1e-6);
    born.record(2e-6);
    born.record(7e-5);
    admits.add(3);
    let mut later = r.snapshot();
    later.at = 14.0;
    renderings(
        out,
        "delta/registered_mid_window",
        &later.delta_since(&late),
    );

    let mut reversed = early.clone();
    reversed.entries.reverse();
    renderings(out, "delta/unsorted_earlier", &later.delta_since(&reversed));

    let mut hand = Snapshot {
        entries: vec![
            ("a.only.earlier".into(), SnapshotValue::Counter(5)),
            ("admission.admits".into(), SnapshotValue::Counter(40)),
            ("admission.path_hops".into(), SnapshotValue::Counter(3)),
            ("admission.zz".into(), SnapshotValue::Gauge(1.0)),
            (
                "delay.solve.seconds".into(),
                SnapshotValue::Histogram {
                    count: 7,
                    p50: None,
                    p90: None,
                    p99: None,
                    max: 0.0,
                    mean: Some(1e-5),
                    base: 1e-6,
                    buckets: vec![(0, 2), (8, 3), (100, 1), (9_999, 1)],
                },
            ),
            ("m.only.earlier".into(), SnapshotValue::Gauge(2.0)),
            ("zero.counter".into(), SnapshotValue::Counter(10)),
        ],
        at: 11.0,
    };
    renderings(out, "delta/sorted_hand_built", &later.delta_since(&hand));
    hand.entries.swap(0, 6);
    renderings(out, "delta/unsorted_hand_built", &later.delta_since(&hand));
}

fn emit_n(t: &Tracer, first: u64, n: u64, server: u32) {
    for i in first..first + n {
        let kind = EventKind::ALL[i as usize % EventKind::ALL.len()];
        t.emit(kind, i as usize % 3, i, server, i as f64 * 0.5, -(i as f64));
    }
}

fn drained(out: &mut Vec<(String, u64)>, case: &str, d: &Drained) {
    assert!(
        d.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "{case}: drained out of timestamp order"
    );
    out.push((format!("trace/{case}"), digest_events(&d.events, d.dropped)));
}

fn trace_cases(out: &mut Vec<(String, u64)>) {
    let below = Tracer::with_capacity(64);
    below.set_enabled(true);
    emit_n(&below, 0, 10, 1);
    drained(out, "below_capacity", &below.drain());

    let small = Tracer::with_capacity(4);
    small.set_enabled(true);
    emit_n(&small, 0, 10, 2);
    let d = small.drain();
    assert_eq!((d.events.len(), d.dropped), (4, 6));
    drained(out, "capacity_4_single_events", &d);
    emit_n(&small, 10, 3, 2);
    drained(out, "capacity_4_after_drain", &small.drain());

    let g = trace::global();
    g.set_enabled(true);
    assert!(g.drain().events.is_empty(), "nothing else emits here");
    emit_n(g, 0, 5, 3);
    g.flush();
    assert_eq!(g.len(), 5);
    emit_n(g, 5, 3, 3);
    drained(out, "global_across_flush", &g.drain());

    // Whole thread batches and a partial one, past the ring's capacity:
    // publishes overwrite the oldest events across the wrap.
    let n = (DEFAULT_CAPACITY + 5 * PUBLISH_EVERY + 17) as u64;
    emit_n(g, 0, n, 4);
    let d = g.drain();
    assert_eq!(d.events.len(), DEFAULT_CAPACITY);
    assert_eq!(d.dropped, n - DEFAULT_CAPACITY as u64);
    drained(out, "global_overflowed_by_batches", &d);

    // Two threads, batches interleaved: A opens a batch (its timestamp is
    // read at its first event), B then fills and publishes one, and only
    // then does A fill and publish its own — so A's earlier batch lands
    // behind B's in the ring.
    let (to_b, b_go) = mpsc::channel::<()>();
    let (to_a, a_go) = mpsc::channel::<()>();
    let batch = PUBLISH_EVERY as u64;
    let a = std::thread::spawn(move || {
        let g = trace::global();
        emit_n(g, 0, 1, 10);
        to_b.send(()).unwrap();
        a_go.recv().unwrap();
        emit_n(g, 1, batch - 1, 10);
        emit_n(g, batch, 3 * batch + 5, 10);
        to_b.send(()).unwrap();
    });
    let b = std::thread::spawn(move || {
        let g = trace::global();
        b_go.recv().unwrap();
        emit_n(g, 1_000_000, 2 * batch, 11);
        to_a.send(()).unwrap();
        b_go.recv().unwrap();
        emit_n(g, 2_000_000, batch + 9, 11);
    });
    a.join().unwrap();
    b.join().unwrap();
    let d = g.drain();
    g.set_enabled(false);
    assert_eq!(d.dropped, 0);
    assert_eq!(d.events.len(), (7 * batch + 14) as usize);
    assert!(d.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    let first_a = d.events.iter().position(|e| e.server == 10).unwrap();
    let first_b = d.events.iter().position(|e| e.server == 11).unwrap();
    assert!(first_a < first_b, "A's first batch was opened before B's");
    for (thread, server) in [("a", 10), ("b", 11)] {
        let own: Vec<&Event> = d.events.iter().filter(|e| e.server == server).collect();
        assert!(
            own.windows(2).all(|w| w[0].flow < w[1].flow),
            "thread {thread}'s own order"
        );
        out.push((
            format!("trace/two_threads/{thread}"),
            digest_events(own, d.dropped),
        ));
    }
}

#[test]
fn readouts_and_drains_are_as_pinned() {
    let mut computed = Vec::new();
    registry_cases(&mut computed);
    delta_cases(&mut computed);
    trace_cases(&mut computed);
    let pinned: Vec<(String, u64)> = TABLE.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if computed != pinned {
        let mut text = String::new();
        for (name, d) in &computed {
            text.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
        }
        panic!("readout digests moved; computed table:\n{text}");
    }
}

//! Integration tests for the observability core: concurrent exactness,
//! histogram quantile edges, and JSON snapshot round-trips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uba_obs::histogram::{quantile_from_counts, slot_lower_bound, BUCKETS};
use uba_obs::json::{self, JsonValue};
use uba_obs::{EventKind, Histogram, Registry, SnapshotValue, Tracer};

#[test]
fn concurrent_counter_and_histogram_sum_exactly() {
    let r = Arc::new(Registry::new());
    let c = r.counter("t.count");
    let h = r.histogram("t.hist", 1.0);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25_000;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = Arc::clone(&c);
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record((t * PER_THREAD + i) as f64 % 37.0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(c.get(), (THREADS * PER_THREAD) as u64);
    assert_eq!(h.count(), (THREADS * PER_THREAD) as u64);
    // All samples below 37, so every quantile is bounded by the slot
    // containing 36 (major [32, 64), sub-bucket [36, 40) -> bound 40).
    assert_eq!(h.quantile(1.0), Some(40.0));
    assert_eq!(h.max(), 36.0);
}

#[test]
fn histogram_quantile_edges() {
    let r = Registry::new();
    // Empty.
    let empty = r.histogram("edges.empty", 1.0);
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.count(), 0);
    // Single sample.
    let one = r.histogram("edges.one", 1e-9);
    one.record(1e-3);
    assert_eq!(one.count(), 1);
    assert_eq!(one.quantile(0.001), one.quantile(1.0));
    assert_eq!(one.max(), 1e-3);
    // Overflow bucket: astronomically large sample clamps, never
    // panics, and quantiles stay finite.
    let big = r.histogram("edges.big", 1e-9);
    big.record(1e300);
    assert_eq!(big.count(), 1);
    assert!(big.quantile(1.0).unwrap().is_finite());
    assert_eq!(big.max(), 1e300);
}

#[test]
fn json_snapshot_round_trips() {
    let r = Registry::new();
    r.counter("rt.admits").add(42);
    r.gauge("rt.load \"q\"").set(0.125);
    let h = r.histogram("rt.lat", 1e-9);
    for i in 1..=100 {
        h.record(i as f64 * 1e-6);
    }
    let snap = r.snapshot();
    let rendered = snap.render_json_lines();

    // Parse every line back and index by name.
    let mut parsed = std::collections::BTreeMap::new();
    for line in rendered.lines() {
        let v = json::parse(line).expect("snapshot line must be valid JSON");
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        parsed.insert(name, v);
    }
    assert_eq!(parsed.len(), snap.entries.len());

    // Counter round-trip.
    let c = &parsed["rt.admits"];
    assert_eq!(c.get("type").and_then(JsonValue::as_str), Some("counter"));
    assert_eq!(c.get("value").and_then(JsonValue::as_number), Some(42.0));

    // Gauge round-trip, including the escaped quote in the name.
    let g = &parsed["rt.load \"q\""];
    assert_eq!(g.get("value").and_then(JsonValue::as_number), Some(0.125));

    // Histogram round-trip: digest fields match the live snapshot.
    let jh = &parsed["rt.lat"];
    match snap.get("rt.lat").unwrap() {
        SnapshotValue::Histogram {
            count,
            p50,
            p99,
            max,
            mean,
            ..
        } => {
            assert_eq!(
                jh.get("count").and_then(JsonValue::as_number),
                Some(*count as f64)
            );
            assert_eq!(jh.get("p50").and_then(JsonValue::as_number), *p50);
            assert_eq!(jh.get("p99").and_then(JsonValue::as_number), *p99);
            assert_eq!(jh.get("max").and_then(JsonValue::as_number), Some(*max));
            assert_eq!(jh.get("mean").and_then(JsonValue::as_number), *mean);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Empty histograms serialize quantiles as null and still parse.
    let r2 = Registry::new();
    r2.histogram("rt.empty", 1.0);
    let line = r2.snapshot().render_json_lines();
    let v = json::parse(line.trim()).unwrap();
    assert_eq!(v.get("p50"), Some(&JsonValue::Null));
    assert_eq!(v.get("count").and_then(JsonValue::as_number), Some(0.0));
}

/// The JSON line of a registry that holds one histogram, parsed.
fn histogram_line(r: &Registry) -> JsonValue {
    json::parse(r.snapshot().render_json_lines().trim()).unwrap()
}

fn buckets(v: &JsonValue) -> &[JsonValue] {
    match v.get("buckets") {
        Some(JsonValue::Array(a)) => a,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn histogram_bucket_json_round_trips() {
    // Empty histogram: well-formed JSON, zero count, empty bucket list.
    let r = Registry::new();
    r.histogram("h", 1e-9);
    let v = histogram_line(&r);
    assert_eq!(v.get("count").and_then(JsonValue::as_number), Some(0.0));
    assert!(buckets(&v).is_empty());

    // Single sample: exactly one sparse bucket entry.
    let r = Registry::new();
    r.histogram("h", 1e-9).record(2.5e-6);
    let v = histogram_line(&r);
    assert_eq!(v.get("count").and_then(JsonValue::as_number), Some(1.0));
    assert_eq!(buckets(&v).len(), 1);

    // Full round trip: emit JSON, parse it back, replay each (bucket,
    // count) pair at the bucket's lower bound into a fresh histogram,
    // and require identical bucket counts (hence identical quantiles).
    let r = Registry::new();
    let src = r.histogram("h", 1e-9);
    for i in 1..=500 {
        src.record(i as f64 * 7.3e-7);
    }
    src.record(0.0); // bucket 0, whose lower bound is 0.0
    let parsed = histogram_line(&r);
    let base = parsed.get("base").and_then(JsonValue::as_number).unwrap();
    let rebuilt = Histogram::with_base(base);
    for pair in buckets(&parsed) {
        let pair = match pair {
            JsonValue::Array(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        let i = pair[0].as_number().unwrap() as usize;
        let n = pair[1].as_number().unwrap() as u64;
        rebuilt.record_n(slot_lower_bound(base, i), n);
    }
    assert_eq!(rebuilt.bucket_counts(), src.bucket_counts());
    assert_eq!(rebuilt.count(), src.count());
    assert_eq!(rebuilt.quantile(0.5), src.quantile(0.5));
    assert_eq!(rebuilt.quantile(0.99), src.quantile(0.99));
}

#[test]
fn prometheus_histogram_buckets_are_cumulative_and_ordered() {
    let r = Registry::new();
    let h = r.histogram("lat.admit", 1.0);
    // Three distinct slots: 0.5 (major 0), 5.0 ([5, 5.5)), 5.0 again,
    // and 100.0 — cumulative counts must be non-decreasing.
    h.record(0.5);
    h.record(5.0);
    h.record(5.0);
    h.record(100.0);
    let text = r.snapshot().render_prometheus();
    assert!(text.contains("# TYPE lat_admit histogram"), "{text}");

    // Collect the bucket series in emission order.
    let mut les: Vec<f64> = Vec::new();
    let mut cums: Vec<u64> = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("lat_admit_bucket{")) {
        let le = line
            .split("le=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap();
        let cum: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        les.push(if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().unwrap()
        });
        cums.push(cum);
    }
    // One series per non-empty slot plus +Inf.
    assert_eq!(les.len(), 4, "{text}");
    assert_eq!(les[3], f64::INFINITY);
    assert!(
        les.windows(2).all(|w| w[0] < w[1]),
        "le must ascend: {les:?}"
    );
    assert!(
        cums.windows(2).all(|w| w[0] <= w[1]),
        "must be cumulative: {cums:?}"
    );
    // The +Inf bucket equals _count, and the middle slot holds both 5.0
    // samples (cumulative 3 = 1 below + 2 here).
    assert_eq!(cums[3], 4);
    assert_eq!(cums, vec![1, 3, 4, 4]);
    assert!(text.contains("lat_admit_count 4"), "{text}");
}

/// A snapshot reads a histogram once, so one taken while another thread
/// records describes a single reading: the count is the sum of the
/// slots, each quantile is the one those slots give, and the Prometheus
/// series cumulates to its `_count`.
#[test]
fn snapshots_of_a_histogram_being_recorded_are_self_consistent() {
    let r = Registry::new();
    let h = r.histogram("torn.lat", 1e-9);
    let stop = Arc::new(AtomicBool::new(false));
    let recorder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                h.record((i % 997) as f64 * 1.3e-7);
                i += 1;
            }
        })
    };
    for _ in 0..2_000 {
        let snap = r.snapshot();
        let Some(SnapshotValue::Histogram {
            count,
            p50,
            p90,
            p99,
            base,
            buckets,
            ..
        }) = snap.get("torn.lat")
        else {
            panic!("torn.lat is a histogram");
        };
        let mut counts = [0u64; BUCKETS];
        for &(slot, c) in buckets {
            counts[slot as usize] = c;
        }
        assert_eq!(*count, counts.iter().sum::<u64>(), "count ≠ Σ buckets");
        for (q, read) in [(0.5, p50), (0.9, p90), (0.99, p99)] {
            assert_eq!(*read, quantile_from_counts(*base, &counts, q), "p{q}");
        }
        let text = snap.render_prometheus();
        let series: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("torn_lat_bucket{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(series.windows(2).all(|w| w[0] <= w[1]), "{text}");
        let total = format!("torn_lat_count {}", series.last().unwrap());
        assert!(text.lines().any(|l| l == total), "+Inf ≠ _count: {text}");
    }
    stop.store(true, Ordering::Relaxed);
    recorder.join().unwrap();
}

#[test]
fn prometheus_names_are_sanitized() {
    let r = Registry::new();
    r.histogram("9weird.name-with spaces\"", 1.0).record(2.0);
    r.counter("admission.admits.per_sec\n").inc();
    let text = r.snapshot().render_prometheus();
    // Leading digit gets a prefix; every non-[a-zA-Z0-9_:] byte becomes
    // an underscore, so labels and newlines cannot break the exposition.
    assert!(
        text.contains("# TYPE _9weird_name_with_spaces_ histogram"),
        "{text}"
    );
    assert!(
        text.contains("_9weird_name_with_spaces__bucket{le=\""),
        "{text}"
    );
    assert!(text.contains("admission_admits_per_sec_ 1"), "{text}");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty() && !value.is_empty(), "{line}");
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "{line}"
        );
    }
}

#[test]
fn snapshot_delta_renders_in_every_format() {
    let r = Registry::new();
    let c = r.counter("win.ops");
    let h = r.histogram("win.lat", 1.0);
    c.add(3);
    h.record(4.0);
    let mut early = r.snapshot();
    early.at = 0.0;
    c.add(17);
    h.record(4.0);
    let mut late = r.snapshot();
    late.at = 4.0;
    let d = late.delta_since(&early);
    // The same render_with path serves the derived snapshot: rates and
    // window metadata show up in all three formats.
    let json = d.render_json_lines();
    for line in json.lines() {
        json::parse(line).expect("delta line must be valid JSON");
    }
    assert!(json.contains("\"name\":\"win.ops.per_sec\""), "{json}");
    assert!(json.contains("\"name\":\"snapshot.window_secs\""), "{json}");
    let table = d.render_table();
    assert!(table.contains("win.ops.per_sec"), "{table}");
    let prom = d.render_prometheus();
    assert!(prom.contains("win_ops_per_sec 4.25"), "{prom}");
    match d.get("win.lat").unwrap() {
        SnapshotValue::Histogram { count, .. } => assert_eq!(*count, 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn tracer_drain_preserves_cross_thread_timeline() {
    let t = Arc::new(Tracer::with_capacity(1024));
    t.set_enabled(true);
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    t.emit(EventKind::Admit, 0, w * 100 + i, w as u32, 1.0, 2.0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let d = t.drain();
    assert_eq!(d.events.len(), 200);
    assert_eq!(d.dropped, 0);
    assert!(d.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    // JSON-lines rendering: every event line parses, trailer reports the
    // exact totals.
    let text = d.to_json_lines();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 201);
    for line in &lines {
        json::parse(line).expect("trace line must be valid JSON");
    }
    let meta = json::parse(lines[200]).unwrap();
    assert_eq!(
        meta.get("events").and_then(JsonValue::as_number),
        Some(200.0)
    );
}

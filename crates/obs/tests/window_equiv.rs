//! The sparse readouts against the dense ones they replaced.
//!
//! `dense` below is a test-only copy of the readout code as it was when
//! every histogram readout walked all `BUCKETS` slots: a registry digest
//! built from `Histogram::bucket_counts`, `delta_since` over dense slot
//! arrays (one cursor walking `earlier`), an SLO signal read out of the
//! full `delta_since` window with a linear `get`, and a Prometheus
//! renderer that formats each name and number into its own `String`.
//! Over random registries and hand-built snapshots, the shipped code must
//! read the same bits:
//!
//! * a registry snapshot's histogram digests equal the dense digests of
//!   the same histograms (records, `record_n`s and merged tallies);
//! * `delta_since` is equal entry for entry and bit for bit;
//! * every name of the dense window, derived `.per_sec` names and
//!   `snapshot.window_secs` included, reads the same through
//!   `Snapshot::window`, and so does every `SloSignal` over those names;
//! * `render_prometheus` is byte-identical.
//!
//! The inputs cover several bases; empty histograms and samples on slot
//! boundaries, clamped to zero and in the top slot; counters that fall
//! between snapshots; series missing from `earlier` or of another kind
//! there; hand-built snapshots in any order, with slot lists unsorted,
//! repeated or out of range; zero-width and negative windows; names that
//! need sanitizing or that collide with a derived name; and NaN, ±Inf and
//! −0.0 gauges.

use uba_obs::histogram::{slot_lower_bound, BUCKETS};
use uba_obs::{check, Registry, SloSignal, Snapshot, SnapshotValue, SplitMix64, Tally};

mod dense {
    use std::fmt::Write as _;
    use uba_obs::histogram::{quantile_from_counts, slot_upper_bound, BUCKETS};
    use uba_obs::{SloSignal, Snapshot, SnapshotValue};

    pub fn digest(
        base: f64,
        counts: &[u64; BUCKETS],
        count: u64,
        max: f64,
        mean: Option<f64>,
    ) -> SnapshotValue {
        let q = |q| quantile_from_counts(base, counts, q);
        SnapshotValue::Histogram {
            count,
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
            max,
            mean,
            base,
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }

    fn dense(buckets: &[(u32, u64)]) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for &(i, c) in buckets {
            if let Some(slot) = out.get_mut(i as usize) {
                *slot = c;
            }
        }
        out
    }

    pub fn get<'a>(s: &'a Snapshot, name: &str) -> Option<&'a SnapshotValue> {
        s.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn is_sorted(s: &Snapshot) -> bool {
        s.entries.is_sorted_by(|(a, _), (b, _)| a <= b)
    }

    pub fn delta_since(later: &Snapshot, earlier: &Snapshot) -> Snapshot {
        let window = (later.at - earlier.at).max(0.0);
        let rate = |d: f64| if window > 0.0 { d / window } else { 0.0 };
        let mut entries: Vec<(String, SnapshotValue)> = Vec::new();
        let merge = is_sorted(later) && is_sorted(earlier);
        let mut cursor = 0;
        for (name, value) in &later.entries {
            let before = if merge {
                let rest = &earlier.entries[cursor..];
                cursor += rest.partition_point(|(n, _)| n < name);
                match earlier.entries.get(cursor) {
                    Some((n, v)) if n == name => Some(v),
                    _ => None,
                }
            } else {
                get(earlier, name)
            };
            match value {
                SnapshotValue::Counter(v) => {
                    let v0 = match before {
                        Some(SnapshotValue::Counter(v0)) => *v0,
                        _ => 0,
                    };
                    let d = v.saturating_sub(v0);
                    entries.push((name.clone(), SnapshotValue::Counter(d)));
                    entries.push((
                        format!("{name}.per_sec"),
                        SnapshotValue::Gauge(rate(d as f64)),
                    ));
                }
                SnapshotValue::Gauge(v) => {
                    entries.push((name.clone(), SnapshotValue::Gauge(*v)));
                }
                SnapshotValue::Histogram {
                    count,
                    max,
                    mean,
                    base,
                    buckets,
                    ..
                } => {
                    let mut diff = dense(buckets);
                    let (count0, mean0) = match before {
                        Some(SnapshotValue::Histogram {
                            count,
                            mean,
                            buckets,
                            ..
                        }) => {
                            for &(i, c) in buckets {
                                if let Some(slot) = diff.get_mut(i as usize) {
                                    *slot = slot.saturating_sub(c);
                                }
                            }
                            (*count, *mean)
                        }
                        _ => (0, None),
                    };
                    let dcount = count.saturating_sub(count0);
                    let dsum =
                        mean.unwrap_or(0.0) * *count as f64 - mean0.unwrap_or(0.0) * count0 as f64;
                    let dmean = if dcount > 0 {
                        Some(dsum / dcount as f64)
                    } else {
                        None
                    };
                    entries.push((name.clone(), digest(*base, &diff, dcount, *max, dmean)));
                    entries.push((
                        format!("{name}.per_sec"),
                        SnapshotValue::Gauge(rate(dcount as f64)),
                    ));
                }
            }
        }
        entries.push((
            "snapshot.window_secs".to_string(),
            SnapshotValue::Gauge(window),
        ));
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot {
            entries,
            at: later.at,
        }
    }

    pub fn read(signal: &SloSignal, window: &Snapshot) -> Option<f64> {
        let counter = |name: &str| match get(window, name) {
            Some(SnapshotValue::Counter(v)) => Some(*v),
            _ => None,
        };
        match signal {
            SloSignal::Ratio {
                numerator,
                denominator,
            } => {
                let den = counter(denominator)?;
                if den == 0 {
                    return None;
                }
                Some(counter(numerator)? as f64 / den as f64)
            }
            SloSignal::Rate { counter: name } => {
                let secs = match get(window, "snapshot.window_secs") {
                    Some(SnapshotValue::Gauge(w)) if *w > 0.0 => *w,
                    _ => return None,
                };
                Some(counter(name)? as f64 / secs)
            }
            SloSignal::GaugeValue { gauge } => match get(window, gauge) {
                Some(SnapshotValue::Gauge(v)) => Some(*v),
                _ => None,
            },
            SloSignal::Quantile { histogram, q } => match get(window, histogram) {
                Some(SnapshotValue::Histogram {
                    count,
                    base,
                    buckets,
                    ..
                }) if *count > 0 => quantile_from_counts(*base, &dense(buckets), *q),
                _ => None,
            },
        }
    }

    fn prom_name(name: &str) -> String {
        let mut out = String::with_capacity(name.len() + 1);
        for (i, c) in name.chars().enumerate() {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                if i == 0 && c.is_ascii_digit() {
                    out.push('_');
                }
                out.push(c);
            } else {
                out.push('_');
            }
        }
        if out.is_empty() {
            out.push('_');
        }
        out
    }

    fn prom_num(v: f64) -> String {
        if v.is_nan() {
            "NaN".into()
        } else if v == f64::INFINITY {
            "+Inf".into()
        } else if v == f64::NEG_INFINITY {
            "-Inf".into()
        } else {
            format!("{v:?}")
        }
    }

    pub fn render_prometheus(s: &Snapshot) -> String {
        let mut out = String::new();
        for (name, value) in &s.entries {
            let name = prom_name(name);
            match value {
                SnapshotValue::Counter(v) => {
                    writeln!(out, "# TYPE {name} counter\n{name} {v}").unwrap();
                }
                SnapshotValue::Gauge(v) => {
                    writeln!(out, "# TYPE {name} gauge\n{name} {}", prom_num(*v)).unwrap();
                }
                SnapshotValue::Histogram {
                    count,
                    mean,
                    base,
                    buckets,
                    ..
                } => {
                    writeln!(out, "# TYPE {name} histogram").unwrap();
                    let mut cum = 0u64;
                    for &(slot, c) in buckets {
                        cum += c;
                        let le = prom_num(slot_upper_bound(*base, slot as usize));
                        writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}").unwrap();
                    }
                    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}").unwrap();
                    let sum = mean.map_or(0.0, |m| m * *count as f64);
                    writeln!(out, "{name}_sum {}\n{name}_count {count}", prom_num(sum)).unwrap();
                }
            }
        }
        out
    }
}

/// A value's bits, so NaN, −0.0 and `None` compare exactly.
fn bits(v: &SnapshotValue) -> Vec<u64> {
    let opt = |o: &Option<f64>| o.map_or([0, 0], |x| [1, x.to_bits()]);
    match v {
        SnapshotValue::Counter(c) => vec![0, *c],
        SnapshotValue::Gauge(g) => vec![1, g.to_bits()],
        SnapshotValue::Histogram {
            count,
            p50,
            p90,
            p99,
            max,
            mean,
            base,
            buckets,
        } => {
            let mut out = vec![2, *count, max.to_bits(), base.to_bits()];
            for o in [p50, p90, p99, mean] {
                out.extend(opt(o));
            }
            out.extend(buckets.iter().flat_map(|&(s, c)| [u64::from(s), c]));
            out
        }
    }
}

fn same_entries(a: &Snapshot, b: &Snapshot) -> Result<(), String> {
    let names = |s: &Snapshot| s.entries.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(a) != names(b) || a.at.to_bits() != b.at.to_bits() {
        return Err(format!("names or stamp differ: {a:?} vs {b:?}"));
    }
    for ((name, x), (_, y)) in a.entries.iter().zip(&b.entries) {
        if bits(x) != bits(y) {
            return Err(format!("{name}: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

const BASES: [f64; 5] = [1e-15, 1e-9, 1e-6, 1.0, 2.0];

/// Names to draw from: plain, needing sanitizing, and colliding with
/// what a window derives.
const NAMES: [&str; 16] = [
    "admission.admits",
    "admission.admit_ns",
    "admission.rejects.link_full",
    "admission.class0.max_share",
    "sim.packets",
    "sim.deadline_misses",
    "lat",
    "lat.per_sec",
    "ops",
    "ops.per_sec",
    "snapshot.window_secs",
    "9leading.digit",
    "util.link-3",
    "load \"quoted\"\tname",
    "é.unicode",
    "zz.last",
];

fn gauge_value(rng: &mut SplitMix64) -> f64 {
    match rng.index(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        _ => rng.range_f64(-1e6, 1e6),
    }
}

/// A sample for a histogram at `base`: on a slot boundary, inside a
/// slot, clamped to zero, or in the top slot.
fn sample(rng: &mut SplitMix64, base: f64) -> f64 {
    match rng.index(10) {
        0 => slot_lower_bound(base, rng.index(BUCKETS)),
        1 => [0.0, -3.0, f64::NAN, f64::INFINITY][rng.index(4)],
        2 => [f64::MAX, 1e300, base * 2f64.powi(63)][rng.index(3)],
        3 => slot_lower_bound(base, rng.index(BUCKETS - 1) + 1).next_down(),
        _ => base * 2f64.powf(rng.range_f64(-4.0, 40.0)),
    }
}

/// Records a random batch into the registry's series: counters add,
/// gauges move, histograms take records, `record_n`s and merged tallies.
fn churn(r: &Registry, kinds: &[(&str, usize, f64)], rng: &mut SplitMix64) {
    for &(name, kind, base) in kinds {
        if rng.index(4) == 0 {
            continue;
        }
        match kind {
            0 => r.counter(name).add(rng.next_u64() % 1_000),
            1 => r.gauge(name).set(gauge_value(rng)),
            _ => {
                let h = r.histogram(name, base);
                for _ in 0..rng.index(40) {
                    match rng.index(3) {
                        0 => h.record(sample(rng, base)),
                        1 => h.record_n(sample(rng, base), rng.next_u64() % 50),
                        _ => {
                            let mut t = Tally::with_base(base);
                            for _ in 0..rng.index(20) {
                                t.record(sample(rng, base));
                            }
                            h.merge(&t);
                        }
                    }
                }
            }
        }
    }
}

/// Up to `NAMES.len()` series of random kinds and bases, registered as
/// the run goes, so a later snapshot may hold series `earlier` lacks.
fn kinds(rng: &mut SplitMix64) -> Vec<(&'static str, usize, f64)> {
    let mut out = Vec::new();
    for &name in &NAMES {
        if rng.index(4) != 0 {
            out.push((name, rng.index(3), BASES[rng.index(BASES.len())]));
        }
    }
    out
}

/// A hand-built perturbation of a registry snapshot: entries dropped,
/// a counter lowered below its earlier value, a kind swapped, slot
/// lists unsorted, repeated or out of range, the order shuffled.
fn hand_built(s: &Snapshot, rng: &mut SplitMix64) -> Snapshot {
    let mut out = s.clone();
    out.entries.retain(|_| rng.index(6) != 0);
    for (_, v) in &mut out.entries {
        match (rng.index(6), &mut *v) {
            (0, SnapshotValue::Counter(c)) => *c = rng.next_u64() % 200,
            (1, SnapshotValue::Counter(c)) => *v = SnapshotValue::Gauge(*c as f64),
            (2, SnapshotValue::Gauge(_)) => *v = SnapshotValue::Counter(rng.next_u64() % 100),
            (3, SnapshotValue::Histogram { buckets, count, .. }) => {
                if !buckets.is_empty() {
                    let dup = buckets[rng.index(buckets.len())];
                    buckets.push((dup.0, rng.next_u64() % 7));
                }
                buckets.push((BUCKETS as u32 + rng.index(100) as u32, 3));
                buckets.push((rng.index(BUCKETS) as u32, rng.next_u64() % 9));
                *count = count.saturating_add(rng.next_u64() % 5);
            }
            (4, SnapshotValue::Histogram { buckets, .. }) => buckets.reverse(),
            _ => {}
        }
    }
    if rng.index(2) == 0 {
        for i in (1..out.entries.len()).rev() {
            out.entries.swap(i, rng.index(i + 1));
        }
    }
    out
}

fn stamp(s: &mut Snapshot, rng: &mut SplitMix64, earlier_at: f64) {
    s.at = match rng.index(5) {
        0 => earlier_at,
        1 => earlier_at - rng.range_f64(0.0, 2.0),
        _ => earlier_at + rng.range_f64(0.0, 5.0),
    };
}

/// Every signal the window's names give, as a rule could name them.
fn signals(names: &[String]) -> Vec<SloSignal> {
    let mut out = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let other = &names[(i * 7 + 3) % names.len()];
        out.push(SloSignal::Ratio {
            numerator: n.clone(),
            denominator: other.clone(),
        });
        out.push(SloSignal::Ratio {
            numerator: other.clone(),
            denominator: n.clone(),
        });
        out.push(SloSignal::Rate { counter: n.clone() });
        out.push(SloSignal::GaugeValue { gauge: n.clone() });
        for q in [1e-9, 0.5, 0.9, 0.99, 1.0] {
            out.push(SloSignal::Quantile {
                histogram: n.clone(),
                q,
            });
        }
    }
    out
}

/// The window of `later` over `earlier`, read three ways: in full, one
/// name at a time, and through every signal.
fn windows_agree(later: &Snapshot, earlier: &Snapshot) -> Result<(), String> {
    let full = dense::delta_since(later, earlier);
    same_entries(&later.delta_since(earlier), &full)?;
    let window = later.window(earlier);
    let mut names: Vec<String> = full.entries.iter().map(|(n, _)| n.clone()).collect();
    names.extend(["absent".to_string(), "absent.per_sec".to_string()]);
    for name in &names {
        let read = window.get(name);
        let dense = dense::get(&full, name);
        if read.as_ref().map(bits) != dense.map(bits) {
            return Err(format!("window.get({name:?}): {read:?} vs {dense:?}"));
        }
    }
    for signal in signals(&names) {
        let (read, dense) = (signal.read(&window), dense::read(&signal, &full));
        if read.map(f64::to_bits) != dense.map(f64::to_bits) {
            return Err(format!("{signal:?}: {read:?} vs {dense:?}"));
        }
    }
    Ok(())
}

#[test]
fn registry_digests_equal_the_dense_digests() {
    check("registry_digests_equal_the_dense_digests", 200, |rng| {
        let r = Registry::new();
        let series = kinds(rng);
        for _ in 0..3 {
            churn(&r, &series, rng);
        }
        let snap = r.snapshot();
        for &(name, kind, base) in &series {
            if kind != 2 || snap.get(name).is_none() {
                continue;
            }
            let h = r.histogram(name, base);
            let counts = h.bucket_counts();
            let count = counts.iter().sum::<u64>();
            let mean = (count > 0).then(|| h.sum() / count as f64);
            let dense = dense::digest(h.base(), &counts, count, h.max(), mean);
            let read = snap.get(name).unwrap();
            if bits(read) != bits(&dense) {
                return Err(format!("{name}: {read:?} vs {dense:?}"));
            }
            if h.count() != count || h.quantile(0.99) != snap_p99(read) {
                return Err(format!("{name}: live readout differs"));
            }
        }
        let text = snap.render_prometheus();
        if text != dense::render_prometheus(&snap) {
            return Err(format!("prometheus differs:\n{text}"));
        }
        Ok(())
    });
}

fn snap_p99(v: &SnapshotValue) -> Option<f64> {
    match v {
        SnapshotValue::Histogram { p99, .. } => *p99,
        _ => None,
    }
}

#[test]
fn registry_windows_read_as_the_dense_window() {
    check("registry_windows_read_as_the_dense_window", 200, |rng| {
        let r = Registry::new();
        let series = kinds(rng);
        let first = &series[..rng.index(series.len() + 1)];
        churn(&r, first, rng);
        let mut earlier = r.snapshot();
        earlier.at = rng.range_f64(0.0, 100.0);
        churn(&r, &series, rng);
        let mut later = r.snapshot();
        stamp(&mut later, rng, earlier.at);
        windows_agree(&later, &earlier)?;
        let delta = later.delta_since(&earlier);
        if delta.render_prometheus() != dense::render_prometheus(&delta) {
            return Err("the window's prometheus differs".into());
        }
        Ok(())
    });
}

#[test]
fn hand_built_windows_read_as_the_dense_window() {
    check("hand_built_windows_read_as_the_dense_window", 300, |rng| {
        let r = Registry::new();
        let series = kinds(rng);
        churn(&r, &series, rng);
        let base = r.snapshot();
        churn(&r, &series, rng);
        let next = r.snapshot();
        let mut earlier = hand_built(&base, rng);
        earlier.at = rng.range_f64(0.0, 100.0);
        let mut later = if rng.index(2) == 0 {
            hand_built(&next, rng)
        } else {
            next
        };
        stamp(&mut later, rng, earlier.at);
        windows_agree(&later, &earlier)?;
        // Either side against an empty snapshot, and a snapshot against
        // itself.
        windows_agree(&later, &Snapshot::default())?;
        windows_agree(&Snapshot::default(), &earlier)?;
        windows_agree(&earlier, &earlier)
    });
}

#[test]
fn get_reads_the_first_entry_of_a_name_sorted_or_not() {
    check(
        "get_reads_the_first_entry_of_a_name_sorted_or_not",
        200,
        |rng| {
            let r = Registry::new();
            let series = kinds(rng);
            churn(&r, &series, rng);
            let snap = hand_built(&r.snapshot(), rng);
            for name in NAMES.iter().chain(&["absent", ""]) {
                let (read, dense) = (snap.get(name), dense::get(&snap, name));
                if read.map(bits) != dense.map(bits) {
                    return Err(format!("get({name:?}): {read:?} vs {dense:?}"));
                }
            }
            Ok(())
        },
    );
}

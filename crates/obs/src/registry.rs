//! The metrics registry: named metrics plus snapshot rendering.
//!
//! Registration (name lookup) takes a lock; recording does not — callers
//! hold `Arc`s to their metrics and touch only atomics on hot paths.
//! Snapshots render as an aligned human-readable table, line-oriented
//! JSON (one object per metric per line), or the Prometheus text format,
//! all hand-rolled in the workspace's no-external-deps style. Two
//! snapshots taken at different times can be diffed with
//! [`Snapshot::delta_since`] into a windowed view: counter deltas plus
//! `ops/sec` rates, and per-interval histogram digests. A reader that
//! wants a few of those series reads them one at a time through
//! [`Snapshot::window`], which computes each exactly as `delta_since`
//! would without building the rest.

use crate::histogram::{quantiles_of_slots, slot_upper_bound, Histogram, BUCKETS};
use crate::json;
use crate::metrics::{Counter, Gauge};
use crate::stopwatch::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Seconds on the process-monotonic snapshot clock (starts at the first
/// reading). Snapshots are stamped with this so a pair of them defines a
/// rate window without any caller-managed clock. Public so the other
/// crates (which are banned from reading wall clocks directly — xtask
/// rule 5) can timestamp coarse events like arrival-rate updates and
/// serve uptime on the same clock the snapshots use.
pub fn process_secs() -> f64 {
    static CLOCK: OnceLock<Stopwatch> = OnceLock::new();
    CLOCK.get_or_init(Stopwatch::start).elapsed_secs()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' already registered with another kind"),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' already registered with another kind"),
        }
    }

    /// Gets or creates the histogram `name` with the given bucket base
    /// (ignored when the histogram already exists).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, base: f64) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::with_base(base))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' already registered with another kind"),
        }
    }

    /// A point-in-time reading of every registered metric, sorted by
    /// name and stamped with the process-monotonic clock. Each histogram
    /// is read once, from its occupied slots: its count, quantiles and
    /// sparse slots all come from that one copy of the slot counts, so a
    /// digest is self-consistent even while another thread records.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        let entries = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let slots = h.sparse_counts();
                        let count: u64 = slots.iter().map(|&(_, c)| c).sum();
                        let mean = (count > 0).then(|| h.sum() / count as f64);
                        digest(h.base(), slots, count, h.max(), mean)
                    }
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot {
            entries,
            at: process_secs(),
        }
    }
}

/// The quantiles a histogram digest reports.
const DIGEST_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// A histogram digest of `count` samples over the non-zero slots
/// `buckets` (strictly ascending, inside `0..BUCKETS`): p50/p90/p99 from
/// one cumulative walk, and the slots themselves as the sparse layout.
fn digest(
    base: f64,
    buckets: Vec<(u32, u64)>,
    count: u64,
    max: f64,
    mean: Option<f64>,
) -> SnapshotValue {
    let total = buckets.iter().map(|&(_, c)| c).sum();
    let [p50, p90, p99] = quantiles_of_slots(base, &buckets, total, DIGEST_QUANTILES);
    SnapshotValue::Histogram {
        count,
        p50,
        p90,
        p99,
        max,
        mean,
        base,
        buckets,
    }
}

/// The window's slot counts: each of `later`'s slots less `earlier`'s
/// count there, saturating at zero, zeros dropped. One merge walk over
/// the two sparse lists. A hand-built list that is not strictly
/// ascending is first read as a dense array would read it: `later`'s
/// last count for a slot wins, `earlier`'s counts for a slot all
/// subtract, and slots past the layout are ignored.
fn slot_diff(later: &[(u32, u64)], earlier: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let later = canonical(later, |kept, c| *kept = c);
    let earlier = canonical(earlier, |kept, c| *kept = kept.saturating_add(c));
    let mut rest = earlier.iter().peekable();
    let mut out = Vec::with_capacity(later.len());
    for &(slot, c) in later
        .iter()
        .take_while(|&&(slot, _)| (slot as usize) < BUCKETS)
    {
        while rest.next_if(|&&(e, _)| e < slot).is_some() {}
        let before = rest.next_if(|&&(e, _)| e == slot).map_or(0, |&(_, c0)| c0);
        let d = c.saturating_sub(before);
        if d != 0 {
            out.push((slot, d));
        }
    }
    out
}

/// `buckets` itself when strictly ascending; otherwise one pair per
/// slot, ascending, the counts of a repeated slot folded by `fold`.
fn canonical(
    buckets: &[(u32, u64)],
    fold: impl Fn(&mut u64, u64),
) -> std::borrow::Cow<'_, [(u32, u64)]> {
    if buckets.windows(2).all(|w| w[0].0 < w[1].0) {
        return buckets.into();
    }
    let mut sorted = buckets.to_vec();
    sorted.sort_by_key(|&(slot, _)| slot);
    let mut out: Vec<(u32, u64)> = Vec::with_capacity(sorted.len());
    for (slot, c) in sorted {
        match out.last_mut() {
            Some((s, kept)) if *s == slot => fold(kept, c),
            _ => out.push((slot, c)),
        }
    }
    out.into()
}

/// The process-wide registry the instrumented crates (admission, delay,
/// sim) record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One metric's reading inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram digest.
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Median (slot upper bound), `None` when empty.
        p50: Option<f64>,
        /// 90th percentile (slot upper bound), `None` when empty.
        p90: Option<f64>,
        /// 99th percentile (slot upper bound), `None` when empty.
        p99: Option<f64>,
        /// Largest sample (exact), `0.0` when empty.
        max: f64,
        /// Mean (exact to the micro-unit), `None` when empty.
        mean: Option<f64>,
        /// First major-bucket boundary of the source histogram.
        base: f64,
        /// Sparse `(slot, count)` pairs, ascending by slot. Slot `i`'s
        /// bounds are [`crate::histogram::slot_lower_bound`] and
        /// [`slot_upper_bound`] at `base`.
        buckets: Vec<(u32, u64)>,
    },
}

/// A point-in-time reading of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(String, SnapshotValue)>,
    /// Seconds on the process-monotonic clock when the snapshot was
    /// taken (see [`Snapshot::delta_since`]).
    pub at: f64,
}

/// The derived gauge carrying a window's length.
const WINDOW_SECS: &str = "snapshot.window_secs";

/// The suffix of a counter's or histogram's derived rate gauge.
const PER_SEC: &str = ".per_sec";

/// The window between two snapshots, read one series at a time (see
/// [`Snapshot::window`]). [`Snapshot::delta_since`] is this read mapped
/// over every entry, so the two cannot disagree.
#[derive(Clone, Copy, Debug)]
pub struct Window<'a> {
    later: &'a Snapshot,
    later_sorted: bool,
    earlier: &'a Snapshot,
    earlier_sorted: bool,
    secs: f64,
}

impl Window<'_> {
    /// What `later.delta_since(earlier)` holds under `name`, if anything:
    /// a source series' window value, a derived `<name>.per_sec` rate, or
    /// `snapshot.window_secs`. Should names collide, the first that
    /// `delta_since` would list wins, as its `get` reads it.
    pub fn get(&self, name: &str) -> Option<SnapshotValue> {
        let later = self.later;
        let direct = later.position(self.later_sorted, name);
        // The series whose rate gauge is `name`: a counter or histogram.
        let rated = name
            .strip_suffix(PER_SEC)
            .and_then(|source| later.position(self.later_sorted, source))
            .filter(|&i| !matches!(later.entries[i].1, SnapshotValue::Gauge(_)));
        // `delta_since` lists each series' rate right after the series,
        // so of a direct and a derived entry the earlier source is first.
        match (direct, rated) {
            (Some(d), Some(r)) if r < d => self.rate_of(r),
            (Some(d), _) => {
                let (n, v) = &later.entries[d];
                Some(self.series(n, v).0)
            }
            (None, Some(r)) => self.rate_of(r),
            (None, None) => (name == WINDOW_SECS).then_some(SnapshotValue::Gauge(self.secs)),
        }
    }

    fn rate_of(&self, i: usize) -> Option<SnapshotValue> {
        let (n, v) = &self.later.entries[i];
        self.series(n, v).1.map(SnapshotValue::Gauge)
    }

    /// The one per-series window body: the window value of the later
    /// snapshot's series `name` = `value`, and its rate when it has one.
    ///
    /// * a counter becomes its delta over the window, with a rate;
    /// * a histogram becomes its per-interval digest (quantiles and mean
    ///   over only the window's samples, from the diffed slot counts),
    ///   with a sample rate — `max` stays the lifetime watermark, since a
    ///   high-water mark cannot be diffed;
    /// * a gauge passes through at its current value.
    ///
    /// A series absent from `earlier` (registered mid-window) diffs
    /// against zero.
    fn series(&self, name: &str, value: &SnapshotValue) -> (SnapshotValue, Option<f64>) {
        let before = self
            .earlier
            .position(self.earlier_sorted, name)
            .map(|i| &self.earlier.entries[i].1);
        let rate = |d: f64| if self.secs > 0.0 { d / self.secs } else { 0.0 };
        match value {
            SnapshotValue::Counter(v) => {
                let v0 = match before {
                    Some(SnapshotValue::Counter(v0)) => *v0,
                    _ => 0,
                };
                let d = v.saturating_sub(v0);
                (SnapshotValue::Counter(d), Some(rate(d as f64)))
            }
            SnapshotValue::Gauge(v) => (SnapshotValue::Gauge(*v), None),
            SnapshotValue::Histogram {
                count,
                max,
                mean,
                base,
                buckets,
                ..
            } => {
                let (diff, count0, mean0) = match before {
                    Some(SnapshotValue::Histogram {
                        count,
                        mean,
                        buckets: buckets0,
                        ..
                    }) => (slot_diff(buckets, buckets0), *count, *mean),
                    _ => (slot_diff(buckets, &[]), 0, None),
                };
                let dcount = count.saturating_sub(count0);
                let dsum =
                    mean.unwrap_or(0.0) * *count as f64 - mean0.unwrap_or(0.0) * count0 as f64;
                let dmean = (dcount > 0).then(|| dsum / dcount as f64);
                (
                    digest(*base, diff, dcount, *max, dmean),
                    Some(rate(dcount as f64)),
                )
            }
        }
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map(json::number).unwrap_or_else(|| "null".into())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes a metric name sanitized into the Prometheus charset
/// `[a-zA-Z0-9_:]` (leading digits get a `_` prefix) to `out`, which
/// starts empty.
fn prom_name(out: &mut String, name: &str) {
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
}

/// Writes an `f64` as a Prometheus sample value to `out` (`+Inf`/`-Inf`/
/// `NaN` are part of the text format, unlike JSON).
fn prom_num(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        write!(out, "{v:?}").unwrap();
    }
}

impl Snapshot {
    /// The reading for `name`, if present (the first, should a hand-built
    /// snapshot hold the name twice). A name-sorted snapshot, as every
    /// registry snapshot and window is, is binary-searched; any other
    /// is scanned.
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.position(self.is_sorted(), name)
            .map(|i| &self.entries[i].1)
    }

    /// Where the first entry named `name` is: a binary search when the
    /// caller knows the entries are name-sorted, else a scan.
    fn position(&self, sorted: bool, name: &str) -> Option<usize> {
        if sorted {
            let i = self.entries.partition_point(|(n, _)| n.as_str() < name);
            (self.entries.get(i).is_some_and(|(n, _)| n == name)).then_some(i)
        } else {
            self.entries.iter().position(|(n, _)| n == name)
        }
    }

    fn is_sorted(&self) -> bool {
        self.entries.is_sorted_by(|(a, _), (b, _)| a <= b)
    }

    /// The window between `earlier` and this snapshot, read one series
    /// at a time: [`Window::get`] returns what
    /// [`delta_since`](Self::delta_since) would hold under a name,
    /// computing only that series.
    pub fn window<'a>(&'a self, earlier: &'a Snapshot) -> Window<'a> {
        Window {
            later: self,
            later_sorted: self.is_sorted(),
            earlier,
            earlier_sorted: earlier.is_sorted(),
            // Two snapshots inside one clock tick give a zero-width (or,
            // with hand-pinned stamps, negative) window. A rate over it
            // is meaningless — and clamping the divisor instead would
            // report ~1e10/s garbage for a one-tick delta — so
            // degenerate windows report honest 0.0 rates and a 0.0
            // `snapshot.window_secs`.
            secs: (self.at - earlier.at).max(0.0),
        }
    }

    /// The window between `earlier` and this snapshot, as a derived
    /// snapshot:
    ///
    /// * every counter becomes its delta over the window, plus a
    ///   `<name>.per_sec` gauge with the rate;
    /// * every histogram becomes its per-interval digest (quantiles and
    ///   mean over only the window's samples, computed from diffed slot
    ///   counts), plus a `<name>.per_sec` sample-rate gauge — `max`
    ///   stays the lifetime watermark since a high-water mark cannot be
    ///   diffed;
    /// * gauges pass through at their current value;
    /// * a `snapshot.window_secs` gauge carries the window length.
    ///
    /// Metrics absent from `earlier` (registered mid-window) diff
    /// against zero. The derived names are rendering-only — they are
    /// never registered, so the metric manifest tracks only source
    /// names.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let window = self.window(earlier);
        let mut entries: Vec<(String, SnapshotValue)> =
            Vec::with_capacity(2 * self.entries.len() + 1);
        for (name, value) in &self.entries {
            let (value, rate) = window.series(name, value);
            entries.push((name.clone(), value));
            if let Some(rate) = rate {
                entries.push((format!("{name}.per_sec"), SnapshotValue::Gauge(rate)));
            }
        }
        entries.push((WINDOW_SECS.to_string(), SnapshotValue::Gauge(window.secs)));
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot {
            entries,
            at: self.at,
        }
    }

    /// The one iteration over the registry every rendering shares: walks
    /// the sorted entries and hands each `(name, value)` to `row`. Table,
    /// JSON, and Prometheus output are all thin row formatters over this
    /// walk, so no format can silently curate its own subset of metrics.
    fn render_with(&self, mut row: impl FnMut(&mut String, &str, &SnapshotValue)) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            row(&mut out, name, value);
        }
        out
    }

    /// Renders an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        let mut out = format!("{:<width$}  value\n", "metric");
        out.push_str(&self.render_with(|out, name, value| match value {
            SnapshotValue::Counter(v) => {
                writeln!(out, "{name:<width$}  {v}").unwrap();
            }
            SnapshotValue::Gauge(v) => {
                writeln!(out, "{name:<width$}  {v:.6}").unwrap();
            }
            SnapshotValue::Histogram {
                count,
                p50,
                p90,
                p99,
                max,
                mean,
                ..
            } => {
                let q = |v: &Option<f64>| match v {
                    Some(x) => format!("{x:.3e}"),
                    None => "-".into(),
                };
                writeln!(
                    out,
                    "{name:<width$}  n={count} p50<={} p90<={} p99<={} max={max:.3e} mean={}",
                    q(p50),
                    q(p90),
                    q(p99),
                    q(mean),
                )
                .unwrap();
            }
        }));
        out
    }

    /// Renders line-oriented JSON: one object per metric per line, e.g.
    ///
    /// ```text
    /// {"name":"admission.admits","type":"counter","value":42}
    /// {"name":"delay.solve.iterations","type":"histogram","count":3,...}
    /// ```
    ///
    /// Histogram lines carry the digest plus the sparse slot layout
    /// (`"base"`, `"buckets":[[slot,count],...]`), so an external
    /// consumer can re-bucket or diff without any extra endpoint.
    pub fn render_json_lines(&self) -> String {
        self.render_with(|out, name, value| {
            let name = json_escape(name);
            match value {
                SnapshotValue::Counter(v) => {
                    writeln!(
                        out,
                        "{{\"name\":\"{name}\",\"type\":\"counter\",\"value\":{v}}}"
                    )
                    .unwrap();
                }
                SnapshotValue::Gauge(v) => {
                    writeln!(
                        out,
                        "{{\"name\":\"{name}\",\"type\":\"gauge\",\"value\":{}}}",
                        json::number(*v)
                    )
                    .unwrap();
                }
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
                    write!(
                        out,
                        "{{\"name\":\"{name}\",\"type\":\"histogram\",\"count\":{count},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{},\
                         \"base\":{},\"buckets\":[",
                        json_opt(*p50),
                        json_opt(*p90),
                        json_opt(*p99),
                        json::number(*max),
                        json_opt(*mean),
                        json::number(*base),
                    )
                    .unwrap();
                    for (i, (slot, c)) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write!(out, "[{slot},{c}]").unwrap();
                    }
                    out.push_str("]}\n");
                }
            }
        })
    }

    /// Renders the Prometheus text exposition format (0.0.4). Counters
    /// and gauges map directly; histograms are native Prometheus
    /// histograms — cumulative `_bucket{le="..."}` series over the
    /// non-empty slots' upper bounds (ascending, closed by `+Inf`) plus
    /// `_sum`/`_count` — now that the sub-bucketed layout is fine
    /// enough for server-side quantile math. Metric names are sanitized
    /// into `[a-zA-Z0-9_:]`.
    pub fn render_prometheus(&self) -> String {
        // Each series' sanitized name, written once into one buffer the
        // rows share; its lines then copy it.
        let mut name = String::new();
        self.render_with(|out, raw, value| {
            name.clear();
            prom_name(&mut name, raw);
            let name = name.as_str();
            match value {
                SnapshotValue::Counter(v) => {
                    writeln!(out, "# TYPE {name} counter\n{name} {v}").unwrap();
                }
                SnapshotValue::Gauge(v) => {
                    write!(out, "# TYPE {name} gauge\n{name} ").unwrap();
                    prom_num(out, *v);
                    out.push('\n');
                }
                SnapshotValue::Histogram {
                    count,
                    mean,
                    base,
                    buckets,
                    ..
                } => {
                    writeln!(out, "# TYPE {name} histogram").unwrap();
                    // Sparse slots are already ascending, so cumulation
                    // preserves `le` order.
                    let mut cum = 0u64;
                    for &(slot, c) in buckets {
                        cum += c;
                        write!(out, "{name}_bucket{{le=\"").unwrap();
                        prom_num(out, slot_upper_bound(*base, slot as usize));
                        writeln!(out, "\"}} {cum}").unwrap();
                    }
                    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}").unwrap();
                    write!(out, "{name}_sum ").unwrap();
                    prom_num(out, mean.map_or(0.0, |m| m * *count as f64));
                    writeln!(out, "\n{name}_count {count}").unwrap();
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b.count").add(3);
        r.gauge("a.gauge").set(0.5);
        r.histogram("c.hist", 1.0).record(4.0);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.gauge", "b.count", "c.hist"]);
        assert_eq!(s.get("b.count"), Some(&SnapshotValue::Counter(3)));
        match s.get("c.hist").unwrap() {
            SnapshotValue::Histogram {
                count,
                max,
                base,
                buckets,
                ..
            } => {
                assert_eq!(*count, 1);
                assert_eq!(*max, 4.0);
                assert_eq!(*base, 1.0);
                assert_eq!(buckets.len(), 1);
                assert_eq!(buckets[0].1, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshots_are_clock_stamped() {
        let r = Registry::new();
        let a = r.snapshot();
        let b = r.snapshot();
        assert!(a.at >= 0.0);
        assert!(b.at >= a.at);
    }

    #[test]
    fn delta_since_diffs_counters_and_rates() {
        let r = Registry::new();
        let c = r.counter("ops");
        c.add(10);
        let mut early = r.snapshot();
        early.at = 0.0;
        c.add(40);
        let mut late = r.snapshot();
        late.at = 2.0; // Pin the window so the rate is deterministic.
        let d = late.delta_since(&early);
        assert_eq!(d.get("ops"), Some(&SnapshotValue::Counter(40)));
        assert_eq!(d.get("ops.per_sec"), Some(&SnapshotValue::Gauge(20.0)));
        assert_eq!(
            d.get("snapshot.window_secs"),
            Some(&SnapshotValue::Gauge(2.0))
        );
        // Derived entries stay name-sorted so renderings are stable.
        let names: Vec<&str> = d.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn delta_since_computes_interval_histogram_digest() {
        let r = Registry::new();
        let h = r.histogram("lat", 1.0);
        // Before the window: a slow regime.
        for _ in 0..100 {
            h.record(1000.0);
        }
        let mut early = r.snapshot();
        // Pin both stamps so the rate is deterministic ((x + 1.0) − x
        // is not exactly 1.0 for arbitrary clock readings x).
        early.at = 0.0;
        // Inside the window: a fast regime.
        for _ in 0..100 {
            h.record(2.0);
        }
        let mut late = r.snapshot();
        late.at = 1.0;
        let d = late.delta_since(&early);
        match d.get("lat").unwrap() {
            SnapshotValue::Histogram {
                count,
                p50,
                p99,
                mean,
                ..
            } => {
                // Only the window's 100 fast samples appear: the interval
                // p50/p99 reflect 2.0, not the lifetime 1000.0 mass.
                assert_eq!(*count, 100);
                assert!(p50.unwrap() <= 2.25, "{p50:?}");
                assert!(p99.unwrap() <= 2.25, "{p99:?}");
                assert!((mean.unwrap() - 2.0).abs() < 1e-6, "{mean:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.get("lat.per_sec"), Some(&SnapshotValue::Gauge(100.0)));
        // The lifetime view is unaffected.
        match late.get("lat").unwrap() {
            SnapshotValue::Histogram { count, p99, .. } => {
                assert_eq!(*count, 200);
                assert!(p99.unwrap() >= 1000.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delta_since_zero_width_window_reports_zero_rates() {
        // Two snapshots inside one clock tick (identical stamps) must
        // not divide by zero or report a clamped-divisor garbage rate.
        let r = Registry::new();
        let c = r.counter("ops");
        let h = r.histogram("lat", 1.0);
        c.add(10);
        let mut early = r.snapshot();
        c.add(7);
        h.record(2.0);
        let mut late = r.snapshot();
        late.at = 3.5;
        early.at = 3.5;
        let d = late.delta_since(&early);
        // Deltas still flow; the derived rates are honest zeros.
        assert_eq!(d.get("ops"), Some(&SnapshotValue::Counter(7)));
        assert_eq!(d.get("ops.per_sec"), Some(&SnapshotValue::Gauge(0.0)));
        assert_eq!(d.get("lat.per_sec"), Some(&SnapshotValue::Gauge(0.0)));
        assert_eq!(
            d.get("snapshot.window_secs"),
            Some(&SnapshotValue::Gauge(0.0))
        );
        // A clock that appears to run backwards (hand-pinned stamps)
        // degrades the same way instead of producing negative rates.
        early.at = 4.0;
        let d = late.delta_since(&early);
        assert_eq!(d.get("ops.per_sec"), Some(&SnapshotValue::Gauge(0.0)));
    }

    #[test]
    fn delta_since_handles_metrics_registered_mid_window() {
        let r = Registry::new();
        let early = r.snapshot();
        r.counter("born.later").add(5);
        let mut late = r.snapshot();
        late.at = early.at + 1.0;
        let d = late.delta_since(&early);
        assert_eq!(d.get("born.later"), Some(&SnapshotValue::Counter(5)));
    }

    #[test]
    fn table_contains_names_and_values() {
        let r = Registry::new();
        r.counter("admits").add(7);
        r.histogram("lat", 1e-9).record(1e-3);
        let t = r.snapshot().render_table();
        assert!(t.contains("admits"), "{t}");
        assert!(t.contains('7'), "{t}");
        assert!(t.contains("p99<="), "{t}");
    }

    #[test]
    fn prometheus_format_is_well_formed() {
        let r = Registry::new();
        r.counter("admission.admits").add(42);
        r.gauge("util.link-3").set(f64::INFINITY);
        let h = r.histogram("delay.solve.seconds", 1e-9);
        h.record(1e-3);
        h.record(3e-3);
        let empty = r.histogram("delay.empty", 1.0);
        let _ = empty;
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE admission_admits counter"), "{text}");
        assert!(text.contains("admission_admits 42"), "{text}");
        assert!(text.contains("# TYPE util_link_3 gauge"), "{text}");
        assert!(text.contains("util_link_3 +Inf"), "{text}");
        assert!(
            text.contains("# TYPE delay_solve_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("delay_solve_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("delay_solve_seconds_count 2"), "{text}");
        // Empty histograms emit only the +Inf bucket and sum/count.
        assert!(text.contains("delay_empty_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("delay_empty_count 0"), "{text}");
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty() && !value.is_empty(), "{line}");
        }
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global().counter("registry.test.global");
        global().counter("registry.test.global").add(2);
        assert!(a.get() >= 2);
    }
}

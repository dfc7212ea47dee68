//! In-memory spans for the traced run.
//!
//! A span is recorded from the benchmark's own files, around a call into
//! one layer of the program; spans inside the program are a later issue.
//! The layer of a span is the part of its name before the first `.`
//! (`routing.max_utilization` belongs to `routing`); `harness` is the
//! benchmark itself. One id space per run; every measured round is a
//! root span; probe spans are parentless and run after the measured
//! rounds. While disabled, `enter`/`exit` read no clock.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Replays one layer's public function on the workload's inputs,
    /// outside the measured rounds.
    pub probe: bool,
    /// Measured round index; `-1` for set-up and probe spans.
    pub round: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    round: i32,
    probe: bool,
    open: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            enabled: false,
            epoch,
            round: -1,
            probe: false,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Spans entered from now on belong to measured round `round`
    /// (`-1`: set-up) or, with `probe`, to the probe phase.
    pub fn set_phase(&mut self, round: i32, probe: bool) {
        self.round = round;
        self.probe = probe;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            probe: self.probe,
            round: self.round,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span called `name`.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per line:
    /// `{id, parent, name, layer, probe, round, start_ns, end_ns}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"probe\":{},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.layer(), s.probe, s.round, s.start_ns, s.end_ns
            )
            .unwrap();
        }
        out
    }
}

/// One row of the per-layer table over the measured rounds.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    /// Time inside spans of this layer, counting a span nested in
    /// another span of the same layer once.
    pub inclusive_ns: u64,
    /// Duration minus the part the span's children cover.
    pub self_ns: u64,
    pub count: u64,
    /// `self_ns` as a share of the summed round durations.
    pub share_of_round: f64,
}

/// Per-layer inclusive time, self time, span count and share of round,
/// over the spans of measured rounds (set-up and probe spans are left
/// out). Rows are sorted by layer name.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let in_round = |s: &Span| s.round >= 0 && !s.probe;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| in_round(s)) {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let round_ns: u64 = spans
        .iter()
        .filter(|s| in_round(s) && s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let mut rows = std::collections::BTreeMap::<&'static str, LayerRow>::new();
    for s in spans.iter().filter(|s| in_round(s)) {
        let row = rows.entry(s.layer()).or_insert(LayerRow {
            layer: s.layer(),
            inclusive_ns: 0,
            self_ns: 0,
            count: 0,
            share_of_round: 0.0,
        });
        let nested_in_own_layer = s
            .parent
            .is_some_and(|p| spans[p as usize].layer() == s.layer());
        if !nested_in_own_layer {
            row.inclusive_ns += s.duration_ns();
        }
        row.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
        row.count += 1;
    }
    rows.into_values()
        .map(|mut r| {
            r.share_of_round = r.self_ns as f64 / round_ns.max(1) as f64;
            r
        })
        .collect()
}

pub fn render_layer_table(rows: &[LayerRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>8} {:>8}",
        "layer", "inclusive_ms", "self_ms", "count", "share"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<10} {:>14.3} {:>14.3} {:>8} {:>7.1}%",
            r.layer,
            r.inclusive_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.count,
            r.share_of_round * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            probe: false,
            round: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // round[0,100] > pass[10,90] > { a.x[10,40], b.y[40,80] > b.z[50,60] }
        let mut spans = vec![
            span(0, None, "harness.round", 0, 100),
            span(1, Some(0), "harness.pass", 10, 90),
            span(2, Some(1), "a.x", 10, 40),
            span(3, Some(1), "b.y", 40, 80),
            span(4, Some(3), "b.z", 50, 60),
        ];
        // A probe span and a set-up span never reach the table.
        spans.push(Span {
            probe: true,
            round: -1,
            ..span(5, None, "b.probe", 200, 900)
        });
        spans.push(Span {
            round: -1,
            ..span(6, None, "setup.build", 0, 5)
        });
        let rows = layer_table(&spans);
        let row = |l: &str| rows.iter().find(|r| r.layer == l).unwrap().clone();
        assert_eq!(rows.len(), 3);
        // a: one leaf.
        assert_eq!(
            (row("a").inclusive_ns, row("a").self_ns, row("a").count),
            (30, 30, 1)
        );
        // b: b.z is nested in b.y, so inclusive counts it once.
        assert_eq!(
            (row("b").inclusive_ns, row("b").self_ns, row("b").count),
            (40, 40, 2)
        );
        // harness: round self 20 + pass self 10.
        assert_eq!(row("harness").inclusive_ns, 100);
        assert_eq!(row("harness").self_ns, 30);
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 100, "self times partition the round");
        assert!((row("b").share_of_round - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disabled_spans_record_nothing_and_enabled_spans_nest() {
        let mut s = Spans::new(Instant::now());
        let o = s.enter("a.x");
        s.exit(o);
        assert!(s.spans.is_empty());
        s.set_enabled(true);
        s.set_phase(3, false);
        let outer = s.enter("harness.round");
        let inner = s.enter("a.x");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].round, 3);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        let line = s.to_json_lines();
        assert!(line.contains("\"name\":\"a.x\",\"layer\":\"a\",\"probe\":false,\"round\":3"));
    }
}

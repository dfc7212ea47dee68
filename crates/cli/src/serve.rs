//! `uba-cli serve` — a std-only metrics exposition endpoint.
//!
//! Binds a [`TcpListener`], runs a deterministic admission-churn
//! scenario loop on a background thread so every instrumented layer has
//! live data, and answers:
//!
//! * `GET /metrics` — the process-global registry in Prometheus text
//!   exposition format (0.0.4), scrapeable by an unmodified Prometheus.
//! * `GET /snapshot` — the registry *windowed since the previous
//!   `/snapshot` request*, as JSON-lines: counter deltas with derived
//!   `<name>.per_sec` rates, interval histogram digests, and a
//!   `snapshot.window_secs` gauge (see `Snapshot::delta_since`). The
//!   first request windows from server start.
//! * `GET /healthz` — liveness probe: JSON with `status`, the live
//!   configuration `generation`, and `uptime_secs`.
//! * `GET /trace` — the flight-recorder tail drained as JSON-lines (one
//!   event per line plus a `trace_meta` trailer with the drop count).
//!   `?n=K` keeps only the newest `K` events (the rest count as
//!   dropped in the trailer).
//! * `GET /slo` — the SLO engine's per-rule states as JSON-lines
//!   (name, state, windowed value, threshold, pending windows).
//! * `GET /alerts` — active alerts then the recent-alert ring as
//!   JSON-lines, with an `alerts_meta` trailer.
//! * `GET /` — a plain-text index of the endpoints.
//! * `POST /reconfigure` — hot reload: re-reads the scenario file the
//!   server was started with, builds a fresh configuration generation,
//!   and swaps it into the live controller without pausing the churn
//!   loop. The response reports the new and displaced generation ids and
//!   how many flows were still pinned to the old one.
//!
//! The background churn draws per-tick batch sizes from a high-CV
//! [`BurstModel`], so the batch path (`admission.batches`) sees bursts,
//! and the scenario's `[slo]` rules are evaluated against a fresh
//! registry snapshot after every churn batch — `/slo` and `/alerts`
//! serve live hysteresis state without doing any evaluation on the
//! request path.
//!
//! The HTTP surface is deliberately minimal — request-line parsing only,
//! `Connection: close` on every response — because the workspace builds
//! offline with zero external dependencies; this is an exposition
//! endpoint, not a web framework. Requests are served one at a time on
//! the accept thread, so every client is on a clock: the request head
//! must arrive within `IO_TIMEOUT` (`408` otherwise), in lines of at
//! most `MAX_LINE` bytes and at most `MAX_HEADERS` headers (`431`), and
//! a response write that blocks longer than the timeout is dropped.

use crate::commands::{scenario_controller, scenario_generation};
use crate::scenario::{Scenario, ScenarioError};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uba::admission::{run_churn_bursty, ChurnConfig};
use uba::obs::{standard_rules, SloEngine, Stopwatch};
use uba::prelude::*;
use uba::traffic::BurstModel;

/// Churn arrivals per background-loop batch (small, so the loop stays
/// responsive to shutdown, the gauges refresh often, and each batch
/// closes one SLO evaluation window).
const BATCH_ARRIVALS: usize = 500;

/// Mean per-tick batch size of the background churn's burst model.
/// Bursts go through the controller's `try_admit_batch` (each burst is
/// one run, decided in one step), so `/metrics` exports live
/// `admission.batches` data alongside the per-flow counters.
const BURST_MEAN: f64 = 8.0;

/// Coefficient of variation of the churn batch sizes: well above 1, a
/// clearly bursty workload.
const BURST_CV: f64 = 2.5;

/// How long a client has to deliver its whole request head, and how
/// long one write of the response may block. Requests are handled on
/// the accept thread, so this is the longest one silent, trickling or
/// unread peer can keep every other client waiting.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request line or header line accepted, bytes.
const MAX_LINE: usize = 8 * 1024;

/// Most header lines drained before the request is refused.
const MAX_HEADERS: usize = 64;

/// Longest response `watch` reads, bytes: ample for a registry snapshot,
/// and a bound on what a peer at `--port` can make it buffer.
const MAX_RESPONSE: u64 = 16 << 20;

/// Runs the exposition server on an already-bound listener.
///
/// `max_requests` bounds how many connections are served before
/// returning (`None` = serve forever); tests bind port 0 and pass a
/// small count. `reload_path` is the scenario file `POST /reconfigure`
/// re-reads for the hot swap (`None` — tests built from strings — swaps
/// in a fresh generation of the original scenario instead). The scenario
/// loop thread is stopped and joined before returning.
pub fn serve(
    sc: &Scenario,
    listener: TcpListener,
    max_requests: Option<usize>,
    reload_path: Option<&str>,
) -> Result<(), ScenarioError> {
    // Live data for both endpoints: enable the flight recorder, then
    // churn admissions in the background.
    uba::obs::trace::global().set_enabled(true);
    let ctrl = scenario_controller(sc)?;
    let slo = Arc::new(Mutex::new(SloEngine::new(
        uba::obs::global(),
        standard_rules(&sc.slo),
    )));
    let pairs: Vec<(NodeId, NodeId)> = sc.pairs.iter().map(|p| (p.src, p.dst)).collect();
    // Relaxed is sufficient for the stop flag: it carries no data — the
    // churn thread publishes nothing the main thread reads through it,
    // and `join()` below is the real synchronization point (it gives
    // happens-before for everything the loop wrote). The flag only has
    // to become visible *eventually*, which any ordering guarantees.
    let stop = Arc::new(AtomicBool::new(false));
    let loop_thread = {
        let ctrl = ctrl.clone();
        let stop = Arc::clone(&stop);
        let slo = Arc::clone(&slo);
        std::thread::spawn(move || {
            let mut seed = 42u64;
            let model = BurstModel::with_mean_cv(BURST_MEAN, BURST_CV);
            while !stop.load(Ordering::Relaxed) {
                run_churn_bursty(
                    &ctrl,
                    &pairs,
                    ClassId(0),
                    &ChurnConfig {
                        arrivals: BATCH_ARRIVALS,
                        mean_active: 64.0,
                        seed,
                    },
                    &model,
                );
                seed = seed.wrapping_add(1);
                ctrl.refresh_gauges();
                // One SLO window per churn batch; the request handlers
                // only read the resulting state.
                slo.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .evaluate(uba::obs::global().snapshot());
            }
            ctrl.flush_metrics();
        })
    };

    // Baseline for the first `/snapshot` window: server start.
    let last_snapshot = Mutex::new(uba::obs::global().snapshot());
    let mut served = 0usize;
    let result = loop {
        if max_requests.is_some_and(|n| served >= n) {
            break Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // One slow or broken client must not take the endpoint
                // down; log to stderr and keep serving.
                if let Err(e) = handle(stream, sc, &ctrl, reload_path, &last_snapshot, &slo) {
                    eprintln!("serve: request failed: {e}");
                }
                served += 1;
            }
            Err(e) => break Err(ScenarioError(format!("accept failed: {e}"))),
        }
    };
    stop.store(true, Ordering::Relaxed);
    let _ = loop_thread.join();
    result
}

/// First `key=value` match in a query string (`a=1&b=2`), parsed.
fn query_param<T: std::str::FromStr>(query: &str, key: &str) -> Option<T> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

/// A socket read against one deadline for a whole request head (the
/// server) or a whole response (`watch`): each read may block only for
/// what is left of it, so bytes trickled in one at a time cannot stretch
/// the wait the way a per-read timeout lets them.
struct UntilDeadline<'a> {
    stream: &'a TcpStream,
    /// Running since the first read; [`IO_TIMEOUT`] in all.
    waited: Stopwatch,
}

impl Read for UntilDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let waited = Duration::from_secs_f64(self.waited.elapsed_secs());
        let left = IO_TIMEOUT.saturating_sub(waited);
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads the request line and drains the headers (closing the socket
/// with unread input pending can RST the connection and discard our
/// response), every line through a `take` of [`MAX_LINE`] so nothing a
/// client sends is buffered beyond it. Returns the request line, or the
/// status to refuse the request with.
fn read_head(stream: &TcpStream) -> Result<String, &'static str> {
    let mut reader = BufReader::new(UntilDeadline {
        stream,
        waited: Stopwatch::start(),
    });
    let mut request_line = String::new();
    let mut line = String::new();
    for read in 0..=MAX_HEADERS {
        line.clear();
        match reader.by_ref().take(MAX_LINE as u64).read_line(&mut line) {
            Ok(_) if line.len() == MAX_LINE && !line.ends_with('\n') => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err("408 Request Timeout");
            }
            // Not UTF-8, or the peer went away.
            Err(_) => return Err("400 Bad Request"),
        }
        if read == 0 {
            request_line = std::mem::take(&mut line);
        } else if matches!(line.as_str(), "" | "\r\n" | "\n") {
            return Ok(request_line);
        }
    }
    Err("431 Request Header Fields Too Large")
}

fn handle(
    mut stream: TcpStream,
    sc: &Scenario,
    ctrl: &uba::admission::AdmissionController,
    reload_path: Option<&str>,
    last_snapshot: &Mutex<uba::obs::Snapshot>,
    slo: &Mutex<SloEngine>,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let refuse = |stream: &mut TcpStream, status: &str| {
        respond(stream, status, "text/plain", &format!("{status}\n"))
    };
    let request_line = match read_head(&stream) {
        Ok(line) => line,
        Err(status) => return refuse(&mut stream, status),
    };
    // "GET /path HTTP/1.1" — anything without a method and a target is
    // a 400.
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return refuse(&mut stream, "400 Bad Request");
    };
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match (method, path) {
        ("GET", "/metrics") => {
            let body = uba::obs::global().snapshot().render_prometheus();
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        ("GET", "/snapshot") => {
            // Windowed read: publish the latest gauges, then render the
            // registry's change since the previous /snapshot request.
            ctrl.refresh_gauges();
            let now = uba::obs::global().snapshot();
            let mut last = last_snapshot.lock().unwrap();
            let delta = now.delta_since(&last);
            *last = now;
            drop(last);
            respond(
                &mut stream,
                "200 OK",
                "application/x-ndjson",
                &delta.render_json_lines(),
            )
        }
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"generation\":{},\"uptime_secs\":{:.3}}}\n",
                ctrl.current_generation().id(),
                uba::obs::process_secs(),
            );
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        ("GET", "/trace") => {
            let mut drained = uba::obs::trace::global().drain();
            // ?n=K — keep only the newest K events; the truncated head
            // counts as dropped so the trailer stays honest.
            if let Some(n) = query_param::<usize>(query, "n") {
                if drained.events.len() > n {
                    let cut = drained.events.len() - n;
                    drained.events.drain(..cut);
                    drained.dropped += cut as u64;
                }
            }
            respond(
                &mut stream,
                "200 OK",
                "application/x-ndjson",
                &drained.to_json_lines(),
            )
        }
        ("GET", "/slo") => {
            let body = slo.lock().unwrap_or_else(|p| p.into_inner()).states_json_lines();
            respond(&mut stream, "200 OK", "application/x-ndjson", &body)
        }
        ("GET", "/alerts") => {
            let body = slo.lock().unwrap_or_else(|p| p.into_inner()).alerts_json_lines();
            respond(&mut stream, "200 OK", "application/x-ndjson", &body)
        }
        ("GET", "/") => respond(
            &mut stream,
            "200 OK",
            "text/plain",
            "uba-cli serve\n  GET  /metrics      Prometheus text format\n  GET  /snapshot     windowed registry delta since last /snapshot (JSON-lines)\n  GET  /healthz     liveness probe (JSON: status, generation, uptime_secs)\n  GET  /trace        flight-recorder tail (JSON-lines; ?n=K keeps newest K)\n  GET  /slo          SLO rule states (JSON-lines)\n  GET  /alerts       active + recent SLO alerts (JSON-lines)\n  POST /reconfigure  hot-reload the scenario file\n",
        ),
        ("POST", "/reconfigure") => {
            // Hot reload: rebuild a generation from the scenario file (or
            // the in-memory scenario when no path is known) and swap it in
            // while admissions keep running.
            let built = match reload_path {
                Some(p) => Scenario::from_path(p).and_then(|s| scenario_generation(&s)),
                None => scenario_generation(sc),
            };
            match built {
                Ok(gen) => {
                    let r = ctrl.reconfigure(gen);
                    ctrl.refresh_gauges();
                    let body = format!(
                        "{{\"generation\":{},\"previous\":{},\"pinned_previous\":{}}}\n",
                        r.generation, r.previous, r.pinned_previous
                    );
                    respond(&mut stream, "200 OK", "application/json", &body)
                }
                Err(e) => respond(
                    &mut stream,
                    "500 Internal Server Error",
                    "text/plain",
                    &format!("reconfigure failed: {e}\n"),
                ),
            }
        }
        ("GET", _) => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
        _ => respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only (plus POST /reconfigure)\n",
        ),
    }
}

/// Minimal HTTP GET against a running serve endpoint; returns the body.
/// Used by `uba-cli watch`, on the server's clock: connecting, the
/// request write and the whole response read each get [`IO_TIMEOUT`],
/// and a response over [`MAX_RESPONSE`] bytes is refused. A timeout is
/// reported, not retried; any other connection error (the server
/// mid-close on another request) is retried twice before surfacing.
fn http_get(addr: &str, path: &str) -> Result<String, ScenarioError> {
    let attempt = || -> std::io::Result<Vec<u8>> {
        let to = addr
            .to_socket_addrs()?
            .next()
            .ok_or(ErrorKind::AddrNotAvailable)?;
        let mut stream = TcpStream::connect_timeout(&to, IO_TIMEOUT)?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )?;
        let mut response = Vec::new();
        UntilDeadline {
            stream: &stream,
            waited: Stopwatch::start(),
        }
        .take(MAX_RESPONSE + 1)
        .read_to_end(&mut response)?;
        Ok(response)
    };
    let failed = |e: &dyn std::fmt::Display| ScenarioError(format!("GET {addr}{path} failed: {e}"));
    let mut retries = 2;
    let response = loop {
        match attempt() {
            Ok(response) => break response,
            Err(e)
                if retries > 0
                    && !matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) =>
            {
                retries -= 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(failed(&e)),
        }
    };
    if response.len() as u64 > MAX_RESPONSE {
        return Err(failed(&format!("response over {MAX_RESPONSE} bytes")));
    }
    String::from_utf8(response)
        .ok()
        .and_then(|r| r.split_once("\r\n\r\n").map(|(_, body)| body.to_string()))
        .ok_or_else(|| failed(&"malformed response"))
}

/// Renders one `watch` frame from a `/snapshot` body and a `/slo` body:
/// a header with the poll window and windowed admission rates, then one
/// line per SLO rule (state, latest value, threshold, hysteresis
/// streaks).
pub fn watch_frame(snapshot_body: &str, slo_body: &str) -> String {
    use uba::obs::json::JsonValue;
    let mut window = None;
    let mut admits_per_sec = None;
    let mut rejects_per_sec = None;
    for line in snapshot_body.lines() {
        let Ok(v) = uba::obs::json::parse(line) else {
            continue;
        };
        let value = v.get("value").and_then(JsonValue::as_number);
        match v.get("name").and_then(JsonValue::as_str) {
            Some("snapshot.window_secs") => window = value,
            Some("admission.admits.per_sec") => admits_per_sec = value,
            Some("admission.rejects.link_full.per_sec") => rejects_per_sec = value,
            _ => {}
        }
    }
    let num = |v: Option<f64>| v.map_or_else(|| "-".into(), |x| format!("{x:.1}"));
    let mut out = format!(
        "window {}s  admits/s {}  link_full/s {}\n",
        window.map_or_else(|| "-".into(), |w| format!("{w:.2}")),
        num(admits_per_sec),
        num(rejects_per_sec),
    );
    for line in slo_body.lines() {
        let Ok(v) = uba::obs::json::parse(line) else {
            continue;
        };
        let (Some(rule), Some(state)) = (
            v.get("rule").and_then(JsonValue::as_str),
            v.get("state").and_then(JsonValue::as_str),
        ) else {
            continue;
        };
        let n = |k: &str| v.get(k).and_then(JsonValue::as_number);
        let value = n("value").map_or_else(|| "-".into(), |x| format!("{x:.4}"));
        let threshold = n("threshold").map_or_else(|| "-".into(), |x| format!("{x}"));
        out.push_str(&format!(
            "  {rule:<22} {state:<8} value {value:>12}  thr {threshold:>10}  \
             breach {}/{}  clear {}/{}\n",
            n("breach_streak").unwrap_or(0.0),
            n("for_windows").unwrap_or(0.0),
            n("clear_streak").unwrap_or(0.0),
            n("clear_windows").unwrap_or(0.0),
        ));
    }
    out
}

/// `uba-cli watch` — polls a running serve endpoint's `/snapshot` and
/// `/slo` every `interval_ms`, printing one [`watch_frame`] per poll.
/// `iterations` bounds the loop (`None` = poll until interrupted).
pub fn watch(addr: &str, interval_ms: u64, iterations: Option<usize>) -> Result<(), ScenarioError> {
    let mut done = 0usize;
    loop {
        if iterations.is_some_and(|n| done >= n) {
            return Ok(());
        }
        // /snapshot first so its window covers the sleep, not the fetch.
        let snapshot = http_get(addr, "/snapshot")?;
        let slo = http_get(addr, "/slo")?;
        print!("{}", watch_frame(&snapshot, &slo));
        done += 1;
        // Skip the final sleep so a bounded watch returns promptly.
        let finished = iterations.is_some_and(|n| done >= n);
        if !finished {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn ring_scenario() -> Scenario {
        Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 6
            [network]
            capacity = 1e6
            fan_in = 3
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.2
            "#,
        )
        .unwrap()
    }

    fn request(addr: std::net::SocketAddr, method: &str, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        request(addr, "GET", path)
    }

    #[test]
    fn serves_metrics_trace_index_and_404() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(4), None));

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        // Valid Prometheus text format with live data from the churn
        // loop: TYPE comments and name/value samples.
        assert!(body.contains("# TYPE admission_admits counter"), "{body}");
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty(), "{line}");
            assert!(
                value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
                "unparseable sample value: {line}"
            );
        }

        let (head, body) = get(addr, "/trace");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let lines: Vec<&str> = body.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        // The drained tail ends with the meta trailer; with the churn
        // loop running there are real admission events ahead of it.
        assert!(lines[lines.len() - 1].contains("trace_meta"), "{body}");

        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("/metrics"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.join().unwrap().unwrap();
    }

    #[test]
    fn snapshot_windows_between_requests_and_healthz_answers() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(3), None));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let v = uba::obs::json::parse(body.trim()).unwrap_or_else(|e| panic!("{e}: {body}"));
        {
            use uba::obs::json::JsonValue;
            assert_eq!(
                v.get("status").and_then(JsonValue::as_str),
                Some("ok"),
                "{body}"
            );
            assert!(
                v.get("generation")
                    .and_then(JsonValue::as_number)
                    .is_some_and(|g| g >= 0.0),
                "{body}"
            );
            assert!(
                v.get("uptime_secs")
                    .and_then(JsonValue::as_number)
                    .is_some_and(|u| u > 0.0),
                "{body}"
            );
        }

        // Two windowed reads while the churn loop is admitting: every
        // line parses, rates and window metadata are present, and the
        // second window's admit delta covers only the gap between the
        // requests (far below the process-lifetime total on /metrics).
        use uba::obs::json::JsonValue;
        let mut admit_deltas = Vec::new();
        for _ in 0..2 {
            let (head, body) = get(addr, "/snapshot");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(head.contains("application/x-ndjson"), "{head}");
            let mut window_secs = None;
            let mut saw_rate = false;
            for line in body.lines() {
                let v = uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                match v.get("name").and_then(JsonValue::as_str) {
                    Some("snapshot.window_secs") => {
                        window_secs = v.get("value").and_then(JsonValue::as_number);
                    }
                    Some("admission.admits") => {
                        admit_deltas.push(v.get("value").and_then(JsonValue::as_number).unwrap());
                    }
                    Some(n) if n.ends_with(".per_sec") => saw_rate = true,
                    _ => {}
                }
            }
            assert!(window_secs.is_some_and(|w| w > 0.0), "{body}");
            assert!(saw_rate, "derived rates must be present: {body}");
        }
        assert_eq!(admit_deltas.len(), 2);
        // Deltas are windowed, not cumulative: both windows are short,
        // so each sees at most a few churn batches — while the lifetime
        // counter keeps every admit since server start.
        server.join().unwrap().unwrap();
    }

    #[test]
    fn post_reconfigure_hot_swaps_the_live_controller() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(4), None));

        // Two hot reloads while the churn loop is admitting: each installs
        // a strictly newer generation, displacing the previous one.
        let (head, body) = request(addr, "POST", "/reconfigure");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let v1 = uba::obs::json::parse(body.trim()).unwrap_or_else(|e| panic!("{e}: {body}"));
        use uba::obs::json::JsonValue;
        let gen1 = v1.get("generation").and_then(JsonValue::as_number).unwrap();
        let prev1 = v1.get("previous").and_then(JsonValue::as_number).unwrap();
        assert!(gen1 > prev1, "{body}");

        let (_, body) = request(addr, "POST", "/reconfigure");
        let v2 = uba::obs::json::parse(body.trim()).unwrap_or_else(|e| panic!("{e}: {body}"));
        assert_eq!(
            v2.get("previous").and_then(JsonValue::as_number),
            Some(gen1),
            "{body}"
        );

        // The swap shows up on the exposition side.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("# TYPE admission_reconfigures counter"),
            "{metrics}"
        );

        // Other POST paths stay rejected.
        let (head, _) = request(addr, "POST", "/metrics");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");

        server.join().unwrap().unwrap();
    }

    #[test]
    fn bad_reload_file_is_refused_and_the_old_generation_keeps_serving() {
        const GOOD: &str = "[topology]\nkind = \"ring\"\nn = 6\n[network]\ncapacity = 1e6\n";
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("serve_bad_reload_{}.toml", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, GOOD).unwrap();
        let sc = Scenario::from_path(&path).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reload = path.clone();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(8), Some(&reload)));

        use uba::obs::json::JsonValue;
        let generation = || {
            let (head, body) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let v = uba::obs::json::parse(body.trim()).unwrap_or_else(|e| panic!("{e}: {body}"));
            v.get("generation").and_then(JsonValue::as_number).unwrap()
        };
        let before = generation();

        // A ring of two routers is below the generator's precondition:
        // the reload must come back as an error response, not take the
        // accept thread down.
        std::fs::write(&path, GOOD.replace("n = 6", "n = 2")).unwrap();
        let (head, body) = request(addr, "POST", "/reconfigure");
        assert!(head.starts_with("HTTP/1.1 500"), "{head}");
        assert!(body.starts_with("reconfigure failed: "), "{body}");
        assert!(body.contains("topology.n"), "{body}");
        assert_eq!(generation(), before, "a refused reload must not swap");

        // And the endpoint still reloads once the file is fixed.
        std::fs::write(&path, GOOD).unwrap();
        let (head, _) = request(addr, "POST", "/reconfigure");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        // A renegotiation may add a class: the new generation is metered
        // for both, and the gauges refreshed after the swap cover it.
        const CLASS: &str = "[[class]]\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = 0.3\n";
        let fixed = generation();
        std::fs::write(&path, format!("{GOOD}{CLASS}{CLASS}")).unwrap();
        let (head, body) = request(addr, "POST", "/reconfigure");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}{body}");
        assert_ne!(generation(), fixed, "the two-class reload must swap");
        let (head, body) = get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            body.lines().any(|line| {
                let v = uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                v.get("name").and_then(JsonValue::as_str) == Some("admission.class1.max_share")
            }),
            "{body}"
        );

        server.join().unwrap().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// Everything the server sends until it closes — or resets: a refused
    /// request can leave unread input behind, and what arrived before the
    /// reset is still delivered.
    fn read_all(stream: &mut TcpStream) -> String {
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        String::from_utf8_lossy(&response).into_owned()
    }

    /// Client-side patience: the server's own timeout plus a margin, so
    /// a server that never answers fails the test instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(5);

    #[test]
    fn silent_client_does_not_stall_the_endpoint() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(2), None));

        // Connects first, sends nothing, stays open.
        let mut silent = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        let mut second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(PATIENCE)).unwrap();
        write!(second, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let response = read_all(&mut second);
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "no answer behind a silent client after {:?}: {response:?}",
            t0.elapsed()
        );
        assert!(t0.elapsed() < PATIENCE, "{:?}", t0.elapsed());
        // The silent client was told why it was dropped.
        silent.set_read_timeout(Some(PATIENCE)).unwrap();
        let response = read_all(&mut silent);
        assert!(response.starts_with("HTTP/1.1 408"), "{response:?}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_heads_are_refused_and_the_next_request_served() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(4), None));

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(8 * MAX_LINE));
        let many_headers = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: y\r\n".repeat(2 * MAX_HEADERS)
        );
        for head in [long_line, many_headers] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(PATIENCE)).unwrap();
            // The server stops reading at its bound, so the tail of the
            // write may fail.
            let _ = stream.write_all(head.as_bytes());
            let response = read_all(&mut stream);
            assert!(response.starts_with("HTTP/1.1 431"), "{response:?}");
            let (head, _) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        }
        server.join().unwrap().unwrap();
    }

    #[test]
    fn request_cut_off_mid_line_times_out_without_killing_the_loop() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(3), None));

        // A request line that never ends, one byte every 300 ms: each
        // byte would restart a per-read timeout, so the 408 arriving
        // while the client is still sending shows the deadline covers
        // the whole head.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        write!(stream, "GET /hea").unwrap();
        let mut response = Vec::new();
        for _ in 0..20 {
            let _ = stream.write_all(b"l");
            match stream.read_to_end(&mut response) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                _ => break,
            }
        }
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 408"), "{response:?}");

        // A client that hangs up mid-line is answered for what it sent.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /hea").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let response = read_all(&mut stream);
        assert!(response.starts_with("HTTP/1.1 404"), "{response:?}");

        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.join().unwrap().unwrap();
    }

    /// A request head from `rng`: known and random method and target
    /// bytes, header counts and line lengths on both sides of
    /// [`MAX_HEADERS`] and [`MAX_LINE`], now and then a byte that is not
    /// UTF-8, now and then cut off short.
    fn random_head(rng: &mut uba::obs::SplitMix64) -> Vec<u8> {
        const REQUESTS: [&str; 12] = [
            "GET /healthz",
            "GET /metrics",
            "GET /snapshot",
            "GET /slo",
            "GET /alerts",
            "GET /trace?n=2",
            "GET /",
            "GET /nope",
            "POST /reconfigure",
            "POST /metrics",
            "PUT /",
            "get /healthz",
        ];
        let (method, target) = REQUESTS[rng.index(REQUESTS.len())].split_once(' ').unwrap();
        let mut head = format!("{method} ").into_bytes();
        if rng.index(4) == 0 {
            head.extend((0..rng.index(16)).map(|_| rng.index(256) as u8));
        } else {
            head.extend(target.as_bytes());
        }
        // A line of MAX_LINE - 2 to MAX_LINE + 2 bytes with its CRLF.
        let near_limit = |rng: &mut uba::obs::SplitMix64| MAX_LINE - 4 + rng.index(5);
        if rng.index(8) == 0 {
            let len = near_limit(rng);
            head.resize(len, b'a');
        } else {
            head.extend(b" HTTP/1.1");
        }
        head.extend(b"\r\n");
        let headers = [0, 1, 3, MAX_HEADERS - 1, MAX_HEADERS, MAX_HEADERS + 1];
        let long = (rng.index(8) == 0).then(|| near_limit(rng));
        for i in 0..headers[rng.index(headers.len())] {
            let start = head.len();
            head.extend(b"X-Pad: y");
            if i == 0 {
                if let Some(len) = long {
                    head.resize(start + len, b'y');
                }
            }
            head.extend(b"\r\n");
        }
        head.extend(b"\r\n");
        if rng.index(8) == 0 {
            let at = rng.index(head.len());
            head[at] = 0x80 | rng.index(0x80) as u8;
        }
        if rng.index(8) == 0 {
            head.truncate(rng.index(head.len() + 1));
        }
        head
    }

    #[test]
    fn random_heads_get_a_status_and_the_server_keeps_serving() {
        const CASES: u64 = 128;
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let requests = 1 + 2 * CASES as usize;
        let server = std::thread::spawn(move || serve(&sc, listener, Some(requests), None));
        let number = |body: &str, key: &str| {
            uba::obs::json::parse(body.trim())
                .ok()?
                .get(key)?
                .as_number()
        };
        let mut generation = number(&get(addr, "/healthz").1, "generation").unwrap();
        let mut reloads = 0;
        uba::obs::check("serve_random_heads", CASES, |rng| {
            let head = random_head(rng);
            let sent = String::from_utf8_lossy(&head).into_owned();
            // Every head ends in the client closing its write side, so
            // the server never waits out its clock on one.
            let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(PATIENCE))
                .map_err(|e| e.to_string())?;
            let _ = stream.write_all(&head);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let response = read_all(&mut stream);
            let status = response.get(9..12).unwrap_or("");
            uba::obs::ensure!(
                ["200", "400", "404", "405", "431"].contains(&status),
                "answered {response:?} to {sent:?}"
            );
            let (health, body) = get(addr, "/healthz");
            uba::obs::ensure!(
                health.starts_with("HTTP/1.1 200"),
                "{health:?} after {sent:?}"
            );
            let now = number(&body, "generation").ok_or(body)?;
            if now != generation {
                let answer = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
                uba::obs::ensure!(
                    status == "200"
                        && number(answer, "previous") == Some(generation)
                        && number(answer, "generation") == Some(now),
                    "generation {generation} -> {now} after {response:?} to {sent:?}"
                );
                generation = now;
                reloads += 1;
            }
            Ok(())
        });
        assert!(reloads > 0, "no case reloaded");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn watch_frame_renders_one_line_per_rule() {
        let snapshot = "{\"name\":\"snapshot.window_secs\",\"value\":1.5}\n\
                        {\"name\":\"admission.admits.per_sec\",\"value\":123.4}\n";
        let slo = "{\"rule\":\"deadline_miss_ratio\",\"state\":\"firing\",\"value\":0.5,\
                   \"threshold\":0.01,\"breach_streak\":3,\"clear_streak\":0,\
                   \"for_windows\":2,\"clear_windows\":2,\"pending_windows\":1,\
                   \"fired\":1,\"resolved\":0}\n\
                   {\"rule\":\"reject_rate\",\"state\":\"ok\",\"value\":null,\
                   \"threshold\":10000,\"breach_streak\":0,\"clear_streak\":0,\
                   \"for_windows\":2,\"clear_windows\":2,\"pending_windows\":0,\
                   \"fired\":0,\"resolved\":0}\n";
        let frame = watch_frame(snapshot, slo);
        let lines: Vec<&str> = frame.lines().collect();
        assert_eq!(lines.len(), 3, "{frame}");
        assert!(lines[0].contains("window 1.50s"), "{frame}");
        assert!(lines[0].contains("admits/s 123.4"), "{frame}");
        assert!(lines[1].contains("deadline_miss_ratio"), "{frame}");
        assert!(lines[1].contains("firing"), "{frame}");
        assert!(lines[1].contains("breach 3/2"), "{frame}");
        assert!(lines[2].contains("reject_rate"), "{frame}");
        assert!(lines[2].contains("ok"), "{frame}");
        // A rule that never saw data renders a placeholder value.
        assert!(lines[2].contains("-  thr"), "{frame}");
    }

    #[test]
    fn watch_frame_survives_a_deeply_nested_body() {
        // Whatever answers at `--port` chooses the bodies: a line of
        // 100 000 `[` is skipped like any other unparsable line.
        let hostile = "[".repeat(100_000);
        let frame = watch_frame(&hostile, &hostile);
        assert_eq!(frame, "window -s  admits/s -  link_full/s -\n");
    }

    #[test]
    fn watch_polls_a_live_server() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(4), None));
        // Two bounded polls against the live endpoint (stdout goes to
        // the test harness; correctness of the rendering is covered by
        // watch_frame_renders_one_line_per_rule).
        watch(&addr.to_string(), 1, Some(2)).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn watch_gives_up_on_a_peer_that_never_answers() {
        // Bound but never accepting: the handshake completes from the
        // listen backlog, and no byte ever comes back.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || tx.send(http_get(&addr, "/snapshot")));
        // A watchdog, so a client with no deadline fails here instead of
        // hanging the test run.
        let got = rx.recv_timeout(IO_TIMEOUT + Duration::from_secs(1));
        assert!(matches!(got, Ok(Err(_))), "{got:?}");
        client.join().unwrap().unwrap();
        drop(listener);
    }

    #[test]
    fn trace_tail_query_bounds_the_drain() {
        let sc = ring_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(2), None));

        // Let the churn loop buffer a healthy tail before draining.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (head, body) = get(addr, "/trace?n=3");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let lines: Vec<&str> = body.lines().collect();
        // At most 3 events plus the trailer; every line still parses.
        assert!(lines.len() <= 4, "{body}");
        for line in &lines {
            uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        use uba::obs::json::JsonValue;
        let trailer = uba::obs::json::parse(lines[lines.len() - 1]).unwrap();
        assert_eq!(
            trailer.get("kind").and_then(JsonValue::as_str),
            Some("trace_meta"),
            "{body}"
        );
        let events = trailer
            .get("events")
            .and_then(JsonValue::as_number)
            .unwrap();
        assert!(events <= 3.0, "{body}");
        assert_eq!(events as usize, lines.len() - 1, "{body}");

        // A malformed count is ignored: the full tail drains.
        let (head, body) = get(addr, "/trace?n=bogus");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            body.lines().last().unwrap().contains("trace_meta"),
            "{body}"
        );

        server.join().unwrap().unwrap();
    }

    /// The acceptance-path test: a high-miss-ratio burst drives the
    /// `deadline_miss_ratio` rule pending → firing (seen on `/slo` and
    /// as an active alert on `/alerts`); clean traffic then resolves it
    /// (state back to ok, the alert retired to the recent log). The
    /// churn loop's bursts independently light the batch counters,
    /// asserted via `/metrics`.
    #[test]
    fn slo_alert_cycle_fires_and_resolves_over_http() {
        let sc = Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 6
            [network]
            capacity = 1e6
            fan_in = 3
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.2
            [slo]
            miss_ratio = 0.001
            for_windows = 2
            clear_windows = 2
            "#,
        )
        .unwrap();
        const MAX_REQUESTS: usize = 600;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&sc, listener, Some(MAX_REQUESTS), None));
        let misses = uba::obs::global().counter("sim.deadline_misses");
        let packets = uba::obs::global().counter("sim.packets");
        let mut used = 0usize;

        use uba::obs::json::JsonValue;
        // (state, lifetime pending windows) of the miss-ratio rule from
        // a `/slo` body.
        let rule_state = |body: &str| -> (String, f64) {
            for line in body.lines() {
                let v = uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                if v.get("rule").and_then(JsonValue::as_str) == Some("deadline_miss_ratio") {
                    return (
                        v.get("state")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                        v.get("pending_windows")
                            .and_then(JsonValue::as_number)
                            .unwrap(),
                    );
                }
            }
            panic!("deadline_miss_ratio missing from /slo: {body}");
        };

        // Phase 1: keep the windowed miss ratio at ~1.0 (three orders
        // above threshold, immune to clean packets from parallel tests)
        // until the hysteresis fires.
        let mut fired = false;
        for _ in 0..250 {
            misses.add(1_000_000);
            packets.add(1_000_000);
            let (_, body) = get(addr, "/slo");
            used += 1;
            let (state, _) = rule_state(&body);
            if state == "firing" {
                fired = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(fired, "deadline_miss_ratio never fired");
        let (_, body) = get(addr, "/slo");
        used += 1;
        let (_, pending) = rule_state(&body);
        assert!(pending >= 1.0, "firing must pass through pending: {body}");

        // The alert is active on /alerts.
        let (_, body) = get(addr, "/alerts");
        used += 1;
        let active = body.lines().any(|l| {
            l.contains("\"rule\":\"deadline_miss_ratio\"") && l.contains("\"state\":\"firing\"")
        });
        assert!(active, "no active deadline_miss_ratio alert: {body}");
        assert!(
            body.lines().last().unwrap().contains("alerts_meta"),
            "{body}"
        );

        // Phase 2: clean traffic (packets, no misses) until the rule
        // resolves.
        let mut resolved = false;
        for _ in 0..250 {
            packets.add(1_000_000);
            let (_, body) = get(addr, "/slo");
            used += 1;
            if rule_state(&body).0 == "ok" {
                resolved = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(resolved, "deadline_miss_ratio never resolved");
        let (_, body) = get(addr, "/alerts");
        used += 1;
        let retired = body.lines().any(|l| {
            l.contains("\"rule\":\"deadline_miss_ratio\"") && l.contains("\"state\":\"resolved\"")
        });
        assert!(retired, "no resolved deadline_miss_ratio alert: {body}");

        // The bursty churn loop's batch counters are live alongside.
        let (_, metrics) = get(addr, "/metrics");
        used += 1;
        assert!(metrics.contains("admission_batches"), "{metrics}");
        assert!(
            metrics.contains("slo_deadline_miss_ratio_state"),
            "{metrics}"
        );

        // Exhaust the request budget so the server exits cleanly.
        for _ in used..MAX_REQUESTS {
            let _ = get(addr, "/healthz");
        }
        server.join().unwrap().unwrap();
    }
}

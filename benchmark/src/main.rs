//! The repo benchmark: one workload at one seed per invocation.
//!
//! `uba-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]`
//!
//! Prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--trace`
//! the metrics are the end-to-end ones; with it, the per-layer ones,
//! and the spans go to `benchmark/out/trace-<workload>-<seed>.jsonl`.
//! See `benchmark/README.md`.

mod harness;
mod reference;
mod spans;
mod stats;
mod workloads;

use harness::{Outcome, Recorder};
use stats::median;
use std::fmt::Write as _;
use std::time::Instant;

/// Every end-to-end metric with its unit; must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit; must match `BENCHMARK.json`.
/// A metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.configure_s", "s"),
    ("setup.build_s", "s"),
    ("setup.prefill_s", "s"),
    ("setup.tracegen_s", "s"),
    ("setup.warmup_s", "s"),
    ("cli.scenario_parse_us", "us"),
    ("routing.max_utilization_ms", "ms"),
    ("routing.probes", "count"),
    ("routing.select_routes_ms", "ms"),
    ("routing.from_selection_us", "us"),
    ("routing.verify_us", "us"),
    ("routing.apply_us", "us"),
    ("graph.dijkstra_all_us", "us"),
    ("graph.yen_k8_us_per_pair", "us"),
    ("delay.solve_cold_us", "us"),
    ("delay.solve_warm_us", "us"),
    ("delay.verify_us", "us"),
    ("delay.solve_iterations", "count"),
    ("delay.servers_touched", "count"),
    ("delay.sweeps_skipped", "count"),
    ("admission.admit_p50_ns", "ns"),
    ("admission.admit_p99_ns", "ns"),
    ("admission.release_p50_ns", "ns"),
    ("admission.reject_ratio", "ratio"),
    ("admission.reject_link_full", "count"),
    ("admission.reject_policy", "count"),
    ("admission.batch_ns_per_flow", "ns"),
    ("admission.batch_p99_ns_per_flow", "ns"),
    ("admission.batches", "count"),
    ("admission.batch_fallbacks", "count"),
    ("admission.batch_size_1_share", "ratio"),
    ("admission.generation_build_us", "us"),
    ("admission.reconfigure_us", "us"),
    ("admission.drain_us", "us"),
    ("obs.flush_us", "us"),
    ("obs.snapshot_us", "us"),
    ("obs.slo_evaluate_us", "us"),
    ("obs.delta_us", "us"),
    ("obs.render_prometheus_us", "us"),
    ("obs.render_bytes", "bytes"),
    ("obs.trace_drain_us", "us"),
    ("obs.trace_events", "count"),
    ("obs.trace_dropped", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.events", "count"),
    ("sim.packets", "count"),
    ("sim.peak_backlog", "count"),
    ("sim.max_delay_over_bound", "ratio"),
    ("harness.loop_ns_per_op", "ns"),
    ("harness.fail_ratio", "ratio"),
    ("harness.speed_factor", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "config_mci",
    "churn_torus",
    "serve_loop_mci",
    "simulate_mci",
];

const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SECONDS: u64 = 22;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace`, `--trace 1` and `--trace 0`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process exit code: non-zero as soon as one op failed its check.
pub fn exit_code(rec: &Recorder) -> i32 {
    i32::from(rec.failed > 0 || rec.attempted == 0)
}

/// Cores, build profile and commit: every run's output carries it.
fn machine_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // `run.sh` exports `git rev-parse --short HEAD`; a bare checkout has
    // no git to ask.
    let commit = std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!("{{\"cores\":{cores},\"profile\":\"{profile}\",\"commit\":\"{commit}\"}}")
}

fn result_json(rec: &Recorder, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rec.failed == 0 && rec.attempted > 0,
        rec.attempted,
        rec.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    out.push_str("}}");
    out
}

fn report(args: &Args, outcome: &Outcome) -> i32 {
    let rec = &outcome.rec;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let round_s = median(&outcome.plain_round_s);
        let values = [
            median(&outcome.setup_s),
            outcome.ops_per_round as f64 / round_s,
            median(&rec.unit_ns_per_op) / 1e3,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    let stamp = machine_stamp();
    println!(
        "workload {} seed {} rounds {} ops_per_round {} timed_units {} stamp {stamp}",
        args.workload,
        args.seed,
        outcome.rounds,
        outcome.ops_per_round,
        rec.unit_ns_per_op.len(),
    );
    let quartiles = |v: &[f64]| {
        [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| (stats::percentile(v, q) * 1e4).round() / 1e4)
    };
    println!(
        "at the reference speed: round_s min/q1/median/q3/max {:?} (plain, n={}) {:?} (traced, n={}); setup_s {:?}",
        quartiles(&outcome.plain_round_s),
        outcome.plain_round_s.len(),
        quartiles(&outcome.traced_round_s),
        outcome.traced_round_s.len(),
        outcome.setup_s,
    );
    println!(
        "as the clock read it: round_s {:?} (plain); speed factor {:?}; ops_per_s {:.6}",
        quartiles(&outcome.raw_plain_round_s),
        quartiles(&outcome.speed_factor),
        outcome.ops_per_round as f64 / median(&outcome.raw_plain_round_s),
    );
    println!(
        "attempted {} failed {} fail_ratio {}",
        rec.attempted,
        rec.failed,
        rec.failed as f64 / rec.attempted.max(1) as f64
    );
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }

    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let tag = format!("{}-{}", args.workload, args.seed);
    if args.trace {
        print!(
            "{}",
            spans::render_layer_table(&spans::layer_table(&rec.spans.spans))
        );
        std::fs::write(
            format!("{OUT_DIR}/trace-{tag}.jsonl"),
            rec.spans.to_json_lines(),
        )
        .expect("write the span file");
    }
    let result = result_json(rec, &metrics);
    let kind = if args.trace { "layers" } else { "result" };
    std::fs::write(
        format!("{OUT_DIR}/{kind}-{tag}.json"),
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"rounds\": {}, \"stamp\": {stamp}, \"result\": {result}}}\n",
            args.workload, args.seed, outcome.rounds
        ),
    )
    .expect("write the result file");
    println!("{result}");
    exit_code(rec)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uba-benchmark: {e}");
            eprintln!(
                "usage: uba-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]"
            );
            std::process::exit(2);
        }
    };
    let rounds = harness::rounds_for(args.seconds);
    let (seed, trace) = (args.seed, args.trace);
    let outcome = match args.workload.as_str() {
        "config_mci" => {
            harness::run::<workloads::config_mci::ConfigMci>(seed, rounds, trace, started)
        }
        "churn_torus" => {
            harness::run::<workloads::churn_torus::ChurnTorus>(seed, rounds, trace, started)
        }
        "serve_loop_mci" => {
            harness::run::<workloads::serve_loop_mci::ServeLoopMci>(seed, rounds, trace, started)
        }
        _ => harness::run::<workloads::simulate_mci::SimulateMci>(seed, rounds, trace, started),
    };
    std::process::exit(report(&args, &outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_and_issue_spellings_of_the_flags_parse() {
        let a = args(&[
            "--workload",
            "churn_torus",
            "--seed",
            "7",
            "--seconds",
            "9",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn_torus", 7, 9, true)
        );
        let a = args(&["--workload", "config_mci", "--trace", "0"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, DEFAULT_SECONDS, false));
        assert!(
            args(&["--trace", "--workload", "simulate_mci"])
                .unwrap()
                .trace
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "config_mci", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "config_mci", "--bogus"]).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// binary prints, with the same units, and its run length is the
    /// binary's default.
    #[test]
    fn benchmark_json_agrees_with_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = text.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert_eq!(flat.matches(&entry).count(), 1, "{name} [{unit}]");
        }
        for w in WORKLOADS {
            assert!(
                flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "{w}"
            );
        }
        let entries = flat.matches("{\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        assert!(flat.contains(&format!("\"run_seconds\":{DEFAULT_SECONDS},")));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut rec = Recorder::new(Instant::now());
        rec.check(10, true);
        let line = result_json(&rec, &[("setup_s", "s", 1.25), ("ops_per_s", "1/s", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 3, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(exit_code(&rec), 0);
        rec.check(5, false);
        assert!(result_json(&rec, &[])
            .starts_with("{\"correct\": false, \"attempted\": 15, \"failed\": 5,"));
        assert_ne!(exit_code(&rec), 0);
    }
}

//! `uba-cli` — scenario-driven interface to the uba library.
//!
//! ```text
//! uba-cli bounds      <scenario.toml>
//! uba-cli verify      <scenario.toml>
//! uba-cli maximize    <scenario.toml> [sp|heuristic]
//! uba-cli simulate    <scenario.toml> [horizon_seconds]
//! uba-cli metrics     <scenario.toml> [--json]
//! uba-cli explain     <scenario.toml> [--json]
//! uba-cli reconfigure <old.toml> <new.toml> [--json]
//! uba-cli serve       <scenario.toml> --port N [--bind ADDR]
//! uba-cli watch       --port N [--bind ADDR] [--interval-ms MS] [--iterations K]
//! ```
//!
//! Any command also accepts `--metrics` to append a dump of the
//! process-global metrics registry after its normal output. A flag not
//! listed here is a usage error (exit 2), never silently ignored.

use uba_cli::commands::{
    cmd_bounds, cmd_explain, cmd_maximize, cmd_metrics, cmd_reconfigure, cmd_simulate, cmd_verify,
    render_global_metrics,
};
use uba_cli::flags::{take_flag, take_parsed, take_value};
use uba_cli::Scenario;

fn usage() -> ! {
    eprintln!(
        "usage: uba-cli <bounds|verify|maximize|simulate|metrics|explain|reconfigure|serve|watch> <scenario.toml> [args]\n\
         \n\
         bounds      — Theorem 4 utilization window for each class\n\
         verify      — Figure 2 verification of the scenario's alphas on SP routes\n\
         \x20             (or on its [[route]] sections)\n\
         maximize    — Section 5.3 binary search; optional selector sp|heuristic (default heuristic)\n\
         simulate    — packet-level validation; optional horizon in seconds (default 0.3);\n\
         \x20             the scenario's [[flow]] sections, if any, replace the fill\n\
         metrics     — exercise every instrumented layer, then dump the metrics registry\n\
         explain     — replay admissions to saturation and diagnose every rejection\n\
         \x20             (first failing link, observed vs. budget utilization, headroom)\n\
         reconfigure — live-migration rehearsal from <old.toml> to <new.toml>: saturate the\n\
         \x20             old configuration, hot-swap the new one, report kept/stranded flows\n\
         \x20             and the budget delta\n\
         serve       — run a scenario loop and expose /metrics (Prometheus), /snapshot,\n\
         \x20             /trace, /slo, /alerts, and POST /reconfigure (hot reload);\n\
         \x20             requires --port N\n\
         watch       — poll a running serve endpoint's /snapshot + /slo and print a\n\
         \x20             one-line-per-rule SLO status each interval; requires --port N\n\
         \n\
         flags: --metrics         append a metrics-registry dump after any command\n\
         \x20       --json            (metrics, explain, reconfigure) line-oriented JSON\n\
         \x20       --bind ADDR       (serve, watch) address (default 127.0.0.1)\n\
         \x20       --interval-ms MS  (watch) poll interval (default 1000)\n\
         \x20       --iterations K    (watch) stop after K polls (default: run forever)"
    );
    std::process::exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let dump_metrics = take_flag(&mut args, "--metrics");
    let json = take_flag(&mut args, "--json");
    let port: Option<u16> = take_parsed(&mut args, "--port", "a port number", |&p: &u16| p >= 1)
        .unwrap_or_else(|e| fail(e));
    let bind = take_value(&mut args, "--bind")
        .unwrap_or_else(|e| fail(e))
        .unwrap_or_else(|| "127.0.0.1".into());
    let interval_ms = take_parsed(
        &mut args,
        "--interval-ms",
        "a positive integer",
        |&n: &u64| n >= 1,
    )
    .unwrap_or_else(|e| fail(e))
    .unwrap_or(1000);
    let iterations: Option<usize> = take_parsed(
        &mut args,
        "--iterations",
        "a positive integer",
        |&n: &usize| n >= 1,
    )
    .unwrap_or_else(|e| fail(e));
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--")) {
        fail(format!("unknown flag '{unknown}'"));
    }
    // `watch` talks to a running server: no scenario file to load.
    if args.first().map(String::as_str) == Some("watch") {
        let Some(port) = port else {
            eprintln!("watch requires --port N");
            std::process::exit(2);
        };
        if let Err(e) = uba_cli::serve::watch(&format!("{bind}:{port}"), interval_ms, iterations) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.len() < 2 {
        usage();
    }
    let command = args[0].as_str();
    // A scenario file that cannot be read, parsed or built is bad input
    // to the command line (exit 2), like an unparsable flag; exit 1 is
    // for a command that fails on a well-formed scenario.
    let load = |path: &str| {
        Scenario::from_path(path).unwrap_or_else(|e| fail(format!("scenario error: {e}")))
    };
    let scenario = load(&args[1]);
    let result = match command {
        "bounds" => cmd_bounds(&scenario),
        "verify" => cmd_verify(&scenario),
        "maximize" => cmd_maximize(
            &scenario,
            args.get(2).map(String::as_str).unwrap_or("heuristic"),
        ),
        "simulate" => {
            let horizon = match args.get(2) {
                None => 0.3,
                Some(raw) => raw.parse().unwrap_or_else(|_| {
                    fail(format!(
                        "simulate expects a horizon in seconds, got '{raw}'"
                    ))
                }),
            };
            cmd_simulate(&scenario, horizon)
        }
        "metrics" => cmd_metrics(&scenario, json),
        "explain" => cmd_explain(&scenario, json),
        "reconfigure" => {
            let Some(new_path) = args.get(2) else {
                eprintln!("reconfigure requires <old.toml> <new.toml>");
                std::process::exit(2);
            };
            cmd_reconfigure(&scenario, &load(new_path), json)
        }
        "serve" => {
            let Some(port) = port else {
                eprintln!("serve requires --port N");
                std::process::exit(2);
            };
            let listener = match std::net::TcpListener::bind((bind.as_str(), port)) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot bind {bind}:{port}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "serving on http://{bind}:{port} — GET /metrics (Prometheus), /snapshot, \
                 /trace, /slo, /alerts (JSON-lines), POST /reconfigure (hot reload)"
            );
            uba_cli::serve::serve(&scenario, listener, None, Some(&args[1])).map(|()| String::new())
        }
        _ => usage(),
    };
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if dump_metrics && command != "metrics" {
        println!();
        print!("{}", render_global_metrics(json));
    }
}

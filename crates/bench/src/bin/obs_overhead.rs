//! Experiment OBS — every admit-path gate, in one process.
//!
//! The paper's run-time claim is that admission is a constant-time
//! utilization test per link of the route. Everything since layered on
//! that path must leave it (nearly) that cheap, and the path must scale
//! with cores instead of collapsing on a lock. Every gate on the claim
//! runs here, on controllers over shortest-path routes at α = 0.3 (a
//! couple of flows per link admissible, so the loops exercise reserve,
//! rollback and release, not only the reject path):
//!
//! * four A/B gates on the MCI setting, each the same admit+release loop
//!   on two subjects in alternating rounds (`uba_bench::overhead_gate`):
//!   **metering**, **tracing**, **SLO evaluation** and the **generation
//!   pointer** — each function below gives its subjects and its bound;
//! * the **thread sweep** over MCI, an 8×8 torus and a one-link `hotlink`
//!   star, reading each cell's throughput, sampled latency and CAS
//!   retries through its own registry window: scaling floors, live
//!   telemetry in every cell, and CAS retries on a contended hotlink;
//! * the **batching** gate: 32-flow bursts through `try_admit_batch`
//!   against the same flows put to `try_admit` one by one.
//!
//! Every gate returns its verdict; the run prints them all and exits
//! non-zero naming each gate that failed. The gates are relative, so
//! they hold on any host; absolute numbers are printed beside them. The
//! full run writes `BENCH_admission.json` (the sweep's cells, validated
//! by the `uba-obs` JSON parser) into the working directory when the
//! sweep's and the batching gates pass.
//!
//! Run with: `cargo run -p uba-bench --release --bin obs_overhead`
//! (`obs_overhead smoke` — the `scripts/verify.sh` lane — runs shorter
//! loops with looser A/B bounds and a looser scaling floor, sweeps MCI
//! and hotlink at 1–2 threads only, and skips the JSON write.)

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use uba::admission::{AdmissionController, FlowHandle, FlowSpec};
use uba::obs::{standard_rules, trace, SloConfig, SloEngine, SnapshotValue};
use uba::prelude::*;
use uba_bench::{admit_release_batch, overhead_gate, sp_generation, PaperSetting};

/// Utilization assignment of every gate's controller.
const ALPHA: f64 = 0.3;

/// Reserved-rate window each sweep worker keeps open, so reservations
/// accumulate and the release path runs as often as the admit path.
const WINDOW: usize = 32;

/// Batched admission must beat the same bursts one by one by this factor.
const BATCH_FLOOR: f64 = 1.5;

/// Which configuration the gates run: the contract, or the short
/// `scripts/verify.sh` one with bounds that survive CI noise.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    Full,
    Smoke,
}

impl Lane {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Lane::Full => full,
            Lane::Smoke => smoke,
        }
    }
}

/// A gate's outcome; the error says what failed.
type Verdict = Result<(), String>;

/// `Ok` when `ok`, else the failure `msg` describes.
fn check(ok: bool, msg: impl FnOnce() -> String) -> Verdict {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Every failure among `checks`, in one verdict.
fn all(checks: impl IntoIterator<Item = Verdict>) -> Verdict {
    let failures: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
    check(failures.is_empty(), || failures.join("; "))
}

/// `(rounds, iters, bound %)` of an A/B gate: 15 × 200 000 admits in
/// full, 7 × 20 000 in smoke.
fn ab(lane: Lane, full_bound: f64, smoke_bound: f64) -> (usize, usize, f64) {
    lane.pick((15, 200_000, full_bound), (7, 20_000, smoke_bound))
}

/// `iters` round-robin admit+release decisions through `try_admit`.
fn admit_all(pairs: &[Pair], ctrl: &AdmissionController, iters: usize) -> f64 {
    admit_release_batch(pairs, iters, |p| ctrl.try_admit(ClassId(0), p.src, p.dst))
}

/// Metering: the `uba-obs` counters and the path-length histogram live
/// on the admit path, so the registry must cost (nearly) nothing there.
/// The subjects are two controllers over equal generations, one from
/// `from_generation` (metered, the default) and one from
/// `from_generation_unmetered`, the only caller-visible metering choice.
/// Contract: median overhead below 5 %.
fn metering(
    lane: Lane,
    pairs: &[Pair],
    metered: &AdmissionController,
    unmetered: &AdmissionController,
) -> Verdict {
    println!("==> metering: metered vs unmetered controller");
    overhead_gate(
        "instrumentation",
        ab(lane, 5.0, 50.0),
        ("metered", |iters| admit_all(pairs, metered, iters)),
        ("unmetered", |iters| admit_all(pairs, unmetered, iters)),
    )
}

/// Tracing: the global flight recorder on vs off around the same
/// metered loop, and the enabled recorder must capture events. An
/// enabled recorder writes a 40-byte event per admit and per release —
/// ≈ 17 ns each with thread-batched clock reads and publishes — against
/// a ≈ 120 ns admit+release, so 5 % would ask for ≈ 3 ns an event, below
/// one thread-local push. Contract: median below 45 %, over the measured
/// ≈ 33 %; a per-event clock read or lock reads +80 % and worse.
fn tracing(lane: Lane, pairs: &[Pair], metered: &AdmissionController) -> Verdict {
    println!("==> tracing: flight recorder on vs off");
    let tracer = trace::global();
    // The ring is drained between batches so enabled rounds pay
    // steady-state overwrite cost, not an ever-deeper queue.
    let run = |on: bool, iters: usize| {
        tracer.set_enabled(on);
        let t = admit_all(pairs, metered, iters);
        tracer.set_enabled(false);
        tracer.drain();
        t
    };
    let gate = overhead_gate(
        "tracing",
        ab(lane, 45.0, 60.0),
        ("traced", |iters| run(true, iters)),
        ("untraced", |iters| run(false, iters)),
    );
    tracer.set_enabled(true);
    admit_all(pairs, metered, pairs.len());
    tracer.set_enabled(false);
    let captured = !tracer.drain().events.is_empty();
    all([
        gate,
        check(captured, || "the flight recorder captured nothing".into()),
    ])
}

/// Runs `batch` while an evaluator thread snapshots the global registry
/// and closes an SLO window every 2 ms; returns the batch's seconds and
/// the windows closed. The batch starts only once the evaluator has
/// anchored and closed its first window, so every measured admit
/// overlaps live evaluation.
fn under_evaluation(batch: impl FnOnce() -> f64) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let started = AtomicBool::new(false);
    std::thread::scope(|s| {
        let evaluator = s.spawn(|| {
            let mut engine =
                SloEngine::new(uba::obs::global(), standard_rules(&SloConfig::default()));
            engine.evaluate(uba::obs::global().snapshot()); // anchor
            let mut windows = 0u64;
            while !stop.load(Ordering::Relaxed) {
                engine.evaluate(uba::obs::global().snapshot());
                windows += 1;
                started.store(true, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            windows
        });
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let dt = batch();
        stop.store(true, Ordering::Relaxed);
        (dt, evaluator.join().expect("evaluator thread"))
    })
}

/// SLO evaluation: `uba-cli serve` evaluates an `SloEngine` over full
/// registry snapshots on a polling thread while admission goes on. The
/// evaluated side runs a batch beside an evaluator closing a window
/// every 2 ms — several times serve's cadence — which must close at
/// least one window per batch; the quiet side runs alone. On one core
/// every microsecond the evaluator spends is stolen from the admit path.
/// (A zero-sleep evaluator is not the subject: a snapshot spin measures
/// timeslicing and cacheline ping-pong, a load no poller generates.)
/// Contract: median overhead below 5 %.
fn slo_evaluation(lane: Lane, pairs: &[Pair], metered: &AdmissionController) -> Verdict {
    println!("==> SLO evaluation: admitting under a polling evaluator vs quiet");
    let fewest_windows = std::cell::Cell::new(u64::MAX);
    let gate = overhead_gate(
        "SLO-evaluation",
        ab(lane, 5.0, 50.0),
        ("evaluated", |iters| {
            let (dt, windows) = under_evaluation(|| admit_all(pairs, metered, iters));
            fewest_windows.set(fewest_windows.get().min(windows));
            dt
        }),
        ("quiet", |iters| admit_all(pairs, metered, iters)),
    );
    all([
        gate,
        check(fewest_windows.get() > 0, || {
            "a batch ran with no SLO window closed".into()
        }),
    ])
}

/// Generation pointer: live reconfiguration makes every `try_admit`
/// resolve the current `ConfigGeneration` first (one epoch load
/// validating a thread-local cache). The baseline is `try_admit_on` a
/// pre-resolved generation — what admission cost before configurations
/// were versioned. Unmetered, so the delta is the pointer machinery
/// alone. Contract: median overhead below 5 %.
fn generation_pointer(lane: Lane, pairs: &[Pair], unmetered: &AdmissionController) -> Verdict {
    println!("==> generation pointer: versioned vs pinned generation");
    let generation = unmetered.current_generation();
    overhead_gate(
        "generation-pointer",
        ab(lane, 5.0, 50.0),
        ("versioned", |iters| admit_all(pairs, unmetered, iters)),
        ("pinned", |iters| {
            admit_release_batch(pairs, iters, |p| {
                unmetered.try_admit_on(&generation, ClassId(0), p.src, p.dst)
            })
        }),
    )
}

/// One measured sweep cell.
struct Cell {
    topology: &'static str,
    threads: usize,
    /// Burst size through `try_admit_batch`; `0` means the per-flow
    /// `try_admit` path.
    batch: usize,
    ops_per_sec: f64,
    /// Throughput relative to the 1-thread cell of the same topology
    /// (batch cells: relative to `batch = 1`).
    scaling: f64,
    p50_admit_ns: f64,
    p99_admit_ns: f64,
    latency_samples: u64,
    retry_records: u64,
    retries_per_op: f64,
}

/// Runs one cell: `threads` workers, each admitting over a disjoint
/// stride of `pairs` with a rotating window of held flows. Returns
/// ops/sec — workers flush their metric buffers at thread exit, so the
/// caller's registry delta sees everything.
fn run_cell(ctrl: &AdmissionController, pairs: &[Pair], threads: usize, iters: usize) -> f64 {
    let t0 = Instant::now();
    let mut admitted_total = 0u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let ctrl = ctrl.clone();
                s.spawn(move || {
                    // Disjoint stride: worker t owns pairs t, t+T, t+2T, …
                    // so no two workers hammer the same route head-on by
                    // construction, and contention comes from genuinely
                    // shared links.
                    let mine: Vec<Pair> = pairs.iter().copied().skip(t).step_by(threads).collect();
                    let mine = if mine.is_empty() {
                        pairs.to_vec()
                    } else {
                        mine
                    };
                    let mut held = VecDeque::with_capacity(WINDOW + 1);
                    let mut admitted = 0u64;
                    for i in 0..iters {
                        let p = mine[i % mine.len()];
                        if let Ok(h) = ctrl.try_admit(ClassId(0), p.src, p.dst) {
                            admitted += 1;
                            held.push_back(h);
                            if held.len() > WINDOW {
                                held.pop_front();
                            }
                        }
                    }
                    drop(held);
                    admitted
                })
            })
            .collect();
        for w in workers {
            admitted_total += w.join().unwrap();
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    assert!(admitted_total > 0, "workload must admit flows");
    (threads * iters) as f64 / dt.max(1e-9)
}

/// Star-through-a-bottleneck: `sources` leaf routers feed one hub, and
/// every (leaf → sink) pair crosses the single hub→sink link. At 10 Mb/s
/// and α = 0.3 that link budgets ≈93 voip flows — less than the workers'
/// combined held windows — so admissions genuinely contend for one
/// budget cell and the CAS-retry telemetry has to fire.
fn hotlink(sources: usize) -> (Digraph, Vec<Pair>) {
    let hub = NodeId(sources as u32);
    let sink = NodeId(sources as u32 + 1);
    let mut g = Digraph::with_nodes(sources + 2);
    for i in 0..sources {
        g.add_link(NodeId(i as u32), hub, 1.0);
    }
    g.add_link(hub, sink, 1.0);
    let pairs = (0..sources)
        .map(|i| Pair {
            src: NodeId(i as u32),
            dst: sink,
        })
        .collect();
    (g, pairs)
}

/// Runs one batched cell: a single worker admitting `iters` flows in
/// bursts of `batch` same-pair arrivals through `try_admit_batch` — or,
/// `one_by_one`, each flow of the burst through `try_admit` — with the
/// same rotating held window as [`run_cell`]. Returns seconds.
fn run_batch_cell(
    ctrl: &AdmissionController,
    pairs: &[Pair],
    batch: usize,
    one_by_one: bool,
    iters: usize,
) -> f64 {
    let t0 = Instant::now();
    let mut held: VecDeque<FlowHandle> = VecDeque::with_capacity(WINDOW + batch);
    let mut specs: Vec<FlowSpec> = Vec::with_capacity(batch);
    let mut admitted = 0u64;
    let mut burst = 0usize;
    let mut done = 0usize;
    while done < iters {
        let n = batch.min(iters - done);
        let p = pairs[burst % pairs.len()];
        burst += 1;
        specs.clear();
        specs.resize(
            n,
            FlowSpec {
                class: ClassId(0),
                src: p.src,
                dst: p.dst,
            },
        );
        let flows = if one_by_one {
            specs
                .iter()
                .map(|s| ctrl.try_admit(s.class, s.src, s.dst))
                .collect()
        } else {
            ctrl.try_admit_batch(&specs).flows
        };
        for h in flows.into_iter().flatten() {
            admitted += 1;
            held.push_back(h);
        }
        while held.len() > WINDOW {
            held.pop_front();
        }
        done += n;
    }
    drop(held);
    let dt = t0.elapsed().as_secs_f64();
    assert!(admitted > 0, "batched workload must admit flows");
    dt.max(1e-9)
}

/// Histogram digest (count, p50, p99, mean) for `name` in a delta
/// snapshot; zeros when absent or empty.
fn hist(d: &uba::obs::Snapshot, name: &str) -> (u64, f64, f64, f64) {
    match d.get(name) {
        Some(SnapshotValue::Histogram {
            count,
            p50,
            p99,
            mean,
            ..
        }) => (
            *count,
            p50.unwrap_or(0.0),
            p99.unwrap_or(0.0),
            mean.unwrap_or(0.0),
        ),
        _ => (0, 0.0, 0.0, 0.0),
    }
}

/// Measures one cell: runs `work` (which returns ops/sec) inside a
/// registry delta window, so the cell reads only its own latency and
/// retry samples. `base_ops` is the column's first cell (`None` for that
/// cell itself).
fn measure(
    ctrl: &AdmissionController,
    topology: &'static str,
    threads: usize,
    batch: usize,
    base_ops: Option<f64>,
    work: impl FnOnce() -> f64,
) -> Cell {
    let registry = uba::obs::global();
    ctrl.refresh_gauges();
    let before = registry.snapshot();
    let ops_per_sec = work();
    ctrl.refresh_gauges();
    let d = registry.snapshot().delta_since(&before);
    let (latency_samples, p50_admit_ns, p99_admit_ns, _) = hist(&d, "admission.admit_ns");
    let (retry_records, _, _, retries_per_op) = hist(&d, "admission.retries_per_op");
    Cell {
        topology,
        threads,
        batch,
        ops_per_sec,
        scaling: ops_per_sec / base_ops.unwrap_or(ops_per_sec),
        p50_admit_ns,
        p99_admit_ns,
        latency_samples,
        retry_records,
        retries_per_op,
    }
}

/// The thread sweep: per-flow cells at each of `thread_counts` on every
/// topology, then single-threaded batch cells `B ∈ {1, 8, 32}` on MCI.
/// Its verdicts:
///
/// * **telemetry** — every cell, batch cells included, observes latency
///   samples and retry records: the observatory cannot go dark;
/// * **scaling** — `ops(T) / ops(1) ≥ max(0.5, 0.45 · min(T, cores))`
///   (smoke: 0.2, which only a lock collapse breaks) — real cores must
///   scale, a starved host must not collapse under oversubscription.
///   `hotlink` serializes on one budget cell by design and batch cells
///   are single-threaded, so neither is held to it;
/// * **contention** (full lane, ≥ 4 cores) — the contended hotlink cells
///   observe CAS retries. On fewer cores a compare-exchange fails only
///   when preemption lands in its ~10 ns window, which a short run may
///   never see.
fn sweep(
    lane: Lane,
    setting: &PaperSetting,
    mci: &AdmissionController,
    thread_counts: &[usize],
    iters: usize,
) -> (Vec<Cell>, Vec<(&'static str, Verdict)>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("==> thread sweep: {cores} core(s), threads {thread_counts:?}, {iters} iters/thread");
    let torus = uba::topology::torus(8, 8);
    let torus_servers = Servers::uniform(&torus, 100e6, 4);
    let torus_pairs: Vec<Pair> = all_ordered_pairs(&torus).into_iter().step_by(12).collect();
    let (hot_g, hot_pairs) = hotlink(16);
    let hot_servers = Servers::uniform(&hot_g, 10e6, 4);
    let controller = |g: &Digraph, servers: &Servers, pairs: &[Pair]| {
        AdmissionController::from_generation(sp_generation(g, servers, &setting.voip, pairs, ALPHA))
    };

    let mut topologies = vec![("mci", mci.clone(), setting.pairs.as_slice())];
    if lane == Lane::Full {
        let torus_ctrl = controller(&torus, &torus_servers, &torus_pairs);
        topologies.push(("torus8x8", torus_ctrl, torus_pairs.as_slice()));
    }
    // The contended star runs in both lanes: its telemetry is gated in
    // smoke too.
    let hot_ctrl = controller(&hot_g, &hot_servers, &hot_pairs);
    topologies.push(("hotlink", hot_ctrl, hot_pairs.as_slice()));

    let mut cells: Vec<Cell> = Vec::new();
    for (topology, ctrl, pairs) in &topologies {
        // Warm-up: fault in routes and metric handles outside the
        // measured window.
        run_cell(ctrl, pairs, 1, iters / 10);
        let mut base_ops = None;
        for &threads in thread_counts {
            let cell = measure(ctrl, topology, threads, 0, base_ops, || {
                run_cell(ctrl, pairs, threads, iters)
            });
            base_ops.get_or_insert(cell.ops_per_sec);
            println!(
                "{:>8} T={}: {:>10.0} ops/s (x{:.2}), admit p50 {:>6.0} ns p99 {:>7.0} ns \
                 ({} samples), {:.4} retries/op",
                cell.topology,
                cell.threads,
                cell.ops_per_sec,
                cell.scaling,
                cell.p50_admit_ns,
                cell.p99_admit_ns,
                cell.latency_samples,
                cell.retries_per_op,
            );
            cells.push(cell);
        }
    }

    let pairs = &setting.pairs;
    run_batch_cell(mci, pairs, 1, false, iters / 10);
    let mut base_ops = None;
    for batch in [1, 8, 32] {
        let cell = measure(mci, "mci", 1, batch, base_ops, || {
            iters as f64 / run_batch_cell(mci, pairs, batch, false, iters)
        });
        base_ops.get_or_insert(cell.ops_per_sec);
        println!(
            "{:>8} B={}: {:>10.0} flows/s (x{:.2} vs B=1), admit p50 {:>6.0} ns ({} samples)",
            cell.topology,
            cell.batch,
            cell.ops_per_sec,
            cell.scaling,
            cell.p50_admit_ns,
            cell.latency_samples,
        );
        cells.push(cell);
    }

    let telemetry = all(cells.iter().map(|c| {
        check(c.latency_samples > 0 && c.retry_records > 0, || {
            format!(
                "{} T={} B={}: {} latency samples, {} retry records",
                c.topology, c.threads, c.batch, c.latency_samples, c.retry_records
            )
        })
    }));
    let floor = |threads: usize| lane.pick((0.45 * threads.min(cores) as f64).max(0.5), 0.2);
    let scaling = all(cells
        .iter()
        .filter(|c| c.topology != "hotlink" && c.batch == 0)
        .map(|c| {
            let floor = floor(c.threads);
            check(c.scaling >= floor, || {
                format!(
                    "{} at {} threads scaled x{:.2}, floor x{floor:.2}",
                    c.topology, c.threads, c.scaling
                )
            })
        }));
    let mut verdicts = vec![("sweep telemetry", telemetry), ("sweep scaling", scaling)];
    if lane == Lane::Full && cores >= 4 {
        let retries: f64 = cells
            .iter()
            .filter(|c| c.topology == "hotlink" && c.threads >= 4)
            .map(|c| c.retries_per_op)
            .sum();
        verdicts.push((
            "sweep contention",
            check(retries > 0.0, || {
                format!("hotlink at >=4 threads on {cores} cores observed no CAS retries")
            }),
        ));
    } else {
        println!("contention check skipped: it needs the full lane and >= 4 cores");
    }
    println!();
    (cells, verdicts)
}

/// Batching: one pinned generation, one reserve per link of the run's
/// route and one tracepoint per burst must pay, measured against the
/// same 32-flow bursts decided one flow at a time — the divisor is not
/// the `batch = 1` cell, which gets faster whenever a batch of one does.
/// Five alternating pairs at ten times a sweep cell's flows: the true
/// ratio sits within a fifth of the floor (release stays per flow), and
/// single pairs on a shared 2-vCPU host read 1.3–2.1. Contract: median
/// ≥ 1.5× the throughput, i.e. ≤ −33.3 % of the time.
fn batching(pairs: &[Pair], mci: &AdmissionController, iters: usize) -> Verdict {
    println!("==> batching: 32-flow bursts batched vs one by one");
    overhead_gate(
        "batching",
        (5, 10 * iters, (1.0 / BATCH_FLOOR - 1.0) * 100.0),
        ("batched", |n| run_batch_cell(mci, pairs, 32, false, n)),
        ("one by one", |n| run_batch_cell(mci, pairs, 32, true, n)),
    )
}

/// Writes the sweep's cells to `BENCH_admission.json`, the admission
/// layer's machine-readable trajectory point.
fn write_trajectory(cells: &[Cell], thread_counts: &[usize], iters: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::new();
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            body,
            "    {{\"topology\": \"{}\", \"threads\": {}, \"batch\": {}, \
             \"ops_per_sec\": {:.0}, \"scaling\": {:.3}, \"p50_admit_ns\": {:.0}, \
             \"p99_admit_ns\": {:.0}, \"latency_samples\": {}, \"retries_per_op\": {:.5}}}{}",
            c.topology,
            c.threads,
            c.batch,
            c.ops_per_sec,
            c.scaling,
            c.p50_admit_ns,
            c.p99_admit_ns,
            c.latency_samples,
            c.retries_per_op,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"obs_overhead\",\n",
            "  \"cores\": {},\n",
            "  \"threads\": {:?},\n",
            "  \"iters_per_thread\": {},\n",
            "  \"batch_floor\": {},\n",
            "  \"cells\": [\n{}  ]\n",
            "}}\n"
        ),
        cores, thread_counts, iters, BATCH_FLOOR, body,
    );
    uba::obs::json::parse(&json).expect("trajectory JSON must parse");
    std::fs::write("BENCH_admission.json", &json).expect("write BENCH_admission.json");
    println!("wrote BENCH_admission.json");
}

fn main() {
    let lane = if std::env::args().nth(1).as_deref() == Some("smoke") {
        Lane::Smoke
    } else {
        Lane::Full
    };
    let setting = PaperSetting::new();
    let pairs = &setting.pairs;
    let generation = || sp_generation(&setting.g, &setting.servers, &setting.voip, pairs, ALPHA);
    let metered = AdmissionController::from_generation(generation());
    let unmetered = AdmissionController::from_generation_unmetered(generation());

    let mut verdicts = vec![
        ("metering", metering(lane, pairs, &metered, &unmetered)),
        ("tracing", tracing(lane, pairs, &metered)),
        ("SLO evaluation", slo_evaluation(lane, pairs, &metered)),
        (
            "generation pointer",
            generation_pointer(lane, pairs, &unmetered),
        ),
    ];
    let thread_counts = lane.pick(vec![1, 2, 4, 8], vec![1, 2]);
    let iters = lane.pick(120_000, 20_000);
    let (cells, sweep_verdicts) = sweep(lane, &setting, &metered, &thread_counts, iters);
    let sweep_passed = sweep_verdicts.iter().all(|(_, v)| v.is_ok());
    verdicts.extend(sweep_verdicts);
    let batching = batching(pairs, &metered, iters);
    let batching_passed = batching.is_ok();
    verdicts.push(("batching", batching));
    println!();

    match lane {
        Lane::Smoke => println!("smoke mode: skipping BENCH_admission.json write"),
        Lane::Full if sweep_passed && batching_passed => {
            write_trajectory(&cells, &thread_counts, iters)
        }
        Lane::Full => println!("a sweep or batching gate failed: BENCH_admission.json not written"),
    }

    println!("==> verdicts");
    for (gate, verdict) in &verdicts {
        match verdict {
            Ok(()) => println!("{gate:>20}: ✓"),
            Err(why) => println!("{gate:>20}: FAILED — {why}"),
        }
    }
    let failed: Vec<&str> = verdicts
        .iter()
        .filter(|(_, v)| v.is_err())
        .map(|(gate, _)| *gate)
        .collect();
    if !failed.is_empty() {
        eprintln!("obs_overhead: failed gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}

//! `bench serve` — the serving-layer load test and CI gate.
//!
//! Three phases, all on the virtual clock (bit-reproducible):
//!
//! 1. **Calibrate** (closed loop): one request at a time on a clean
//!    device measures the sustainable service time S cycles/request.
//! 2. **Overload** (open loop): `requests` arrivals every S/2 cycles —
//!    2x the sustainable rate — under a seeded fault storm. Admission
//!    control sheds, the breaker trips and reroutes to the CPU rung,
//!    deadlines degrade to greedy-with-bound; every answer is
//!    re-verified externally against the CPU ground truth.
//! 3. **Determinism**: the overload phase runs twice and the two runs'
//!    fingerprints (every outcome + the serialized metrics) must be
//!    identical, or the binary exits nonzero.
//!
//! Prints the summary and writes `target/experiments/serve.json`;
//! `--write-baseline` also records `BENCH_serve.json` (or `--baseline
//! PATH`). `bench gate --only serve` checks a fresh recording against
//! the committed file: incorrect answers, an unbounded queue, broken
//! request accounting, a scenario that stopped shedding or degrading,
//! or >10% drift of service time / latency / the exact-answer floor.
//!
//! Grid: `--sizes N` (first entry; default 24), `--batch R` (requests;
//! default 48, 96 under `--full`), `--seed S`.

use bench::{
    calibrate_service_cycles, run_open_loop, write_baseline, Args, ExperimentRecord, LoadSpec,
    Measurement,
};
use serde::Serialize;
use std::time::Instant;

/// `BENCH_serve.json`: the scenario, its calibrated service time, and
/// the overload run's outcome counts and latencies (virtual cycles);
/// wall seconds are context only.
#[derive(Serialize)]
struct Baseline {
    n: usize,
    requests: usize,
    offered: u64,
    seed: u64,
    queue_capacity: usize,
    service_cycles_per_request: f64,
    inter_arrival_cycles: u64,
    exact: u64,
    degraded: u64,
    shed: u64,
    deadline_exceeded: u64,
    rerouted: u64,
    breaker_trips: u64,
    incorrect: u64,
    queue_high_water: usize,
    p50_latency_cycles: u64,
    p99_latency_cycles: u64,
    wall_seconds: f64,
}

fn main() {
    let args = Args::parse();
    let n = args
        .sizes
        .as_deref()
        .and_then(|s| s.first().copied())
        .unwrap_or(24);
    let requests = args.batch.unwrap_or(if args.full { 96 } else { 48 });
    let seed = args.seed;

    let wall_start = Instant::now();

    // Calibration shares the scenario's spec but runs clean (no storm)
    // and unconstrained (no deadlines) — the sustainable baseline.
    let mut spec = LoadSpec {
        n,
        requests,
        seed,
        queue_capacity: 8,
        max_batch: 4,
        batch_window_cycles: 5_000,
        budget_cycles: None,
        tight_every: 0,
        tight_budget_cycles: 0,
        storm_rate: 0.0,
    };
    let service_cycles = calibrate_service_cycles(&spec, 6);
    let inter_arrival = (service_cycles / 2.0).max(1.0) as u64;
    println!(
        "serve load test: n={n} requests={requests} seed={seed}\n\
         sustainable service time {service_cycles:.0} cycles/request; \
         offering 2x (one arrival every {inter_arrival} cycles)"
    );

    // The overload phase: storm on, deadlines on. The bulk tier gets a
    // generous multiple of the sustainable time; every 4th request is an
    // interactive-tier request whose budget exact solving cannot meet
    // once the queue has built up, exercising the greedy rung.
    spec.storm_rate = 0.05;
    spec.budget_cycles = Some((service_cycles * 8.0) as u64);
    spec.tight_every = 4;
    spec.tight_budget_cycles = (service_cycles * 4.0) as u64;
    let summary = run_open_loop(&spec, inter_arrival);
    let rerun = run_open_loop(&spec, inter_arrival);
    if summary.fingerprint != rerun.fingerprint {
        eprintln!(
            "FAIL: two runs of the same seeded scenario diverged — serving is not deterministic"
        );
        std::process::exit(1);
    }

    if std::env::var("SERVE_DEBUG").is_ok() {
        println!("{}", summary.fingerprint);
    }
    println!("\n{:<26} {:>12}", "metric", "value");
    let rows: &[(&str, f64)] = &[
        ("offered", summary.offered as f64),
        ("exact", summary.exact as f64),
        ("degraded", summary.degraded as f64),
        ("shed", summary.shed as f64),
        ("deadline_exceeded", summary.deadline_exceeded as f64),
        ("rerouted", summary.rerouted as f64),
        ("retries", summary.retries as f64),
        ("breaker_trips", summary.breaker_trips as f64),
        ("queue_high_water", summary.queue_high_water as f64),
        ("incorrect", summary.incorrect as f64),
        ("p50_latency_cycles", summary.p50_latency_cycles as f64),
        ("p99_latency_cycles", summary.p99_latency_cycles as f64),
    ];
    for (k, v) in rows {
        println!("{k:<26} {v:>12.0}");
    }
    let wall = wall_start.elapsed().as_secs_f64();

    let mut record = ExperimentRecord::new(
        "serve",
        format!("n={n} requests={requests} 2x-overload storm=0.05"),
        seed,
    );
    record.push(Measurement {
        engine: "serve".into(),
        n,
        k: 100,
        label: format!(
            "exact={} degraded={} shed={} deadline={} p99={}",
            summary.exact,
            summary.degraded,
            summary.shed,
            summary.deadline_exceeded,
            summary.p99_latency_cycles
        ),
        modeled_seconds: service_cycles / spec.device().clock_hz,
        wall_seconds: wall,
        objective: 0.0,
        extrapolated: false,
        host_threads: 0,
        device_steps: 0,
        profile_events: 0,
    });
    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    let current = Baseline {
        n,
        requests,
        offered: summary.offered,
        seed,
        queue_capacity: spec.queue_capacity,
        service_cycles_per_request: service_cycles,
        inter_arrival_cycles: inter_arrival,
        exact: summary.exact,
        degraded: summary.degraded,
        shed: summary.shed,
        deadline_exceeded: summary.deadline_exceeded,
        rerouted: summary.rerouted,
        breaker_trips: summary.breaker_trips,
        incorrect: summary.incorrect,
        queue_high_water: summary.queue_high_water,
        p50_latency_cycles: summary.p50_latency_cycles,
        p99_latency_cycles: summary.p99_latency_cycles,
        wall_seconds: wall,
    };
    write_baseline(&args, "BENCH_serve.json", &current);
}

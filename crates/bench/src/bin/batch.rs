//! `bench batch` — the batched multi-instance harness and CI perf gate.
//!
//! Solves a batch of B Gaussian LSAP instances through every batch engine
//! and through the looping [`SequentialBatch`] baseline, reporting the
//! amortized per-instance cost next to the per-solve cost:
//!
//! - **IPU** (`hunipu-batch`): the sequential baseline recompiles and
//!   reloads the solve program for every instance; the batch engine
//!   compiles once per tensor shape and streams instances through the
//!   cached program (the static-program constraint C4 makes the reuse
//!   free). Gated metric: simulated cycles/instance.
//! - **GPU** (`fastha-batch`): lockstep batched kernels replace B
//!   independent launch-and-sync loops, so per-round host syncs are paid
//!   once per batch instead of once per instance. Gated metric: modeled
//!   device µs/instance.
//! - **CPU** (`cpu-batch-jv`): nothing to amortize in the modeled sense;
//!   instances are farmed across host threads for wall-clock throughput
//!   (informational, never gated — wall time is machine-dependent).
//!
//! Prints the table and writes `target/experiments/batch.json`;
//! `--write-baseline` also records `BENCH_batch.json` (or `--baseline
//! PATH`). `bench gate --only batch` checks a fresh recording against
//! the committed file (rules in `bench::gates`).
//!
//! Grid: `--sizes N` (first entry; default 64), `--batch B` (default 16,
//! 32 under `--full`), `--ks K` (first entry; default 10), `--seed S`.

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use cpu_hungarian::{CpuBatch, JonkerVolgenant};
use datasets::gaussian_cost_matrix;
use fastha::{BatchFastHa, FastHa};
use hunipu::{BatchHunIpu, BatchStrategy, HunIpu};
use lsap::{BatchLsapSolver, BatchReport, CostMatrix, SequentialBatch};
use serde::Serialize;

/// `BENCH_batch.json`: the grid plus one row per batch engine.
#[derive(Serialize)]
struct Baseline {
    n: usize,
    batch: usize,
    seed: u64,
    entries: Vec<BaselineEntry>,
}

/// One engine's per-instance cost, sequential (`single`) vs amortized
/// (`batched`), in `metric` units; wall numbers are context only.
#[derive(Serialize)]
struct BaselineEntry {
    engine: String,
    metric: String,
    single: f64,
    batched: f64,
    wall_seconds: f64,
    instances_per_sec: f64,
}

fn main() {
    let args = Args::parse();
    let n = args
        .sizes
        .as_deref()
        .and_then(|s| s.first().copied())
        .unwrap_or(64);
    let b = args.batch.unwrap_or(if args.full { 32 } else { 16 });
    let k = args
        .ks
        .as_deref()
        .and_then(|s| s.first().copied())
        .unwrap_or(10);
    let seed = args.seed;

    println!("batch harness: n={n} batch={b} k={k} seed={seed}");
    let batch: Vec<CostMatrix> = (0..b)
        .map(|i| gaussian_cost_matrix(n, k, seed.wrapping_add(i as u64)))
        .collect();

    let grid = format!("n={n} batch={b} k={k}");
    let mut record = ExperimentRecord::new("batch", grid, seed);
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();

    run_hunipu(&args, &batch, n, k, &mut record, &mut entries, &mut rows);
    run_fastha(&batch, n, k, &mut record, &mut entries, &mut rows);
    run_cpu(&batch, n, k, &mut record, &mut rows);

    print_table(&rows);

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    let current = Baseline {
        n,
        batch: b,
        seed,
        entries,
    };
    write_baseline(&args, "BENCH_batch.json", &current);
}

struct Row {
    engine: &'static str,
    metric: &'static str,
    single: f64,
    batched: f64,
    wall_ips: f64,
}

/// IPU: batch streams through one cached program; the sequential baseline
/// recompiles per solve, so it pays the program load `B` times.
fn run_hunipu(
    args: &Args,
    batch: &[CostMatrix],
    n: usize,
    k: u64,
    record: &mut ExperimentRecord,
    entries: &mut Vec<BaselineEntry>,
    rows: &mut Vec<Row>,
) {
    let b = batch.len();
    let batched = solve_checked(&mut BatchHunIpu::new(), batch, "hunipu-batch");
    let load = batched
        .stats
        .overhead_cycles
        .expect("hunipu batch reports overhead cycles");
    let seq = solve_checked(
        &mut SequentialBatch::new(HunIpu::new()),
        batch,
        "hunipu seq",
    );
    assert_reports_match(&seq, &batched, "hunipu");

    // Per-instance cost of the loop = pure solve cost + one program load
    // per solve; the batch pays the load once for the whole (same-shape)
    // batch. Both sides are simulated cycles — deterministic everywhere.
    let seq_solve = seq.stats.modeled_cycles.expect("hunipu counts cycles");
    let single = (seq_solve + load * b as u64) as f64 / b as f64;
    let amortized = batched
        .stats
        .amortized_cycles()
        .expect("non-empty hunipu batch");
    let spc = seq.stats.modeled_seconds.expect("hunipu models seconds") / seq_solve as f64;

    push_measurements(
        record,
        "hunipu",
        n,
        k,
        single * spc,
        batched.stats.amortized_seconds().expect("non-empty"),
        &seq,
        &batched,
    );
    entries.push(BaselineEntry {
        engine: "hunipu-batch".into(),
        metric: "cycles/instance".into(),
        single,
        batched: amortized,
        wall_seconds: batched.stats.wall_seconds,
        instances_per_sec: batched.stats.wall_instances_per_sec(),
    });
    rows.push(Row {
        engine: "hunipu",
        metric: "cycles/inst",
        single,
        batched: amortized,
        wall_ips: batched.stats.wall_instances_per_sec(),
    });

    // Block-diagonal packing fuses several instances into one bigger
    // solve; interesting but slower to simulate, so only under --full.
    if args.full {
        let mut packer = BatchHunIpu::new().with_strategy(BatchStrategy::Pack { group: 4 });
        let packed = solve_checked(&mut packer, batch, "hunipu-pack");
        let amortized = packed.stats.amortized_cycles().expect("non-empty");
        rows.push(Row {
            engine: "hunipu(pack4)",
            metric: "cycles/inst",
            single,
            batched: amortized,
            wall_ips: packed.stats.wall_instances_per_sec(),
        });
    }
}

/// GPU: lockstep batched kernels vs. B independent launch/sync loops.
fn run_fastha(
    batch: &[CostMatrix],
    n: usize,
    k: u64,
    record: &mut ExperimentRecord,
    entries: &mut Vec<BaselineEntry>,
    rows: &mut Vec<Row>,
) {
    if !n.is_power_of_two() {
        println!("skipping fastha: n={n} is not a power of two");
        return;
    }
    let b = batch.len();
    let batched = solve_checked(&mut BatchFastHa::new(), batch, "fastha-batch");
    let seq = solve_checked(
        &mut SequentialBatch::new(FastHa::new()),
        batch,
        "fastha seq",
    );
    assert_reports_match(&seq, &batched, "fastha");

    let single_s = seq.stats.modeled_seconds.expect("fastha models seconds") / b as f64;
    let batched_s = batched.stats.amortized_seconds().expect("non-empty");

    push_measurements(record, "fastha", n, k, single_s, batched_s, &seq, &batched);
    entries.push(BaselineEntry {
        engine: "fastha-batch".into(),
        metric: "modeled_us/instance".into(),
        single: single_s * 1e6,
        batched: batched_s * 1e6,
        wall_seconds: batched.stats.wall_seconds,
        instances_per_sec: batched.stats.wall_instances_per_sec(),
    });
    rows.push(Row {
        engine: "fastha",
        metric: "us/inst",
        single: single_s * 1e6,
        batched: batched_s * 1e6,
        wall_ips: batched.stats.wall_instances_per_sec(),
    });
}

/// CPU: no modeled overhead to amortize — the win is wall-clock farming,
/// which is machine-dependent and therefore reported but never gated.
fn run_cpu(
    batch: &[CostMatrix],
    n: usize,
    k: u64,
    record: &mut ExperimentRecord,
    rows: &mut Vec<Row>,
) {
    let b = batch.len();
    let farmed = solve_checked(&mut CpuBatch::new(), batch, "cpu-batch");
    let seq = solve_checked(
        &mut SequentialBatch::new(JonkerVolgenant::new()),
        batch,
        "cpu seq",
    );
    assert_reports_match(&seq, &farmed, "cpu");

    record.push(Measurement {
        engine: "cpu".into(),
        n,
        k,
        label: "batched".into(),
        modeled_seconds: 0.0,
        wall_seconds: farmed.stats.wall_seconds,
        objective: farmed.total_objective(),
        extrapolated: false,
        host_threads: 0,
        device_steps: 0,
        profile_events: 0,
    });
    rows.push(Row {
        engine: "cpu(jv)",
        metric: "wall us/inst",
        single: seq.stats.wall_seconds / b as f64 * 1e6,
        batched: farmed.stats.wall_seconds / b as f64 * 1e6,
        wall_ips: farmed.stats.wall_instances_per_sec(),
    });
}

fn solve_checked(
    solver: &mut dyn BatchLsapSolver,
    batch: &[CostMatrix],
    what: &str,
) -> BatchReport {
    let report = solver
        .solve_batch(batch)
        .unwrap_or_else(|e| panic!("{what} failed: {e}"));
    report
        .verify_all(batch, hunipu::F32_VERIFY_EPS)
        .unwrap_or_else(|e| panic!("{what} produced an invalid certificate: {e}"));
    report
}

/// The batch engines promise bit-identical per-instance results to their
/// single-instance solver; a bench that silently benchmarked divergent
/// answers would be meaningless, so fail hard.
fn assert_reports_match(seq: &BatchReport, batched: &BatchReport, engine: &str) {
    assert_eq!(seq.reports.len(), batched.reports.len());
    for (i, (s, r)) in seq.reports.iter().zip(&batched.reports).enumerate() {
        if s.assignment != r.assignment || s.objective.to_bits() != r.objective.to_bits() {
            eprintln!(
                "DIVERGENCE: {engine} instance {i}: sequential objective {} vs batched {}",
                s.objective, r.objective
            );
            std::process::exit(1);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_measurements(
    record: &mut ExperimentRecord,
    engine: &str,
    n: usize,
    k: u64,
    single_seconds: f64,
    batched_seconds: f64,
    seq: &BatchReport,
    batched: &BatchReport,
) {
    let steps = |r: &BatchReport| r.reports.iter().map(|x| x.stats.device_steps).sum();
    record.push(Measurement {
        engine: engine.into(),
        n,
        k,
        label: "sequential".into(),
        modeled_seconds: single_seconds,
        wall_seconds: seq.stats.wall_seconds,
        objective: seq.total_objective(),
        extrapolated: false,
        host_threads: 0,
        device_steps: steps(seq),
        profile_events: 0,
    });
    record.push(Measurement {
        engine: engine.into(),
        n,
        k,
        label: "batched".into(),
        modeled_seconds: batched_seconds,
        wall_seconds: batched.stats.wall_seconds,
        objective: batched.total_objective(),
        extrapolated: false,
        host_threads: 0,
        device_steps: steps(batched),
        profile_events: 0,
    });
}

fn print_table(rows: &[Row]) {
    println!(
        "\n{:<14} {:>14} {:>14} {:>14} {:>8} {:>12}",
        "engine", "metric", "single/inst", "batch/inst", "win", "wall inst/s"
    );
    for r in rows {
        println!(
            "{:<14} {:>14} {:>14.2} {:>14.2} {:>7.2}x {:>12.1}",
            r.engine,
            r.metric,
            r.single,
            r.batched,
            r.single / r.batched,
            r.wall_ips
        );
    }
}

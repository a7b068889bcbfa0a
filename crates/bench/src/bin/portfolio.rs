//! `bench portfolio` — dispatch-regret measurement and CI gate for the
//! calibrated solver portfolio.
//!
//! For every cell of an `(n, k, batch, chips)` grid the harness:
//!
//! 1. **measures** every candidate engine's amortized modeled cost per
//!    instance — simulated Mk2 cycles for HunIPU (per chip count, load
//!    amortized over the batch exactly as `bench batch` accounts it),
//!    modeled A100 seconds for FastHA (lockstep batch totals over
//!    distinct instances), modeled EPYC seconds for the CPU trio —
//!    certificate-verifying **every** report externally before its cost
//!    is trusted (a fast wrong answer must never win a cell),
//! 2. asks `PortfolioTable::calibrated()` which engine it would
//!    dispatch to for that shape,
//! 3. computes the **regret**: `measured(picked) / measured(best) − 1`.
//!
//! The calibrated finding this gate protects: the modeled-EPYC JV
//! solver is oracle-best across the whole feasible grid (the paper's
//! headline IPU-vs-CPU win is against the *Munkres* baseline, which
//! HunIPU beats ~20× at n=512 — JV is simply a much stronger CPU
//! algorithm under this cost accounting), FastHA overtakes HunIPU only
//! once a batch amortizes its lockstep launch latency, and extra chips
//! make the IPU *slower* at these sizes. If any engine change moves a
//! cell's oracle away from the model's pick by more than
//! [`bench::gates::PORTFOLIO_MAX_REGRET`], the gate fails and the committed constants
//! in `PortfolioTable::calibrated` must be refitted with
//! `bench calibrate --emit-rust`.
//!
//! Prints the per-cell table and writes
//! `target/experiments/portfolio.json`; `--write-baseline` also records
//! `BENCH_portfolio.json` (or `--baseline PATH`). `bench gate --only
//! portfolio` checks a fresh recording against the committed file.
//!
//! Grid: `--sizes` (default 32,128,512), `--ks` (default 1,100),
//! batches 1 and 8, chips 1 and 4, `--seed` (default 1).

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use cpu_hungarian::{Auction, JonkerVolgenant, Munkres};
use datasets::gaussian_cost_matrix;
use fastha::BatchFastHa;
use hunipu::{BatchHunIpu, HunIpu};
use ipu_sim::IpuConfig;
use lsap::portfolio::{InstanceShape, PortfolioTable};
use lsap::{BatchLsapSolver, CostMatrix, LsapSolver, COST_EPS};
use serde::Serialize;
use std::time::Instant;

/// `BENCH_portfolio.json`: one row per `(n, k, batch, chips)` cell.
#[derive(Serialize)]
struct Baseline {
    seed: u64,
    entries: Vec<PortfolioEntry>,
}

/// One engine's measured amortized modeled seconds per instance.
#[derive(Serialize, Clone)]
struct MeasuredCost {
    engine: String,
    seconds_per_instance: f64,
}

/// The calibrated pick vs the measured oracle in one cell; `regret` is
/// `picked/oracle − 1`, wall seconds are context only.
#[derive(Serialize)]
struct PortfolioEntry {
    n: usize,
    k: u64,
    batch: usize,
    chips: usize,
    picked: String,
    oracle: String,
    picked_seconds: f64,
    oracle_seconds: f64,
    regret: f64,
    measured: Vec<MeasuredCost>,
    wall_seconds: f64,
}

/// Batch sizes of the grid (1 = no amortization; 8 = serving batches).
const BATCHES: [usize; 2] = [1, 8];

/// Chip counts of the grid (affects the IPU engine only).
const CHIPS: [usize; 2] = [1, 4];

/// Per-(n, k) measurements shared across the batch/chips sub-grid.
struct EngineMeasurements {
    /// CPU engines: (name, modeled seconds/instance) — batch- and
    /// chips-independent (nothing to amortize).
    cpu: Vec<(&'static str, f64)>,
    /// HunIPU per chip count: (chips, solve cycles, load cycles).
    hunipu: Vec<(usize, f64, f64)>,
    /// Mk2 clock for the cycle→seconds conversion.
    clock_hz: f64,
    /// FastHA per batch size: (batch, total modeled seconds).
    fastha: Vec<(usize, f64)>,
    /// Wall seconds spent measuring this (n, k) block.
    wall: f64,
}

fn main() {
    let args = Args::parse();
    let sizes = args.sizes.clone().unwrap_or_else(|| vec![32, 128, 512]);
    let ks = args.ks.clone().unwrap_or_else(|| vec![1, 100]);
    let seed = args.seed;
    let table = PortfolioTable::calibrated();

    println!(
        "portfolio regret grid: sizes {sizes:?}, ks {ks:?}, batches {BATCHES:?}, \
         chips {CHIPS:?}, seed {seed}"
    );
    let grid = format!("sizes={sizes:?} ks={ks:?} batches={BATCHES:?} chips={CHIPS:?}");
    let mut record = ExperimentRecord::new("portfolio", grid, seed);
    let mut entries: Vec<PortfolioEntry> = Vec::new();

    for &n in &sizes {
        for &k in &ks {
            let meas = measure_engines(n, k, seed);
            for m in &meas.cpu {
                push(&mut record, m.0, n, k, "cpu", m.1);
            }
            for &(chips, solve, load) in &meas.hunipu {
                push(
                    &mut record,
                    "hunipu",
                    n,
                    k,
                    &format!("chips={chips}"),
                    (solve + load) / meas.clock_hz,
                );
            }
            for &(batch, total) in &meas.fastha {
                push(
                    &mut record,
                    "fastha",
                    n,
                    k,
                    &format!("batch={batch}"),
                    total / batch as f64,
                );
            }
            for &batch in &BATCHES {
                for &chips in &CHIPS {
                    entries.push(build_cell(&table, &meas, n, k, batch, chips));
                }
            }
        }
    }

    print_table(&entries);

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    write_baseline(&args, "BENCH_portfolio.json", &Baseline { seed, entries });
}

/// Measures every engine once per (n, k); the batch/chips sub-grid is
/// assembled from these shared measurements (CPU and GPU costs don't
/// depend on chips; the IPU's batch dependence is the load amortization
/// the batch engine already accounts separately).
fn measure_engines(n: usize, k: u64, seed: u64) -> EngineMeasurements {
    let start = Instant::now();
    let m = gaussian_cost_matrix(n, k, seed);

    let mut cpu = Vec::new();
    for (name, report, eps) in [
        ("jv", JonkerVolgenant::new().solve(&m), COST_EPS),
        ("munkres", Munkres::new().solve(&m), COST_EPS),
        {
            let mut a = Auction::new();
            let eps = a.verify_tolerance(&m);
            ("auction", a.solve(&m), eps)
        },
    ] {
        let report = report.unwrap_or_else(|e| panic!("{name} n={n} k={k} failed: {e}"));
        report
            .verify(&m, eps)
            .unwrap_or_else(|e| panic!("{name} n={n} k={k} bad certificate: {e}"));
        cpu.push((
            name,
            report.stats.modeled_seconds.expect("cpu models seconds"),
        ));
    }

    let clock_hz = IpuConfig::mk2().clock_hz;
    let mut hunipu = Vec::new();
    for chips in CHIPS {
        let config = if chips == 1 {
            IpuConfig::mk2()
        } else {
            IpuConfig::mk2_multi(chips)
        };
        let rep = BatchHunIpu::with_solver(HunIpu::with_config(config))
            .solve_batch(std::slice::from_ref(&m))
            .unwrap_or_else(|e| panic!("hunipu n={n} k={k} chips={chips} failed: {e}"));
        rep.verify_all(std::slice::from_ref(&m), hunipu::F32_VERIFY_EPS)
            .unwrap_or_else(|e| panic!("hunipu n={n} k={k} chips={chips} bad certificate: {e}"));
        hunipu.push((
            chips,
            rep.stats.modeled_cycles.expect("hunipu counts cycles") as f64,
            rep.stats.overhead_cycles.expect("hunipu reports load") as f64,
        ));
    }

    let mut fastha = Vec::new();
    if n.is_power_of_two() {
        for b in BATCHES {
            let batch: Vec<CostMatrix> = (0..b)
                .map(|i| gaussian_cost_matrix(n, k, seed + 17 * i as u64))
                .collect();
            let rep = BatchFastHa::new()
                .solve_batch(&batch)
                .unwrap_or_else(|e| panic!("fastha n={n} k={k} batch={b} failed: {e}"));
            rep.verify_all(&batch, fastha::F32_VERIFY_EPS)
                .unwrap_or_else(|e| panic!("fastha n={n} k={k} batch={b} bad certificate: {e}"));
            fastha.push((b, rep.stats.modeled_seconds.expect("fastha models seconds")));
        }
    }

    EngineMeasurements {
        cpu,
        hunipu,
        clock_hz,
        fastha,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// Assembles one grid cell: measured per-instance seconds for every
/// candidate, the measured oracle, the model's pick, and the regret.
fn build_cell(
    table: &PortfolioTable,
    meas: &EngineMeasurements,
    n: usize,
    k: u64,
    batch: usize,
    chips: usize,
) -> PortfolioEntry {
    let mut measured: Vec<MeasuredCost> = meas
        .cpu
        .iter()
        .map(|&(name, s)| MeasuredCost {
            engine: name.into(),
            seconds_per_instance: s,
        })
        .collect();
    if let Some(&(_, solve, load)) = meas.hunipu.iter().find(|&&(c, _, _)| c == chips) {
        // Same accounting as `bench batch`: one load per checkout,
        // amortized over the batch; solves stream sequentially.
        measured.push(MeasuredCost {
            engine: "hunipu".into(),
            seconds_per_instance: (solve + load / batch as f64) / meas.clock_hz,
        });
    }
    if let Some(&(_, total)) = meas.fastha.iter().find(|&&(b, _)| b == batch) {
        measured.push(MeasuredCost {
            engine: "fastha".into(),
            seconds_per_instance: total / batch as f64,
        });
    }

    let oracle = measured
        .iter()
        .min_by(|a, b| a.seconds_per_instance.total_cmp(&b.seconds_per_instance))
        .expect("at least the CPU trio is measured")
        .clone();

    let shape = InstanceShape {
        n,
        k: k as f64,
        batch,
        chips,
        candidates: None,
    };
    let picked_model = table.pick(shape).expect("some engine supports every n");
    let picked = measured
        .iter()
        .find(|m| m.engine == picked_model.engine)
        .unwrap_or_else(|| {
            panic!(
                "model picked {} for n={n} but the harness did not measure it",
                picked_model.engine
            )
        })
        .clone();

    PortfolioEntry {
        n,
        k,
        batch,
        chips,
        picked: picked.engine.clone(),
        oracle: oracle.engine.clone(),
        picked_seconds: picked.seconds_per_instance,
        oracle_seconds: oracle.seconds_per_instance,
        regret: picked.seconds_per_instance / oracle.seconds_per_instance - 1.0,
        measured,
        wall_seconds: meas.wall,
    }
}

fn print_table(entries: &[PortfolioEntry]) {
    println!(
        "\n{:>5} {:>4} {:>6} {:>6}  {:<8} {:<8} {:>12} {:>12} {:>8}",
        "n", "k", "batch", "chips", "picked", "oracle", "picked s/inst", "best s/inst", "regret"
    );
    for e in entries {
        println!(
            "{:>5} {:>4} {:>6} {:>6}  {:<8} {:<8} {:>12.3e} {:>12.3e} {:>7.2}%",
            e.n,
            e.k,
            e.batch,
            e.chips,
            e.picked,
            e.oracle,
            e.picked_seconds,
            e.oracle_seconds,
            e.regret * 100.0
        );
    }
}

fn push(record: &mut ExperimentRecord, engine: &str, n: usize, k: u64, label: &str, seconds: f64) {
    record.push(Measurement {
        engine: engine.into(),
        n,
        k,
        label: label.into(),
        modeled_seconds: seconds,
        wall_seconds: 0.0,
        objective: 0.0,
        extrapolated: false,
        host_threads: 1,
        device_steps: 0,
        profile_events: 0,
    });
}

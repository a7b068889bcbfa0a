//! `bench engines` — every engine's modeled cost per instance over an
//! `(n, k, batch, chips)` grid, and the fastest engine in each cell.
//!
//! Per `(n, k)` the harness solves one seeded Gaussian instance with
//! each engine and certificate-verifies **every** report before its
//! cost is trusted (a fast wrong answer must never win a cell):
//! - the CPU trio (JV, Munkres, Auction) on the modeled EPYC clock,
//!   independent of batch and chips;
//! - HunIPU on the simulated Mk2 per chip count, its program load
//!   amortized over the batch exactly as `bench batch` accounts it;
//! - FastHA on the modeled A100 per batch size (lockstep batch totals
//!   over distinct instances; power-of-two n only).
//!
//! Prints one row per cell with each engine's modeled seconds per
//! instance and the fastest engine, and writes
//! `target/experiments/engines.json`.
//!
//! Grid: `--sizes` (default 32,128,512), `--ks` (default 1,100),
//! batches 1 and 8, chips 1 and 4, `--seed` (default 1).

use bench::{Args, ExperimentRecord, Measurement};
use cpu_hungarian::{Auction, JonkerVolgenant, Munkres};
use datasets::gaussian_cost_matrix;
use fastha::BatchFastHa;
use hunipu::{BatchHunIpu, HunIpu};
use ipu_sim::IpuConfig;
use lsap::{BatchLsapSolver, CostMatrix, LsapSolver, COST_EPS};

/// Batch sizes of the grid (1 = no amortization; 8 = serving batches).
const BATCHES: [usize; 2] = [1, 8];

/// Chip counts of the grid (affects the IPU engine only).
const CHIPS: [usize; 2] = [1, 4];

/// Column order of the printed table.
const ENGINES: [&str; 5] = ["jv", "munkres", "auction", "hunipu", "fastha"];

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
}

fn main() {
    let args = Args::parse();
    let sizes = args.sizes.clone().unwrap_or_else(|| vec![32, 128, 512]);
    let ks = args.ks.clone().unwrap_or_else(|| vec![1, 100]);
    let seed = args.seed;

    println!(
        "engine grid: sizes {sizes:?}, ks {ks:?}, batches {BATCHES:?}, \
         chips {CHIPS:?}, seed {seed} (modeled seconds per instance)"
    );
    let grid = format!("sizes={sizes:?} ks={ks:?} batches={BATCHES:?} chips={CHIPS:?}");
    let mut record = ExperimentRecord::new("engines", grid, seed);

    print!("\n{:>5} {:>4} {:>6} {:>6}", "n", "k", "batch", "chips");
    for engine in ENGINES {
        print!(" {engine:>10}");
    }
    println!("  fastest");
    for &n in &sizes {
        for &k in &ks {
            let meas = measure_engines(n, k, seed);
            for batch in BATCHES {
                for chips in CHIPS {
                    let costs = cell(&meas, batch, chips);
                    print!("{n:>5} {k:>4} {batch:>6} {chips:>6}");
                    for engine in ENGINES {
                        match costs.iter().find(|&&(e, _)| e == engine) {
                            Some(&(_, s)) => print!(" {s:>10.3e}"),
                            None => print!(" {:>10}", "-"),
                        }
                    }
                    println!("  {}", fastest(&costs));
                    for &(engine, seconds) in &costs {
                        record.push(Measurement {
                            engine: engine.into(),
                            n,
                            k,
                            label: format!("batch={batch} chips={chips}"),
                            modeled_seconds: seconds,
                            wall_seconds: 0.0,
                            objective: 0.0,
                            extrapolated: false,
                            device_steps: 0,
                            profile_events: 0,
                        });
                    }
                }
            }
        }
    }

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }
}

/// Measures every engine once per (n, k); the batch/chips sub-grid is
/// assembled from these shared measurements (CPU and GPU costs don't
/// depend on chips; the IPU's batch dependence is the load amortization
/// the batch engine already accounts separately).
fn measure_engines(n: usize, k: u64, seed: u64) -> EngineMeasurements {
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
    }
}

/// One grid cell: each measured engine's modeled seconds per instance.
fn cell(meas: &EngineMeasurements, batch: usize, chips: usize) -> Vec<(&'static str, f64)> {
    let mut costs = meas.cpu.clone();
    if let Some(&(_, solve, load)) = meas.hunipu.iter().find(|&&(c, _, _)| c == chips) {
        // Same accounting as `bench batch`: one load per checkout,
        // amortized over the batch; solves stream sequentially.
        costs.push(("hunipu", (solve + load / batch as f64) / meas.clock_hz));
    }
    if let Some(&(_, total)) = meas.fastha.iter().find(|&&(b, _)| b == batch) {
        costs.push(("fastha", total / batch as f64));
    }
    costs
}

/// The engine with the least modeled seconds; on a tie, the first one
/// in `costs` (the table's column order).
fn fastest(costs: &[(&'static str, f64)]) -> &'static str {
    costs
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least the CPU trio is measured")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurements() -> EngineMeasurements {
        EngineMeasurements {
            cpu: vec![("jv", 3e-3), ("munkres", 9e-3), ("auction", 5e-3)],
            hunipu: vec![(1, 1000.0, 8000.0), (4, 600.0, 16000.0)],
            clock_hz: 1e6,
            fastha: vec![(1, 4e-3), (8, 8e-3)],
        }
    }

    #[test]
    fn the_ipu_load_is_amortized_over_the_batch() {
        let meas = measurements();
        assert_eq!(cell(&meas, 1, 1)[3], ("hunipu", 9e-3));
        assert_eq!(cell(&meas, 8, 1)[3], ("hunipu", 2e-3));
    }

    #[test]
    fn a_cell_takes_the_hunipu_run_of_its_chip_count() {
        assert_eq!(cell(&measurements(), 8, 4)[3], ("hunipu", 2.6e-3));
    }

    #[test]
    fn fastha_is_per_instance_and_absent_where_unmeasured() {
        let mut meas = measurements();
        assert_eq!(cell(&meas, 8, 1)[4], ("fastha", 1e-3));
        meas.fastha.clear(); // a non-power-of-two n
        assert_eq!(cell(&meas, 8, 1).len(), 4, "the CPU trio and HunIPU");
    }

    #[test]
    fn the_fastest_engine_is_the_cheapest_and_ties_keep_column_order() {
        let meas = measurements();
        assert_eq!(fastest(&cell(&meas, 1, 1)), "jv");
        assert_eq!(fastest(&cell(&meas, 8, 1)), "fastha");
        assert_eq!(fastest(&[("jv", 1.0), ("hunipu", 1.0)]), "jv");
    }
}

//! `bench calibrate` — offline cost-model fitting for the solver
//! portfolio.
//!
//! Sweeps every engine family over deterministic instance grids, reads
//! the simulators' *modeled* costs (simulated Mk2 cycles for HunIPU,
//! modeled A100 seconds for FastHA, modeled EPYC seconds for the CPU
//! trio — pure functions of the instance, identical on every host), and
//! fits the [`lsap::portfolio::EngineCostModel`] coefficients:
//!
//! - the per-instance solve power law `c·n^p` (log–log least squares
//!   over the size sweep at `k = K_REF`),
//! - the density exponent (slope of cost against `k / K_REF` at fixed
//!   `n`),
//! - the chip-count multipliers (chip-aware multi-IPU cycles relative to
//!   one chip — *above* 1 at bench sizes: inter-chip exchange is ~25×
//!   slower than the on-chip fabric, see `ipu_sim::calibration`),
//! - the per-checkout overhead law `overhead(n)` — IPU program load,
//!   or the GPU's lockstep launch/sync rounds, which grow with `n` —
//!   decomposed from batch totals over *distinct* instances at two
//!   batch sizes under the model `T(B) = B·solve(n) + overhead(n)`
//!   (distinct instances matter: a batch of identical matrices
//!   converges in lockstep as if it were one instance and the
//!   decomposition degenerates).
//!
//! Outputs:
//! - a human-readable fit table,
//! - `target/experiments/calibrate.json` (the sweep measurements),
//! - `target/experiments/calibrate_models.json` (the fitted
//!   [`PortfolioTable`] as JSON),
//! - with `--emit-rust`: the fitted table as a Rust literal to paste
//!   into `PortfolioTable::calibrated` in `crates/lsap/src/portfolio.rs`
//!   — the committed constants *are* this binary's output, and
//!   `bench gate --only portfolio` checks that they still dispatch within
//!   10% regret of oracle-best.
//!
//! Grid: `--sizes` overrides the size sweep (default 16,32,64,128,256 —
//! covering the `bench portfolio` gate grid up to a 2× extrapolation;
//! `--full` appends 512), `--ks` the density sweep (default 1,10,100),
//! `--seed` the dataset seed (two seeds per cell are averaged to smooth
//! instance-to-instance noise out of the fit).

use bench::{Args, ExperimentRecord, Measurement};
use cpu_hungarian::{Auction, JonkerVolgenant, Munkres};
use datasets::gaussian_cost_matrix;
use fastha::BatchFastHa;
use hunipu::{BatchHunIpu, HunIpu};
use ipu_sim::IpuConfig;
use lsap::portfolio::{EngineClass, EngineCostModel, PortfolioTable, PowerLaw, Support, K_REF};
use lsap::{BatchLsapSolver, CostMatrix, LsapSolver};

/// Seeds averaged per sweep cell (deterministic smoothing).
const SEEDS_PER_CELL: u64 = 2;

/// The n the density sweep holds fixed.
const DENSITY_N: usize = 64;

/// The n the chip sweep holds fixed (matches the committed
/// `BENCH_multi_ipu.json` mk2 anchor).
const CHIPS_N: usize = 128;

fn main() {
    let args = Args::parse();
    let mut sizes = args
        .sizes
        .clone()
        .unwrap_or_else(|| vec![16, 32, 64, 128, 256]);
    if args.full && !sizes.contains(&512) {
        sizes.push(512);
    }
    let ks = args.ks.clone().unwrap_or_else(|| vec![1, 10, 100]);
    let seed = args.seed;

    println!(
        "calibrate: sizes {sizes:?}, ks {ks:?}, seed {seed} \
         ({SEEDS_PER_CELL} seeds per cell)"
    );
    let grid = format!("sizes={sizes:?} ks={ks:?}");
    let mut record = ExperimentRecord::new("calibrate", grid, seed);

    let mut models = Vec::new();
    models.push(fit_hunipu(&sizes, &ks, seed, &mut record));
    models.push(fit_fastha(&sizes, &ks, seed, &mut record));
    for cpu in ["jv", "munkres", "auction"] {
        models.push(fit_cpu(cpu, &sizes, &ks, seed, &mut record));
    }
    let table = PortfolioTable::new(models);

    println!("\nfitted models:");
    println!(
        "{:<10} {:>12} {:>8} {:>10} {:>14} {:>8} {:<20}",
        "engine", "coeff", "exp", "density", "ov.coeff", "ov.exp", "chip multipliers"
    );
    for m in &table.models {
        let chips: Vec<String> = m
            .chip_mult
            .iter()
            .map(|(c, f)| format!("{c}:{f:.2}"))
            .collect();
        println!(
            "{:<10} {:>12.4e} {:>8.3} {:>10.3} {:>14.4e} {:>8.3} {:<20}",
            m.engine,
            m.solve.coeff,
            m.solve.exponent,
            m.density_exponent,
            m.overhead.coeff,
            m.overhead.exponent,
            chips.join(" ")
        );
    }

    if let Err(e) = record.save() {
        eprintln!("warning: could not write experiment record: {e}");
    } else {
        println!("\nwrote target/experiments/calibrate.json");
    }
    let models_path = "target/experiments/calibrate_models.json";
    match serde_json::to_string_pretty(&table) {
        Ok(json) => {
            if std::fs::create_dir_all("target/experiments").is_ok()
                && std::fs::write(models_path, json).is_ok()
            {
                println!("wrote {models_path}");
            }
        }
        Err(e) => eprintln!("warning: could not serialize models: {e}"),
    }

    if args.emit_rust {
        emit_rust(&table);
    } else {
        println!("\nrun with --emit-rust to print the table as a Rust literal");
    }
}

/// Averages `f` over [`SEEDS_PER_CELL`] instance seeds.
fn mean_over_seeds(seed: u64, mut f: impl FnMut(u64) -> f64) -> f64 {
    let total: f64 = (0..SEEDS_PER_CELL).map(|i| f(seed + 1000 * i)).sum();
    total / SEEDS_PER_CELL as f64
}

fn instance(n: usize, k: u64, seed: u64) -> CostMatrix {
    gaussian_cost_matrix(n, k, seed)
}

/// Fits the density exponent: slope of ln(cost) against ln(k / K_REF).
fn density_exponent(points: &[(u64, f64)]) -> f64 {
    let scaled: Vec<(f64, f64)> = points
        .iter()
        .map(|&(k, cost)| (k as f64 / K_REF, cost))
        .collect();
    PowerLaw::fit(&scaled).map(|l| l.exponent).unwrap_or(0.0)
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
        device_steps: 0,
        profile_events: 0,
    });
}

/// HunIPU: pure solve cycles from the single-instance solver (its
/// modeled cycles exclude program load), load from the batch engine's
/// one-time overhead accounting, chip multipliers from chip-aware
/// multi-IPU solves of the *same* instance.
fn fit_hunipu(
    sizes: &[usize],
    ks: &[u64],
    seed: u64,
    record: &mut ExperimentRecord,
) -> EngineCostModel {
    let clock_hz = IpuConfig::mk2().clock_hz;
    let k_ref = K_REF as u64;

    let mut n_points = Vec::new();
    for &n in sizes {
        let cycles = mean_over_seeds(seed, |s| {
            let m = instance(n, k_ref, s);
            let r = HunIpu::new().solve(&m).expect("hunipu solve failed");
            r.stats.modeled_cycles.expect("hunipu counts cycles") as f64
        });
        println!("  hunipu n={n:<4} k={k_ref:<3} solve cycles {cycles:>12.0}");
        push(record, "hunipu", n, k_ref, "solve", cycles / clock_hz);
        n_points.push((n as f64, cycles));
    }
    let solve = PowerLaw::fit(&n_points).expect("hunipu size sweep must fit");

    let mut k_points = Vec::new();
    for &k in ks {
        let cycles = mean_over_seeds(seed, |s| {
            let m = instance(DENSITY_N, k, s);
            let r = HunIpu::new().solve(&m).expect("hunipu solve failed");
            r.stats.modeled_cycles.expect("hunipu counts cycles") as f64
        });
        push(record, "hunipu", DENSITY_N, k, "density", cycles / clock_hz);
        k_points.push((k, cycles));
    }

    // One-time program load per size: the batch engine accounts it
    // separately (a compiled program's image grows with the vertex
    // count, so the load cost is a weak power law in n, not a constant).
    let mut load_points = Vec::new();
    for &n in sizes {
        let m = instance(n, k_ref, seed);
        let batch = BatchHunIpu::new()
            .solve_batch(std::slice::from_ref(&m))
            .expect("hunipu batch solve failed");
        let load = batch
            .stats
            .overhead_cycles
            .expect("hunipu batch reports overhead cycles") as f64;
        println!("  hunipu n={n:<4} program load {load:>9.0} cycles");
        push(record, "hunipu", n, k_ref, "load", load / clock_hz);
        load_points.push((n as f64, load));
    }
    let overhead = PowerLaw::fit(&load_points).expect("hunipu load sweep must fit");

    // Chip multipliers: chip-aware layout on 2 and 4 chips vs one chip,
    // same instance — communication-bound at these sizes, so > 1.
    let probe = instance(CHIPS_N, k_ref, seed);
    let base = HunIpu::new()
        .solve(&probe)
        .expect("hunipu solve failed")
        .stats
        .modeled_cycles
        .expect("cycles") as f64;
    let mut chip_mult = vec![(1usize, 1.0f64)];
    for chips in [2usize, 4] {
        let cycles = HunIpu::with_config(IpuConfig::mk2_multi(chips))
            .solve(&probe)
            .expect("multi-chip solve failed")
            .stats
            .modeled_cycles
            .expect("cycles") as f64;
        let mult = cycles / base;
        println!("  hunipu chips={chips} multiplier {mult:.3}");
        push(
            record,
            "hunipu",
            CHIPS_N,
            k_ref,
            &format!("chips={chips}"),
            cycles / clock_hz,
        );
        chip_mult.push((chips, mult));
    }

    EngineCostModel {
        engine: "hunipu".into(),
        clock_hz,
        solve,
        density_exponent: density_exponent(&k_points),
        chip_mult,
        overhead,
        support: Support::UpToSramCeiling,
        class: EngineClass::Dense,
        candidate_exponent: 0.0,
    }
}

/// FastHA: modeled A100 seconds. The per-instance marginal (`solve`)
/// and the shared lockstep launch/sync cost (`overhead(n)`) are
/// decomposed from batch totals over **distinct** instances at B=1 and
/// B=8 under `T(B) = B·solve(n) + overhead(n)`:
/// `solve = (T8 − T1)/7`, `overhead = T1 − solve`. Distinct instances
/// are essential — identical matrices march through the lockstep phases
/// together and the batch converges as cheaply as one instance, which
/// collapses the decomposition.
fn fit_fastha(
    sizes: &[usize],
    ks: &[u64],
    seed: u64,
    record: &mut ExperimentRecord,
) -> EngineCostModel {
    let k_ref = K_REF as u64;
    let total = |n: usize, k: u64, sd: u64, b: usize| -> f64 {
        let batch: Vec<CostMatrix> = (0..b).map(|i| instance(n, k, sd + 17 * i as u64)).collect();
        BatchFastHa::new()
            .solve_batch(&batch)
            .expect("fastha batch solve failed")
            .stats
            .modeled_seconds
            .expect("fastha models seconds")
    };
    let decompose = |n: usize, k: u64, sd: u64| -> (f64, f64) {
        let t1 = total(n, k, sd, 1);
        let t8 = total(n, k, sd, 8);
        let s = ((t8 - t1) / 7.0).max(0.0);
        (s, (t1 - s).max(0.0))
    };

    let mut n_points = Vec::new();
    let mut ov_points = Vec::new();
    for &n in sizes {
        if !n.is_power_of_two() {
            println!("  fastha n={n}: skipped (power-of-two sizes only)");
            continue;
        }
        let mut s_acc = 0.0;
        let mut ov_acc = 0.0;
        for i in 0..SEEDS_PER_CELL {
            let (s, ov) = decompose(n, k_ref, seed + 1000 * i);
            s_acc += s;
            ov_acc += ov;
        }
        let s = s_acc / SEEDS_PER_CELL as f64;
        let ov = ov_acc / SEEDS_PER_CELL as f64;
        println!(
            "  fastha n={n:<4} solve {:.2}µs overhead {:.2}µs",
            s * 1e6,
            ov * 1e6
        );
        push(record, "fastha", n, k_ref, "solve", s);
        push(record, "fastha", n, k_ref, "overhead", ov);
        n_points.push((n as f64, s));
        ov_points.push((n as f64, ov));
    }
    let solve = PowerLaw::fit(&n_points).expect("fastha size sweep must fit");
    let overhead = PowerLaw::fit(&ov_points).expect("fastha overhead sweep must fit");

    let mut k_points = Vec::new();
    for &k in ks {
        let s = mean_over_seeds(seed, |sd| decompose(DENSITY_N, k, sd).0);
        push(record, "fastha", DENSITY_N, k, "density", s);
        k_points.push((k, s));
    }

    EngineCostModel {
        engine: "fastha".into(),
        clock_hz: 1.0,
        solve,
        density_exponent: density_exponent(&k_points),
        chip_mult: Vec::new(),
        overhead,
        support: Support::PowerOfTwo,
        class: EngineClass::Dense,
        candidate_exponent: 0.0,
    }
}

/// CPU engines: modeled EPYC seconds from the instrumented operation
/// counts; nothing to amortize (no device program, no kernel launch).
fn fit_cpu(
    engine: &str,
    sizes: &[usize],
    ks: &[u64],
    seed: u64,
    record: &mut ExperimentRecord,
) -> EngineCostModel {
    let k_ref = K_REF as u64;
    let solve_seconds = |m: &CostMatrix| -> f64 {
        let r = match engine {
            "jv" => JonkerVolgenant::new().solve(m),
            "munkres" => Munkres::new().solve(m),
            "auction" => Auction::new().solve(m),
            other => unreachable!("unknown cpu engine {other}"),
        };
        r.expect("cpu solve failed")
            .stats
            .modeled_seconds
            .expect("cpu engines model seconds")
    };

    let mut n_points = Vec::new();
    for &n in sizes {
        let s = mean_over_seeds(seed, |sd| solve_seconds(&instance(n, k_ref, sd)));
        println!("  {engine:<8} n={n:<4} solve {:.2}µs", s * 1e6);
        push(record, engine, n, k_ref, "solve", s);
        n_points.push((n as f64, s));
    }
    let solve = PowerLaw::fit(&n_points).expect("cpu size sweep must fit");

    let mut k_points = Vec::new();
    for &k in ks {
        let s = mean_over_seeds(seed, |sd| solve_seconds(&instance(DENSITY_N, k, sd)));
        push(record, engine, DENSITY_N, k, "density", s);
        k_points.push((k, s));
    }

    EngineCostModel {
        engine: engine.into(),
        clock_hz: 1.0,
        solve,
        density_exponent: density_exponent(&k_points),
        chip_mult: Vec::new(),
        overhead: PowerLaw::zero(),
        support: Support::Any,
        class: EngineClass::Dense,
        candidate_exponent: 0.0,
    }
}

/// Prints the fitted table as a Rust literal matching the shape of
/// `PortfolioTable::calibrated` in `crates/lsap/src/portfolio.rs`.
fn emit_rust(table: &PortfolioTable) {
    println!("\n// Paste into PortfolioTable::calibrated (crates/lsap/src/portfolio.rs):");
    println!("Self::new(vec![");
    for m in &table.models {
        println!("    EngineCostModel {{");
        println!("        engine: \"{}\".into(),", m.engine);
        println!("        clock_hz: {:?},", m.clock_hz);
        println!("        solve: PowerLaw {{");
        println!("            coeff: {:.6e},", m.solve.coeff);
        println!("            exponent: {:.4},", m.solve.exponent);
        println!("        }},");
        println!("        density_exponent: {:.4},", m.density_exponent);
        if m.chip_mult.is_empty() {
            println!("        chip_mult: Vec::new(),");
        } else {
            let entries: Vec<String> = m
                .chip_mult
                .iter()
                .map(|(c, f)| format!("({c}, {f:.4})"))
                .collect();
            println!("        chip_mult: vec![{}],", entries.join(", "));
        }
        if m.overhead == PowerLaw::zero() {
            println!("        overhead: PowerLaw::zero(),");
        } else {
            println!("        overhead: PowerLaw {{");
            println!("            coeff: {:.6e},", m.overhead.coeff);
            println!("            exponent: {:.4},", m.overhead.exponent);
            println!("        }},");
        }
        println!("        support: Support::{:?},", m.support);
        println!("        class: EngineClass::{:?},", m.class);
        println!("        candidate_exponent: {:.4},", m.candidate_exponent);
        println!("    }},");
    }
    println!("])");
}

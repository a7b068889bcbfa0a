//! Host wall-clock benchmark and perf gate for the lowered execution
//! plan: interpreter vs plan, same instances, same machine, same
//! process.
//!
//! For every (size, host-thread-count) cell the harness compiles two
//! warm engines — one pinned to [`ExecMode::Interpreted`], one to
//! [`ExecMode::Plan`] — streams the same Gaussian instance through both
//! (best-of-reps wall), and verifies the results are **bit-identical**
//! (objective bits, assignment, cycle counts, supersteps — the engine's
//! determinism contract). Warm engines exclude graph compilation from
//! the timed region, exactly like the batch/serving pools the wall
//! numbers are meant to predict.
//!
//! ```text
//! cargo run --release -p bench --bin wallbench
//! cargo run --release -p bench --bin gate -- --only wallbench        # CI perf gate
//! cargo run --release -p bench --bin wallbench -- --write-baseline   # refresh BENCH_wallbench.json
//! cargo run --release -p bench --bin wallbench -- --sizes 512,1024 --threads 1,8
//! ```
//!
//! The gate checks a fresh recording against `BENCH_wallbench.json`
//! (repo root): the per-thread-count suite aggregate `interp wall /
//! plan wall` must stay at or above
//! [`bench::gates::WALLBENCH_MIN_SPEEDUP`], and every cell must stay
//! bit-identical. Any divergence also fails the binary itself.

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use datasets::gaussian_cost_matrix;
use hunipu::HunIpu;
use ipu_sim::{ExecMode, IpuConfig};
use lsap::{CostMatrix, SolveReport};
use serde::Serialize;

/// `BENCH_wallbench.json`: the suite grid plus one row per
/// `(n, threads)` cell.
#[derive(Serialize)]
struct Baseline {
    sizes: Vec<usize>,
    threads: Vec<usize>,
    k: u64,
    seed: u64,
    entries: Vec<WallbenchEntry>,
}

/// Best-of-reps wall seconds of both modes, their ratio, and whether
/// they produced bit-identical results.
#[derive(Serialize)]
struct WallbenchEntry {
    n: usize,
    threads: usize,
    interp_wall: f64,
    plan_wall: f64,
    speedup: f64,
    identical: bool,
}

/// What must match bit-for-bit across execution modes and thread
/// counts: objective bits, assignment pairs, total cycles, supersteps.
type Fingerprint = (u64, Vec<(usize, usize)>, u64, u64);

/// Streams `m` through a warm engine `reps` times, returning the best
/// wall and the (rep-invariant) fingerprint.
fn measure(mode: ExecMode, threads: usize, m: &CostMatrix, reps: usize) -> (f64, Fingerprint) {
    let solver = HunIpu::with_config(IpuConfig {
        host_threads: threads,
        exec_mode: mode,
        ..IpuConfig::mk2()
    });
    let mut warm = solver.warm(m.n()).expect("compile failed");
    let mut best = f64::INFINITY;
    let mut fp: Option<Fingerprint> = None;
    let mut report: Option<SolveReport> = None;
    for _ in 0..reps {
        let rep = warm.solve(&solver, m).expect("solve failed");
        let stats = warm.engine().stats();
        let f = (
            rep.objective.to_bits(),
            rep.assignment.pairs().collect(),
            stats.total_cycles(),
            stats.supersteps,
        );
        if let Some(prev) = &fp {
            assert_eq!(*prev, f, "warm re-solve diverged from itself");
        }
        best = best.min(rep.stats.wall_seconds);
        fp = Some(f);
        report = Some(rep);
    }
    drop(report);
    (best, fp.expect("reps >= 1"))
}

fn main() {
    let args = Args::parse();
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| {
        if args.full {
            vec![256, 512, 1024]
        } else {
            vec![128, 256, 512]
        }
    });
    let threads: Vec<usize> = args.threads.clone().unwrap_or_else(|| vec![1, 8]);
    assert!(
        !threads.is_empty(),
        "--threads must name at least one count"
    );
    let k = args
        .ks
        .as_ref()
        .and_then(|s| s.first().copied())
        .unwrap_or(10);
    // Default seed 1 would be fine; 42 matches the committed baseline.
    let seed = if args.seed == 1 { 42 } else { args.seed };

    let mut record = ExperimentRecord::new(
        "wallbench",
        format!("sizes={sizes:?} threads={threads:?} k={k} exec=interp-vs-plan"),
        seed,
    );

    println!("wallbench: interpreter vs lowered execution plan, host wall seconds");
    println!(
        "{:>6} {:>8} | {:>10} {:>10} {:>9} {:>12}",
        "n", "threads", "interp", "plan", "speedup", "identical?"
    );
    println!("{}", "-".repeat(64));

    let mut entries: Vec<WallbenchEntry> = Vec::new();
    let mut divergences = 0usize;
    for &t in &threads {
        let mut agg_interp = 0.0f64;
        let mut agg_plan = 0.0f64;
        for &n in &sizes {
            let m = gaussian_cost_matrix(n, k, seed);
            // Small cells are noisy and cheap — take the best of more
            // repetitions; big cells are stable and expensive.
            let reps = if n <= 256 { 3 } else { 2 };
            let (interp_wall, interp_fp) = measure(ExecMode::Interpreted, t, &m, reps);
            let (plan_wall, plan_fp) = measure(ExecMode::Plan, t, &m, reps);
            let identical = interp_fp == plan_fp;
            if !identical {
                divergences += 1;
            }
            let speedup = interp_wall / plan_wall;
            agg_interp += interp_wall;
            agg_plan += plan_wall;
            println!(
                "{:>6} {:>8} | {:>9.3}s {:>9.3}s {:>8.2}x {:>12}",
                n,
                t,
                interp_wall,
                plan_wall,
                speedup,
                if identical { "yes" } else { "DIVERGED" }
            );
            for (label, wall) in [("interp", interp_wall), ("plan", plan_wall)] {
                record.push(Measurement {
                    engine: "hunipu".into(),
                    n,
                    k,
                    label: format!("{label}/t{t}"),
                    modeled_seconds: 0.0,
                    wall_seconds: wall,
                    objective: f64::from_bits(interp_fp.0),
                    extrapolated: false,
                    host_threads: t,
                    device_steps: interp_fp.3,
                    profile_events: 0,
                });
            }
            entries.push(WallbenchEntry {
                n,
                threads: t,
                interp_wall,
                plan_wall,
                speedup,
                identical,
            });
        }
        println!(
            "{:>6} {:>8} | {:>9.3}s {:>9.3}s {:>8.2}x   (suite aggregate)",
            "all",
            t,
            agg_interp,
            agg_plan,
            agg_interp / agg_plan
        );
    }

    let current = Baseline {
        sizes: sizes.clone(),
        threads: threads.clone(),
        k,
        seed,
        entries,
    };

    match record.save() {
        Ok(path) => println!("\nrecord: {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    write_baseline(&args, "BENCH_wallbench.json", &current);
    if divergences > 0 {
        eprintln!("wallbench: {divergences} cell(s) diverged between interpreter and plan");
        std::process::exit(1);
    }
    println!("all cells bit-identical between interpreter and plan");
}

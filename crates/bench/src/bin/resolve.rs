//! `bench resolve` — the warm-start re-solve sweep and CI perf gate.
//!
//! Simulates the streaming scenario the incremental layer exists for: a
//! base instance followed by a stream of perturbations, each re-solved
//! two ways —
//!
//! - **warm**: through [`lsap::IncrementalSolver`] over a
//!   [`hunipu::StreamingHunIpu`] — dual repair on the host, then the
//!   Step-1-free seeded program on the device, certificate-gated with a
//!   counted cold fallback;
//! - **cold**: the same matrix through a plain warm engine (full Step 1,
//!   fresh duals), the cost a non-incremental deployment would pay.
//!
//! Every warm answer is verified twice: its own [`lsap::DualCertificate`]
//! (inside the incremental layer), and externally here against both the
//! cold device objective (bit equality) and the CPU Jonker–Volgenant
//! ground truth. A disagreement is a `mismatch` and fails the gate
//! unconditionally — the speedup claim is only meaningful on answers
//! that stay exact.
//!
//! Grid: n ∈ {128, 256} × k ∈ {1, n/8, n/2, n} perturbed rows per tick
//! (overridable with `--sizes`), `ticks = 4` re-solves per cell, on the
//! Mk2-scale device. All gated quantities are modeled cycles or counts,
//! so runs agree bit-for-bit at any `SIM_THREADS`.
//!
//! Prints the table and writes `target/experiments/resolve.json`;
//! `--write-baseline` also records `BENCH_resolve.json` (or `--baseline
//! PATH`). `bench gate --only resolve` checks a fresh recording against
//! the committed file: any ground-truth mismatch, warm-cycle drift
//! beyond tolerance, a small-perturbation cell (`k <= n/8`) below the
//! 2x speedup floor, or the seeded program silently never being taken.

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use datasets::gaussian_cost_matrix;
use hunipu::{HunIpu, StreamingHunIpu};
use ipu_sim::IpuConfig;
use lsap::{DeltaUpdate, IncrementalSolver};
use serde::Serialize;
use std::time::Instant;

/// `BENCH_resolve.json`: one row per `(n, k)` cell.
#[derive(Serialize)]
struct Baseline {
    seed: u64,
    entries: Vec<ResolveEntry>,
}

/// Mean modeled cycles of the cold and warm solves over `ticks`
/// perturbations, with the seeded/fallback/mismatch counts; `speedup`
/// is `cold/warm`, wall seconds are context only.
#[derive(Serialize)]
struct ResolveEntry {
    n: usize,
    k: usize,
    ticks: usize,
    cold_cycles: f64,
    warm_cycles: f64,
    speedup: f64,
    seeded: u64,
    fallbacks: u64,
    mismatches: u64,
    wall_seconds: f64,
}

/// Re-solves measured per cell (after the initial cold solve).
const TICKS: usize = 4;

fn main() {
    let args = Args::parse();
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| vec![128, 256]);
    let seed = args.seed;

    println!("re-solve sweep: sizes={sizes:?}, ticks={TICKS}, seed={seed}");
    let mut record = ExperimentRecord::new(
        "resolve",
        format!("sizes={sizes:?} k=1,n/8,n/2,n ticks={TICKS} warm-vs-cold"),
        seed,
    );
    let mut entries: Vec<ResolveEntry> = Vec::new();

    for &n in &sizes {
        for k in [1, n / 8, n / 2, n] {
            run_cell(n, k.max(1), seed, &mut record, &mut entries);
        }
    }

    print_table(&entries);

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    write_baseline(&args, "BENCH_resolve.json", &Baseline { seed, entries });
}

/// Runs one `(n, k)` cell: a stream of `TICKS` k-row perturbations, each
/// re-solved warm and cold, every answer cross-checked.
fn run_cell(
    n: usize,
    k: usize,
    seed: u64,
    record: &mut ExperimentRecord,
    entries: &mut Vec<ResolveEntry>,
) {
    let started = Instant::now();
    let m0 = gaussian_cost_matrix(n, 100, seed);

    // Warm path: the streaming front end over a HunIPU streaming adapter.
    let stream_solver = StreamingHunIpu::new(HunIpu::with_config(IpuConfig::mk2()));
    let mut stream = IncrementalSolver::new(stream_solver, m0.clone());
    stream
        .solve_next(&DeltaUpdate::new())
        .expect("initial cold solve failed")
        .verify(&m0, hunipu::F32_VERIFY_EPS)
        .expect("initial solve certificate invalid");

    // Cold path: one warm engine (compile paid once, like the stream's),
    // full Step 1 + fresh duals every tick.
    let cold_solver = HunIpu::with_config(IpuConfig::mk2());
    let mut cold_engine = cold_solver.warm(n).expect("cold compile failed");

    let mut warm_cycles_total = 0u64;
    let mut cold_cycles_total = 0u64;
    let mut mismatches = 0u64;
    let stats_before = stream.stats();

    for tick in 1..=TICKS {
        let delta = perturb(stream.matrix(), k, tick);
        let warm_rep = stream.solve_next(&delta).expect("re-solve failed");
        let m = stream.matrix().clone();
        warm_rep
            .verify(&m, hunipu::F32_VERIFY_EPS)
            .expect("re-solve certificate invalid");
        let cold_rep = cold_engine
            .solve(&cold_solver, &m)
            .expect("cold solve failed");

        warm_cycles_total += warm_rep.stats.modeled_cycles.expect("hunipu models cycles");
        cold_cycles_total += cold_rep.stats.modeled_cycles.expect("hunipu models cycles");

        // External cross-check: the warm answer must equal the cold
        // device answer bit-for-bit and the CPU ground truth numerically.
        let truth = cpu_hungarian::ground_truth_objective(&m);
        if warm_rep.objective.to_bits() != cold_rep.objective.to_bits()
            || (warm_rep.objective - truth).abs() > 1e-6 * (1.0 + truth.abs())
        {
            eprintln!(
                "MISMATCH n={n} k={k} tick={tick}: warm {} cold {} truth {truth}",
                warm_rep.objective, cold_rep.objective
            );
            mismatches += 1;
        }
    }

    let stats = stream.stats();
    let seeded = stats.seeded - stats_before.seeded;
    let fallbacks = stats.fallbacks - stats_before.fallbacks;
    let wall_seconds = started.elapsed().as_secs_f64();
    let cold_cycles = cold_cycles_total as f64 / TICKS as f64;
    let warm_cycles = warm_cycles_total as f64 / TICKS as f64;

    for (label, cycles) in [("warm", warm_cycles), ("cold", cold_cycles)] {
        record.push(Measurement {
            engine: "hunipu-resolve".into(),
            n,
            k: k as u64,
            label: (*label).into(),
            modeled_seconds: cycles / 1.33e9, // informational: Mk2 clock
            wall_seconds,
            objective: 0.0,
            extrapolated: false,
            host_threads: 0,
            device_steps: 0,
            profile_events: 0,
        });
    }
    entries.push(ResolveEntry {
        n,
        k,
        ticks: TICKS,
        cold_cycles,
        warm_cycles,
        speedup: cold_cycles / warm_cycles,
        seeded,
        fallbacks,
        mismatches,
        wall_seconds,
    });
}

/// Builds the tick's delta: `k` distinct rows, each rewritten with
/// non-uniform integer bumps (integer costs keep the f32 dual repair
/// exact; non-uniform bumps actually move row argmins instead of being
/// absorbed by the repaired `u_i`). Deterministic in `(tick, k)`.
fn perturb(m: &lsap::CostMatrix, k: usize, tick: usize) -> DeltaUpdate {
    let n = m.n();
    let mut delta = DeltaUpdate::new();
    for idx in 0..k {
        let row = (tick * k + idx) % n;
        let values: Vec<f64> = (0..n)
            .map(|j| m.get(row, j) + ((tick + idx + j) % 9) as f64 + 1.0)
            .collect();
        delta.set_row(row, values);
    }
    delta
}

fn print_table(entries: &[ResolveEntry]) {
    println!(
        "\n{:>6} {:>6} {:>14} {:>14} {:>8} {:>7} {:>9} {:>10} {:>8}",
        "n",
        "k",
        "cold cycles",
        "warm cycles",
        "speedup",
        "seeded",
        "fallback",
        "mismatch",
        "wall s"
    );
    for e in entries {
        println!(
            "{:>6} {:>6} {:>14.0} {:>14.0} {:>7.2}x {:>7} {:>9} {:>10} {:>8.2}",
            e.n,
            e.k,
            e.cold_cycles,
            e.warm_cycles,
            e.speedup,
            e.seeded,
            e.fallbacks,
            e.mismatches,
            e.wall_seconds
        );
    }
}

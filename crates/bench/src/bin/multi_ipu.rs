//! `bench multi_ipu` — the multi-IPU layout sweep and CI perf gate.
//!
//! Solves one Gaussian instance per (device, chips, n) cell twice —
//! under the chip-oblivious flat layout and under the chip-aware
//! hierarchical layout — and reports the modeled solve-cycle cut. Both
//! solves must produce bit-identical objectives (Min/Max/i32-sum
//! reductions are order-exact, so regrouping per chip cannot change any
//! value); the binary fails hard if they diverge.
//!
//! Grid: tiny devices (`tiny_multi(c, 8)`) and Mk2-scale devices
//! (`mk2_multi(c)`) for c ∈ {1, 2, 4}. The single-chip rows pin the
//! bit-identity contract (chip-aware == flat, cycle for cycle); the
//! 4-chip rows carry the headline claim (≥20% fewer modeled cycles).
//!
//! Prints the table and writes `target/experiments/multi_ipu.json`;
//! `--write-baseline` also records `BENCH_multi_ipu.json` (or
//! `--baseline PATH`). `bench gate --only multi_ipu` checks a fresh
//! recording against the committed file.
//!
//! Overrides: `--sizes T,M` sets the tiny-device n (first entry) and the
//! Mk2-device n (second entry, or the first if only one is given);
//! `--seed S` changes the dataset; `--full` enlarges both sizes.

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use datasets::gaussian_cost_matrix;
use hunipu::{HunIpu, LayoutMode, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, SolveReport};
use serde::Serialize;
use std::time::Instant;

/// `BENCH_multi_ipu.json`: one row per (device, topology, n) cell.
#[derive(Serialize)]
struct Baseline {
    seed: u64,
    entries: Vec<MultiIpuEntry>,
}

/// Modeled solve cycles under both layouts; `improvement` is
/// `1 − chip_aware/flat`, wall seconds are context only.
#[derive(Serialize)]
struct MultiIpuEntry {
    device: String,
    chips: usize,
    tiles_per_chip: usize,
    n: usize,
    flat_cycles: f64,
    chip_aware_cycles: f64,
    improvement: f64,
    wall_seconds: f64,
}

fn main() {
    let args = Args::parse();
    let sizes = args.sizes.as_deref().unwrap_or(&[]);
    let tiny_n = sizes
        .first()
        .copied()
        .unwrap_or(if args.full { 64 } else { 48 });
    let mk2_n = sizes
        .get(1)
        .or_else(|| sizes.first())
        .copied()
        .unwrap_or(if args.full { 256 } else { 128 });
    let seed = args.seed;

    println!("multi-IPU sweep: tiny n={tiny_n}, mk2 n={mk2_n}, seed={seed}");
    let grid = format!("tiny n={tiny_n}, mk2 n={mk2_n}, chips=1/2/4");
    let mut record = ExperimentRecord::new("multi_ipu", grid, seed);
    let mut entries: Vec<MultiIpuEntry> = Vec::new();

    for chips in [1, 2, 4] {
        run_cell(
            "tiny",
            IpuConfig::tiny_multi(chips, 8),
            tiny_n,
            seed,
            &mut record,
            &mut entries,
        );
    }
    for chips in [1, 2, 4] {
        run_cell(
            "mk2",
            IpuConfig::mk2_multi(chips),
            mk2_n,
            seed,
            &mut record,
            &mut entries,
        );
    }

    print_table(&entries);

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    write_baseline(&args, "BENCH_multi_ipu.json", &Baseline { seed, entries });
}

/// Solves one grid cell under both layouts and records the cycle counts.
fn run_cell(
    device: &str,
    config: IpuConfig,
    n: usize,
    seed: u64,
    record: &mut ExperimentRecord,
    entries: &mut Vec<MultiIpuEntry>,
) {
    let chips = config.ipus;
    let tiles_per_chip = config.tiles_per_ipu;
    let m = gaussian_cost_matrix(n, 100, seed);

    let started = Instant::now();
    let (flat_rep, flat_cycles) = solve(&config, LayoutMode::Flat, &m, device);
    let (chip_rep, chip_cycles) = solve(&config, LayoutMode::ChipAware, &m, device);
    let wall_seconds = started.elapsed().as_secs_f64();

    // Bench numbers are only meaningful if both layouts solve the same
    // problem to the same answer, bit for bit.
    if flat_rep.objective.to_bits() != chip_rep.objective.to_bits()
        || flat_rep.assignment != chip_rep.assignment
    {
        eprintln!(
            "DIVERGENCE: {device} {chips}x{tiles_per_chip} n={n}: flat objective {} vs chip-aware {}",
            flat_rep.objective, chip_rep.objective
        );
        std::process::exit(1);
    }

    for (label, rep) in [("flat", &flat_rep), ("chip-aware", &chip_rep)] {
        record.push(Measurement {
            engine: format!("hunipu-{chips}x{tiles_per_chip}-{device}"),
            n,
            k: 100,
            label: (*label).into(),
            modeled_seconds: rep.stats.modeled_seconds.expect("hunipu models seconds"),
            wall_seconds: rep.stats.wall_seconds,
            objective: rep.objective,
            extrapolated: false,
            device_steps: rep.stats.device_steps,
            profile_events: 0,
        });
    }
    entries.push(MultiIpuEntry {
        device: device.into(),
        chips,
        tiles_per_chip,
        n,
        flat_cycles: flat_cycles as f64,
        chip_aware_cycles: chip_cycles as f64,
        improvement: 1.0 - chip_cycles as f64 / flat_cycles as f64,
        wall_seconds,
    });
}

fn solve(config: &IpuConfig, mode: LayoutMode, m: &CostMatrix, device: &str) -> (SolveReport, u64) {
    let (rep, engine) = HunIpu::with_config(config.clone())
        .with_layout_mode(mode)
        .solve_with_engine(m)
        .unwrap_or_else(|e| panic!("{device} {mode:?} solve failed: {e}"));
    rep.verify(m, F32_VERIFY_EPS)
        .unwrap_or_else(|e| panic!("{device} {mode:?} produced an invalid certificate: {e}"));
    (rep, engine.stats().total_cycles())
}

fn print_table(entries: &[MultiIpuEntry]) {
    println!(
        "\n{:<6} {:>10} {:>6} {:>14} {:>14} {:>8} {:>8}",
        "device", "topology", "n", "flat cycles", "chip cycles", "cut", "wall s"
    );
    for e in entries {
        println!(
            "{:<6} {:>10} {:>6} {:>14.0} {:>14.0} {:>7.1}% {:>8.2}",
            e.device,
            format!("{}x{}", e.chips, e.tiles_per_chip),
            e.n,
            e.flat_cycles,
            e.chip_aware_cycles,
            e.improvement * 100.0,
            e.wall_seconds
        );
    }
}

//! `bench scale` — the beyond-SRAM scaling sweep and CI perf gate.
//!
//! Solves one structured instance per n under the three cost-matrix
//! representations and reports modeled compute cycles, streamed host
//! bytes, and peak resident SRAM bytes per tile:
//!
//! - **dense**: the resident n² layout, only where it fits under the
//!   per-tile SRAM budget. At n=4096 on the 64-tile device it must NOT
//!   fit — the gate pins that cell infeasible, because it is the
//!   ceiling the other two rows exist to break.
//! - **sparse_k8**: GRAMPA-style top-k pruning to k=8 candidates per
//!   row, solved on the k-entry device layout. The certificate is
//!   verified against the *full dense* matrix, so a pruned-away optimal
//!   edge cannot slip through. Headline: ≥5x fewer modeled compute
//!   cycles than dense at n=1024.
//! - **tiled**: the out-of-core block-streaming layout — duals,
//!   matching, and one active block resident; cost blocks streamed
//!   through the PCIe link each sweep. Headline: the dense-infeasible
//!   n=4096 instance solves, certificate-verified, with bounded
//!   resident bytes per tile.
//!
//! Instances are `datasets::diag_dominant` (deterministic, integer
//! costs, known optimum n) so every row is certificate-checked against
//! an exactly representable optimum.
//!
//! Prints the table and writes `target/experiments/scale.json`;
//! `--write-baseline` also records `BENCH_scale.json` (or `--baseline
//! PATH`). `bench gate --only scale` checks a fresh recording against
//! the committed file.

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use datasets::{diag_dominant, prune_topk};
use hunipu::{HunIpu, LayoutMode, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, SolveReport};
use serde::Serialize;
use std::time::Instant;

const TILES: usize = 64;
const SPARSE_K: usize = 8;

/// `BENCH_scale.json`: one row per (representation, n) cell.
#[derive(Serialize)]
struct Baseline {
    seed: u64,
    entries: Vec<ScaleEntry>,
}

/// One representation at one n: whether it compiles under the per-tile
/// SRAM budget, and its modeled cycles, streamed host bytes, and peak
/// resident bytes per tile (all zero when infeasible); wall seconds are
/// context only.
#[derive(Serialize)]
struct ScaleEntry {
    engine: String,
    n: usize,
    feasible: bool,
    compute_cycles: f64,
    total_cycles: f64,
    host_bytes: f64,
    resident_bytes_per_tile: f64,
    wall_seconds: f64,
}

fn main() {
    let args = Args::parse();
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| vec![256, 1024, 4096]);
    let seed = args.seed;

    println!(
        "beyond-SRAM scale sweep: tiny({TILES}), n={sizes:?}, sparse k={SPARSE_K}, \
         budget {} KiB/tile",
        IpuConfig::tiny(TILES).tile_memory_bytes / 1024
    );
    let grid = format!("tiny({TILES}), n={sizes:?}, k={SPARSE_K}");
    let mut record = ExperimentRecord::new("scale", grid, seed);
    let mut entries: Vec<ScaleEntry> = Vec::new();

    for &n in &sizes {
        run_size(n, &mut record, &mut entries);
    }

    print_table(&entries);

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    write_baseline(&args, "BENCH_scale.json", &Baseline { seed, entries });
}

/// Runs the three representations for one instance size.
fn run_size(n: usize, record: &mut ExperimentRecord, entries: &mut Vec<ScaleEntry>) {
    // Diagonally-dominant integer instance with a known optimum of
    // exactly n; off-diagonal conflicts force real augmentation work.
    let m = diag_dominant(n, 3, 2);
    let solver = HunIpu::with_config(IpuConfig::tiny(TILES));

    // Dense, where the resident layout fits the SRAM budget.
    if solver.dense_fits(n) {
        let started = Instant::now();
        let dense = solver.clone().with_layout_mode(LayoutMode::Flat);
        let (rep, engine) = dense
            .solve_with_engine(&m)
            .unwrap_or_else(|e| panic!("dense n={n} solve failed: {e}"));
        push_cell("dense", n, &m, &rep, &engine, started, record, entries);
    } else {
        // The gate pins this: compiling the dense program must actually
        // fail on the per-tile budget, not merely be predicted to.
        let err = solver
            .clone()
            .with_layout_mode(LayoutMode::Flat)
            .solve_with_engine(&m)
            .map(|_| ())
            .expect_err("dense layout predicted not to fit but compiled anyway");
        let detail = err.to_string();
        assert!(
            detail.contains("memory"),
            "dense n={n} failed for the wrong reason: {detail}"
        );
        println!("dense n={n}: exceeds the per-tile SRAM budget (as required)");
        entries.push(ScaleEntry {
            engine: "dense".into(),
            n,
            feasible: false,
            compute_cycles: 0.0,
            total_cycles: 0.0,
            host_bytes: 0.0,
            resident_bytes_per_tile: 0.0,
            wall_seconds: 0.0,
        });
    }

    // Sparse top-k pruning. The certificate is verified against the
    // full dense matrix below, so pruning cannot fake the optimum.
    {
        let started = Instant::now();
        let sc = prune_topk(&m, SPARSE_K);
        let (rep, engine) = solver
            .solve_sparse_with_engine(&sc)
            .unwrap_or_else(|e| panic!("sparse k={SPARSE_K} n={n} solve failed: {e}"));
        push_cell("sparse_k8", n, &m, &rep, &engine, started, record, entries);
    }

    // Tiled out-of-core block streaming.
    {
        let started = Instant::now();
        let (rep, engine) = solver
            .solve_tiled(&m)
            .unwrap_or_else(|e| panic!("tiled n={n} solve failed: {e}"));
        assert!(
            engine.stats().host_bytes > 0,
            "tiled n={n} streamed no cost blocks through the host link"
        );
        push_cell("tiled", n, &m, &rep, &engine, started, record, entries);
    }
}

/// Verifies one solve's certificate against the dense matrix and
/// records its cycle/memory columns.
#[allow(clippy::too_many_arguments)]
fn push_cell(
    engine_name: &str,
    n: usize,
    m: &CostMatrix,
    rep: &SolveReport,
    engine: &ipu_sim::Engine,
    started: Instant,
    record: &mut ExperimentRecord,
    entries: &mut Vec<ScaleEntry>,
) {
    rep.verify(m, F32_VERIFY_EPS)
        .unwrap_or_else(|e| panic!("{engine_name} n={n} produced an invalid certificate: {e}"));
    assert_eq!(
        rep.objective, n as f64,
        "{engine_name} n={n}: diag_dominant optimum must be exactly n"
    );
    let wall_seconds = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    record.push(Measurement {
        engine: format!("hunipu-{engine_name}-tiny{TILES}"),
        n,
        k: SPARSE_K as u64,
        label: engine_name.into(),
        modeled_seconds: rep.stats.modeled_seconds.expect("hunipu models seconds"),
        wall_seconds: rep.stats.wall_seconds,
        objective: rep.objective,
        extrapolated: false,
        device_steps: rep.stats.device_steps,
        profile_events: 0,
    });
    entries.push(ScaleEntry {
        engine: engine_name.into(),
        n,
        feasible: true,
        compute_cycles: stats.compute_cycles as f64,
        total_cycles: stats.total_cycles() as f64,
        host_bytes: stats.host_bytes as f64,
        resident_bytes_per_tile: engine.peak_tile_bytes() as f64,
        wall_seconds,
    });
}

fn print_table(entries: &[ScaleEntry]) {
    println!(
        "\n{:<10} {:>6} {:>9} {:>15} {:>15} {:>13} {:>13} {:>8}",
        "engine", "n", "feasible", "compute cyc", "total cyc", "host bytes", "bytes/tile", "wall s"
    );
    for e in entries {
        if e.feasible {
            println!(
                "{:<10} {:>6} {:>9} {:>15.0} {:>15.0} {:>13.0} {:>13.0} {:>8.2}",
                e.engine,
                e.n,
                "yes",
                e.compute_cycles,
                e.total_cycles,
                e.host_bytes,
                e.resident_bytes_per_tile,
                e.wall_seconds
            );
        } else {
            println!(
                "{:<10} {:>6} {:>9} {:>15} {:>15} {:>13} {:>13} {:>8}",
                e.engine, e.n, "NO", "-", "-", "-", "-", "-"
            );
        }
    }
}

//! Per-solve modeled-cost probe on the paper's Fig. 5 data
//! (`datasets::gaussian_cost_matrix(n, 10, seed)`, full Mk2), or on the
//! planted searching instances of the tiled route.
//!
//! ```text
//! cargo run --release -p hunipu --example perf_probe -- [N] [SEEDS] [layered|a5|tiled]
//! ```
//!
//! Solves seeds `1..=SEEDS` (defaults: n = 256, 1 seed, layered priming;
//! `a5` selects the paper's one prime per iteration, ablation A5; `tiled`
//! block-streams `datasets::planted(n, 0.06, seed)` on `IpuConfig::tiny(8)`,
//! the repository benchmark's `tiled_1024` instances at n = 1,024) and
//! prints, per solve, the modeled cycles by class, the supersteps and
//! exchanges, the executions and compute cycles of every compute set that
//! ran, and a digest of the assignment and the duals. Two builds answer
//! identically on a seed iff their digests match.
use hunipu::{AblationConfig, HunIpu};
use ipu_sim::IpuConfig;
use lsap::SolveReport;

/// FNV-1a over the assignment's columns and the duals' bit patterns.
fn digest(report: &SolveReport) -> u64 {
    let rows = report.assignment.rows();
    let cols = (0..rows).map(|r| report.assignment.col_of(r).map_or(u64::MAX, |c| c as u64));
    let duals = report.certificate.u.iter().chain(&report.certificate.v);
    cols.chain(duals.map(|d| d.to_bits()))
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perf_probe [N] [SEEDS] [layered|a5|tiled]";
    let n: usize = args.first().map_or(Ok(256), |a| a.parse()).expect(usage);
    let seeds: u64 = args.get(1).map_or(Ok(1), |a| a.parse()).expect(usage);
    let mode = args.get(2).map_or("layered", String::as_str);
    let solver = match mode {
        "layered" => HunIpu::new(),
        "a5" => HunIpu::new().with_ablation(AblationConfig {
            layered_priming: false,
            ..AblationConfig::default()
        }),
        "tiled" => HunIpu::with_config(IpuConfig::tiny(8)),
        _ => panic!("{usage}"),
    };
    let mut total = 0u64;
    for seed in 1..=seeds {
        let (report, engine) = if mode == "tiled" {
            solver.solve_tiled(&datasets::planted(n, 0.06, seed))
        } else {
            solver.solve_with_engine(&datasets::gaussian_cost_matrix(n, 10, seed))
        }
        .expect("solve");
        let st = engine.stats();
        total += st.total_cycles();
        println!(
            "n={n} seed={seed} mode={mode} digest={:016x} objective={} aug={} dual={}",
            digest(&report),
            report.objective,
            report.stats.augmentations,
            report.stats.dual_updates
        );
        println!(
            "  cycles total={} compute={} sync={} exchange={} control={}",
            st.total_cycles(),
            st.compute_cycles,
            st.sync_cycles,
            st.exchange_cycles,
            st.control_cycles
        );
        println!(
            "  supersteps={} exchanges={} exchange_bytes={}",
            st.supersteps, st.exchanges, st.exchange_bytes
        );
        for b in st.per_compute_set.iter().filter(|b| b.executions > 0) {
            println!(
                "  {:<28} exec={:<8} cycles={}",
                b.name, b.executions, b.compute_cycles
            );
        }
    }
    println!(
        "mean cycles per solve: {:.0} over {seeds} seeds",
        total as f64 / seeds as f64
    );
}

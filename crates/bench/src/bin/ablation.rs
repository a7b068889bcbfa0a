//! Ablation benches for the design choices DESIGN.md calls out
//! (§IV-A/B/E/G of the paper).
//!
//! ```text
//! cargo run --release -p bench --bin ablation -- compression
//! cargo run --release -p bench --bin ablation -- segment
//! cargo run --release -p bench --bin ablation -- dynslice
//! cargo run --release -p bench --bin ablation -- decomposition
//! cargo run --release -p bench --bin ablation              # all four
//! ```

use bench::{Args, ExperimentRecord, Measurement};
use datasets::gaussian_cost_matrix;
use hunipu::{ablation::two_d_exchange_bytes_per_scan, AblationConfig, DynSlice, HunIpu};
use lsap::CostMatrix;

fn solve(m: &CostMatrix, ab: AblationConfig, col_seg: usize) -> (f64, u64, u64) {
    let solver = HunIpu::new().with_ablation(ab).with_col_seg(col_seg);
    let (rep, engine) = solver.solve_with_engine(m).expect("solve");
    (
        rep.stats.modeled_seconds.unwrap(),
        engine.stats().exchange_bytes,
        rep.objective as u64,
    )
}

fn main() {
    let args = Args::parse();
    let which: Vec<String> = if args.positional.is_empty() {
        ["compression", "segment", "dynslice", "decomposition"]
            .map(String::from)
            .to_vec()
    } else {
        args.positional.clone()
    };
    let n = args
        .sizes
        .as_ref()
        .and_then(|s| s.first().copied())
        .unwrap_or(256);
    let k = args
        .ks
        .as_ref()
        .and_then(|s| s.first().copied())
        .unwrap_or(10);
    let m = gaussian_cost_matrix(n, k, args.seed);
    let mut record = ExperimentRecord::new("ablation", format!("n={n} k={k}"), args.seed);

    for name in &which {
        match name.as_str() {
            "compression" => {
                println!("\nA2 — matrix compression (§IV-B), n={n}, k={k}:");
                for (label, compression) in [("with compression", true), ("no compression", false)]
                {
                    let ab = AblationConfig {
                        compression,
                        ..Default::default()
                    };
                    let (secs, bytes, obj) = solve(&m, ab, hunipu::COL_SEG_DEFAULT);
                    println!("  {label:<18} {:.2}ms (exchange {bytes} B)", secs * 1e3);
                    record.push(Measurement {
                        engine: "hunipu".into(),
                        n,
                        k,
                        label: format!("compression/{label}"),
                        modeled_seconds: secs,
                        wall_seconds: 0.0,
                        objective: obj as f64,
                        extrapolated: false,
                        device_steps: 0,
                        profile_events: 0,
                    });
                }
            }
            "segment" => {
                println!("\nA3 — col_cover segment size (§IV-E footnote), n={n}, k={k}:");
                for seg in [8usize, 16, 32, 64, 128] {
                    let (secs, _, obj) = solve(&m, AblationConfig::default(), seg);
                    println!("  segment {seg:<4} {:.2}ms", secs * 1e3);
                    record.push(Measurement {
                        engine: "hunipu".into(),
                        n,
                        k,
                        label: format!("segment/{seg}"),
                        modeled_seconds: secs,
                        wall_seconds: 0.0,
                        objective: obj as f64,
                        extrapolated: false,
                        device_steps: 0,
                        profile_events: 0,
                    });
                }
            }
            "dynslice" => {
                println!("\nA4 — dynamic-slice strategy (§IV-G), n={n}, k={k}:");
                for (label, strat) in [
                    ("partition+distribute", DynSlice::PartitionDistribute),
                    ("single-tile gather", DynSlice::SingleTileGather),
                ] {
                    let ab = AblationConfig {
                        dyn_slice: strat,
                        ..Default::default()
                    };
                    let (secs, bytes, obj) = solve(&m, ab, hunipu::COL_SEG_DEFAULT);
                    println!("  {label:<22} {:.2}ms (exchange {bytes} B)", secs * 1e3);
                    record.push(Measurement {
                        engine: "hunipu".into(),
                        n,
                        k,
                        label: format!("dynslice/{label}"),
                        modeled_seconds: secs,
                        wall_seconds: 0.0,
                        objective: obj as f64,
                        extrapolated: false,
                        device_steps: 0,
                        profile_events: 0,
                    });
                }
            }
            "decomposition" => {
                println!("\nA1 — 1D vs 2D decomposition (§IV-A), n={n}, k={k}:");
                let solver = HunIpu::new();
                let (rep, engine) = solver.solve_with_engine(&m).expect("solve");
                let iterations = rep.stats.augmentations + rep.stats.dual_updates;
                let measured_1d = engine.stats().exchange_bytes / iterations.max(1);
                let modeled_2d = two_d_exchange_bytes_per_scan(n, 1472);
                println!(
                    "  1D (measured): ~{measured_1d} exchange B per loop iteration (all row\n\
                     \x20                 state is tile-local; only reductions/mirrors move)"
                );
                println!(
                    "  2D (modeled):  +{modeled_2d} exchange B per row-status scan alone\n\
                     \x20                 (every row needs a sqrt(tiles)-way combine)"
                );
                println!("  -> the paper's 1D choice avoids per-scan cross-tile traffic entirely.");
            }
            other => panic!("unknown ablation '{other}'"),
        }
    }
    let path = record.save().expect("write record");
    println!("\nrecord: {}", path.display());
}

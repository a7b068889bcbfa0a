//! Ablation benches for the design choices DESIGN.md calls out
//! (§IV-A/B/E/F of the paper).
//!
//! ```text
//! cargo run --release -p bench --bin ablation -- compression
//! cargo run --release -p bench --bin ablation -- segment
//! cargo run --release -p bench --bin ablation -- decomposition
//! cargo run --release -p bench --bin ablation -- priming
//! cargo run --release -p bench --bin ablation -- priming-table3  # A5 on Table III 99 %
//! cargo run --release -p bench --bin ablation              # the first four
//! ```

use bench::alignment::AlignCell;
use bench::{Args, ExperimentRecord, Measurement};
use datasets::gaussian_cost_matrix;
use hunipu::{ablation::two_d_exchange_bytes_per_scan, AblationConfig, HunIpu};
use lsap::CostMatrix;

/// Modeled seconds, exchange bytes, objective and supersteps of one
/// full-Mk2 solve.
fn solve(m: &CostMatrix, ab: AblationConfig, col_seg: usize) -> (f64, u64, u64, u64) {
    let solver = HunIpu::new().with_ablation(ab).with_col_seg(col_seg);
    let (rep, engine) = solver.solve_with_engine(m).expect("solve");
    (
        rep.stats.modeled_seconds.unwrap(),
        engine.stats().exchange_bytes,
        rep.objective as u64,
        rep.stats.device_steps,
    )
}

/// Ablation A5: solves `m` with the layered and the paper's one-prime
/// Step 4, printing and recording each one's modeled time and
/// supersteps under `label`.
fn priming(m: &CostMatrix, n: usize, k: u64, label: &str, record: &mut ExperimentRecord) {
    for (mode, layered_priming) in [("layered", true), ("one prime (paper)", false)] {
        let ab = AblationConfig {
            layered_priming,
            ..Default::default()
        };
        let (secs, _, obj, steps) = solve(m, ab, hunipu::COL_SEG);
        println!("  {mode:<18} {:.2}ms ({steps} supersteps)", secs * 1e3);
        record.push(Measurement {
            engine: "hunipu".into(),
            n,
            k,
            label: format!("{label}/{mode}"),
            modeled_seconds: secs,
            wall_seconds: 0.0,
            objective: obj as f64,
            extrapolated: false,
            device_steps: steps,
            profile_events: 0,
        });
    }
}

fn main() {
    let args = Args::parse();
    let which: Vec<String> = if args.positional.is_empty() {
        ["compression", "segment", "decomposition", "priming"]
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
                    let (secs, bytes, obj, _) = solve(&m, ab, hunipu::COL_SEG);
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
                    let (secs, _, obj, _) = solve(&m, AblationConfig::default(), seg);
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
            "priming" => {
                println!("\nA5 — priming granularity (§IV-F), n={n}, k={k}:");
                priming(&m, n, k, "priming", &mut record);
            }
            "priming-table3" => {
                for dataset in ["highschool", "voles"] {
                    let g = graphs::realworld::by_name(dataset, args.seed).expect("a dataset");
                    let cell = AlignCell::all(dataset, args.seed)
                        .into_iter()
                        .find(|c| c.label == "99%")
                        .expect("a 99 % cell");
                    let cost = cell.similarity(&g).similarity_to_cost();
                    let n = cost.n();
                    println!("\nA5 — priming granularity (§IV-F), {dataset} 99%, n={n}:");
                    priming(&cost, n, 0, &format!("priming/{dataset}"), &mut record);
                }
            }
            other => panic!("unknown ablation '{other}'"),
        }
    }
    let path = record.save().expect("write record");
    println!("\nrecord: {}", path.display());
}

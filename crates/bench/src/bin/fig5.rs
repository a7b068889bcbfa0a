//! Regenerates **Figure 5**: runtime of FastHA vs HunIPU across matrix
//! sizes and value ranges on Gaussian-distributed data.
//!
//! The paper plots, for each n ∈ {512 … 8192}, the runtime of the two
//! engines at value ranges 10n / 500n / 5000n. This harness prints the
//! same series (modeled milliseconds) and the FastHA/HunIPU speedup per
//! point — the paper reports 3–11× with an average of 6×.
//!
//! ```text
//! cargo run --release -p bench --bin fig5             # default sizes
//! cargo run --release -p bench --bin fig5 -- --full   # paper sizes
//! ```

use bench::{run_fastha, run_hunipu, Args, ExperimentRecord, Measurement};
use datasets::{f32_exact, gaussian_cost_matrix, uniform_cost_matrix, FIG5_KS};

fn main() {
    let args = Args::parse();
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| {
        if args.full {
            datasets::PAPER_SIZES.to_vec()
        } else {
            vec![128, 256, 512]
        }
    });
    let ks: Vec<u64> = args.ks.clone().unwrap_or_else(|| FIG5_KS.to_vec());

    let mut record = ExperimentRecord::new("fig5", format!("sizes={sizes:?} ks={ks:?}"), args.seed);

    let dist = if args.uniform { "uniform" } else { "Gaussian" };
    println!("Figure 5: runtime (ms, modeled) of FastHA vs HunIPU, {dist} data");
    println!(
        "{:>6} {:>7} | {:>12} {:>12} {:>9}",
        "n", "range", "FastHA", "HunIPU", "speedup"
    );
    println!("{}", "-".repeat(55));

    let mut speedups = Vec::new();
    for &n in &sizes {
        assert!(n.is_power_of_two(), "FastHA needs power-of-two sizes");
        for &k in &ks {
            let m = if args.uniform {
                uniform_cost_matrix(n, k, args.seed)
            } else {
                gaussian_cost_matrix(n, k, args.seed)
            };
            let hun = run_hunipu(&m);
            let fast = run_fastha(&m);
            if f32_exact(n, k) {
                assert_eq!(
                    hun.objective, fast.objective,
                    "objective mismatch at n={n}, k={k}"
                );
            }
            let hs = hun.stats.modeled_seconds.unwrap();
            let fs = fast.stats.modeled_seconds.unwrap();
            let speedup = fs / hs;
            speedups.push(speedup);
            println!(
                "{:>6} {:>7} | {:>10.2}ms {:>10.2}ms {:>8.2}x",
                n,
                format!("{k}n"),
                fs * 1e3,
                hs * 1e3,
                speedup
            );
            for (engine, rep, secs) in [("hunipu", &hun, hs), ("fastha", &fast, fs)] {
                record.push(Measurement {
                    engine: engine.into(),
                    n,
                    k,
                    label: String::new(),
                    modeled_seconds: secs,
                    wall_seconds: rep.stats.wall_seconds,
                    objective: rep.objective,
                    extrapolated: false,
                    device_steps: rep.stats.device_steps,
                    profile_events: rep.stats.profile_events,
                });
            }
        }
    }

    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let (lo, hi) = speedups
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(l, h), &s| (l.min(s), h.max(s)));
    println!("{}", "-".repeat(55));
    println!("speedup over FastHA: min {lo:.1}x, max {hi:.1}x, average {avg:.1}x");
    println!("(paper: 3x to 11x, average 6x — HunIPU should win every cell)");

    let path = record.save().expect("write record");
    println!("\nrecord: {}", path.display());
}

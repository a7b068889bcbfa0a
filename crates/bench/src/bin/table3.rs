//! Regenerates **Table III**: graph-alignment runtime (ms) on the three
//! real-world (here: synthetic-equivalent) datasets.
//!
//! Pipeline per cell (§V-C): take the dataset graph, build a noisy copy
//! keeping p% of the edges, compute the GRAMPA similarity (η = 0.2),
//! convert to costs, and solve the assignment with HunIPU and with
//! FastHA (the latter on the zero-padded power-of-two matrix, as the
//! paper does).
//!
//! ```text
//! cargo run --release -p bench --bin table3 -- highschool
//! cargo run --release -p bench --bin table3 -- voles multimagna
//! cargo run --release -p bench --bin table3              # all (slow: two
//!                                                        #   1004^2 eigensolves per cell)
//! ```

use align::{grampa_similarity, node_correctness, pad_for_pow2_solver, DEFAULT_ETA};
use bench::{run_fastha, run_hunipu, Args, ExperimentRecord, Measurement};
use graphs::{keep_edge_fraction, realworld};

fn main() {
    let args = Args::parse();
    let datasets: Vec<String> = if args.positional.is_empty() {
        vec!["highschool".into(), "voles".into(), "multimagna".into()]
    } else {
        args.positional.clone()
    };

    let mut record = ExperimentRecord::new("table3", format!("datasets={datasets:?}"), args.seed);

    println!("Table III: alignment runtime (ms, modeled) — HunIPU vs FastHA");
    for name in &datasets {
        let g = realworld::by_name(name, args.seed)
            .unwrap_or_else(|| panic!("unknown dataset '{name}' (highschool|voles|multimagna)"));
        // MultiMagna is evaluated on five noisy variants in the paper;
        // the proximity datasets sweep the kept-edge percentage.
        let cells: Vec<(String, f64, u64)> = if name.eq_ignore_ascii_case("multimagna") {
            (1..=5)
                .map(|v| (format!("variant{v}"), 0.9, args.seed + v))
                .collect()
        } else {
            [0.80, 0.90, 0.95, 0.99]
                .iter()
                .map(|&p| (format!("{:.0}%", p * 100.0), p, args.seed + 100))
                .collect()
        };

        println!("\n({name}: n={}, m={})", g.n(), g.m());
        println!(
            "{:>10} | {:>12} {:>12} {:>9} {:>9}",
            "edges", "HunIPU", "FastHA", "speedup", "node-acc"
        );
        println!("{}", "-".repeat(60));
        for (label, keep, noise_seed) in cells {
            let noisy = keep_edge_fraction(&g, keep, noise_seed);
            let sim = grampa_similarity(&g, &noisy, DEFAULT_ETA);
            let cost = sim.similarity_to_cost();

            let hun = run_hunipu(&cost);
            // FastHA needs 2^m sizes: pad the *similarity* matrix with
            // zero rows/columns (zero similarity = unattractive), exactly
            // as §V-C describes, then convert.
            let (padded_sim, orig) = pad_for_pow2_solver(&sim);
            let padded_cost = padded_sim.similarity_to_cost();
            let fast = run_fastha(&padded_cost);
            let fast_matching = fast.assignment.truncated(orig, orig);

            // Identity is the ground truth (the noisy copy keeps labels).
            let truth: Vec<usize> = (0..g.n()).collect();
            let acc = node_correctness(&hun.assignment, &truth);
            let acc_fast = node_correctness(&fast_matching, &truth);
            // Both engines optimize the same similarity; their restricted
            // objectives must agree (alternate optima permitting).
            if fast_matching.matched_count() == orig {
                let hun_cost = hun.objective;
                let fast_cost = fast_matching.cost(&cost).expect("valid matching");
                let scale = cost.min_max().1.abs().max(1.0) * orig as f64;
                assert!(
                    (hun_cost - fast_cost).abs() <= 1e-4 * scale,
                    "objective divergence: hunipu {hun_cost} vs fastha {fast_cost}"
                );
            }

            let hs = hun.stats.modeled_seconds.unwrap();
            let fs = fast.stats.modeled_seconds.unwrap();
            println!(
                "{:>10} | {:>10.2}ms {:>10.2}ms {:>8.2}x {:>7.1}/{:.1}%",
                label,
                hs * 1e3,
                fs * 1e3,
                fs / hs,
                acc * 100.0,
                acc_fast * 100.0
            );
            for (engine, rep, secs) in [("hunipu", &hun, hs), ("fastha", &fast, fs)] {
                record.push(Measurement {
                    engine: engine.into(),
                    n: g.n(),
                    k: 0,
                    label: format!("{name}/{label}"),
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
    println!("\npaper's Table III reference: HunIPU beats FastHA by ~5x (Voles worst");
    println!("case ~32x); speedups above come from the same mechanism (padding to 2^m,");
    println!("warp divergence, per-iteration launch+sync overhead).");
    let path = record.save().expect("write record");
    println!("\nrecord: {}", path.display());
}

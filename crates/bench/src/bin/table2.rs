//! Regenerates **Table II**: runtime gain of HunIPU over the optimized
//! CPU Hungarian implementation on Gaussian-distributed data.
//!
//! Grid: n × k with value range [1, k·n]; cells are
//! `modeled_cpu_seconds / modeled_hunipu_seconds`.
//!
//! ```text
//! cargo run --release -p bench --bin table2             # default grid (minutes)
//! cargo run --release -p bench --bin table2 -- --full   # paper grid (hours of host time)
//! cargo run --release -p bench --bin table2 -- --sizes 512 --ks 1,10,100
//! ```
//!
//! The CPU baseline runs natively up to a size cutoff and is extended
//! with a fitted power law above it; extrapolated cells carry a `*`.
//! The paper's own grid reaches n = 8192 where its CPU baseline needs
//! hours — the very point of Table II.

use bench::{fmt_time, run_cpu, run_hunipu, Args, CpuExtrapolator, ExperimentRecord, Measurement};
use datasets::{f32_exact, gaussian_cost_matrix, uniform_cost_matrix, PAPER_KS};

fn main() {
    let args = Args::parse();
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| {
        if args.full {
            datasets::PAPER_SIZES.to_vec()
        } else {
            vec![128, 256, 512]
        }
    });
    let ks: Vec<u64> = args.ks.clone().unwrap_or_else(|| PAPER_KS.to_vec());
    // Native CPU execution cutoff: Munkres at n = 1024 already takes
    // minutes of wall time; beyond it the fitted curve takes over.
    let cpu_cutoff = if args.full { 2048 } else { 512 };
    let hunipu_cutoff = if args.full { usize::MAX } else { 1024 };

    let mut record = ExperimentRecord::new(
        "table2",
        format!("sizes={sizes:?} ks={ks:?} cpu_cutoff={cpu_cutoff}"),
        args.seed,
    );

    let dist = if args.uniform { "uniform" } else { "Gaussian" };
    println!("Table II: runtime gain of HunIPU vs CPU Hungarian ({dist} data)");
    println!("(cells: modeled CPU time / modeled HunIPU time; * = CPU extrapolated)");
    print!("{:>6} |", "n");
    for &k in &ks {
        print!("{:>10} |", format!("{k}n"));
    }
    println!();
    println!("{}", "-".repeat(8 + ks.len() * 12));

    for &n in &sizes {
        print!("{n:>6} |");
        for &k in &ks {
            let mut extrap = CpuExtrapolator::new();
            let m = if args.uniform {
                uniform_cost_matrix(n, k, args.seed)
            } else {
                gaussian_cost_matrix(n, k, args.seed)
            };

            if n > hunipu_cutoff {
                print!("{:>10} |", "(skip)");
                continue;
            }
            let hun = run_hunipu(&m);
            let hun_s = hun.stats.modeled_seconds.expect("hunipu models time");
            record.push(Measurement {
                engine: "hunipu".into(),
                n,
                k,
                label: String::new(),
                modeled_seconds: hun_s,
                wall_seconds: hun.stats.wall_seconds,
                objective: hun.objective,
                extrapolated: false,
                device_steps: hun.stats.device_steps,
                profile_events: hun.stats.profile_events,
            });

            let (cpu_s, extrapolated, cpu_obj) = if n <= cpu_cutoff {
                let cpu = run_cpu(&m);
                (
                    cpu.stats.modeled_seconds.expect("cpu models time"),
                    false,
                    Some(cpu.objective),
                )
            } else {
                // Fit the curve from two smaller native runs of this k.
                for frac in [4usize, 2] {
                    let nn = (n / frac).max(64);
                    let mm = if args.uniform {
                        uniform_cost_matrix(nn, k, args.seed)
                    } else {
                        gaussian_cost_matrix(nn, k, args.seed)
                    };
                    let rep = run_cpu(&mm);
                    extrap.record(nn, rep.stats.modeled_seconds.unwrap());
                }
                (extrap.predict(n).expect("two points recorded"), true, None)
            };
            record.push(Measurement {
                engine: "cpu".into(),
                n,
                k,
                label: String::new(),
                modeled_seconds: cpu_s,
                wall_seconds: 0.0,
                objective: cpu_obj.unwrap_or(f64::NAN),
                extrapolated,
                device_steps: 0,
                profile_events: 0,
            });

            // Cross-check optimality whenever f32 is exact for this range.
            if let Some(obj) = cpu_obj {
                if f32_exact(n, k) {
                    assert_eq!(obj, hun.objective, "objective mismatch at n={n}, k={k}");
                }
            }

            let gain = cpu_s / hun_s;
            let mark = if extrapolated { "*" } else { "" };
            print!("{:>10} |", format!("{gain:.1}{mark}"));
        }
        println!();
    }

    println!("\npaper's Table II reference points (same cells):");
    println!("  n=512:  51.9 (10n) .. 60.2 (10000n);  n=8192: 1870 (10n) .. 3041 (10000n)");
    println!("  (absolute factors depend on the CPU model; the trend — gains growing");
    println!("   with n and roughly flat in k beyond 10n — is the reproduction target)");

    // Detail rows: absolute modeled times for the first k, for context.
    if let Some(&k) = ks.first() {
        println!("\nabsolute modeled times at k={k}:");
        for m in &record.measurements {
            if m.k == k {
                println!(
                    "  n={:<6} {:<7} {}{}",
                    m.n,
                    m.engine,
                    fmt_time(m.modeled_seconds),
                    if m.extrapolated {
                        " (extrapolated)"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    let path = record.save().expect("write record");
    println!("\nrecord: {}", path.display());
}

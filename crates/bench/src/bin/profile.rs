//! `bench profile`: run one instance through HunIPU, FastHA, and the CPU
//! baseline with the execution profilers on, print the observability
//! summaries, and merge all timelines into a single Chrome-trace JSON.
//!
//! ```text
//! cargo run --release -p bench --bin profile
//! cargo run --release -p bench --bin profile -- --sizes 128 --ks 100 \
//!     --tile-sample 4 --max-events 8192 --out target/experiments/my_trace.json
//! ```
//!
//! The merged trace puts each engine in its own process lane (pid 1 =
//! HunIPU, pid 2 = FastHA, pid 3 = CPU) so the three executions line up
//! on one timeline in `ui.perfetto.dev` or `chrome://tracing`. Before
//! exiting, the binary re-reads the written file, validates it against
//! the `trace_event` schema, and cross-checks every profiler total
//! against the simulators' own accounting — a nonzero exit means the
//! observability layer itself is broken.

use bench::{fmt_time, Args, ExperimentRecord, Measurement};
use cpu_hungarian::Munkres;
use fastha::FastHa;
use gpu_sim::GpuProfileConfig;
use hunipu::HunIpu;
use ipu_sim::ProfileConfig;
use lsap::LsapSolver;
use std::path::PathBuf;
use trace::{ChromeTrace, TraceEvent};

const HUNIPU_PID: u64 = 1;
const FASTHA_PID: u64 = 2;
const CPU_PID: u64 = 3;

/// Prints the violation and exits nonzero (the CI smoke job relies on
/// this binary being self-checking).
fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("profile invariant violated: {what}");
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::parse();
    let n = args
        .sizes
        .as_ref()
        .and_then(|s| s.first().copied())
        .unwrap_or(64);
    assert!(
        n.is_power_of_two(),
        "FastHA needs a power-of-two size, got {n}"
    );
    let k = args
        .ks
        .as_ref()
        .and_then(|s| s.first().copied())
        .unwrap_or(10);
    let m = if args.uniform {
        datasets::uniform_cost_matrix(n, k, args.seed)
    } else {
        datasets::gaussian_cost_matrix(n, k, args.seed)
    };
    println!(
        "profiling {n}x{n} (k={k}, seed={}) on all three engines\n",
        args.seed
    );

    let ipu_profile = ProfileConfig {
        tile_sample: args.tile_sample.unwrap_or(1) as usize,
        max_events: args
            .max_events
            .unwrap_or_else(|| ProfileConfig::default().max_events),
        ..Default::default()
    };
    let gpu_profile = GpuProfileConfig {
        max_events: args
            .max_events
            .unwrap_or_else(|| GpuProfileConfig::default().max_events),
    };

    // --- HunIPU (simulated Mk2) -----------------------------------------
    let (hun, engine) = HunIpu::new()
        .with_profiling(ipu_profile)
        .solve_with_engine(&m)
        .expect("hunipu solve failed");
    let ipu = engine.profile_report().expect("profiler was enabled");
    let stats = engine.stats().clone();
    check(
        ipu.compute_cycles == stats.compute_cycles,
        "IPU compute cycles reconcile with CycleStats",
    );
    check(
        ipu.sync_cycles == stats.sync_cycles,
        "IPU sync cycles reconcile with CycleStats",
    );
    check(
        ipu.exchange_cycles == stats.exchange_cycles,
        "IPU exchange cycles reconcile with CycleStats",
    );
    check(
        ipu.control_cycles == stats.control_cycles,
        "IPU control cycles reconcile with CycleStats",
    );
    check(
        ipu.exchange_bytes == stats.exchange_bytes,
        "IPU exchange bytes reconcile with CycleStats",
    );
    check(
        ipu.exchange_heatmap.iter().map(|p| p.bytes).sum::<u64>() == ipu.exchange_bytes,
        "exchange heatmap sums to exchange_bytes",
    );
    check(
        ipu.occupancy_histogram.iter().sum::<u64>() == ipu.tile_supersteps,
        "occupancy histogram sums to tile_supersteps",
    );
    check(ipu.supersteps > 0, "HunIPU timeline is nonzero");

    println!(
        "HunIPU   modeled {} | {} supersteps, {} exchanges, {} B exchanged",
        fmt_time(hun.stats.modeled_seconds.unwrap()),
        ipu.supersteps,
        ipu.exchanges,
        ipu.exchange_bytes
    );
    println!(
        "  cycles: compute {} | exchange {} | sync {} | control {}",
        ipu.compute_cycles, ipu.exchange_cycles, ipu.sync_cycles, ipu.control_cycles
    );
    let busy: Vec<String> = ipu
        .occupancy_histogram
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(t, c)| format!("{t}thr x{c}"))
        .collect();
    println!("  occupancy: {}", busy.join(", "));
    println!("  stragglers (top {}):", ipu.stragglers.len());
    for t in &ipu.stragglers {
        println!(
            "    tile {:>4}: {:>10} compute cycles, {:>10} sync-wait, led {} supersteps",
            t.tile, t.compute_cycles, t.sync_wait_cycles, t.led_supersteps
        );
    }
    let mut hottest = ipu.exchange_heatmap.clone();
    hottest.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.src_tile.cmp(&b.src_tile)));
    println!("  hottest exchange pairs:");
    for p in hottest.iter().take(5) {
        let dst = if p.dst_tile == u32::MAX {
            "broadcast".to_string()
        } else {
            format!("tile {}", p.dst_tile)
        };
        println!("    tile {:>4} -> {:<10} {:>8} B", p.src_tile, dst, p.bytes);
    }

    // --- FastHA (simulated A100) ----------------------------------------
    let (fast, gpu) = FastHa::new()
        .with_profiling(gpu_profile)
        .solve_with_device(&m)
        .expect("fastha solve failed");
    let gpu_rep = gpu.profile_report().expect("profiler was enabled");
    check(
        gpu_rep.launches == gpu.stats().launches,
        "GPU launches reconcile with GpuStats",
    );
    check(
        gpu_rep.warp_cycles == gpu.stats().warp_cycles,
        "GPU warp cycles reconcile with GpuStats",
    );
    check(
        gpu_rep.kernel_seconds.to_bits() == gpu.stats().kernel_seconds.to_bits(),
        "GPU kernel seconds reconcile with GpuStats",
    );
    check(gpu_rep.launches > 0, "FastHA timeline is nonzero");

    println!(
        "\nFastHA   modeled {} | {} launches, {} host syncs",
        fmt_time(fast.stats.modeled_seconds.unwrap()),
        gpu_rep.launches,
        gpu_rep.host_syncs
    );
    println!("  per-kernel breakdown:");
    for kp in &gpu_rep.per_kernel {
        println!(
            "    {:<14} x{:<5} {:>10} | {:>12} warp cycles | divergence up to {:.2}",
            kp.name,
            kp.launches,
            fmt_time(kp.seconds),
            kp.warp_cycles,
            kp.max_divergence
        );
    }

    // --- CPU baseline (one span; no internal timeline) ------------------
    let cpu = Munkres::new().solve(&m).expect("munkres solve failed");
    let cpu_s = cpu.stats.modeled_seconds.unwrap();
    println!(
        "\nCPU      modeled {} | {} augmentations, {} dual updates",
        fmt_time(cpu_s),
        cpu.stats.augmentations,
        cpu.stats.dual_updates
    );
    if datasets::f32_exact(n, k) {
        check(
            hun.objective == cpu.objective,
            "HunIPU objective matches CPU",
        );
        check(
            fast.objective == cpu.objective,
            "FastHA objective matches CPU",
        );
    }

    // --- Merge the three timelines into one trace -----------------------
    let mut merged = engine
        .chrome_trace(HUNIPU_PID, "HunIPU (IPU Mk2 model)")
        .expect("profiler was enabled");
    merged.extend(
        gpu.chrome_trace(FASTHA_PID, "FastHA (A100 model)")
            .expect("profiler was enabled"),
    );
    merged.push(TraceEvent::process_name(
        CPU_PID,
        "CPU Munkres (EPYC model)",
    ));
    merged.push(TraceEvent::thread_name(CPU_PID, 0, "host"));
    merged.push(
        TraceEvent::complete("munkres solve", "cpu", 0.0, cpu_s * 1e6, CPU_PID, 0)
            .arg("augmentations", cpu.stats.augmentations)
            .arg("dual_updates", cpu.stats.dual_updates),
    );

    let out = PathBuf::from(
        args.out
            .clone()
            .unwrap_or_else(|| "target/experiments/profile_trace.json".into()),
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, merged.to_json()).expect("write trace");

    // Re-read what was written: the file on disk must be a well-formed
    // trace, not just the in-memory representation.
    let written = std::fs::read_to_string(&out).expect("read trace back");
    let summary = match ChromeTrace::validate_json(&written) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("emitted trace is malformed: {e}");
            std::process::exit(1);
        }
    };
    check(summary.complete_events > 0, "trace has complete events");
    check(summary.lanes >= 3, "trace has all three engine lanes");

    println!(
        "\ntrace: {} ({} events, {} lanes, span {:.1} us)",
        out.display(),
        summary.events,
        summary.lanes,
        summary.span_us
    );
    println!("open in https://ui.perfetto.dev or chrome://tracing");

    // Provenance record, like every other harness binary.
    let mut record = ExperimentRecord::new(
        "profile",
        format!("n={n} k={k} tile_sample={}", args.tile_sample.unwrap_or(1)),
        args.seed,
    );
    for (engine_name, rep) in [("hunipu", &hun), ("fastha", &fast), ("cpu", &cpu)] {
        record.push(Measurement {
            engine: engine_name.into(),
            n,
            k,
            label: "profile".into(),
            modeled_seconds: rep.stats.modeled_seconds.unwrap_or(0.0),
            wall_seconds: rep.stats.wall_seconds,
            objective: rep.objective,
            extrapolated: false,
            device_steps: rep.stats.device_steps,
            profile_events: rep.stats.profile_events,
        });
    }
    let path = record.save().expect("write record");
    println!("record: {}", path.display());
}

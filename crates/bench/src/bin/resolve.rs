//! `bench resolve` — the warm-start re-solve sweep and CI perf gate.
//!
//! Simulates a streaming workload: a base instance followed by a stream
//! of perturbations, each re-solved two ways on one warm engine (one
//! compiled program per cell):
//!
//! - **warm**: the previous answer's duals are repaired on the host
//!   ([`lsap::repair_duals_f32`]), then
//!   [`hunipu::WarmEngine::solve_seeded`] launches the program with
//!   Step 1 skipped; the answer is certificate-gated, and a failure
//!   falls back to the cold answer, counted, paying both solves' cycles;
//! - **cold**: the same matrix through the same engine with full Step 1
//!   and fresh duals, the cost a non-incremental deployment would pay.
//!
//! Every warm answer is verified twice: its own [`lsap::DualCertificate`],
//! and externally here against both the cold device objective (bit
//! equality) and the CPU Jonker–Volgenant ground truth. A disagreement
//! is a `mismatch` and fails the gate unconditionally — the speedup
//! claim is only meaningful on answers that stay exact.
//!
//! Grid: n ∈ {128, 256} × k ∈ {1, n/8, n/2, n} perturbed rows per tick
//! (overridable with `--sizes`), `ticks = 4` re-solves per cell, on the
//! Mk2-scale device. All gated quantities are modeled cycles or counts,
//! so runs agree bit-for-bit.
//!
//! Prints the table and writes `target/experiments/resolve.json`;
//! `--write-baseline` also records `BENCH_resolve.json` (or `--baseline
//! PATH`). `bench gate --only resolve` checks a fresh recording against
//! the committed file: any ground-truth mismatch, warm-cycle drift
//! beyond tolerance, a small-perturbation cell (`k <= n/8`) below the
//! 2x speedup floor, or the seeded launch silently never being taken.

use bench::{write_baseline, Args, ExperimentRecord, Measurement};
use datasets::gaussian_cost_matrix;
use hunipu::{HunIpu, WarmEngine, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{checked_attempt, repair_duals_f32, CostMatrix, LsapError, SolveReport, WarmStart};
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
            run_cell(
                &IpuConfig::mk2(),
                n,
                k.max(1),
                seed,
                &mut record,
                &mut entries,
            );
        }
    }

    print_table(&entries);

    match record.save() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write experiment record: {e}"),
    }

    write_baseline(&args, "BENCH_resolve.json", &Baseline { seed, entries });
}

/// Runs one `(n, k)` cell: a stream of `TICKS` k-row perturbations,
/// each re-solved warm and cold on one warm engine, every answer
/// cross-checked.
fn run_cell(
    config: &IpuConfig,
    n: usize,
    k: usize,
    seed: u64,
    record: &mut ExperimentRecord,
    entries: &mut Vec<ResolveEntry>,
) {
    let started = Instant::now();
    let cell = stream_cell(config, n, k, seed);
    let wall_seconds = started.elapsed().as_secs_f64();

    for (label, cycles) in [("warm", cell.warm_total), ("cold", cell.cold_total)] {
        record.push(Measurement {
            engine: "hunipu-resolve".into(),
            n,
            k: k as u64,
            label: label.into(),
            modeled_seconds: config.cycles_to_seconds(cycles) / TICKS as f64,
            wall_seconds,
            objective: 0.0,
            extrapolated: false,
            device_steps: 0,
            profile_events: 0,
        });
    }
    let cold_cycles = cell.cold_total as f64 / TICKS as f64;
    let warm_cycles = cell.warm_total as f64 / TICKS as f64;
    entries.push(ResolveEntry {
        n,
        k,
        ticks: TICKS,
        cold_cycles,
        warm_cycles,
        speedup: cold_cycles / warm_cycles,
        seeded: cell.seeded,
        fallbacks: cell.fallbacks,
        mismatches: cell.mismatches,
        wall_seconds,
    });
}

/// Summed modeled cycles and counts of one cell's `TICKS` re-solves.
#[derive(Debug, Default, PartialEq)]
struct Cell {
    warm_total: u64,
    cold_total: u64,
    seeded: u64,
    fallbacks: u64,
    mismatches: u64,
}

/// Streams `TICKS` k-row perturbations of a Gaussian n×n instance
/// through one warm engine on `config`. Each tick solves the changed
/// matrix cold (full Step 1 from fresh duals, the cost a
/// non-incremental deployment pays) and re-solves it warm through
/// [`resolve_tick`]; the warm answer must equal the cold objective bit
/// for bit and the CPU ground truth numerically, or the tick counts as
/// a mismatch.
fn stream_cell(config: &IpuConfig, n: usize, k: usize, seed: u64) -> Cell {
    let solver = HunIpu::with_config(config.clone());
    let mut engine = solver.warm(n).expect("compile failed");
    let mut m = gaussian_cost_matrix(n, 100, seed);
    let first = engine
        .solve(&solver, &m)
        .expect("initial cold solve failed");
    first
        .verify(&m, F32_VERIFY_EPS)
        .expect("initial solve certificate invalid");
    let mut warm = WarmStart::from_report(&first);

    let mut cell = Cell::default();
    for tick in 1..=TICKS {
        perturb(&mut m, k, tick);
        let cold = engine.solve(&solver, &m).expect("cold solve failed");
        cold.verify(&m, F32_VERIFY_EPS)
            .expect("cold solve certificate invalid");
        let t = resolve_tick(&mut engine, &solver, &m, &warm, &cold);
        cell.warm_total += t.warm_cycles;
        cell.cold_total += cycles(&cold);
        if t.seeded {
            cell.seeded += 1;
        } else {
            cell.fallbacks += 1;
        }

        let truth = cpu_hungarian::ground_truth_objective(&m);
        if t.answer.objective.to_bits() != cold.objective.to_bits()
            || (t.answer.objective - truth).abs() > 1e-6 * (1.0 + truth.abs())
        {
            eprintln!(
                "MISMATCH n={n} k={k} tick={tick}: warm {} cold {} truth {truth}",
                t.answer.objective, cold.objective
            );
            cell.mismatches += 1;
        }
        warm = WarmStart::from_report(&t.answer);
    }
    cell
}

/// One warm re-solve and what it cost.
struct Tick {
    /// The seeded answer, or `cold` after a fallback.
    answer: SolveReport,
    /// Modeled cycles of the seeded attempt, plus the cold solve's on a
    /// fallback tick.
    warm_cycles: u64,
    /// `true` when the seeded answer verified.
    seeded: bool,
}

/// Repairs `warm` against `m` on the host, launches the seeded program
/// on `engine` and verifies its certificate. A failed seeded attempt
/// falls back to `cold`, the already verified cold solve of `m`; the
/// fallback is counted by the caller and pays the failed attempt's
/// cycles on top of the cold solve's, as the serving layer charges it.
/// An attempt that errors pays the cycles the device ran before the
/// error; one refused before launch pays none.
fn resolve_tick(
    engine: &mut WarmEngine,
    solver: &HunIpu,
    m: &CostMatrix,
    warm: &WarmStart,
    cold: &SolveReport,
) -> Tick {
    let seed = repair_duals_f32(m, warm).expect("the warm start has the stream's shape");
    let attempt = checked_attempt(m, F32_VERIFY_EPS, None, "hunipu", || {
        engine.solve_seeded(solver, m, &seed)
    });
    // An attempt that errors returns no report. One the warm engine
    // refuses before launch ran nothing, and the engine's stats still
    // hold the last launch's. One that launched spent what the engine's
    // stats hold, since each launch starts them from zero.
    let attempt_cycles = match (&attempt.outcome, attempt.modeled_cycles) {
        (_, Some(cycles)) => cycles,
        (Err(LsapError::ShapeMismatch { .. } | LsapError::NotSquare { .. }), None) => 0,
        (_, None) => engine.engine().stats().total_cycles(),
    };
    match attempt.outcome {
        Ok(answer) => Tick {
            answer,
            warm_cycles: attempt_cycles,
            seeded: true,
        },
        Err(_) => Tick {
            answer: cold.clone(),
            warm_cycles: attempt_cycles + cycles(cold),
            seeded: false,
        },
    }
}

fn cycles(report: &SolveReport) -> u64 {
    report.stats.modeled_cycles.expect("hunipu models cycles")
}

/// Applies the tick's change to `m`: `k` distinct rows, each rewritten
/// with non-uniform integer bumps (integer costs keep the f32 dual repair
/// exact; non-uniform bumps actually move row argmins instead of being
/// absorbed by the repaired `u_i`). Deterministic in `(tick, k)`.
fn perturb(m: &mut CostMatrix, k: usize, tick: usize) {
    let n = m.n();
    for idx in 0..k {
        let row = (tick * k + idx) % n;
        for j in 0..n {
            let bumped = m.get(row, j) + ((tick + idx + j) % 9) as f64 + 1.0;
            m.set(row, j, bumped);
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_sim::FaultPlan;
    use lsap::LsapSolver;

    #[test]
    fn cells_seed_every_tick_and_match_cold() {
        // A small perturbation, and one that rewrites every row.
        for (n, k) in [(16, 2), (12, 12)] {
            let cell = stream_cell(&IpuConfig::tiny(8), n, k, 3);
            assert_eq!(
                (cell.seeded, cell.fallbacks, cell.mismatches),
                (TICKS as u64, 0, 0),
                "n={n} k={k}: {cell:?}"
            );
            if k < n {
                assert!(cell.warm_total < cell.cold_total, "{cell:?}");
            }
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let config = IpuConfig::tiny(8);
        assert_eq!(
            stream_cell(&config, 12, 6, 5),
            stream_cell(&config, 12, 6, 5)
        );
    }

    #[test]
    fn the_shared_engines_cold_solves_cost_what_fresh_compiles_do() {
        let config = IpuConfig::tiny(8);
        let cell = stream_cell(&config, 12, 3, 6);
        let mut m = gaussian_cost_matrix(12, 100, 6);
        let mut fresh = 0;
        for tick in 1..=TICKS {
            perturb(&mut m, 3, tick);
            let (report, _) = HunIpu::with_config(config.clone())
                .solve_with_engine(&m)
                .unwrap();
            fresh += cycles(&report);
        }
        assert_eq!(cell.cold_total, fresh);
    }

    #[test]
    fn a_cell_records_mean_cycles_and_seconds_on_the_device_clock() {
        let config = IpuConfig::tiny(8);
        let mut record = ExperimentRecord::new("resolve", "test".to_string(), 2);
        let mut entries = Vec::new();
        run_cell(&config, 12, 2, 2, &mut record, &mut entries);
        let cell = stream_cell(&config, 12, 2, 2);

        let [entry] = &entries[..] else {
            panic!("one entry per cell")
        };
        assert_eq!(entry.cold_cycles, cell.cold_total as f64 / TICKS as f64);
        assert_eq!(entry.warm_cycles, cell.warm_total as f64 / TICKS as f64);
        assert_eq!(entry.speedup, entry.cold_cycles / entry.warm_cycles);
        assert_eq!(
            (entry.seeded, entry.fallbacks),
            (cell.seeded, cell.fallbacks)
        );
        let seconds: Vec<(&str, f64)> = record
            .measurements
            .iter()
            .map(|m| (m.label.as_str(), m.modeled_seconds))
            .collect();
        assert_eq!(
            seconds,
            vec![
                (
                    "warm",
                    cell.warm_total as f64 / config.clock_hz / TICKS as f64
                ),
                (
                    "cold",
                    cell.cold_total as f64 / config.clock_hz / TICKS as f64
                ),
            ]
        );
    }

    #[test]
    fn a_failed_seeded_attempt_falls_back_to_cold_and_pays_for_both() {
        // The storm corrupts matching state: bound the device loop.
        let solver = HunIpu::with_config(IpuConfig {
            max_while_iterations: 20_000,
            ..IpuConfig::tiny(8)
        });
        let mut engine = solver.warm(12).unwrap();
        let mut m = datasets::uniform_cost_matrix(12, 10, 7);
        let warm = WarmStart::from_report(&engine.solve(&solver, &m).unwrap());
        perturb(&mut m, 1, 1);
        let cold = engine.solve(&solver, &m).unwrap();

        // A bit-flip storm on the seeded launch alone: it runs to the
        // end and returns a certificate that does not verify.
        let stormy = solver.clone().with_fault_plan(
            FaultPlan::new(9)
                .with_bit_flips(0.8)
                .targeting("slack")
                .after_supersteps(0),
        );
        let tick = resolve_tick(&mut engine, &stormy, &m, &warm, &cold);
        assert!(!tick.seeded);
        assert_eq!(tick.answer.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(tick.answer.assignment, cold.assignment);
        let failed = engine.engine().stats().total_cycles();
        assert!(failed > 0);
        assert_eq!(tick.warm_cycles, failed + cycles(&cold));

        // The clean solver takes the seeded answer and pays only for it.
        let tick = resolve_tick(&mut engine, &solver, &m, &warm, &cold);
        assert!(tick.seeded && tick.answer.stats.seeded);
        assert_eq!(tick.warm_cycles, cycles(&tick.answer));
    }

    #[test]
    fn a_seeded_attempt_that_errors_falls_back_to_cold() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let mut engine = solver.warm(12).unwrap();
        let mut m = datasets::uniform_cost_matrix(12, 10, 8);
        let warm = WarmStart::from_report(&engine.solve(&solver, &m).unwrap());
        perturb(&mut m, 2, 1);
        let cold = engine.solve(&solver, &m).unwrap();

        // Every device loop diverges: the seeded launch returns an error
        // instead of a report, and the tick takes the cold answer.
        let diverging = solver
            .clone()
            .with_fault_plan(FaultPlan::new(4).with_forced_divergence(1.0));
        let failed = engine.solve_seeded(&diverging, &m, &repair_duals_f32(&m, &warm).unwrap());
        assert!(failed.is_err(), "got {failed:?}");
        let tick = resolve_tick(&mut engine, &diverging, &m, &warm, &cold);
        assert!(!tick.seeded);
        assert!(!tick.answer.stats.seeded);
        assert_eq!(tick.answer.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(tick.answer.assignment, cold.assignment);
        // The errored attempt pays what the device ran before the
        // watchdog stopped it, on top of the cold solve.
        let spent = engine.engine().stats().total_cycles();
        assert!(spent > 0);
        assert_eq!(tick.warm_cycles, spent + cycles(&cold));
    }

    #[test]
    fn a_seeded_attempt_refused_before_launch_costs_only_the_cold_solve() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let mut engine = solver.warm(12).unwrap();
        // The engine's last run is a cold solve, as in `stream_cell`.
        assert!(engine
            .solve(&solver, &datasets::uniform_cost_matrix(12, 10, 9))
            .is_ok());
        assert!(engine.engine().stats().total_cycles() > 0);

        // A matrix of another shape: the attempt is refused before launch.
        let mut m = datasets::uniform_cost_matrix(10, 10, 9);
        let mut fresh = HunIpu::with_config(IpuConfig::tiny(8));
        let warm = WarmStart::from_report(&fresh.solve(&m).unwrap());
        perturb(&mut m, 2, 1);
        let cold = fresh.solve(&m).unwrap();
        let tick = resolve_tick(&mut engine, &solver, &m, &warm, &cold);
        assert!(!tick.seeded);
        assert_eq!(tick.warm_cycles, cycles(&cold));
    }

    #[test]
    fn perturb_rewrites_k_rows_with_integer_bumps() {
        let m0 = gaussian_cost_matrix(8, 100, 1);
        let mut m = m0.clone();
        perturb(&mut m, 3, 2);
        let changed: Vec<usize> = (0..8).filter(|&i| m.row(i) != m0.row(i)).collect();
        assert_eq!(changed, vec![0, 6, 7]);
        for (i, j, c) in m.entries() {
            let bump = c - m0.get(i, j);
            assert!(bump == 0.0 || (1.0..=9.0).contains(&bump) && bump.fract() == 0.0);
        }
    }
}

//! Seeded re-solves on a warm engine, the workspace's one seeded path.
//!
//! One compiled program per dense shape: the dense, chip-aware and
//! one-prime (A5) programs each serve cold and seeded launches, a
//! seeded launch skips Step 1 through the program's device flag, and
//! restoring the pristine snapshot leaves no trace of an earlier launch.
//! Streams of perturbed instances re-solved from the previous answer's
//! repaired duals stay bit-equal to cold solves and equal to JV's
//! optimum, and replay bit for bit under both device executors.

use cpu_hungarian::JonkerVolgenant;
use hunipu::{AblationConfig, HunIpu, LayoutMode, WarmEngine, F32_VERIFY_EPS};
use ipu_sim::{ExecMode, IpuConfig};
use lsap::{
    repair_duals_f32, Assignment, CostMatrix, LsapError, LsapSolver, RepairedSeedF32, SolveReport,
    WarmStart,
};
use proptest::prelude::*;

fn tiny() -> HunIpu {
    HunIpu::with_config(IpuConfig::tiny(8))
}

/// `m` with row `row` raised by a small column-dependent amount: a
/// re-solve target close enough for the previous duals to help.
fn perturbed(m: &CostMatrix, row: usize) -> CostMatrix {
    let mut next = m.clone();
    for j in 0..m.n() {
        next.set(row, j, next.get(row, j) + (j % 5) as f64 + 1.0);
    }
    next
}

/// The tick's change: `k` distinct rows rewritten with non-uniform
/// integer bumps. Integer costs keep the f32 dual repair exact, and
/// non-uniform bumps move row argmins instead of being absorbed by the
/// recomputed `u_i`.
fn perturb_rows(m: &mut CostMatrix, k: usize, tick: usize) {
    let n = m.n();
    for idx in 0..k.min(n) {
        let row = (tick * k + idx) % n;
        for j in 0..n {
            let bumped = m.get(row, j) + ((tick + idx + j) % 9) as f64 + 1.0;
            m.set(row, j, bumped);
        }
    }
}

/// `report`'s duals repaired against `m`: what a seeded launch uploads.
fn seed_for(m: &CostMatrix, report: &SolveReport) -> RepairedSeedF32 {
    repair_duals_f32(m, &WarmStart::from_report(report)).unwrap()
}

/// Streams `ticks` k-row perturbations of `m0` through `warm`: a cold
/// solve of `m0`, then per tick a seeded re-solve from the previous
/// answer. Each seeded answer must verify, equal a cold solve of the
/// same matrix on the same engine bit for bit, and equal JV's
/// objective. Returns each tick's seeded and cold reports.
fn stream(
    solver: &HunIpu,
    warm: &mut WarmEngine,
    m0: &CostMatrix,
    k: usize,
    ticks: usize,
) -> Vec<(SolveReport, SolveReport)> {
    let mut jv = JonkerVolgenant::new();
    let mut m = m0.clone();
    let mut previous = warm.solve(solver, &m).unwrap();
    let mut out = Vec::new();
    for tick in 1..=ticks {
        perturb_rows(&mut m, k, tick);
        let seeded = warm
            .solve_seeded(solver, &m, &seed_for(&m, &previous))
            .unwrap();
        assert!(seeded.stats.seeded, "k={k} tick={tick}");
        seeded
            .verify(&m, F32_VERIFY_EPS)
            .unwrap_or_else(|e| panic!("k={k} tick={tick}: {e}"));
        let cold = warm.solve(solver, &m).unwrap();
        assert_eq!(
            seeded.objective.to_bits(),
            cold.objective.to_bits(),
            "k={k} tick={tick}: seeded {} cold {}",
            seeded.objective,
            cold.objective
        );
        assert_eq!(
            seeded.objective,
            jv.solve(&m).unwrap().objective,
            "k={k} tick={tick}"
        );
        previous = seeded.clone();
        out.push((seeded, cold));
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_run(a: &SolveReport, b: &SolveReport, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment");
    assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}");
    assert_eq!(bits(&a.certificate.u), bits(&b.certificate.u), "{what}: u");
    assert_eq!(bits(&a.certificate.v), bits(&b.certificate.v), "{what}: v");
    assert_eq!(a.stats.modeled_cycles, b.stats.modeled_cycles, "{what}");
    assert_eq!(a.stats.device_steps, b.stats.device_steps, "{what}");
    assert_eq!(a.stats.seeded, b.stats.seeded, "{what}: seeded");
}

/// Executions of every `step1.*` compute set in the engine's last run.
fn step1_executions(warm: &WarmEngine) -> Vec<u64> {
    warm.engine()
        .stats()
        .per_compute_set
        .iter()
        .filter(|set| set.name.starts_with("step1."))
        .map(|set| set.executions)
        .collect()
}

/// Cold, seeded, cold on one warm engine of `solver`'s program for `m`:
/// the seeded launch certifies and runs no Step 1 compute set, the last
/// cold launch equals a fresh engine's, and the engine's one program
/// load matches a fresh compile's.
fn assert_one_program_serves_both(solver: &HunIpu, m: &CostMatrix) {
    let mut warm = solver.warm(m.n()).unwrap();
    let load = warm.program_load_cycles();
    let first = warm.solve(solver, m).unwrap();
    assert!(step1_executions(&warm).iter().all(|&e| e > 0));

    let next = perturbed(m, 2);
    let seeded = warm
        .solve_seeded(solver, &next, &seed_for(&next, &first))
        .unwrap();
    assert!(seeded.stats.seeded);
    seeded.verify(&next, F32_VERIFY_EPS).unwrap();
    let skipped = step1_executions(&warm);
    assert!(!skipped.is_empty() && skipped.iter().all(|&e| e == 0));

    let again = warm.solve(solver, &next).unwrap();
    let (fresh, engine) = solver.solve_with_engine(&next).unwrap();
    assert_same_run(&again, &fresh, "cold after seeded");
    assert_eq!(warm.engine().stats(), engine.stats());
    assert_eq!(warm.program_load_cycles(), load);
    assert_eq!(load, engine.program_load_cycles());
}

#[test]
fn the_dense_program_serves_cold_and_seeded_launches() {
    assert_one_program_serves_both(&tiny(), &datasets::uniform_cost_matrix(8, 10, 11));
}

#[test]
fn the_chip_aware_program_serves_cold_and_seeded_launches() {
    let solver =
        HunIpu::with_config(IpuConfig::tiny_multi(2, 6)).with_layout_mode(LayoutMode::ChipAware);
    assert!(solver.hierarchical());
    assert_one_program_serves_both(&solver, &datasets::gaussian_cost_matrix(12, 100, 3));
}

#[test]
fn the_one_prime_program_serves_cold_and_seeded_launches() {
    let solver = tiny().with_ablation(AblationConfig {
        layered_priming: false,
        ..Default::default()
    });
    assert_one_program_serves_both(&solver, &datasets::gaussian_cost_matrix(12, 100, 4));
}

#[test]
fn a_seeded_launch_on_a_used_engine_equals_one_on_a_fresh_engine() {
    let solver = tiny();
    let m = datasets::uniform_cost_matrix(10, 20, 7);
    let first = solver.warm(10).unwrap().solve(&solver, &m).unwrap();
    let next = perturbed(&m, 4);
    let other = perturbed(&m, 1);

    let mut used = solver.warm(10).unwrap();
    used.solve(&solver, &m).unwrap();
    used.solve_seeded(&solver, &other, &seed_for(&other, &first))
        .unwrap();
    used.solve(&solver, &next).unwrap();
    let late = used
        .solve_seeded(&solver, &next, &seed_for(&next, &first))
        .unwrap();

    let mut fresh = solver.warm(10).unwrap();
    let early = fresh
        .solve_seeded(&solver, &next, &seed_for(&next, &first))
        .unwrap();
    assert_same_run(&late, &early, "seeded on a used engine");
    assert_eq!(used.engine().stats(), fresh.engine().stats());
}

#[test]
fn seeded_launches_reach_the_optimum_of_the_changed_instance() {
    let solver = tiny();
    let mut jv = JonkerVolgenant::new();
    for seed in 0..4u64 {
        let m = datasets::gaussian_cost_matrix(12, 100, 40 + seed);
        let mut warm = solver.warm(12).unwrap();
        let first = warm.solve(&solver, &m).unwrap();
        let next = perturbed(&m, (seed as usize * 5) % 12);
        let seeded = warm
            .solve_seeded(&solver, &next, &seed_for(&next, &first))
            .unwrap();
        seeded.verify(&next, F32_VERIFY_EPS).unwrap();
        // Integer costs: every optimal assignment sums to the same value.
        assert_eq!(
            seeded.objective,
            jv.solve(&next).unwrap().objective,
            "seed {seed}"
        );
    }
}

#[test]
fn a_seeded_launch_after_a_full_matrix_replacement_stays_exact() {
    // Every entry replaced by an unrelated instance: the stale duals are
    // still feasible after the repair, so the launch must still certify.
    let solver = tiny();
    let m = datasets::uniform_cost_matrix(12, 10, 5);
    let unrelated = datasets::uniform_cost_matrix(12, 10, 99);
    let mut warm = solver.warm(12).unwrap();
    let first = warm.solve(&solver, &m).unwrap();
    let seeded = warm
        .solve_seeded(&solver, &unrelated, &seed_for(&unrelated, &first))
        .unwrap();
    assert!(seeded.stats.seeded);
    seeded.verify(&unrelated, F32_VERIFY_EPS).unwrap();
    assert_eq!(
        seeded.objective,
        cpu_hungarian::ground_truth_objective(&unrelated)
    );
    let cold = warm.solve(&solver, &unrelated).unwrap();
    assert_eq!(seeded.objective.to_bits(), cold.objective.to_bits());
}

#[test]
fn a_seeded_resolve_of_the_unchanged_instance_needs_no_dual_update() {
    // The previous optimal duals are already tight on an optimal
    // assignment, so the search only augments.
    let solver = tiny();
    let m = datasets::gaussian_cost_matrix(12, 100, 9);
    let mut warm = solver.warm(12).unwrap();
    let cold = warm.solve(&solver, &m).unwrap();
    let seeded = warm
        .solve_seeded(&solver, &m, &seed_for(&m, &cold))
        .unwrap();
    seeded.verify(&m, F32_VERIFY_EPS).unwrap();
    assert_eq!(seeded.objective, cold.objective);
    assert_eq!(seeded.stats.dual_updates, 0, "stats: {:?}", seeded.stats);
}

#[test]
fn a_seeded_resolve_of_the_unchanged_instance_skips_step1_and_costs_less() {
    let solver = tiny();
    let m = datasets::uniform_cost_matrix(16, 10, 11);
    let mut warm = solver.warm(16).unwrap();
    let cold = warm.solve(&solver, &m).unwrap();
    let seeded = warm
        .solve_seeded(&solver, &m, &seed_for(&m, &cold))
        .unwrap();
    seeded.verify(&m, F32_VERIFY_EPS).unwrap();
    assert_eq!(seeded.objective.to_bits(), cold.objective.to_bits());
    let skipped = step1_executions(&warm);
    assert!(!skipped.is_empty() && skipped.iter().all(|&e| e == 0));
    // No Step 1 and a nearly complete initial matching: the re-solve is
    // strictly cheaper than the cold solve of the same matrix.
    assert!(
        seeded.stats.modeled_cycles < cold.stats.modeled_cycles,
        "seeded {:?} cold {:?}",
        seeded.stats.modeled_cycles,
        cold.stats.modeled_cycles
    );
}

#[test]
fn a_seeded_stream_verifies_every_tick() {
    // One row per tick, bumped by 0..=6 per entry: some entries stay put.
    const N: usize = 12;
    let solver = tiny();
    let mut warm = solver.warm(N).unwrap();
    let mut m = datasets::uniform_cost_matrix(N, 10, 3);
    let mut previous = warm.solve(&solver, &m).unwrap();
    assert!(!previous.stats.seeded);
    for tick in 0..4usize {
        let row = (tick * 5) % N;
        for j in 0..N {
            m.set(row, j, m.get(row, j) + ((tick + j) % 7) as f64);
        }
        let report = warm
            .solve_seeded(&solver, &m, &seed_for(&m, &previous))
            .unwrap();
        assert!(report.stats.seeded, "tick {tick}");
        report
            .verify(&m, F32_VERIFY_EPS)
            .unwrap_or_else(|e| panic!("tick {tick}: {e}"));
        previous = report;
    }
}

#[test]
fn seeded_streams_match_cold_and_jv_at_every_perturbation_size() {
    const N: usize = 16;
    let solver = tiny();
    let mut warm = solver.warm(N).unwrap();
    for (seed, k) in [(1u64, 1usize), (2, N / 8), (3, N / 2), (4, N)] {
        stream(
            &solver,
            &mut warm,
            &datasets::uniform_cost_matrix(N, 10, seed),
            k,
            3,
        );
    }
}

#[test]
fn a_one_row_seeded_resolve_matches_cold_and_is_cheaper() {
    const N: usize = 16;
    let solver = tiny();
    let mut warm = solver.warm(N).unwrap();
    let m0 = datasets::uniform_cost_matrix(N, 10, 7);
    for (seeded, cold) in stream(&solver, &mut warm, &m0, 1, 3) {
        assert!(
            seeded.stats.modeled_cycles < cold.stats.modeled_cycles,
            "seeded {:?} cold {:?}",
            seeded.stats.modeled_cycles,
            cold.stats.modeled_cycles
        );
    }
}

#[test]
fn seeded_streams_replay_bit_identically_in_both_exec_modes() {
    const N: usize = 10;
    let m0 = datasets::uniform_cost_matrix(N, 10, 21);
    let runs: Vec<Vec<(SolveReport, SolveReport)>> = [ExecMode::Plan, ExecMode::Interpreted]
        .into_iter()
        .map(|mode| {
            let solver = HunIpu::with_config(IpuConfig {
                exec_mode: mode,
                ..IpuConfig::tiny(8)
            });
            let mut warm = solver.warm(N).unwrap();
            let first = stream(&solver, &mut warm, &m0, 2, 4);
            // Replaying from the same host state on the used engine
            // reproduces every report.
            let replay = stream(&solver, &mut warm, &m0, 2, 4);
            for ((a, _), (b, _)) in first.iter().zip(&replay) {
                assert_same_run(a, b, &format!("{mode:?} replay"));
            }
            first
        })
        .collect();
    for ((plan, _), (interpreted, _)) in runs[0].iter().zip(&runs[1]) {
        assert_same_run(plan, interpreted, "plan vs interpreted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random integer instances and perturbation widths.
    #[test]
    fn seeded_streams_match_cold_on_random_instances(
        n in 4usize..10,
        range in 2u64..40,
        seed in 0u64..1_000,
        k in 1usize..10,
    ) {
        let solver = tiny();
        let mut warm = solver.warm(n).unwrap();
        let m0 = datasets::uniform_cost_matrix(n, range, seed);
        stream(&solver, &mut warm, &m0, k.min(n), 2);
    }
}

#[test]
fn a_seeded_launch_rejects_a_matrix_of_another_shape() {
    let solver = tiny();
    let mut warm = solver.warm(6).unwrap();
    let m = datasets::gaussian_cost_matrix(6, 50, 1);
    let seed = seed_for(&m, &warm.solve(&solver, &m).unwrap());
    let other = datasets::gaussian_cost_matrix(4, 50, 2);
    match warm.solve_seeded(&solver, &other, &seed) {
        Err(LsapError::ShapeMismatch { expected, found }) => {
            assert!(expected.contains("6x6"), "{expected}");
            assert!(found.contains("4x4"), "{found}");
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn a_warm_start_of_another_size_is_refused_and_leaves_the_engine_clean() {
    let solver = tiny();
    let small = datasets::gaussian_cost_matrix(4, 50, 3);
    let stale = seed_for(
        &small,
        &solver.warm(4).unwrap().solve(&solver, &small).unwrap(),
    );

    let m = datasets::gaussian_cost_matrix(6, 50, 4);
    let mut warm = solver.warm(6).unwrap();
    let result = warm.solve_seeded(&solver, &m, &stale);
    assert!(
        matches!(result, Err(LsapError::ShapeMismatch { .. })),
        "got {result:?}"
    );
    let cold = warm.solve(&solver, &m).unwrap();
    let (fresh, _) = solver.solve_with_engine(&m).unwrap();
    assert_same_run(&cold, &fresh, "cold after the refused seed");
}

#[test]
fn a_seed_with_any_part_of_another_size_is_refused_without_running() {
    let solver = tiny();
    let m = datasets::gaussian_cost_matrix(6, 50, 6);
    let mut warm = solver.warm(6).unwrap();
    let good = seed_for(&m, &warm.solve(&solver, &m).unwrap());
    let after_cold = warm.engine().stats().clone();

    let mut bad = vec![good.clone(); 4];
    bad[0].u.pop();
    bad[1].v.push(0.0);
    bad[2].slack.pop();
    bad[3].assignment = Assignment::unmatched(5);
    for seed in &bad {
        match warm.solve_seeded(&solver, &m, seed) {
            Err(LsapError::ShapeMismatch { expected, .. }) => {
                assert!(expected.contains("6x6"), "{expected}")
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(warm.engine().stats(), &after_cold, "the refused seed ran");
    }
    let seeded = warm.solve_seeded(&solver, &m, &good).unwrap();
    seeded.verify(&m, F32_VERIFY_EPS).unwrap();
}

#[test]
fn a_non_square_matrix_is_refused_by_both_launches() {
    let solver = tiny();
    let square = datasets::gaussian_cost_matrix(4, 50, 5);
    let mut warm = solver.warm(4).unwrap();
    let seed = seed_for(&square, &warm.solve(&solver, &square).unwrap());
    let wide = CostMatrix::from_vec(4, 5, vec![1.0; 20]).unwrap();
    for (entry, result) in [
        ("solve", warm.solve(&solver, &wide)),
        ("solve_seeded", warm.solve_seeded(&solver, &wide, &seed)),
    ] {
        assert!(
            matches!(result, Err(LsapError::NotSquare { rows: 4, cols: 5 })),
            "{entry}: got {result:?}"
        );
    }
}

//! One compiled program per dense shape: the dense, chip-aware and
//! one-prime (A5) programs each serve cold and seeded launches, a
//! seeded launch skips Step 1 through the program's device flag, and
//! restoring the pristine snapshot leaves no trace of an earlier launch.

use hunipu::{AblationConfig, HunIpu, LayoutMode, StreamingHunIpu, WarmEngine, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, LsapError, LsapSolver, SeedSolve, SolveReport, WarmStart};

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
        .solve_seeded(solver, &next, &WarmStart::from_report(&first))
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
    let start = WarmStart::from_report(&first);

    let mut used = solver.warm(10).unwrap();
    used.solve(&solver, &m).unwrap();
    used.solve_seeded(&solver, &perturbed(&m, 1), &start)
        .unwrap();
    used.solve(&solver, &next).unwrap();
    let late = used.solve_seeded(&solver, &next, &start).unwrap();

    let mut fresh = solver.warm(10).unwrap();
    let early = fresh.solve_seeded(&solver, &next, &start).unwrap();
    assert_same_run(&late, &early, "seeded on a used engine");
    assert_eq!(used.engine().stats(), fresh.engine().stats());
}

#[test]
fn seeded_launches_reach_the_optimum_of_the_changed_instance() {
    let solver = tiny();
    let mut jv = cpu_hungarian::JonkerVolgenant::new();
    for seed in 0..4u64 {
        let m = datasets::gaussian_cost_matrix(12, 100, 40 + seed);
        let mut warm = solver.warm(12).unwrap();
        let first = warm.solve(&solver, &m).unwrap();
        let next = perturbed(&m, (seed as usize * 5) % 12);
        let seeded = warm
            .solve_seeded(&solver, &next, &WarmStart::from_report(&first))
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
fn a_seeded_resolve_of_the_unchanged_instance_needs_no_dual_update() {
    // The previous optimal duals are already tight on an optimal
    // assignment, so the search only augments.
    let solver = tiny();
    let m = datasets::gaussian_cost_matrix(12, 100, 9);
    let mut warm = solver.warm(12).unwrap();
    let cold = warm.solve(&solver, &m).unwrap();
    let seeded = warm
        .solve_seeded(&solver, &m, &WarmStart::from_report(&cold))
        .unwrap();
    seeded.verify(&m, F32_VERIFY_EPS).unwrap();
    assert_eq!(seeded.objective, cold.objective);
    assert_eq!(seeded.stats.dual_updates, 0, "stats: {:?}", seeded.stats);
}

#[test]
fn a_seeded_launch_rejects_a_matrix_of_another_shape() {
    let solver = tiny();
    let mut warm = solver.warm(6).unwrap();
    let first = warm
        .solve(&solver, &datasets::gaussian_cost_matrix(6, 50, 1))
        .unwrap();
    let other = datasets::gaussian_cost_matrix(4, 50, 2);
    match warm.solve_seeded(&solver, &other, &WarmStart::from_report(&first)) {
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
    let stale = WarmStart::from_report(&solver.warm(4).unwrap().solve(&solver, &small).unwrap());

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
fn a_non_square_matrix_is_refused_by_both_launches() {
    let solver = tiny();
    let square = datasets::gaussian_cost_matrix(4, 50, 5);
    let mut warm = solver.warm(4).unwrap();
    let start = WarmStart::from_report(&warm.solve(&solver, &square).unwrap());
    let wide = CostMatrix::from_vec(4, 5, vec![1.0; 20]).unwrap();
    for (entry, result) in [
        ("solve", warm.solve(&solver, &wide)),
        ("solve_seeded", warm.solve_seeded(&solver, &wide, &start)),
    ] {
        assert!(
            matches!(result, Err(LsapError::NotSquare { rows: 4, cols: 5 })),
            "{entry}: got {result:?}"
        );
    }
}

#[test]
fn a_stream_keeps_one_engine_across_cold_and_seeded_solves() {
    let mut stream = StreamingHunIpu::new(tiny());
    let m = datasets::uniform_cost_matrix(8, 10, 11);
    let first = stream.solve(&m).unwrap();
    let load = stream.warm_engine().unwrap().program_load_cycles();

    let next = perturbed(&m, 3);
    let seeded = stream
        .solve_seeded(&next, &WarmStart::from_report(&first))
        .unwrap();
    assert!(seeded.stats.seeded);
    let again = stream.solve(&next).unwrap();
    let (fresh, engine) = tiny().solve_with_engine(&next).unwrap();
    assert_same_run(&again, &fresh, "stream cold after seeded");
    assert_eq!(stream.warm_engine().unwrap().program_load_cycles(), load);
    assert_eq!(load, engine.program_load_cycles());
}

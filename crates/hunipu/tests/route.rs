//! One route for every entry point: a shape compiles to the same device
//! program whether it is solved once, through a warm engine, or in a
//! batch, and every entry point rejects a device it cannot lay out with
//! a typed error instead of a panic.

use hunipu::{BatchHunIpu, HunIpu, LayoutMode};
use ipu_sim::IpuConfig;
use lsap::sparse::SparseCost;
use lsap::{repair_duals_f32, BatchLsapSolver, LsapError, LsapSolver, SolveReport, WarmStart};

fn forced_tiled() -> HunIpu {
    HunIpu::with_config(IpuConfig::tiny(8)).with_layout_mode(LayoutMode::Tiled)
}

fn assert_same_run(a: &SolveReport, b: &SolveReport, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment");
    assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}");
    assert_eq!(a.certificate, b.certificate, "{what}: duals");
    assert_eq!(a.stats.modeled_cycles, b.stats.modeled_cycles, "{what}");
    assert_eq!(a.stats.device_steps, b.stats.device_steps, "{what}");
    assert_eq!(a.stats.augmentations, b.stats.augmentations, "{what}");
    assert_eq!(a.stats.dual_updates, b.stats.dual_updates, "{what}");
}

#[test]
fn batch_warm_and_single_solves_run_the_tiled_program_on_a_forced_tiled_solver() {
    let m = datasets::gaussian_cost_matrix(32, 10, 3);
    let single = forced_tiled().solve(&m).unwrap();
    let (tiled, _) = forced_tiled().solve_tiled(&m).unwrap();
    assert_same_run(&single, &tiled, "solve vs solve_tiled");

    let solver = forced_tiled();
    let warm = solver.warm(32).unwrap().solve(&solver, &m).unwrap();
    assert_same_run(&single, &warm, "warm vs single");

    let batch = BatchHunIpu::with_solver(forced_tiled())
        .solve_batch(std::slice::from_ref(&m))
        .unwrap();
    assert_same_run(&single, &batch.reports[0], "batch vs single");
}

#[test]
fn seeded_resolve_on_a_tiled_route_is_a_backend_error_without_compiling() {
    let m = datasets::gaussian_cost_matrix(32, 10, 3);
    let solver = forced_tiled();
    let mut warm = solver.warm(32).unwrap();
    let load = warm.program_load_cycles();
    let first = warm.solve(&solver, &m).unwrap();
    let seed = repair_duals_f32(&m, &WarmStart::from_report(&first)).unwrap();
    let err = warm
        .solve_seeded(&solver, &m, &seed)
        .expect_err("the tiled route has no seeded launch");
    assert!(
        matches!(&err, LsapError::Backend { detail } if detail.contains("tiled")),
        "got {err:?}"
    );
    assert_eq!(
        warm.program_load_cycles(),
        load,
        "still the one tiled program"
    );
    // The cold program still serves the shape.
    let again = warm.solve(&solver, &m).unwrap();
    assert_same_run(&first, &again, "cold after the refused seed");
}

#[test]
fn a_device_with_fewer_than_two_tiles_is_a_typed_error_at_every_entry_point() {
    let m = datasets::gaussian_cost_matrix(6, 10, 1);
    let sc = SparseCost::from_dense_topk(&m, 3).unwrap();
    let mut solver = HunIpu::with_config(IpuConfig::tiny(1));
    let results = [
        ("solve", solver.solve(&m).map(|_| ())),
        ("solve_sparse", solver.solve_sparse(&sc).map(|_| ())),
        ("solve_tiled", solver.solve_tiled(&m).map(|_| ())),
        ("warm", solver.warm(6).map(|_| ())),
    ];
    for (entry, result) in results {
        match result {
            Err(LsapError::Backend { detail }) => {
                assert!(detail.contains("2 tiles"), "{entry}: {detail}")
            }
            other => panic!("{entry}: expected a backend error, got {other:?}"),
        }
    }
}

#[test]
fn a_zero_builder_setting_is_a_typed_error_at_every_entry_point() {
    let m = datasets::gaussian_cost_matrix(6, 10, 1);
    let tiny = || HunIpu::with_config(IpuConfig::tiny(4));
    for (setting, mut solver) in [
        ("block width", tiny().with_tiled_params(0, 3)),
        ("zero-list capacity", tiny().with_tiled_params(3, 0)),
        ("column-segment size", tiny().with_col_seg(0)),
    ] {
        let results = [
            ("solve", solver.solve(&m).map(|_| ())),
            ("solve_tiled", solver.solve_tiled(&m).map(|_| ())),
            ("warm", solver.warm(6).map(|_| ())),
        ];
        for (entry, result) in results {
            match result {
                Err(LsapError::Backend { detail }) => {
                    assert!(detail.contains(setting), "{entry}: {detail}")
                }
                other => panic!("{setting}, {entry}: expected a backend error, got {other:?}"),
            }
        }
    }
}

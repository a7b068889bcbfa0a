//! The chain the search loop runs on every iteration (Step 4, §IV-F):
//! which compute sets execute per iteration on the full Mk2, that a
//! prime layer costs 2 supersteps and 1 exchange there, that Step 5
//! walks each augmenting path in one collector superstep, that no
//! program reads Step 4's selected column back at a runtime index, that
//! the tiled route's multi-row tiles need no partial stage for the
//! arg-max, that a non-finite dense δ ends the solve, and that
//! fault-corrupted device indices end a solve with `Ok` or `Err`, never
//! a panic.

use cpu_hungarian::JonkerVolgenant;
use hunipu::{AblationConfig, HunIpu, LayoutMode, F32_VERIFY_EPS};
use ipu_sim::{FaultPlan, IpuConfig, ProfileConfig, ProfileEvent};
use lsap::sparse::SparseCost;
use lsap::{CostMatrix, LsapSolver};

/// Executions of compute set `name` (0 when the program has none).
fn executions(engine: &ipu_sim::Engine, name: &str) -> u64 {
    engine
        .stats()
        .per_compute_set
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.executions)
        .sum()
}

fn jv(m: &CostMatrix) -> f64 {
    JonkerVolgenant::default().solve(m).unwrap().objective
}

#[test]
fn mk2_search_iterations_classify_in_two_compute_sets() {
    // The keys are broadcast into every tile's row-prime mirror, and the
    // collector reduces its own replica: the decode runs inside the
    // supervisor that joins the collector's per-thread chunks of the
    // arg-max, in one superstep, with no partial stage and no gather.
    let m = datasets::gaussian_cost_matrix(256, 10, 1);
    // Tile 0 and each superstep's slowest tile keep their detail; the
    // timeline itself is complete.
    let profile = ProfileConfig {
        tile_sample: usize::MAX,
        max_events: usize::MAX,
        ..ProfileConfig::default()
    };
    let (report, engine) = HunIpu::new()
        .with_profiling(profile)
        .solve_with_engine(&m)
        .unwrap();
    report.verify(&m, F32_VERIFY_EPS).unwrap();
    assert_eq!(report.objective, jv(&m));

    let iterations = executions(&engine, "step4.status");
    assert!(iterations > 0);
    let sets = &engine.stats().per_compute_set;
    assert!(sets.iter().all(|s| s.name != "step4.enc.partial"));
    assert!(sets.iter().all(|s| s.name != "step4.decode"));
    assert_eq!(executions(&engine, "step4.prime"), 0);
    // The sets that run once per iteration, and only they: status, then
    // the one-superstep final stage of the arg-max.
    let mut per_iteration: Vec<&str> = sets
        .iter()
        .filter(|s| s.name.starts_with("step4.") && s.executions == iterations)
        .map(|s| s.name.as_str())
        .collect();
    per_iteration.sort_unstable();
    assert_eq!(per_iteration, ["step4.enc.final", "step4.status"]);
    // Status primes its own row, so a prime layer has no compute set;
    // column covers are re-derived once per dual update.
    assert!(sets.iter().all(|s| s.name != "step4.prime_layer"));
    let dual_updates = report.stats.dual_updates;
    assert_eq!(executions(&engine, "step6.segmin"), dual_updates);
    assert_eq!(executions(&engine, "step4.recover"), dual_updates);
    // Step 5 walks each augmenting path in one collector vertex, over
    // the mirrors, with no dynamic read per hop.
    assert!(report.stats.augmentations > 0);
    assert_eq!(
        executions(&engine, "step5.walk"),
        report.stats.augmentations
    );
    for gone in ["step5.colstar", "step5.rowprime", "step5.push"] {
        assert!(
            sets.iter().all(|s| !s.name.starts_with(gone)),
            "{gone} still exists"
        );
    }

    // Split the timeline at every status superstep: an iteration runs
    // from its status to the next one. A prime layer's is status, the
    // key broadcast and the arg-max's final stage: 2 supersteps and 1
    // exchange. Augmenting and dual-update iterations run more.
    let status = sets.iter().position(|s| s.name == "step4.status").unwrap() as u32;
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for event in &engine.profile().unwrap().events {
        match event {
            ProfileEvent::Superstep(s) if s.cs == status => spans.push((1, 0)),
            ProfileEvent::Superstep(_) => {
                if let Some(span) = spans.last_mut() {
                    span.0 += 1;
                }
            }
            ProfileEvent::Exchange(_) => {
                if let Some(span) = spans.last_mut() {
                    span.1 += 1;
                }
            }
            _ => {}
        }
    }
    assert_eq!(spans.len() as u64, iterations);
    let layers = iterations - report.stats.augmentations - dual_updates;
    assert!(layers > 0);
    let two_and_one = spans.iter().filter(|&&span| span == (2, 1)).count() as u64;
    assert_eq!(two_and_one, layers);
    assert!(spans
        .iter()
        .all(|&(supersteps, exchanges)| supersteps >= 2 && exchanges >= 1));
}

#[test]
fn every_program_takes_the_selected_column_from_the_arg_max() {
    // The arg-max key carries the selected row's zero column, so no
    // program reads it back; Step 5 still walks once per augmentation.
    let m = datasets::gaussian_cost_matrix(24, 10, 2);
    let tiny = || HunIpu::with_config(IpuConfig::tiny(8));
    let sc = SparseCost::from_dense_topk(&m, 8).unwrap();
    let one_prime = AblationConfig {
        layered_priming: false,
        ..Default::default()
    };
    let runs = [
        ("dense", tiny().solve_with_engine(&m)),
        ("sparse", tiny().solve_sparse_with_engine(&sc)),
        ("tiled", tiny().solve_tiled(&m)),
        (
            "2-chip chip-aware",
            HunIpu::with_config(IpuConfig::tiny_multi(2, 6))
                .with_layout_mode(LayoutMode::ChipAware)
                .solve_with_engine(&m),
        ),
        ("A5", tiny().with_ablation(one_prime).solve_with_engine(&m)),
    ];
    for (program, run) in runs {
        let (report, engine) = run.unwrap();
        let sets = &engine.stats().per_compute_set;
        assert!(
            sets.iter().all(|s| !s.name.starts_with("step4.selcol")),
            "{program} still reads the selected column"
        );
        assert!(report.stats.augmentations > 0, "{program}");
        assert_eq!(
            executions(&engine, "step5.walk"),
            report.stats.augmentations,
            "{program}"
        );
    }
}

#[test]
fn tiled_rows_reduce_on_the_collector_replica() {
    // 48 rows on 7 row-owning tiles: several keys per tile, which the
    // arg-max once folded in a per-tile partial stage. The collector now
    // reduces its replica of the broadcast keys, so no partial stage
    // runs, and the answer is JV's optimum.
    let m = CostMatrix::from_fn(48, 48, |i, j| ((i * 31 + j * 17) % 23) as f64).unwrap();
    let solver = HunIpu::with_config(IpuConfig::tiny(8)).with_layout_mode(LayoutMode::Tiled);
    let (report, engine) = solver.solve_tiled(&m).unwrap();
    report.verify(&m, F32_VERIFY_EPS).unwrap();
    assert_eq!(report.objective, jv(&m));
    let iterations = executions(&engine, "step4.status");
    assert!(iterations > 0);
    assert!(iterations > 0);
    assert_eq!(executions(&engine, "step4.enc.final"), iterations);
    assert_eq!(executions(&engine, "step4.enc.partial"), 0);
    assert!(engine
        .stats()
        .per_compute_set
        .iter()
        .all(|s| s.name != "step4.decode"));
}

#[test]
fn a_non_finite_dense_delta_ends_the_solve() {
    // Bit flips in `row_star` give unmatched rows a star, so they prime
    // instead of augmenting until no uncovered row holds an entry in an
    // uncovered column, and Step 6's δ is ∞ on square dense costs. The
    // δ reduction latches it and ends the solve with an error, where the
    // dense program once dual-updated by ∞ until the watchdog. (Flips in
    // `col_star` now end the search sooner, at the walk's check or the
    // search bound.) The test takes the first fault seed in 0..64 that
    // reaches the latch, so a program change that shifts the fault
    // stream needs no new seed.
    let m = datasets::gaussian_cost_matrix(24, 100, 5);
    let solve = |seed| {
        let plan = FaultPlan::new(seed)
            .with_bit_flips(0.02)
            .targeting("row_star")
            .after_supersteps(20);
        HunIpu::with_config(IpuConfig {
            max_while_iterations: 2_000,
            ..IpuConfig::tiny(8)
        })
        .with_fault_plan(plan)
        .solve_with_engine(&m)
    };
    let err = (0..64)
        .find_map(|seed| solve(seed).err().filter(|e| e.to_string().contains("δ")))
        .expect("no fault seed in 0..64 reaches the δ latch");
    assert!(err.to_string().contains("non-finite δ"), "{err}");
}

#[test]
fn fault_corrupted_indices_end_a_solve_without_a_panic() {
    // Bit flips and exchange corruption can turn a device index (a star
    // row, a zero column, a compressed slot, the green stack's length)
    // into any i32; every vertex that indexes with one must treat an
    // out-of-range value as absent. Each solve returns `Ok` or `Err`;
    // none may unwind.
    let solve = |m: &CostMatrix, plan: FaultPlan, tiled: bool| {
        let solver = HunIpu::with_config(IpuConfig {
            max_while_iterations: 20_000,
            ..IpuConfig::tiny(8)
        })
        .with_fault_plan(plan);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let solved = if tiled {
                solver.solve_tiled(m)
            } else {
                solver.solve_with_engine(m)
            };
            solved.map(|_| ())
        }));
        outcome.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    };
    // 800 seeded fault plans on two sizes, plus a flip on every
    // superstep in each tensor whose name holds a `u` (the duals, the
    // zero counts and statuses), which once read Step 2's sorted row one
    // past its end. On the tiled route, 200 plans flip the zero lists'
    // lengths, which once indexed a list past its `zcap` entries.
    let mut cases: Vec<(usize, FaultPlan, bool)> = [13, 24]
        .into_iter()
        .flat_map(|n| {
            (0..400).map(move |seed| {
                let plan = FaultPlan::new(seed)
                    .with_bit_flips(0.01)
                    .with_exchange_corruption(0.005)
                    .after_supersteps(50);
                (n, plan, false)
            })
        })
        .collect();
    cases.push((
        4,
        FaultPlan::new(1).with_bit_flips(1.0).targeting("u"),
        false,
    ));
    cases.extend((0..200).map(|seed| {
        let plan = FaultPlan::new(seed)
            .with_bit_flips(0.05)
            .targeting("zero_count")
            .after_supersteps(20);
        (24, plan, true)
    }));
    let matrix = |n: usize| match n {
        4 => datasets::gaussian_cost_matrix(4, 100, 41),
        _ => datasets::gaussian_cost_matrix(n, 100, 5),
    };
    // Every case builds its own solver and engine, so the cases spread
    // over one scoped thread per available core, interleaved.
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let mut panicked: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let cases = &cases;
                scope.spawn(move || {
                    let mut found = Vec::new();
                    for (n, plan, tiled) in cases.iter().skip(t).step_by(threads) {
                        let what = format!("n={n} seed={} tiled={tiled}", plan.seed);
                        if let Some(msg) = solve(&matrix(*n), plan.clone(), *tiled) {
                            found.push(format!("{what}: {msg}"));
                        }
                    }
                    found
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a case thread ended in a panic"))
            .collect()
    });
    panicked.sort();
    assert!(
        panicked.is_empty(),
        "{} panics: {panicked:#?}",
        panicked.len()
    );
}

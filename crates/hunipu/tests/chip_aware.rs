//! Differential tests for the chip-topology-aware layout: on
//! single-chip configs the chip-aware machinery must be **bit-identical**
//! to the seed's flat layout (buffers, cycle statistics, fault
//! behaviour); on multi-chip configs it must produce identical solves in
//! strictly fewer modeled cycles, and stay certifiable under fault
//! injection.

use hunipu::{BatchHunIpu, HunIpu, LayoutMode, F32_VERIFY_EPS};
use ipu_sim::{ExecMode, FaultPlan, IpuConfig};
use lsap::{BatchLsapSolver, CostMatrix, LsapSolver};

fn instance(n: usize, seed: u64) -> CostMatrix {
    datasets::gaussian_cost_matrix(n, 100, seed)
}

/// Everything a solve can produce, bit-exact: objective, assignment,
/// duals, and the full modeled cycle breakdown.
fn fingerprint(solver: HunIpu, m: &CostMatrix) -> String {
    let (rep, engine) = solver.solve_with_engine(m).unwrap();
    format!(
        "obj={:016x} pairs={:?} u={:?} v={:?} stats={:?} aug={} dual={}",
        rep.objective.to_bits(),
        rep.assignment.pairs().collect::<Vec<_>>(),
        rep.certificate
            .u
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        rep.certificate
            .v
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        engine.stats(),
        rep.stats.augmentations,
        rep.stats.dual_updates,
    )
}

#[test]
fn single_chip_modes_are_bit_identical() {
    // On one chip every layout mode must degenerate to the seed's flat
    // program: same buffers, same CycleStats, bit for bit.
    let m = instance(13, 3);
    for config in [IpuConfig::tiny(8), IpuConfig::tiny_multi(1, 8)] {
        let flat = fingerprint(
            HunIpu::with_config(config.clone()).with_layout_mode(LayoutMode::Flat),
            &m,
        );
        for mode in [LayoutMode::Auto, LayoutMode::ChipAware] {
            let other = fingerprint(
                HunIpu::with_config(config.clone()).with_layout_mode(mode),
                &m,
            );
            assert_eq!(flat, other, "{mode:?} diverged from Flat on single-chip");
        }
    }
}

#[test]
fn single_chip_fault_behaviour_is_bit_identical() {
    // The fault stream advances per superstep; identical programs must
    // see the identical stream — outcome and fault counters included.
    let m = instance(13, 5);
    let run = |mode: LayoutMode| {
        let plan = FaultPlan::new(42)
            .with_bit_flips(0.01)
            .with_exchange_corruption(0.005)
            .with_stragglers(0.02, 3.0)
            .after_supersteps(50);
        let solver = HunIpu::with_config(IpuConfig {
            max_while_iterations: 50_000,
            ..IpuConfig::tiny(8)
        })
        .with_layout_mode(mode)
        .with_fault_plan(plan);
        match solver.solve_with_engine(&m) {
            Ok((rep, engine)) => format!(
                "ok obj={:016x} cycles={} faults={:?}",
                rep.objective.to_bits(),
                engine.stats().total_cycles(),
                engine.stats().faults
            ),
            Err(e) => format!("err {e}"),
        }
    };
    let flat = run(LayoutMode::Flat);
    assert_eq!(flat, run(LayoutMode::Auto));
    assert_eq!(flat, run(LayoutMode::ChipAware));
}

#[test]
fn multi_chip_solves_match_flat_and_cut_cycles() {
    // Min/Max/i32-sum reductions are order-exact, so regrouping them
    // per chip must not change any solve output — only the cycle count.
    for (config, n) in [
        (IpuConfig::tiny_multi(2, 6), 18),
        (IpuConfig::tiny_multi(4, 4), 24),
    ] {
        let m = instance(n, 11);
        let (flat_rep, flat_engine) = HunIpu::with_config(config.clone())
            .with_layout_mode(LayoutMode::Flat)
            .solve_with_engine(&m)
            .unwrap();
        let (chip_rep, chip_engine) = HunIpu::with_config(config.clone())
            .with_layout_mode(LayoutMode::Auto)
            .solve_with_engine(&m)
            .unwrap();
        assert_eq!(
            flat_rep.objective.to_bits(),
            chip_rep.objective.to_bits(),
            "objective diverged on {config:?}"
        );
        assert_eq!(flat_rep.assignment, chip_rep.assignment);
        assert_eq!(flat_rep.certificate, chip_rep.certificate);
        chip_rep.verify(&m, F32_VERIFY_EPS).unwrap();
        let flat_cycles = flat_engine.stats().total_cycles();
        let chip_cycles = chip_engine.stats().total_cycles();
        assert!(
            chip_cycles < flat_cycles,
            "chip-aware must be faster on {config:?}: {chip_cycles} vs {flat_cycles}"
        );
    }
}

#[test]
fn four_chip_layout_cuts_modeled_cycles_by_20_percent() {
    // The headline claim: on 4-IPU configs the hierarchical exchange
    // structure removes ≥20% of modeled solve cycles vs the
    // chip-oblivious layout.
    let config = IpuConfig::tiny_multi(4, 8);
    let m = instance(48, 17);
    let (_, flat) = HunIpu::with_config(config.clone())
        .with_layout_mode(LayoutMode::Flat)
        .solve_with_engine(&m)
        .unwrap();
    let (rep, chip) = HunIpu::with_config(config)
        .with_layout_mode(LayoutMode::Auto)
        .solve_with_engine(&m)
        .unwrap();
    rep.verify(&m, F32_VERIFY_EPS).unwrap();
    let flat_cycles = flat.stats().total_cycles() as f64;
    let chip_cycles = chip.stats().total_cycles() as f64;
    assert!(
        chip_cycles <= 0.8 * flat_cycles,
        "expected >=20% cut, got {:.1}% ({chip_cycles} vs {flat_cycles})",
        100.0 * (1.0 - chip_cycles / flat_cycles)
    );
}

#[test]
fn multi_chip_solves_are_bit_identical_interpreted_vs_plan() {
    let m = instance(24, 23);
    let run = |exec_mode: ExecMode| {
        fingerprint(
            HunIpu::with_config(IpuConfig {
                exec_mode,
                ..IpuConfig::tiny_multi(4, 4)
            }),
            &m,
        )
    };
    assert_eq!(
        run(ExecMode::Interpreted),
        run(ExecMode::Plan),
        "plan run diverged from the interpreter"
    );
}

#[test]
fn multi_chip_faulty_batch_produces_certified_optima() {
    // A mild fault plan on a 4-chip device: the
    // verify-and-retry loop must still deliver certified optima from
    // the chip-aware program.
    let batch: Vec<CostMatrix> = (0..4).map(|i| instance(16, 31 + i)).collect();
    let plan = FaultPlan::new(77)
        .with_bit_flips(0.002)
        .with_exchange_corruption(0.001)
        .with_stragglers(0.02, 3.0)
        .after_supersteps(50);
    let solver = HunIpu::with_config(IpuConfig {
        max_while_iterations: 50_000,
        ..IpuConfig::tiny_multi(4, 4)
    })
    .with_fault_plan(plan);
    assert!(solver.hierarchical(), "Auto must pick chip-aware on 4 IPUs");
    let rep = BatchHunIpu::with_solver(solver)
        .with_max_attempts(8)
        .solve_batch(&batch)
        .unwrap();
    rep.verify_all(&batch, F32_VERIFY_EPS).unwrap();
    let mut truth = cpu_hungarian::JonkerVolgenant::new();
    for (m, r) in batch.iter().zip(&rep.reports) {
        let t = truth.solve(m).unwrap();
        assert!((t.objective - r.objective).abs() < 1e-6 * (1.0 + t.objective.abs()));
    }
}

//! The ablation variants must stay *correct* — they only trade
//! performance. Every variant must return the same optimal objective and
//! a valid certificate.

use cpu_hungarian::JonkerVolgenant;
use hunipu::{AblationConfig, HunIpu, LayoutMode, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{repair_duals_f32, CostMatrix, LsapSolver, SolveReport, WarmStart};
use proptest::prelude::*;

fn instance(n: usize, seed: u64) -> CostMatrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    CostMatrix::from_fn(n, n, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 211) as f64
    })
    .unwrap()
}

fn objective_with(m: &CostMatrix, ab: AblationConfig) -> f64 {
    let mut solver = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(ab);
    let rep = solver.solve(m).unwrap();
    rep.verify(m, F32_VERIFY_EPS).unwrap();
    rep.objective
}

#[test]
fn no_compression_matches_default() {
    for seed in 0..6 {
        let m = instance(13, seed);
        let base = objective_with(&m, AblationConfig::default());
        let no_comp = objective_with(
            &m,
            AblationConfig {
                compression: false,
                ..Default::default()
            },
        );
        assert_eq!(base, no_comp, "seed {seed}");
    }
}

#[test]
fn both_ablations_together_match_default() {
    let m = instance(10, 99);
    let base = objective_with(&m, AblationConfig::default());
    let both = objective_with(
        &m,
        AblationConfig {
            compression: false,
            layered_priming: false,
        },
    );
    assert_eq!(base, both);
}

#[test]
fn compression_reduces_modeled_step4_cost() {
    // On a sparse-zero instance, the compressed status scan must be
    // cheaper than the raw row scan.
    let m = instance(32, 7);
    let run = |compression: bool| {
        let solver = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(AblationConfig {
            compression,
            ..Default::default()
        });
        let (rep, engine) = solver.solve_with_engine(&m).unwrap();
        let status_cycles: u64 = engine
            .stats()
            .per_compute_set
            .iter()
            .filter(|b| b.name == "step4.status")
            .map(|b| b.compute_cycles)
            .sum();
        (rep.objective, status_cycles)
    };
    let (obj_on, cycles_on) = run(true);
    let (obj_off, cycles_off) = run(false);
    assert_eq!(obj_on, obj_off);
    assert!(
        cycles_off > cycles_on,
        "raw scans ({cycles_off}) must cost more than compressed ({cycles_on})"
    );
}

/// Integer costs in `0..=3`: dense in ties, so the two priming modes may
/// build different trees and pick different optimal assignments.
fn tie_heavy(n: usize, seed: u64) -> CostMatrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    CostMatrix::from_fn(n, n, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 4) as f64
    })
    .unwrap()
}

/// Every path that runs the shared search loop, under one priming mode:
/// dense, sparse-k with repair, a seeded warm re-solve of `next`, tiled,
/// and a 2-chip chip-aware layout. Returns `(path, matrix, report)`.
fn every_path<'m>(
    m: &'m CostMatrix,
    next: &'m CostMatrix,
    layered_priming: bool,
) -> Vec<(&'static str, &'m CostMatrix, SolveReport)> {
    let ab = AblationConfig {
        layered_priming,
        ..Default::default()
    };
    let mut tiny = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(ab);
    let mut warm = tiny.warm(m.rows()).unwrap();
    let first = warm.solve(&tiny, m).unwrap();
    let seed = repair_duals_f32(next, &WarmStart::from_report(&first)).unwrap();
    let seeded = warm.solve_seeded(&tiny, next, &seed).unwrap();
    let mut two_chip = HunIpu::with_config(IpuConfig::tiny_multi(2, 6))
        .with_layout_mode(LayoutMode::ChipAware)
        .with_ablation(ab);
    vec![
        ("dense", m, tiny.solve(m).unwrap()),
        ("sparse", m, tiny.solve_pruned(m, 4, 8).unwrap().report),
        ("seeded", next, seeded),
        ("tiled", m, tiny.solve_tiled(m).unwrap().0),
        ("2-chip", m, two_chip.solve(m).unwrap()),
    ]
}

#[test]
fn layered_priming_cuts_supersteps() {
    // On the paper's Fig. 5 data most search iterations only prime, and
    // many rows are primable at once: one layer replaces a run of
    // one-prime iterations.
    let m = datasets::gaussian_cost_matrix(64, 10, 1);
    let run = |layered_priming: bool| {
        let solver = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(AblationConfig {
            layered_priming,
            ..Default::default()
        });
        let (rep, engine) = solver.solve_with_engine(&m).unwrap();
        rep.verify(&m, F32_VERIFY_EPS).unwrap();
        (rep.objective, engine.stats().supersteps)
    };
    let (obj_layered, steps_layered) = run(true);
    let (obj_one, steps_one) = run(false);
    assert_eq!(obj_layered, obj_one);
    assert!(
        2 * steps_layered < steps_one,
        "layered priming ran {steps_layered} supersteps, one-prime {steps_one}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layered priming and the paper's one prime per iteration (A5)
    /// both reach JV's optimum with a valid certificate on every path;
    /// assignments may differ only on ties.
    #[test]
    fn layered_and_one_prime_priming_match_jv(n in 1usize..=48, seed in 0u64..1_000_000) {
        let m = tie_heavy(n, seed);
        // A warm re-solve target: the same instance with one row redrawn.
        let fresh = tie_heavy(n, seed ^ 0x5EED);
        let next = CostMatrix::from_fn(n, n, |r, c| {
            if r == seed as usize % n { fresh.get(r, c) } else { m.get(r, c) }
        })
        .unwrap();
        for layered in [true, false] {
            for (path, matrix, report) in every_path(&m, &next, layered) {
                let truth = JonkerVolgenant::default().solve(matrix).unwrap().objective;
                prop_assert_eq!(report.objective, truth, "{} layered={} n={}", path, layered, n);
                prop_assert!(
                    report.verify(matrix, F32_VERIFY_EPS).is_ok(),
                    "{} layered={} n={} certificate", path, layered, n
                );
            }
        }
    }
}

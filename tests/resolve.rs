//! Warm-start re-solve: the certificate-gated differential suite.
//!
//! Every engine with a seeded path — the CPU Jonker–Volgenant solver,
//! the simulated-GPU FastHA, and the simulated-IPU HunIPU (through its
//! streaming adapter) — is streamed through [`lsap::IncrementalSolver`]
//! over perturbation sweeps and checked three ways per tick:
//!
//! 1. the report's own [`lsap::DualCertificate`] verifies against the
//!    patched matrix,
//! 2. the objective is **bit-identical** to a cold solve of the same
//!    matrix by a fresh engine of the same family (integer-valued costs
//!    keep all dual arithmetic exact, so the warm path has no rounding
//!    excuse), and
//! 3. the objective matches the f64 CPU ground truth.
//!
//! Negative paths are exercised with adversarial deltas (full-matrix
//! replacement) and an `ipu_sim` bit-flip storm: shortcuts must either
//! produce a verified answer or fall back **loudly** (counted in
//! [`lsap::ResolveStats`], error surfaced when even the cold path cannot
//! verify) — never a silent wrong answer.
//!
//! Snapshot/restore replay is pinned in both device execution modes
//! (`Plan` and `Interpreted`).

use cpu_hungarian::JonkerVolgenant;
use datasets::uniform_cost_matrix;
use fastha::FastHa;
use hunipu::{HunIpu, StreamingHunIpu};
use ipu_sim::{ExecMode, FaultPlan, IpuConfig};
use lsap::{CostMatrix, DeltaUpdate, IncrementalSolver, LsapError, LsapSolver, SeedSolve};
use proptest::prelude::*;

fn hun() -> StreamingHunIpu {
    StreamingHunIpu::new(HunIpu::with_config(IpuConfig::tiny(8)))
}

/// The tick's delta: `k` distinct rows rewritten with non-uniform
/// integer bumps. Integer costs keep the f32 dual repair exact;
/// non-uniform bumps genuinely move row argmins instead of being
/// absorbed by the recomputed `u_i`.
fn perturb(m: &CostMatrix, k: usize, tick: usize) -> DeltaUpdate {
    let n = m.n();
    let mut delta = DeltaUpdate::new();
    for idx in 0..k.min(n) {
        let row = (tick * k + idx) % n;
        let values: Vec<f64> = (0..n)
            .map(|j| m.get(row, j) + ((tick + idx + j) % 9) as f64 + 1.0)
            .collect();
        delta.set_row(row, values);
    }
    delta
}

/// Streams `ticks` k-row perturbations of `m0` through `engine`,
/// checking every tick differentially against a cold solve by `cold`
/// (same engine family) and the f64 CPU ground truth. Returns the
/// session counters so callers can assert the seeded path was taken.
fn assert_stream_matches_cold<S: SeedSolve, C: LsapSolver>(
    engine: S,
    mut cold: C,
    m0: CostMatrix,
    k: usize,
    ticks: usize,
) -> lsap::ResolveStats {
    let eps = engine.verify_eps();
    let mut stream = IncrementalSolver::new(engine, m0);
    stream
        .solve_next(&DeltaUpdate::new())
        .expect("initial cold solve failed");
    for tick in 1..=ticks {
        let delta = perturb(stream.matrix(), k, tick);
        let warm = stream.solve_next(&delta).expect("re-solve failed");
        let m = stream.matrix().clone();
        warm.verify(&m, eps).expect("re-solve certificate invalid");
        let cold_rep = cold.solve(&m).expect("cold solve failed");
        assert_eq!(
            warm.objective.to_bits(),
            cold_rep.objective.to_bits(),
            "k={k} tick={tick}: warm {} != cold {}",
            warm.objective,
            cold_rep.objective
        );
        let truth = cpu_hungarian::ground_truth_objective(&m);
        assert!(
            (warm.objective - truth).abs() <= 1e-6 * (1.0 + truth.abs()),
            "k={k} tick={tick}: warm {} != ground truth {truth}",
            warm.objective
        );
    }
    stream.stats()
}

/// The deterministic sweep the ISSUE names: k ∈ {1, n/8, n/2, n}
/// perturbed rows per tick, across all three seeded engine families.
#[test]
fn differential_sweep_across_engines_and_perturbation_sizes() {
    const N: usize = 16;
    for (seed, k) in [(1u64, 1usize), (2, N / 8), (3, N / 2), (4, N)] {
        let m0 = uniform_cost_matrix(N, 10, seed);
        let s = assert_stream_matches_cold(
            JonkerVolgenant::new(),
            JonkerVolgenant::new(),
            m0.clone(),
            k,
            3,
        );
        assert_eq!(s.seeded, 3, "jv must seed every tick (exact f64): {s:?}");
        let s = assert_stream_matches_cold(FastHa::new(), FastHa::new(), m0.clone(), k, 3);
        assert_eq!(s.seeded, 3, "fastha must seed every tick: {s:?}");
        let s =
            assert_stream_matches_cold(hun(), HunIpu::with_config(IpuConfig::tiny(8)), m0, k, 3);
        assert_eq!(s.seeded, 3, "hunipu must seed every tick: {s:?}");
    }
}

/// An adversarial delta — the whole matrix replaced with an unrelated
/// instance — must still produce an exact, certificate-valid answer.
/// Whether the engine seeds or falls back is its business; silence is
/// not an option, and the answer must stay right.
#[test]
fn adversarial_full_replacement_stays_exact_and_loud() {
    const N: usize = 12;
    let m0 = uniform_cost_matrix(N, 10, 5);
    let unrelated = uniform_cost_matrix(N, 10, 99);
    let mut stream = IncrementalSolver::new(hun(), m0);
    stream.solve_next(&DeltaUpdate::new()).unwrap();
    let mut delta = DeltaUpdate::new();
    for i in 0..N {
        delta.set_row(i, (0..N).map(|j| unrelated.get(i, j)).collect());
    }
    let rep = stream.solve_next(&delta).unwrap();
    rep.verify(stream.matrix(), hunipu::F32_VERIFY_EPS).unwrap();
    let truth = cpu_hungarian::ground_truth_objective(&unrelated);
    assert!((rep.objective - truth).abs() <= 1e-6 * (1.0 + truth.abs()));
    let s = stream.stats();
    assert_eq!(
        s.seeded + s.fallbacks,
        1,
        "the tick is accounted exactly once: {s:?}"
    );
}

/// Under a dense bit-flip storm neither the seeded nor the cold device
/// path can produce a verifying certificate: the fallback must be
/// counted and the failure surfaced as an error — never an unverified
/// answer. Disarming the storm heals the stream in place.
#[test]
fn fault_storm_fails_loud_then_stream_heals() {
    const N: usize = 12;
    let m0 = uniform_cost_matrix(N, 10, 7);
    let mut stream = IncrementalSolver::new(hun(), m0);
    stream.solve_next(&DeltaUpdate::new()).unwrap();

    stream.solver_mut().solver_mut().set_fault_plan(Some(
        FaultPlan::new(9)
            .with_bit_flips(0.8)
            .targeting("slack")
            .after_supersteps(0),
    ));
    let delta = perturb(stream.matrix(), 1, 1);
    match stream.solve_next(&delta) {
        Err(LsapError::VerificationFailed { .. }) => {}
        other => panic!("storm must surface as VerificationFailed, got {other:?}"),
    }
    let s = stream.stats();
    assert_eq!(
        s.fallbacks, 1,
        "the corrupted seeded attempt is counted: {s:?}"
    );

    // Disarm: the warm state from before the storm is still valid for
    // the patched matrix, so the next tick re-solves and verifies.
    stream.solver_mut().solver_mut().set_fault_plan(None);
    let rep = stream.solve_next(&DeltaUpdate::new()).unwrap();
    rep.verify(stream.matrix(), hunipu::F32_VERIFY_EPS).unwrap();
    let truth = cpu_hungarian::ground_truth_objective(stream.matrix());
    assert!((rep.objective - truth).abs() <= 1e-6 * (1.0 + truth.abs()));
}

/// Snapshot mid-stream, continue, restore, replay the same deltas: the
/// replayed reports must be bit-identical (objective, assignment,
/// certificate, modeled cycles) in both device execution modes.
#[test]
fn snapshot_restore_replay_is_bit_identical_in_both_exec_modes() {
    const N: usize = 10;
    for mode in [ExecMode::Plan, ExecMode::Interpreted] {
        let solver = StreamingHunIpu::new(HunIpu::with_config(IpuConfig {
            exec_mode: mode,
            ..IpuConfig::tiny(8)
        }));
        let m0 = uniform_cost_matrix(N, 10, 21);
        let mut stream = IncrementalSolver::new(solver, m0);
        stream.solve_next(&DeltaUpdate::new()).unwrap();
        stream.solve_next(&perturb(stream.matrix(), 2, 1)).unwrap();

        let snap = stream.snapshot();
        let mut first_pass = Vec::new();
        for tick in 2..=4 {
            let delta = perturb(stream.matrix(), 2, tick);
            let rep = stream.solve_next(&delta).unwrap();
            first_pass.push(rep);
        }
        let stats_after = stream.stats();

        stream.restore(&snap);
        for (tick, expect) in (2..=4).zip(&first_pass) {
            let delta = perturb(stream.matrix(), 2, tick);
            let rep = stream.solve_next(&delta).unwrap();
            assert_eq!(
                rep.objective.to_bits(),
                expect.objective.to_bits(),
                "{mode:?}"
            );
            assert_eq!(rep.assignment, expect.assignment, "{mode:?}");
            assert_eq!(rep.certificate, expect.certificate, "{mode:?}");
            assert_eq!(
                rep.stats.modeled_cycles, expect.stats.modeled_cycles,
                "{mode:?}"
            );
            assert_eq!(rep.stats.seeded, expect.stats.seeded, "{mode:?}");
        }
        assert_eq!(stream.stats(), stats_after, "{mode:?}: counters replay too");
    }
}

/// Integer matrices with arbitrary shape/content/perturbation for the
/// CPU and GPU engines (cheap enough for a wide net).
fn int_matrix(n: usize, range: u32, seed: u64) -> CostMatrix {
    // The datasets generators already produce integer-valued costs; mix
    // the proptest-chosen seed in for variety.
    uniform_cost_matrix(n, range.max(1) as u64, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random instance + random perturbation width: JV and FastHA warm
    /// answers are bit-identical to cold and ground-truth exact.
    #[test]
    fn cpu_and_gpu_streams_match_cold_on_random_instances(
        n in 4usize..12,
        range in 2u32..40,
        seed in 0u64..1_000,
        k in 1usize..12,
    ) {
        let m0 = int_matrix(n, range, seed);
        assert_stream_matches_cold(JonkerVolgenant::new(), JonkerVolgenant::new(), m0, k.min(n), 2);
        // FastHA operates on power-of-two sizes only.
        let nf = n.next_power_of_two();
        let mf = int_matrix(nf, range, seed);
        assert_stream_matches_cold(FastHa::new(), FastHa::new(), mf, k.min(nf), 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The simulated IPU under the same property, fewer cases (each one
    /// compiles two device programs).
    #[test]
    fn hunipu_stream_matches_cold_on_random_instances(
        n in 4usize..10,
        range in 2u32..40,
        seed in 0u64..1_000,
        k in 1usize..10,
    ) {
        let m0 = int_matrix(n, range, seed);
        assert_stream_matches_cold(hun(), HunIpu::with_config(IpuConfig::tiny(8)), m0, k.min(n), 2);
    }
}

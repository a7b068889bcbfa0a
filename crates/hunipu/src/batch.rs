//! Batched multi-instance solving on the IPU model.
//!
//! The static-program constraint (C4) means a compiled solve program is a
//! function of the tensor shape only — so a batch of same-size instances
//! can share one compiled engine, paying the (expensive) program load
//! once instead of per solve. [`BatchHunIpu`] keeps one [`WarmEngine`]
//! per instance size, compiled by the same route as [`HunIpu::solve`]
//! (so a tiled-route shape streams through the tiled program), and runs
//! every instance as restore → write inputs → run → read results.
//! Because restoring the pristine snapshot makes the engine bit-identical
//! to a freshly compiled one, every per-instance [`SolveReport`] —
//! assignment, duals, cycle statistics — is *exactly* what the
//! single-instance [`HunIpu`] would produce for that matrix.
//!
//! Fault handling: each instance is wrapped in the shared
//! verify-and-retry loop ([`lsap::solve_instance_verified`]), and every
//! engine launch draws its fault seed from the same epoch counter the
//! single-instance solver uses — so a batch under an armed
//! [`ipu_sim::FaultPlan`] reproduces the exact launch sequence of the
//! equivalent sequential solves.

use crate::solver::F32_VERIFY_EPS;
use crate::warm::WarmEngine;
use crate::HunIpu;
use lsap::{
    solve_instance_verified, BatchLsapSolver, BatchReport, BatchStats, CostMatrix, LsapError,
    SolveReport,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// Default per-instance attempt budget under fault injection.
const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Batched IPU solver: one compiled program per tensor shape, reused
/// across all instances of that shape (C4 turned from a constraint into
/// the serving strategy).
#[derive(Debug, Clone)]
pub struct BatchHunIpu {
    solver: HunIpu,
    max_attempts: u32,
}

impl Default for BatchHunIpu {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchHunIpu {
    /// A streaming batch solver over the paper's Mk2 device.
    pub fn new() -> Self {
        Self::with_solver(HunIpu::new())
    }

    /// Wraps a configured single-instance solver (device config, column
    /// segmentation, ablations, fault plan all carry over).
    pub fn with_solver(solver: HunIpu) -> Self {
        Self {
            solver,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }

    /// Overrides the per-instance attempt budget (≥ 1); attempts beyond
    /// the first re-run the instance under a decorrelated fault seed.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1, "need at least one attempt");
        self.max_attempts = attempts;
        self
    }

    /// The wrapped single-instance solver.
    pub fn solver(&self) -> &HunIpu {
        &self.solver
    }

    /// Assembles batch-level accounting from finished per-instance
    /// reports.
    fn finish(
        &self,
        batch: &[CostMatrix],
        reports: Vec<SolveReport>,
        overhead: u64,
        retries: u64,
        start: Instant,
    ) -> BatchReport {
        debug_assert_eq!(reports.len(), batch.len());
        let solve_cycles: Option<u64> = reports
            .iter()
            .map(|r| r.stats.modeled_cycles)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().sum());
        let modeled_cycles = solve_cycles.map(|c| c + overhead);
        let modeled_seconds = modeled_cycles.map(|c| self.solver.config().cycles_to_seconds(c));
        BatchReport {
            reports,
            stats: BatchStats {
                instances: batch.len(),
                wall_seconds: start.elapsed().as_secs_f64(),
                modeled_cycles,
                overhead_cycles: Some(overhead),
                modeled_seconds,
                retries,
            },
        }
    }
}

impl BatchLsapSolver for BatchHunIpu {
    fn name(&self) -> &'static str {
        "hunipu-batch"
    }

    /// Streams every instance through the warm engine for its shape,
    /// compiling it (and charging its program load to the batch's
    /// overhead) on the shape's first use. The cache belongs to this
    /// call of this solver, so `n` alone identifies the program.
    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        let start = Instant::now();
        let mut cache: HashMap<usize, WarmEngine> = HashMap::new();
        let mut overhead = 0u64;
        let mut retries = 0u64;
        let mut reports = Vec::with_capacity(batch.len());
        for matrix in batch {
            let n = self.solver.validate_size(matrix)?;
            let cached = match cache.entry(n) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => {
                    let warm = self.solver.warm(n)?;
                    overhead += warm.program_load_cycles();
                    v.insert(warm)
                }
            };
            let (report, r) =
                solve_instance_verified(matrix, F32_VERIFY_EPS, self.max_attempts, |_k| {
                    cached.solve(&self.solver, matrix)
                })?;
            retries += r;
            reports.push(report);
        }
        Ok(self.finish(batch, reports, overhead, retries, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_sim::IpuConfig;
    use lsap::LsapSolver;

    fn tiny_solver() -> HunIpu {
        HunIpu::with_config(IpuConfig::tiny(8))
    }

    fn instances(sizes: &[usize], seed: u64) -> Vec<CostMatrix> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| datasets::gaussian_cost_matrix(n, 100, seed + i as u64))
            .collect()
    }

    #[test]
    fn stream_matches_single_instance_solver_exactly() {
        let batch = instances(&[6, 6, 6, 6], 7);
        let mut batched = BatchHunIpu::with_solver(tiny_solver());
        let rep = batched.solve_batch(&batch).unwrap();
        rep.verify_all(&batch, F32_VERIFY_EPS).unwrap();

        let mut solo = tiny_solver();
        for (m, r) in batch.iter().zip(&rep.reports) {
            let s = solo.solve(m).unwrap();
            assert_eq!(s.assignment, r.assignment);
            assert_eq!(s.objective.to_bits(), r.objective.to_bits());
            assert_eq!(s.certificate, r.certificate);
            assert_eq!(s.stats.modeled_cycles, r.stats.modeled_cycles);
            assert_eq!(s.stats.augmentations, r.stats.augmentations);
            assert_eq!(s.stats.dual_updates, r.stats.dual_updates);
            assert_eq!(s.stats.device_steps, r.stats.device_steps);
        }
    }

    #[test]
    fn stream_amortizes_program_load() {
        let batch = instances(&[6; 8], 3);
        let mut batched = BatchHunIpu::with_solver(tiny_solver());
        let rep = batched.solve_batch(&batch).unwrap();
        let overhead = rep.stats.overhead_cycles.unwrap();
        assert!(overhead > 0, "one compile must be charged");

        // The sequential baseline pays the load per solve; the batch
        // pays it once. Amortized batch cost must be strictly below.
        let solve_cycles: u64 = rep
            .reports
            .iter()
            .map(|r| r.stats.modeled_cycles.unwrap())
            .sum();
        let batch_total = solve_cycles + overhead;
        let sequential_total = solve_cycles + overhead * batch.len() as u64;
        assert!(batch_total < sequential_total);
        assert_eq!(rep.stats.modeled_cycles, Some(batch_total));
    }

    #[test]
    fn stream_handles_mixed_shapes_with_one_compile_per_shape() {
        let batch = instances(&[4, 6, 4, 6, 4], 11);
        let mut batched = BatchHunIpu::with_solver(tiny_solver());
        let rep = batched.solve_batch(&batch).unwrap();
        rep.verify_all(&batch, F32_VERIFY_EPS).unwrap();
        // Two shapes → exactly two program loads.
        let probe = tiny_solver();
        let load4 = probe.warm(4).unwrap().program_load_cycles();
        let load6 = probe.warm(6).unwrap().program_load_cycles();
        assert_eq!(rep.stats.overhead_cycles, Some(load4 + load6));
    }

    #[test]
    fn reports_follow_input_order_across_shapes() {
        let batch = instances(&[6, 4, 5, 4, 6], 19);
        let rep = BatchHunIpu::with_solver(tiny_solver())
            .solve_batch(&batch)
            .unwrap();
        assert_eq!(rep.reports.len(), batch.len());
        let mut solo = tiny_solver();
        for (m, r) in batch.iter().zip(&rep.reports) {
            assert_eq!(r.assignment.rows(), m.n());
            let s = solo.solve(m).unwrap();
            assert_eq!(s.assignment, r.assignment);
            assert_eq!(s.stats.modeled_cycles, r.stats.modeled_cycles);
        }
    }

    #[test]
    fn an_armed_fault_plan_reproduces_the_sequential_launches() {
        // Stragglers slow supersteps down without corrupting data, so no
        // instance retries and every launch draws the next fault epoch.
        let plan = ipu_sim::FaultPlan::new(5).with_stragglers(0.3, 4.0);
        let armed = || tiny_solver().with_fault_plan(plan.clone());
        let batch = instances(&[6, 6, 6], 23);
        let rep = BatchHunIpu::with_solver(armed())
            .solve_batch(&batch)
            .unwrap();
        assert_eq!(rep.stats.retries, 0);

        let mut sequential = armed();
        let mut clean = tiny_solver();
        let mut slowed = 0;
        for (m, r) in batch.iter().zip(&rep.reports) {
            let s = sequential.solve(m).unwrap();
            assert_eq!(s.assignment, r.assignment);
            assert_eq!(s.certificate, r.certificate);
            assert_eq!(s.stats.modeled_cycles, r.stats.modeled_cycles);
            if clean.solve(m).unwrap().stats.modeled_cycles < r.stats.modeled_cycles {
                slowed += 1;
            }
        }
        assert!(slowed > 0, "the plan must have been armed");
    }

    #[test]
    fn batch_clock_follows_the_device_clock_and_counts_no_retries_when_clean() {
        let batch = instances(&[5; 3], 29);
        let batched = BatchHunIpu::with_solver(tiny_solver());
        let rep = batched.clone().solve_batch(&batch).unwrap();
        assert_eq!(rep.stats.instances, 3);
        assert_eq!(rep.stats.retries, 0);
        let cycles = rep.stats.modeled_cycles.unwrap();
        assert_eq!(
            rep.stats.modeled_seconds,
            Some(batched.solver().config().cycles_to_seconds(cycles))
        );
    }

    #[test]
    fn every_call_compiles_its_own_programs() {
        // The shape cache lives for one call: a second call on the same
        // solver pays the same program loads again and reports the same
        // solves.
        let batch = instances(&[4, 6, 4], 31);
        let mut batched = BatchHunIpu::with_solver(tiny_solver());
        let first = batched.solve_batch(&batch).unwrap();
        let second = batched.solve_batch(&batch).unwrap();
        assert_eq!(first.stats.overhead_cycles, second.stats.overhead_cycles);
        assert_eq!(first.stats.modeled_cycles, second.stats.modeled_cycles);
        for (a, b) in first.reports.iter().zip(&second.reports) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.certificate, b.certificate);
        }
    }

    #[test]
    fn a_non_square_instance_fails_the_batch_with_a_typed_error() {
        let mut batch = instances(&[4], 37);
        batch.push(CostMatrix::from_vec(2, 3, vec![1.0; 6]).unwrap());
        match BatchHunIpu::with_solver(tiny_solver()).solve_batch(&batch) {
            Err(LsapError::NotSquare { rows: 2, cols: 3 }) => {}
            other => panic!("expected NotSquare, got {other:?}"),
        }
    }

    #[test]
    fn an_instance_that_never_certifies_fails_instead_of_returning_unverified() {
        // A bit flip in the slack on every superstep leaves duals that no
        // longer price the costs, so no attempt certifies. The short
        // watchdog turns a corrupted loop into an error, not a hang.
        let config = IpuConfig {
            max_while_iterations: 20_000,
            ..IpuConfig::tiny(8)
        };
        let plan = ipu_sim::FaultPlan::new(0)
            .with_bit_flips(1.0)
            .targeting("slack");
        let batch = instances(&[4], 41);
        let result = BatchHunIpu::with_solver(HunIpu::with_config(config).with_fault_plan(plan))
            .with_max_attempts(2)
            .solve_batch(&batch);
        assert!(
            matches!(result, Err(LsapError::VerificationFailed { .. })),
            "got {result:?}"
        );
    }

    #[test]
    #[should_panic(expected = "need at least one attempt")]
    fn a_zero_attempt_budget_is_refused() {
        let _ = BatchHunIpu::with_solver(tiny_solver()).with_max_attempts(0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let rep = BatchHunIpu::with_solver(tiny_solver())
            .solve_batch(&[])
            .unwrap();
        assert_eq!(rep.stats.instances, 0);
        assert_eq!(rep.stats.overhead_cycles, Some(0));
    }
}

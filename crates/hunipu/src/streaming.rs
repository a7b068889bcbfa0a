//! [`StreamingHunIpu`]: the adapter that plugs HunIPU into the generic
//! incremental re-solve machinery ([`lsap::IncrementalSolver`]).
//!
//! [`crate::HunIpu`] itself stays a cheap, clonable *configuration* (the
//! batch and serving layers rely on that); the state needed for
//! streaming — one warm compiled engine — lives here. Cold solves
//! through the adapter are routed through the warm engine's pristine
//! snapshot, so they are bit-identical to a fresh
//! [`crate::HunIpu::solve`] (assignment, duals, and cycle statistics),
//! and seeded solves launch the same program with host-repaired duals
//! and Step 1 skipped.

use crate::{HunIpu, WarmEngine, F32_VERIFY_EPS};
use lsap::{CostMatrix, LsapError, LsapSolver, SeedSolve, SolveReport, WarmStart};

/// A HunIPU solver with one warm engine held for streaming, implementing
/// [`SeedSolve`] so it can drive [`lsap::IncrementalSolver`].
///
/// The engine is compiled for the first shape solved and recompiled only
/// when the shape changes (same policy as the serving layer's pool, pool
/// size 1). Cold and seeded launches alike restore the pristine snapshot
/// before every run, so streaming is free of cross-instance state leaks.
///
/// # Example
///
/// ```
/// use hunipu::StreamingHunIpu;
/// use hunipu::HunIpu;
/// use ipu_sim::IpuConfig;
/// use lsap::{DeltaUpdate, IncrementalSolver};
///
/// let m = datasets::uniform_cost_matrix(8, 10, 1);
/// let solver = StreamingHunIpu::new(HunIpu::with_config(IpuConfig::tiny(8)));
/// let mut stream = IncrementalSolver::new(solver, m);
/// // First tick solves cold (no warm state yet) …
/// let first = stream.solve_next(&DeltaUpdate::new()).unwrap();
/// assert!(!first.stats.seeded);
/// // … subsequent ticks reuse the previous duals, certificate-gated.
/// let mut delta = DeltaUpdate::new();
/// delta.set_entry(2, 3, 1.0);
/// let report = stream.solve_next(&delta).unwrap();
/// assert!(report.stats.seeded || report.stats.resolve_fallbacks > 0);
/// ```
pub struct StreamingHunIpu {
    solver: HunIpu,
    warm: Option<WarmEngine>,
}

impl StreamingHunIpu {
    /// Wraps a configured [`HunIpu`]; no engine is compiled until the
    /// first solve.
    pub fn new(solver: HunIpu) -> Self {
        Self { solver, warm: None }
    }

    /// The underlying solver configuration.
    pub fn solver(&self) -> &HunIpu {
        &self.solver
    }

    /// Mutable access to the underlying solver — e.g. to arm or disarm
    /// an [`ipu_sim::FaultPlan`] mid-stream. Compiled engines pick the
    /// change up on their next solve; no recompilation happens.
    pub fn solver_mut(&mut self) -> &mut HunIpu {
        &mut self.solver
    }

    /// The warm engine currently held, if any (for cycle-level
    /// inspection between solves).
    pub fn warm_engine(&self) -> Option<&WarmEngine> {
        self.warm.as_ref()
    }

    /// Compiles (or recompiles, on a shape change) the warm engine for
    /// instance size `n`.
    fn ensure_warm(&mut self, n: usize) -> Result<(), LsapError> {
        if self.warm.as_ref().map(WarmEngine::n) != Some(n) {
            self.warm = Some(self.solver.warm(n)?);
        }
        Ok(())
    }
}

impl LsapSolver for StreamingHunIpu {
    fn name(&self) -> &'static str {
        "hunipu"
    }

    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        let n = self.solver.validate_size(matrix)?;
        self.ensure_warm(n)?;
        let warm = self.warm.as_mut().expect("ensured above");
        warm.solve(&self.solver, matrix)
    }
}

impl SeedSolve for StreamingHunIpu {
    fn solve_seeded(
        &mut self,
        matrix: &CostMatrix,
        warm_start: &WarmStart,
    ) -> Result<SolveReport, LsapError> {
        let n = self.solver.validate_size(matrix)?;
        self.ensure_warm(n)?;
        let warm = self.warm.as_mut().expect("ensured above");
        warm.solve_seeded(&self.solver, matrix, warm_start)
    }

    fn verify_eps(&self) -> f64 {
        F32_VERIFY_EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_sim::IpuConfig;
    use lsap::{DeltaUpdate, IncrementalSolver};

    fn tiny() -> StreamingHunIpu {
        StreamingHunIpu::new(HunIpu::with_config(IpuConfig::tiny(8)))
    }

    #[test]
    fn streaming_cold_solves_are_bit_identical_to_plain_solves() {
        let mut stream = tiny();
        let mut cold = HunIpu::with_config(IpuConfig::tiny(8));
        for seed in 0..3u64 {
            let m = datasets::uniform_cost_matrix(8, 10, seed);
            let s = stream.solve(&m).unwrap();
            let c = cold.solve(&m).unwrap();
            assert_eq!(s.assignment, c.assignment);
            assert_eq!(s.objective.to_bits(), c.objective.to_bits());
            assert_eq!(s.certificate, c.certificate);
            assert_eq!(s.stats.modeled_cycles, c.stats.modeled_cycles);
        }
    }

    #[test]
    fn seeded_resolve_matches_cold_objective_and_is_cheaper() {
        let n = 16;
        let m0 = datasets::uniform_cost_matrix(n, 10, 7);
        let mut stream = tiny();
        let first = stream.solve(&m0).unwrap();
        first.verify(&m0, F32_VERIFY_EPS).unwrap();
        let warm = WarmStart::from_report(&first);

        // Perturb one row: integer costs keep all f32 arithmetic exact.
        let mut m1 = m0.clone();
        for j in 0..n {
            m1.set(3, j, m1.get(3, j) + 5.0);
        }
        let seeded = stream.solve_seeded(&m1, &warm).unwrap();
        seeded.verify(&m1, F32_VERIFY_EPS).unwrap();
        assert!(seeded.stats.seeded);

        let cold = stream.solve(&m1).unwrap();
        assert_eq!(seeded.objective.to_bits(), cold.objective.to_bits());
        assert!(
            seeded.stats.modeled_cycles.unwrap() < cold.stats.modeled_cycles.unwrap(),
            "seeded {:?} !< cold {:?}",
            seeded.stats.modeled_cycles,
            cold.stats.modeled_cycles
        );
    }

    #[test]
    fn seeded_resolve_on_unchanged_matrix_skips_step1_cycles() {
        let n = 16;
        let m = datasets::uniform_cost_matrix(n, 10, 11);
        let mut stream = tiny();
        let first = stream.solve(&m).unwrap();
        let warm = WarmStart::from_report(&first);
        let seeded = stream.solve_seeded(&m, &warm).unwrap();
        seeded.verify(&m, F32_VERIFY_EPS).unwrap();
        assert_eq!(seeded.objective.to_bits(), first.objective.to_bits());
        // No Step 1 and a nearly complete initial matching: the re-solve
        // must be strictly cheaper than the cold solve of the same matrix.
        assert!(seeded.stats.modeled_cycles.unwrap() < first.stats.modeled_cycles.unwrap());
    }

    #[test]
    fn incremental_stream_over_hunipu_verifies_every_tick() {
        let n = 12;
        let m0 = datasets::uniform_cost_matrix(n, 10, 3);
        let mut stream = IncrementalSolver::new(tiny(), m0);
        let first = stream.solve_next(&DeltaUpdate::new()).unwrap();
        assert!(!first.stats.seeded);
        for tick in 0..4u64 {
            let mut delta = DeltaUpdate::new();
            let row = (tick as usize * 5) % n;
            let bumped: Vec<f64> = (0..n)
                .map(|j| stream.matrix().get(row, j) + ((tick + j as u64) % 7) as f64)
                .collect();
            delta.set_row(row, bumped);
            let report = stream.solve_next(&delta).unwrap();
            report.verify(stream.matrix(), F32_VERIFY_EPS).unwrap();
        }
        let stats = stream.stats();
        assert_eq!(stats.resolves, 5);
        assert_eq!(stats.seeded + stats.fallbacks, 4);
        // Integer perturbations keep the dual repair exact; the seeded
        // path must actually be taken, not just fall back every tick.
        assert!(stats.seeded >= 3, "stats: {stats:?}");
    }

    #[test]
    fn shape_change_recompiles_instead_of_erroring() {
        let mut stream = tiny();
        let a = datasets::uniform_cost_matrix(8, 10, 1);
        let b = datasets::uniform_cost_matrix(12, 10, 1);
        stream.solve(&a).unwrap();
        assert_eq!(stream.warm_engine().unwrap().n(), 8);
        stream.solve(&b).unwrap();
        assert_eq!(stream.warm_engine().unwrap().n(), 12);
    }
}

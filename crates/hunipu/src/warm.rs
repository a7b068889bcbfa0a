//! Warm compiled engines: the unit of reuse for batch and serving pools.
//!
//! The static-program constraint (C4) makes compiling and loading the
//! solve program the expensive, shape-dependent step — ~500k cycles of
//! program load on top of graph compilation. A [`WarmEngine`] is the
//! program [`HunIpu::solve`] routes a shape to (dense, chip-aware or
//! tiled) kept hot: the engine, its tensor handles, and a *pristine
//! snapshot* taken immediately after compile. Restoring the snapshot
//! makes the engine bit-identical to a freshly compiled one (zeroed
//! buffers, zeroed cycle statistics), so every solve streamed through a
//! warm engine produces *exactly* the report a cold single-instance
//! [`HunIpu::solve`] would — assignment, duals, and cycle statistics.
//! The same dense program also serves seeded re-solves: the launch sets
//! a device flag that skips Step 1, and the restore clears it again, so
//! a shape costs one program load whatever mix of cold and seeded
//! solves it serves. A tiled-route engine refuses seeded re-solves.
//!
//! [`crate::BatchHunIpu`] builds its per-call shape cache out of warm
//! engines; the `serve` crate's LRU engine pool keeps them alive across
//! requests so the program-load cost is paid once per shape (and again
//! only after an eviction), not once per request.

use crate::solver::{Ask, Compiled, Input};
use crate::HunIpu;
use ipu_sim::EngineSnapshot;
use lsap::{CostMatrix, LsapError, SolveReport, WarmStart};
use std::time::Instant;

/// One compiled solve program kept hot for streaming same-shape
/// instances. Built by [`HunIpu::warm`]; solve instances through it with
/// [`WarmEngine::solve`] and [`WarmEngine::solve_seeded`].
pub struct WarmEngine {
    program: Compiled,
    /// Taken immediately after compile: restoring it makes the engine
    /// bit-identical to a freshly compiled one, so every run is as
    /// repeatable as a cold solve.
    pristine: EngineSnapshot,
    n: usize,
}

impl WarmEngine {
    /// The instance size this program was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// One-time modeled cost of loading this program onto the device
    /// (charged by pools on compile and on re-compile after eviction,
    /// never per solve).
    pub fn program_load_cycles(&self) -> u64 {
        self.program.engine.program_load_cycles()
    }

    /// The underlying engine, for cycle-level inspection (profiling,
    /// exchange statistics) between solves.
    pub fn engine(&self) -> &ipu_sim::Engine {
        &self.program.engine
    }

    /// Rejects a matrix of another shape than the compiled one.
    fn check_shape(&self, solver: &HunIpu, matrix: &CostMatrix) -> Result<(), LsapError> {
        let n = solver.validate_size(matrix)?;
        if n != self.n {
            return Err(LsapError::ShapeMismatch {
                expected: format!("{0}x{0} (this warm engine's compiled shape)", self.n),
                found: format!("{n}x{n}"),
            });
        }
        Ok(())
    }

    /// Restores the pristine snapshot and launches one input.
    fn run(&mut self, solver: &HunIpu, input: Input<'_>) -> Result<SolveReport, LsapError> {
        self.program.engine.restore(&self.pristine);
        solver.launch(&mut self.program, input, Instant::now())
    }

    /// Streams one instance through the warm program: restore the
    /// pristine snapshot, load the matrix, run, extract the report.
    ///
    /// `solver` must be the [`HunIpu`] this engine was compiled by (or a
    /// clone with identical configuration) — it supplies the fault plan
    /// epoch stream, so a sequence of warm solves under an armed
    /// [`ipu_sim::FaultPlan`] reproduces the exact launch sequence of the
    /// equivalent cold solves.
    pub fn solve(
        &mut self,
        solver: &HunIpu,
        matrix: &CostMatrix,
    ) -> Result<SolveReport, LsapError> {
        self.check_shape(solver, matrix)?;
        self.run(solver, Input::Dense(matrix))
    }

    /// Streams a warm-started re-solve through the same program: the
    /// previous solve's duals are repaired against `matrix` on the host
    /// ([`lsap::repair_duals_f32`]), the reduced slack and repaired `u, v`
    /// are uploaded in place of the raw cost matrix together with the
    /// program's `seeded` flag, and the device runs Steps 2–6 only —
    /// Step 1's reductions are skipped entirely.
    ///
    /// The result is a complete [`SolveReport`] with its own
    /// [`lsap::DualCertificate`]; callers gate acceptance on
    /// [`SolveReport::verify`] exactly as for a cold solve (the
    /// [`lsap::IncrementalSolver`] does this and falls back to a cold
    /// solve on failure). `stats.seeded` is set so fallback accounting
    /// stays observable.
    ///
    /// A shape that routes to the tiled program has no seeded re-solve:
    /// the call returns [`LsapError::Backend`] without compiling
    /// anything, and the caller solves cold.
    pub fn solve_seeded(
        &mut self,
        solver: &HunIpu,
        matrix: &CostMatrix,
        warm: &WarmStart,
    ) -> Result<SolveReport, LsapError> {
        self.check_shape(solver, matrix)?;
        let seed = lsap::repair_duals_f32(matrix, warm)?;
        self.run(solver, Input::Seeded(matrix, &seed))
    }
}

impl HunIpu {
    /// Compiles the program [`lsap::LsapSolver::solve`] runs for
    /// instance size `n` — dense, chip-aware or tiled, by the same route
    /// — and returns it as a [`WarmEngine`] ready for streaming cold and
    /// seeded solves. This is the expensive step pools amortize: the
    /// caller should charge [`WarmEngine::program_load_cycles`] to
    /// whatever clock it keeps, once per warm-up.
    pub fn warm(&self, n: usize) -> Result<WarmEngine, LsapError> {
        let program = self.compile(n, Ask::Cold)?;
        let pristine = program.engine.snapshot();
        Ok(WarmEngine {
            program,
            pristine,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_sim::IpuConfig;
    use lsap::LsapSolver;

    #[test]
    fn warm_solves_match_cold_solves_bit_for_bit() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let mut warm = solver.warm(6).unwrap();
        let mut cold = HunIpu::with_config(IpuConfig::tiny(8));
        for seed in 0..3u64 {
            let m = datasets::gaussian_cost_matrix(6, 50, seed);
            let w = warm.solve(&solver, &m).unwrap();
            let c = cold.solve(&m).unwrap();
            assert_eq!(w.assignment, c.assignment);
            assert_eq!(w.objective.to_bits(), c.objective.to_bits());
            assert_eq!(w.certificate, c.certificate);
            assert_eq!(w.stats.modeled_cycles, c.stats.modeled_cycles);
            assert_eq!(w.stats.device_steps, c.stats.device_steps);
        }
    }

    #[test]
    fn one_program_serves_cold_and_seeded_launches_and_restores_clean() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let mut warm = solver.warm(10).unwrap();
        let m = datasets::uniform_cost_matrix(10, 4, 5);
        let first = warm.solve(&solver, &m).unwrap();
        let mut next = m.clone();
        for j in 0..10 {
            next.set(3, j, next.get(3, j) + (j % 5) as f64);
        }
        let seeded = warm
            .solve_seeded(&solver, &next, &WarmStart::from_report(&first))
            .unwrap();
        assert!(seeded.stats.seeded);
        seeded.verify(&next, crate::F32_VERIFY_EPS).unwrap();
        // The seeded run used this engine's program and skipped Step 1.
        let stats = warm.engine().stats();
        assert_eq!(Some(stats.total_cycles()), seeded.stats.modeled_cycles);
        let step1: Vec<_> = stats
            .per_compute_set
            .iter()
            .filter(|set| set.name.starts_with("step1."))
            .collect();
        assert!(!step1.is_empty() && step1.iter().all(|set| set.executions == 0));

        // Restoring the pristine snapshot clears the seeded flag: the
        // next cold solve is a fresh engine's cold solve, bit for bit.
        let again = warm.solve(&solver, &next).unwrap();
        let (fresh, engine) = solver.solve_with_engine(&next).unwrap();
        assert!(!again.stats.seeded);
        assert_eq!(again.assignment, fresh.assignment);
        assert_eq!(again.objective.to_bits(), fresh.objective.to_bits());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again.certificate.u), bits(&fresh.certificate.u));
        assert_eq!(bits(&again.certificate.v), bits(&fresh.certificate.v));
        assert_eq!(again.stats.modeled_cycles, fresh.stats.modeled_cycles);
        assert_eq!(again.stats.device_steps, fresh.stats.device_steps);
        assert_eq!(warm.engine().stats(), engine.stats());
        assert_eq!(warm.program_load_cycles(), engine.program_load_cycles());
    }

    #[test]
    fn wrong_shape_is_rejected_without_running() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let mut warm = solver.warm(6).unwrap();
        let m = datasets::gaussian_cost_matrix(4, 50, 1);
        match warm.solve(&solver, &m) {
            Err(LsapError::ShapeMismatch { expected, found }) => {
                assert!(expected.contains("6x6"), "{expected}");
                assert!(found.contains("4x4"), "{found}");
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn program_load_cost_is_positive_and_stable() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let warm = solver.warm(6).unwrap();
        assert!(warm.program_load_cycles() > 0);
        let again = solver.warm(6).unwrap();
        assert_eq!(warm.program_load_cycles(), again.program_load_cycles());
    }
}

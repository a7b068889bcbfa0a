//! Warm compiled engines: the unit of reuse for batch and serving pools.
//!
//! The static-program constraint (C4) makes compiling and loading the
//! solve program the expensive, shape-dependent step — ~500k cycles of
//! program load on top of graph compilation. A [`WarmEngine`] is one
//! compiled program kept hot: the engine, its tensor handles, and a
//! *pristine snapshot* taken immediately after compile. Restoring the
//! snapshot makes the engine bit-identical to a freshly compiled one
//! (zeroed buffers, zeroed cycle statistics), so every solve streamed
//! through a warm engine produces *exactly* the report a cold
//! single-instance [`HunIpu::solve`] would — assignment, duals, and
//! cycle statistics.
//!
//! [`crate::BatchHunIpu`] builds its per-call shape cache out of warm
//! engines; the `serve` crate's LRU engine pool keeps them alive across
//! requests so the program-load cost is paid once per shape (and again
//! only after an eviction), not once per request.

use crate::HunIpu;
use ipu_sim::EngineSnapshot;
use lsap::{CostMatrix, LsapError, SolveReport, WarmStart};
use std::time::Instant;

/// One compiled solve program kept hot for streaming same-shape
/// instances. Built by [`HunIpu::warm`]; solve instances through it with
/// [`WarmEngine::solve`].
pub struct WarmEngine {
    engine: ipu_sim::Engine,
    t: crate::build::Ts,
    /// Snapshot taken immediately after compile: restoring it makes the
    /// engine bit-identical to a freshly compiled one.
    pristine: EngineSnapshot,
    n: usize,
    /// Warm-start re-solve program ([`crate::build::Builder::assemble_seeded`]),
    /// compiled lazily on the first [`WarmEngine::solve_seeded`] so
    /// cold-only users never pay for it.
    seeded: Option<SeededProgram>,
}

/// The seeded companion program: same shape, no Step 1, own pristine
/// snapshot so seeded solves are as repeatable as cold ones.
struct SeededProgram {
    engine: ipu_sim::Engine,
    t: crate::build::Ts,
    pristine: EngineSnapshot,
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
        self.engine.program_load_cycles()
    }

    /// The underlying engine, for cycle-level inspection (profiling,
    /// exchange statistics) between solves.
    pub fn engine(&self) -> &ipu_sim::Engine {
        &self.engine
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
        let n = solver.validate_size(matrix)?;
        if n != self.n {
            return Err(LsapError::ShapeMismatch {
                expected: format!("{0}x{0} (this warm engine's compiled shape)", self.n),
                found: format!("{n}x{n}"),
            });
        }
        self.engine.restore(&self.pristine);
        solver.run_instance(&mut self.engine, &self.t, matrix, Instant::now())
    }

    /// Whether the seeded re-solve program has been compiled yet (it is
    /// built lazily by the first [`WarmEngine::solve_seeded`]).
    pub fn seeded_ready(&self) -> bool {
        self.seeded.is_some()
    }

    /// One-time modeled cost of loading the seeded re-solve program, once
    /// compiled ([`None`] before the first seeded solve). Pools charge it
    /// like [`WarmEngine::program_load_cycles`]: once per warm-up, never
    /// per solve.
    pub fn seeded_program_load_cycles(&self) -> Option<u64> {
        self.seeded.as_ref().map(|s| s.engine.program_load_cycles())
    }

    /// Streams a warm-started re-solve through the seeded program: the
    /// previous solve's duals are repaired against `matrix` on the host
    /// ([`lsap::repair_duals_f32`]), the reduced slack and repaired `u, v`
    /// are uploaded in place of the raw cost matrix, and the device runs
    /// Steps 2–6 only — Step 1's reductions are skipped entirely.
    ///
    /// The result is a complete [`SolveReport`] with its own
    /// [`lsap::DualCertificate`]; callers gate acceptance on
    /// [`SolveReport::verify`] exactly as for a cold solve (the
    /// [`lsap::IncrementalSolver`] does this and falls back to a cold
    /// solve on failure). `stats.seeded` is set so fallback accounting
    /// stays observable.
    pub fn solve_seeded(
        &mut self,
        solver: &HunIpu,
        matrix: &CostMatrix,
        warm: &WarmStart,
    ) -> Result<SolveReport, LsapError> {
        let n = solver.validate_size(matrix)?;
        if n != self.n {
            return Err(LsapError::ShapeMismatch {
                expected: format!("{0}x{0} (this warm engine's compiled shape)", self.n),
                found: format!("{n}x{n}"),
            });
        }
        let seed = lsap::repair_duals_f32(matrix, warm)?;
        if self.seeded.is_none() {
            let (engine, t) = solver.compile_for_seeded(self.n)?;
            let pristine = engine.snapshot();
            self.seeded = Some(SeededProgram {
                engine,
                t,
                pristine,
            });
        }
        let s = self.seeded.as_mut().expect("compiled above");
        s.engine.restore(&s.pristine);
        solver.run_instance_seeded(&mut s.engine, &s.t, matrix, &seed, Instant::now())
    }
}

impl HunIpu {
    /// Compiles the solve program for instance size `n` and returns it as
    /// a [`WarmEngine`] ready for streaming. This is the expensive step
    /// pools amortize: the caller should charge
    /// [`WarmEngine::program_load_cycles`] to whatever clock it keeps,
    /// once per warm-up.
    pub fn warm(&self, n: usize) -> Result<WarmEngine, LsapError> {
        let (engine, t) = self.compile_for(n)?;
        let pristine = engine.snapshot();
        Ok(WarmEngine {
            engine,
            t,
            pristine,
            n,
            seeded: None,
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

//! Batched multi-instance solving on the IPU model.
//!
//! The static-program constraint (C4) means a compiled solve program is a
//! function of the tensor shape only — so a batch of same-size instances
//! can share one compiled engine, paying the (expensive) program load
//! once instead of per solve. [`BatchHunIpu`] implements two strategies:
//!
//! - **Streaming** (the default): one [`WarmEngine`] per instance size,
//!   compiled by the same route as [`HunIpu::solve`] (so a tiled-route
//!   shape streams through the tiled program), and every instance run
//!   as restore → write inputs → run → read results. Because restoring
//!   the pristine snapshot makes the engine bit-identical to a freshly
//!   compiled one, every per-instance [`SolveReport`] — assignment,
//!   duals, cycle statistics — is *exactly* what the single-instance
//!   [`HunIpu`] would produce for that matrix.
//! - **Packing** ([`BatchStrategy::Pack`], opt-in): fuses groups of `g`
//!   same-size instances into one `g·n × g·n` block-diagonal matrix with
//!   a prohibitive off-block penalty, spreading the group across more of
//!   the chip's 1472 tiles in a single run. Extraction is validated per
//!   instance (assignment must stay inside its block and the per-block
//!   dual certificate must verify); any instance the packed solve cannot
//!   certify falls back to a solo streamed solve, so packing can change
//!   throughput but never correctness. Packed per-instance *statistics*
//!   are amortized shares of the fused run.
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

/// How [`BatchHunIpu`] maps instances onto the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// Stream every instance through one compiled engine per shape
    /// (restore a pristine snapshot, rebind buffers, run). Per-instance
    /// results match the single-instance solver bit-for-bit.
    Stream,
    /// Fuse up to `group` consecutive same-size instances into one
    /// block-diagonal solve packed across the tiles, with certificate
    /// extraction per instance and solo-streamed fallback on any
    /// instance the packed run cannot certify.
    Pack {
        /// Maximum instances fused per device solve (≥ 1).
        group: usize,
    },
}

/// Default per-instance attempt budget under fault injection.
const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Batched IPU solver: one compiled program per tensor shape, reused
/// across all instances of that shape (C4 turned from a constraint into
/// the serving strategy).
#[derive(Debug, Clone)]
pub struct BatchHunIpu {
    solver: HunIpu,
    strategy: BatchStrategy,
    max_attempts: u32,
    verify_eps: f64,
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
            strategy: BatchStrategy::Stream,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            verify_eps: F32_VERIFY_EPS,
        }
    }

    /// Selects the instance-to-device mapping strategy.
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        if let BatchStrategy::Pack { group } = strategy {
            assert!(group >= 1, "pack group must be >= 1");
        }
        self.strategy = strategy;
        self
    }

    /// Overrides the per-instance attempt budget (≥ 1); attempts beyond
    /// the first re-run the instance under a decorrelated fault seed.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1, "need at least one attempt");
        self.max_attempts = attempts;
        self
    }

    /// Overrides the certificate-verification tolerance (default
    /// [`F32_VERIFY_EPS`]).
    pub fn with_verify_eps(mut self, eps: f64) -> Self {
        self.verify_eps = eps;
        self
    }

    /// The wrapped single-instance solver.
    pub fn solver(&self) -> &HunIpu {
        &self.solver
    }

    /// Streams one instance through the cached warm engine for its
    /// shape, compiling (and charging `overhead`) on first use of the
    /// shape.
    fn stream_instance(
        solver: &HunIpu,
        cache: &mut HashMap<usize, WarmEngine>,
        overhead: &mut u64,
        matrix: &CostMatrix,
        verify_eps: f64,
        max_attempts: u32,
    ) -> Result<(SolveReport, u64), LsapError> {
        let n = solver.validate_size(matrix)?;
        let cached = warm_for(solver, cache, overhead, n)?;
        solve_instance_verified(matrix, verify_eps, max_attempts, |_k| {
            cached.solve(solver, matrix)
        })
    }

    fn solve_stream(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        let start = Instant::now();
        let mut cache: HashMap<usize, WarmEngine> = HashMap::new();
        let mut overhead = 0u64;
        let mut retries = 0u64;
        let mut reports = Vec::with_capacity(batch.len());
        for matrix in batch {
            let (report, r) = Self::stream_instance(
                &self.solver,
                &mut cache,
                &mut overhead,
                matrix,
                self.verify_eps,
                self.max_attempts,
            )?;
            retries += r;
            reports.push(report);
        }
        Ok(self.finish(batch, reports, overhead, retries, start))
    }

    fn solve_pack(&mut self, batch: &[CostMatrix], group: usize) -> Result<BatchReport, LsapError> {
        let start = Instant::now();
        let mut cache: HashMap<usize, WarmEngine> = HashMap::new();
        let mut overhead = 0u64;
        let mut retries = 0u64;
        let mut reports: Vec<Option<SolveReport>> = vec![None; batch.len()];

        // Chunk consecutive same-size instances (packing across sizes
        // would need one compiled program per mixed shape — against the
        // point of reuse).
        let mut i = 0;
        while i < batch.len() {
            let n = self.solver.validate_size(&batch[i])?;
            let mut j = i + 1;
            while j < batch.len() && j - i < group && batch[j].is_square() && batch[j].n() == n {
                j += 1;
            }
            let chunk = &batch[i..j];
            let packed = if chunk.len() >= 2 {
                self.try_pack_chunk(&mut cache, &mut overhead, chunk, n)
            } else {
                None
            };
            match packed {
                Some(chunk_reports) => {
                    for (k, rep) in chunk_reports.into_iter().enumerate() {
                        match rep {
                            Some(r) => reports[i + k] = Some(r),
                            None => {
                                // Packed solve could not certify this
                                // instance: solo fallback, counted as a
                                // retry.
                                retries += 1;
                                let (r, extra) = Self::stream_instance(
                                    &self.solver,
                                    &mut cache,
                                    &mut overhead,
                                    &batch[i + k],
                                    self.verify_eps,
                                    self.max_attempts,
                                )?;
                                retries += extra;
                                reports[i + k] = Some(r);
                            }
                        }
                    }
                }
                None => {
                    // Chunk of one, or the packed shape failed to
                    // compile (e.g. per-tile memory): stream each.
                    for (k, m) in chunk.iter().enumerate() {
                        let (r, extra) = Self::stream_instance(
                            &self.solver,
                            &mut cache,
                            &mut overhead,
                            m,
                            self.verify_eps,
                            self.max_attempts,
                        )?;
                        retries += extra;
                        reports[i + k] = Some(r);
                    }
                }
            }
            i = j;
        }
        let reports: Vec<SolveReport> = reports.into_iter().map(Option::unwrap).collect();
        Ok(self.finish(batch, reports, overhead, retries, start))
    }

    /// Solves a chunk of `g ≥ 2` same-size instances as one fused
    /// block-diagonal run. Returns `None` if the fused shape cannot be
    /// compiled or the fused run itself fails (caller streams the chunk);
    /// otherwise per-instance slots are `None` exactly where extraction
    /// or certification failed (caller re-solves those solo).
    fn try_pack_chunk(
        &self,
        cache: &mut HashMap<usize, WarmEngine>,
        overhead: &mut u64,
        chunk: &[CostMatrix],
        n: usize,
    ) -> Option<Vec<Option<SolveReport>>> {
        let g = chunk.len();
        let m = g * n;

        // Off-block penalty: any assignment using one off-block entry
        // costs at least `penalty + (m-1)·lo`, while staying block
        // diagonal costs at most `m·hi`; the margin factor absorbs the
        // device's f32 rounding. Certification below re-checks every
        // instance regardless.
        let (lo, hi) = chunk
            .iter()
            .map(|c| c.min_max())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), (l, h)| {
                (a.min(l), b.max(h))
            });
        let span = hi - lo;
        let penalty = lo + 4.0 * (m as f64 + 1.0) * (span + 1.0);

        let fused = CostMatrix::from_fn(m, m, |r, c| {
            if r / n == c / n {
                chunk[r / n].get(r % n, c % n)
            } else {
                penalty
            }
        })
        .ok()?;

        let cached = warm_for(&self.solver, cache, overhead, m).ok()?;
        let fused_report = cached.solve(&self.solver, &fused).ok()?;

        let mut out = Vec::with_capacity(g);
        for (k, small) in chunk.iter().enumerate() {
            out.push(self.extract_packed(&fused_report, small, n, k, g));
        }
        Some(out)
    }

    /// Carves instance `k`'s report out of a fused block-diagonal solve;
    /// `None` if its rows were assigned outside their block or the
    /// extracted certificate fails verification.
    fn extract_packed(
        &self,
        fused: &SolveReport,
        small: &CostMatrix,
        n: usize,
        k: usize,
        g: usize,
    ) -> Option<SolveReport> {
        let base = k * n;
        let row_to_col: Vec<Option<usize>> = (0..n)
            .map(|r| {
                let c = fused.assignment.col_of(base + r)?;
                (c >= base && c < base + n).then_some(c - base)
            })
            .collect();
        if row_to_col.iter().any(Option::is_none) {
            return None;
        }
        let assignment = lsap::Assignment::from_row_to_col(row_to_col);
        let objective = assignment.cost(small).ok()?;
        let u = fused.certificate.u[base..base + n].to_vec();
        let v = fused.certificate.v[base..base + n].to_vec();
        let report = SolveReport {
            assignment,
            objective,
            certificate: lsap::DualCertificate::new(u, v),
            // Fused-run statistics cannot be attributed per instance;
            // report even shares (remainder to instance 0) so chunk
            // totals are preserved.
            stats: lsap::SolverStats {
                modeled_seconds: fused.stats.modeled_seconds.map(|s| s / g as f64),
                modeled_cycles: fused.stats.modeled_cycles.map(|c| share(c, g, k)),
                wall_seconds: fused.stats.wall_seconds / g as f64,
                augmentations: share(fused.stats.augmentations, g, k),
                dual_updates: share(fused.stats.dual_updates, g, k),
                device_steps: share(fused.stats.device_steps, g, k),
                profile_events: 0,
                ..Default::default()
            },
        };
        report.verify(small, self.verify_eps).ok()?;
        Some(report)
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

/// The cached warm engine for shape `n`, compiled (and its program load
/// charged to `overhead`) on the shape's first use. The cache belongs to
/// one call of one solver, so `n` alone identifies the program.
fn warm_for<'c>(
    solver: &HunIpu,
    cache: &'c mut HashMap<usize, WarmEngine>,
    overhead: &mut u64,
    n: usize,
) -> Result<&'c mut WarmEngine, LsapError> {
    match cache.entry(n) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(v) => {
            let warm = solver.warm(n)?;
            *overhead += warm.program_load_cycles();
            Ok(v.insert(warm))
        }
    }
}

/// `total / g` with the remainder folded into share 0, so the `g` shares
/// sum back to `total`.
fn share(total: u64, g: usize, k: usize) -> u64 {
    let g = g as u64;
    total / g + if k == 0 { total % g } else { 0 }
}

impl BatchLsapSolver for BatchHunIpu {
    fn name(&self) -> &'static str {
        "hunipu-batch"
    }

    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        match self.strategy {
            BatchStrategy::Stream => self.solve_stream(batch),
            BatchStrategy::Pack { group } => self.solve_pack(batch, group),
        }
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
    fn pack_produces_certified_optima() {
        let batch = instances(&[5; 6], 19);
        let mut packed =
            BatchHunIpu::with_solver(tiny_solver()).with_strategy(BatchStrategy::Pack { group: 3 });
        let rep = packed.solve_batch(&batch).unwrap();
        rep.verify_all(&batch, F32_VERIFY_EPS).unwrap();

        let mut truth = cpu_hungarian::JonkerVolgenant::new();
        for (m, r) in batch.iter().zip(&rep.reports) {
            let t = truth.solve(m).unwrap();
            assert!((t.objective - r.objective).abs() < 1e-6 * (1.0 + t.objective.abs()));
        }
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

//! Batched CPU solving: farm instances across host threads.
//!
//! The CPU baseline has no program to compile and no kernels to launch,
//! so there is nothing to amortize in the modeled-cost sense — what a
//! batch buys here is *wall-clock* throughput: instances are independent,
//! so [`CpuBatch`] farms them across scoped threads (an explicit count
//! wins, else one per available core). Results are collected by instance
//! index, so the output is bit-identical at any thread count.

use crate::{JonkerVolgenant, Munkres};
use lsap::{
    BatchLsapSolver, BatchReport, BatchStats, CostMatrix, LsapError, LsapSolver, SolveReport,
};
use std::time::Instant;

/// Which sequential solver each worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpuAlgo {
    /// Kuhn–Munkres (the algorithm HunIPU parallelizes).
    Munkres,
    /// Jonker–Volgenant (the fastest sequential method; the default).
    #[default]
    JonkerVolgenant,
}

/// Batched CPU solver: independent instances farmed across host threads.
#[derive(Debug, Clone, Default)]
pub struct CpuBatch {
    algo: CpuAlgo,
    /// Worker threads; 0 = one per available core.
    threads: usize,
}

impl CpuBatch {
    /// A batch solver running Jonker–Volgenant with auto-sized workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the per-instance algorithm.
    pub fn with_algo(mut self, algo: CpuAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Overrides the worker-thread count (0 = one per available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn resolved_threads(&self) -> usize {
        let requested = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        requested.clamp(1, 256)
    }

    fn solve_one(algo: CpuAlgo, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        match algo {
            CpuAlgo::Munkres => Munkres::new().solve(matrix),
            CpuAlgo::JonkerVolgenant => JonkerVolgenant::new().solve(matrix),
        }
    }
}

impl BatchLsapSolver for CpuBatch {
    fn name(&self) -> &'static str {
        match self.algo {
            CpuAlgo::Munkres => "cpu-batch-munkres",
            CpuAlgo::JonkerVolgenant => "cpu-batch-jv",
        }
    }

    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        let start = Instant::now();
        let workers = self.resolved_threads().min(batch.len().max(1));
        let algo = self.algo;

        let results: Vec<Result<SolveReport, LsapError>> = if workers <= 1 {
            batch.iter().map(|m| Self::solve_one(algo, m)).collect()
        } else {
            // Contiguous chunks, one worker per chunk; each worker owns
            // its output slice, so collection order is by index and the
            // result is independent of scheduling.
            let chunk = batch.len().div_ceil(workers);
            let mut results: Vec<Option<Result<SolveReport, LsapError>>> =
                (0..batch.len()).map(|_| None).collect();
            std::thread::scope(|scope| {
                for (inputs, outputs) in batch.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (m, slot) in inputs.iter().zip(outputs.iter_mut()) {
                            *slot = Some(Self::solve_one(algo, m));
                        }
                    });
                }
            });
            results.into_iter().map(Option::unwrap).collect()
        };

        let mut reports = Vec::with_capacity(batch.len());
        for (i, r) in results.into_iter().enumerate() {
            let report = r.map_err(|e| LsapError::Backend {
                detail: format!("batch instance {i}: {e}"),
            })?;
            report
                .verify(&batch[i], lsap::COST_EPS)
                .map_err(|e| LsapError::Backend {
                    detail: format!("batch instance {i}: {e}"),
                })?;
            reports.push(report);
        }
        Ok(BatchReport {
            reports,
            stats: BatchStats {
                instances: batch.len(),
                wall_seconds: start.elapsed().as_secs_f64(),
                // CPU solvers model operation counts, not device cycles;
                // the batch-level win is wall-clock throughput.
                modeled_cycles: None,
                overhead_cycles: None,
                modeled_seconds: None,
                retries: 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_matrix(n: usize, seed: u64) -> CostMatrix {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        CostMatrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64
        })
        .unwrap()
    }

    #[test]
    fn farmed_batch_matches_sequential_solves() {
        let batch: Vec<CostMatrix> = (0..13).map(|i| pseudo_matrix(24, i)).collect();
        for threads in [1, 2, 8] {
            let rep = CpuBatch::new()
                .with_threads(threads)
                .solve_batch(&batch)
                .unwrap();
            rep.verify_all(&batch, lsap::COST_EPS).unwrap();
            for (m, r) in batch.iter().zip(&rep.reports) {
                let s = JonkerVolgenant::new().solve(m).unwrap();
                assert_eq!(s.objective.to_bits(), r.objective.to_bits());
                assert_eq!(s.assignment, r.assignment);
            }
        }
    }

    #[test]
    fn munkres_variant_agrees_with_jv_objectives() {
        let batch: Vec<CostMatrix> = (0..5).map(|i| pseudo_matrix(16, 100 + i)).collect();
        let mk = CpuBatch::new()
            .with_algo(CpuAlgo::Munkres)
            .with_threads(2)
            .solve_batch(&batch)
            .unwrap();
        mk.verify_all(&batch, lsap::COST_EPS).unwrap();
        for (m, r) in batch.iter().zip(&mk.reports) {
            assert!((r.objective - crate::ground_truth_objective(m)).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_batch_and_single_instance() {
        assert_eq!(CpuBatch::new().solve_batch(&[]).unwrap().stats.instances, 0);
        let one = [pseudo_matrix(8, 3)];
        let rep = CpuBatch::new().with_threads(8).solve_batch(&one).unwrap();
        assert_eq!(rep.reports.len(), 1);
    }
}

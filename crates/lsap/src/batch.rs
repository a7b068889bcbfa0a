//! Batched multi-instance solving.
//!
//! The paper's motivating workloads (graph similarity search, tracking,
//! word alignment — §I) never solve a single LSAP: they solve thousands.
//! On the IPU the static-program constraint (C4) makes this the natural
//! serving shape — the solve program is compiled once per tensor shape
//! and *reused* across the whole batch, so per-instance cost approaches
//! pure solve cost as the batch grows, with compile/load overhead
//! amortized away. This module defines the engine-agnostic batch API:
//!
//! - [`BatchLsapSolver`] — the batched counterpart of [`LsapSolver`]:
//!   takes `B` cost matrices, returns `B` per-instance [`SolveReport`]s
//!   (each carrying its own [`crate::DualCertificate`]) plus batch-level
//!   amortized accounting in [`BatchStats`],
//! - [`SequentialBatch`] — the trivial adapter turning any single-instance
//!   solver into a batch solver by looping (the baseline every real batch
//!   engine must beat),
//! - [`solve_instance_verified`] — the shared per-instance
//!   verify-and-retry loop batch engines use to survive injected faults
//!   without abandoning the other `B - 1` instances.
//!
//! Determinism contract: a batch solve is a pure function of the input
//! batch (plus the solver's own configuration). Engines built on the
//! deterministic simulators produce bit-identical assignments, duals and
//! modeled statistics on every run, and instance `i` of a batch matches
//! what the single-instance solver would produce for matrix `i`
//! solved in the same sequence.

use crate::matrix::CostMatrix;
use crate::solver::{LsapSolver, SolveReport};
use crate::LsapError;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Batch-level accounting for one [`BatchLsapSolver::solve_batch`] call.
///
/// Per-instance statistics live in the individual [`SolveReport`]s; this
/// struct carries what only exists at the batch level — the one-time
/// overhead that was paid once instead of `B` times, and the amortized
/// per-instance quotients the bench harness and the CI perf gate consume.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Number of instances solved.
    pub instances: usize,
    /// Host wall-clock for the whole batch, seconds.
    pub wall_seconds: f64,
    /// Total modeled device cycles for the batch, *including* the
    /// one-time program load/compile overhead (paid once, not per
    /// instance). `None` for engines without a cycle model.
    pub modeled_cycles: Option<u64>,
    /// The one-time share of [`BatchStats::modeled_cycles`] (program
    /// load, kernel upload); a sequential baseline pays this per solve.
    pub overhead_cycles: Option<u64>,
    /// Total modeled device seconds for the batch, including one-time
    /// overhead. `None` for engines without a device-time model.
    pub modeled_seconds: Option<f64>,
    /// Per-instance retry attempts consumed recovering from faults or
    /// failed certificate checks (0 on a healthy device).
    pub retries: u64,
}

impl BatchStats {
    /// Amortized modeled cycles per instance (total / B).
    pub fn amortized_cycles(&self) -> Option<f64> {
        let c = self.modeled_cycles?;
        (self.instances > 0).then(|| c as f64 / self.instances as f64)
    }

    /// Amortized modeled device seconds per instance.
    pub fn amortized_seconds(&self) -> Option<f64> {
        let s = self.modeled_seconds?;
        (self.instances > 0).then(|| s / self.instances as f64)
    }

    /// Modeled device throughput, instances per second.
    pub fn modeled_instances_per_sec(&self) -> Option<f64> {
        let s = self.modeled_seconds?;
        (s > 0.0).then(|| self.instances as f64 / s)
    }

    /// Host wall-clock throughput, instances per second.
    pub fn wall_instances_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.instances as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// The result of a batch solve: one [`SolveReport`] per input matrix, in
/// input order, plus batch-level amortized statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-instance reports, `reports[i]` solving `batch[i]`.
    pub reports: Vec<SolveReport>,
    /// Batch-level accounting.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Verifies every per-instance certificate against its matrix (see
    /// [`SolveReport::verify`]); returns the first failure.
    pub fn verify_all(&self, batch: &[CostMatrix], eps: f64) -> Result<(), LsapError> {
        if self.reports.len() != batch.len() {
            return Err(LsapError::Backend {
                detail: format!(
                    "batch report has {} reports for {} instances",
                    self.reports.len(),
                    batch.len()
                ),
            });
        }
        for (i, (report, matrix)) in self.reports.iter().zip(batch).enumerate() {
            report.verify(matrix, eps).map_err(|e| LsapError::Backend {
                detail: format!("batch instance {i}: {e}"),
            })?;
        }
        Ok(())
    }

    /// Sum of per-instance objectives.
    pub fn total_objective(&self) -> f64 {
        self.reports.iter().map(|r| r.objective).sum()
    }
}

/// A solver that accepts `B` cost matrices at once and solves them through
/// one engine instance.
///
/// Implementations amortize whatever their backend pays per solve —
/// program compilation and load on the IPU, kernel-launch and host-sync
/// latency on the GPU, nothing but thread spawn on the CPU (which instead
/// farms instances across the host pool for wall-clock throughput).
pub trait BatchLsapSolver {
    /// Short engine name for reports and logs.
    fn name(&self) -> &'static str;

    /// Solves every matrix in `batch`, returning per-instance reports in
    /// input order. Fails if any instance cannot be solved (after the
    /// engine's internal per-instance retries are exhausted); an empty
    /// batch succeeds with empty reports.
    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError>;
}

impl<B: BatchLsapSolver + ?Sized> BatchLsapSolver for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        (**self).solve_batch(batch)
    }
}

/// The looping baseline: solves each instance independently through a
/// single-instance solver, paying the full per-solve overhead `B` times.
///
/// Every real batch engine is benchmarked against this adapter wrapping
/// its own single-instance solver; the amortization win is exactly the
/// gap between the two.
#[derive(Debug, Clone)]
pub struct SequentialBatch<S> {
    inner: S,
}

impl<S: LsapSolver> SequentialBatch<S> {
    /// Wraps a single-instance solver.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: LsapSolver> BatchLsapSolver for SequentialBatch<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        let start = Instant::now();
        let mut reports = Vec::with_capacity(batch.len());
        for matrix in batch {
            reports.push(self.inner.solve(matrix)?);
        }
        let modeled_cycles = sum_opt(reports.iter().map(|r| r.stats.modeled_cycles));
        let modeled_seconds = sum_opt(reports.iter().map(|r| r.stats.modeled_seconds));
        let stats = BatchStats {
            instances: reports.len(),
            wall_seconds: start.elapsed().as_secs_f64(),
            modeled_cycles,
            // The loop re-pays the per-solve overhead every iteration;
            // nothing is amortized, so no one-time share to report.
            overhead_cycles: None,
            modeled_seconds,
            retries: 0,
        };
        Ok(BatchReport { reports, stats })
    }
}

/// Sums an iterator of optional measurements, yielding `None` if any
/// element is missing (a partial total would silently undercount).
fn sum_opt<T: std::iter::Sum<T>>(it: impl Iterator<Item = Option<T>>) -> Option<T> {
    it.collect::<Option<Vec<T>>>().map(|v| v.into_iter().sum())
}

/// Runs `attempt` until it yields a report whose certificate verifies
/// against `matrix`, up to `max_attempts` times. Each attempt runs under
/// the shared supervision discipline of [`crate::policy::checked_attempt`]
/// — panic containment and independent verification — so batch engines
/// and [`crate::ResilientSolver`] cannot disagree about retry semantics.
///
/// Returns the verified report plus the number of retries consumed
/// (0 when the first attempt succeeds). The attempt closure receives the
/// 0-based attempt index; engines with fault injection use it to keep
/// their fault-epoch accounting aligned with the single-instance path.
/// Deterministic failures ([`crate::policy::RetryClass::Escalate`], e.g.
/// shape errors) and budget overruns ([`crate::policy::RetryClass::Abort`])
/// stop the loop immediately instead of burning the remaining attempts.
pub fn solve_instance_verified(
    matrix: &CostMatrix,
    eps: f64,
    max_attempts: u32,
    mut attempt: impl FnMut(u32) -> Result<SolveReport, LsapError>,
) -> Result<(SolveReport, u64), LsapError> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let mut last_err = None;
    for k in 0..max_attempts {
        let a = crate::policy::checked_attempt(matrix, eps, None, "batch-instance", || attempt(k));
        match a.outcome {
            Ok(report) => return Ok((report, k as u64)),
            Err(e) => {
                let class = crate::policy::classify(&e);
                last_err = Some(e);
                if class != crate::policy::RetryClass::Retry {
                    break;
                }
            }
        }
    }
    Err(last_err.unwrap_or(LsapError::Backend {
        detail: "no attempt produced a result".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::DualCertificate;
    use crate::solver::SolverStats;
    use crate::Assignment;

    /// A 2x2 toy solver that is exact, cheap, and claims 100 modeled
    /// cycles per solve.
    struct Toy;

    impl LsapSolver for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn solve(&mut self, m: &CostMatrix) -> Result<SolveReport, LsapError> {
            assert_eq!(m.n(), 2);
            let straight = m.get(0, 0) + m.get(1, 1);
            let crossed = m.get(0, 1) + m.get(1, 0);
            let (cols, obj) = if straight <= crossed {
                (vec![Some(0), Some(1)], straight)
            } else {
                (vec![Some(1), Some(0)], crossed)
            };
            // Feasible duals: u_i = min of row i against v = 0 won't
            // certify optimality in general; build the exact LP duals for
            // the 2x2 case instead.
            let u0 = m.get(0, 0).min(m.get(0, 1));
            let u1 = obj - u0;
            let mut u = vec![u0, u1];
            let v = vec![0.0, 0.0];
            // Repair feasibility if u1 overshoots a row-1 entry.
            let slack = (m.get(1, 0) - u1).min(m.get(1, 1) - u1);
            if slack < 0.0 {
                u[1] += slack;
                u[0] -= slack;
            }
            Ok(SolveReport {
                assignment: Assignment::from_row_to_col(cols),
                objective: obj,
                certificate: DualCertificate::new(u, v),
                stats: SolverStats {
                    modeled_cycles: Some(100),
                    modeled_seconds: Some(1e-6),
                    ..Default::default()
                },
            })
        }
    }

    fn toy_batch() -> Vec<CostMatrix> {
        vec![
            CostMatrix::from_rows(&[&[1.0, 5.0], &[5.0, 1.0]]).unwrap(),
            CostMatrix::from_rows(&[&[9.0, 2.0], &[3.0, 9.0]]).unwrap(),
            CostMatrix::from_rows(&[&[0.0, 7.0], &[7.0, 0.0]]).unwrap(),
        ]
    }

    #[test]
    fn sequential_adapter_matches_single_solves() {
        let batch = toy_batch();
        let mut seq = SequentialBatch::new(Toy);
        let rep = seq.solve_batch(&batch).unwrap();
        assert_eq!(rep.reports.len(), 3);
        rep.verify_all(&batch, crate::COST_EPS).unwrap();
        for (m, r) in batch.iter().zip(&rep.reports) {
            assert_eq!(r.objective, Toy.solve(m).unwrap().objective);
        }
        assert_eq!(rep.stats.instances, 3);
        assert_eq!(rep.stats.modeled_cycles, Some(300));
        assert_eq!(rep.stats.amortized_cycles(), Some(100.0));
        assert_eq!(rep.stats.overhead_cycles, None);
        assert_eq!(rep.total_objective(), 2.0 + 5.0 + 0.0);
    }

    #[test]
    fn empty_batch_succeeds() {
        let rep = SequentialBatch::new(Toy).solve_batch(&[]).unwrap();
        assert!(rep.reports.is_empty());
        assert_eq!(rep.stats.amortized_cycles(), None);
        assert_eq!(rep.stats.wall_instances_per_sec(), 0.0);
    }

    #[test]
    fn verified_retry_consumes_attempts_then_succeeds() {
        let m = &toy_batch()[0];
        let mut calls = 0u32;
        let (report, retries) = solve_instance_verified(m, crate::COST_EPS, 3, |k| {
            assert_eq!(k, calls);
            calls += 1;
            if k < 2 {
                Err(LsapError::Backend {
                    detail: "injected".into(),
                })
            } else {
                Toy.solve(m)
            }
        })
        .unwrap();
        assert_eq!(retries, 2);
        report.verify(m, crate::COST_EPS).unwrap();
    }

    #[test]
    fn verified_retry_catches_panics_and_reports_last_error() {
        let m = &toy_batch()[0];
        let err = solve_instance_verified(m, crate::COST_EPS, 2, |_| -> Result<SolveReport, _> {
            panic!("device on fire")
        })
        .unwrap_err();
        match err {
            LsapError::Backend { detail } => assert!(detail.contains("device on fire")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn batch_stats_quotients() {
        let stats = BatchStats {
            instances: 4,
            wall_seconds: 2.0,
            modeled_cycles: Some(1000),
            overhead_cycles: Some(200),
            modeled_seconds: Some(1e-3),
            retries: 0,
        };
        assert_eq!(stats.amortized_cycles(), Some(250.0));
        assert_eq!(stats.amortized_seconds(), Some(2.5e-4));
        assert_eq!(stats.wall_instances_per_sec(), 2.0);
        assert_eq!(stats.modeled_instances_per_sec(), Some(4000.0));
    }

    #[test]
    fn verify_all_rejects_a_report_count_mismatch() {
        let batch = toy_batch();
        let rep = SequentialBatch::new(Toy).solve_batch(&batch[..2]).unwrap();
        let err = rep.verify_all(&batch, crate::COST_EPS).unwrap_err();
        assert!(err.to_string().contains("2 reports for 3"), "{err}");
    }

    #[test]
    fn verify_all_names_the_failing_instance() {
        let batch = toy_batch();
        let mut rep = SequentialBatch::new(Toy).solve_batch(&batch).unwrap();
        rep.reports[2].objective += 1.0;
        let err = rep.verify_all(&batch, crate::COST_EPS).unwrap_err();
        assert!(err.to_string().contains("batch instance 2"), "{err}");
    }

    #[test]
    fn modeled_quotients_need_a_model_and_modeled_time() {
        let stats = BatchStats {
            instances: 4,
            modeled_seconds: Some(0.0),
            ..Default::default()
        };
        assert_eq!(stats.amortized_cycles(), None);
        assert_eq!(stats.amortized_seconds(), Some(0.0));
        assert_eq!(stats.modeled_instances_per_sec(), None);
    }
}

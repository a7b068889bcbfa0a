//! The shared attempt/verify/retry policy every supervised solve path
//! uses.
//!
//! Before this module existed the certificate-check/retry loop was
//! implemented twice — once in [`crate::ResilientSolver`]'s `solve` (chain
//! escalation with per-attempt history) and once in
//! [`crate::solve_instance_verified`] (per-instance recovery inside batch
//! engines). The serving layer would have added a third copy. This module
//! is the single source of truth for the pieces they all share:
//!
//! - [`checked_attempt`] — run one solve attempt with **panic
//!   containment** (a corrupted backend may unwind instead of returning
//!   `Err`), an optional **wall-clock deadline**, and **independent
//!   certificate verification** against the input matrix. The modeled
//!   device cycles the attempt consumed are surfaced even when
//!   verification fails, so cycle-accounted callers (the serve layer's
//!   virtual clock) can charge failed attempts honestly.
//! - [`classify`] — the retry taxonomy: which errors are worth retrying
//!   on the same solver, which are deterministic and should escalate to
//!   the next solver immediately, and which must abort the whole chain
//!   (deadline overruns: a fallback chain that keeps burning a caller's
//!   exhausted budget only makes the overload worse).
//!
//! Callers compose these into their own loops (history recording,
//! fallback chains, virtual-clock budgets) but can no longer
//! disagree about what "one attempt" or "retryable" means.

use crate::{CostMatrix, LsapError, SolveReport};
use std::time::{Duration, Instant};

/// What a supervised loop should do with a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// Transient (backend fault, corrupted result, timeout): retrying the
    /// same solver may succeed.
    Retry,
    /// Deterministic (shape/NaN validation): the same solver will fail
    /// the same way forever — escalate to the next solver in the chain.
    Escalate,
    /// Budget exhausted ([`LsapError::DeadlineExceeded`]): stop the whole
    /// chain immediately. Any further attempt can only finish later than
    /// the deadline the caller already missed.
    Abort,
}

/// Classifies an error for the retry loop. See [`RetryClass`].
pub fn classify(error: &LsapError) -> RetryClass {
    match error {
        LsapError::NotSquare { .. }
        | LsapError::ShapeMismatch { .. }
        | LsapError::EmptyMatrix
        | LsapError::NanCost { .. } => RetryClass::Escalate,
        LsapError::DeadlineExceeded { .. } => RetryClass::Abort,
        _ => RetryClass::Retry,
    }
}

/// The outcome of one supervised solve attempt.
#[derive(Debug)]
pub struct Attempt {
    /// Host wall-clock seconds the attempt took.
    pub wall_seconds: f64,
    /// Modeled device cycles the attempt consumed, when the backend ran
    /// far enough to report them. Present even when the result failed
    /// verification — a wrong answer still occupied the device — and
    /// `None` when the backend errored or panicked before reporting.
    pub modeled_cycles: Option<u64>,
    /// The verified report, or the classified failure.
    pub outcome: Result<SolveReport, LsapError>,
}

impl Attempt {
    /// `true` if the attempt produced a verified result.
    pub fn succeeded(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Runs one solve attempt under the full supervision discipline:
///
/// 1. **Panic containment** — corrupted device state can make a backend
///    index out of bounds and unwind instead of returning `Err`; a
///    supervisor that dies with its worker is no supervisor, so the
///    unwind becomes a retryable [`LsapError::Backend`]. (Solvers rebuild
///    their device state per call, so retrying after an unwind is sound.)
/// 2. **Deadline enforcement** (post hoc) — results arriving after
///    `deadline` are rejected as [`LsapError::Timeout`]. Solvers run on
///    the caller's thread and are not preempted; the watchdog for a
///    *stuck* (rather than slow) device program is the simulator's
///    divergence guard, which turns a hung loop into a backend error.
/// 3. **Verification** — trust nothing: the matching, the objective, and
///    the dual certificate are checked against the *input* matrix
///    ([`SolveReport::verify`]). A solver that *thinks* it finished but
///    was silently corrupted surfaces as
///    [`LsapError::VerificationFailed`] naming `solver_name`.
pub fn checked_attempt(
    matrix: &CostMatrix,
    eps: f64,
    deadline: Option<Duration>,
    solver_name: &str,
    run: impl FnOnce() -> Result<SolveReport, LsapError>,
) -> Attempt {
    let start = Instant::now();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Err(LsapError::Backend {
                detail: format!("solver panicked: {msg}"),
            })
        });
    let wall = start.elapsed();
    let wall_seconds = wall.as_secs_f64();
    let (modeled_cycles, outcome) = match result {
        Err(e) => (None, Err(e)),
        Ok(report) => {
            let cycles = report.stats.modeled_cycles;
            if let Some(limit) = deadline {
                if wall > limit {
                    let outcome = Err(LsapError::Timeout {
                        seconds: wall_seconds,
                        limit_seconds: limit.as_secs_f64(),
                    });
                    return Attempt {
                        wall_seconds,
                        modeled_cycles: cycles,
                        outcome,
                    };
                }
            }
            match report.verify(matrix, eps) {
                Ok(()) => (cycles, Ok(report)),
                Err(reason) => (
                    cycles,
                    Err(LsapError::VerificationFailed {
                        solver: solver_name.to_string(),
                        reason: reason.to_string(),
                    }),
                ),
            }
        }
    };
    Attempt {
        wall_seconds,
        modeled_cycles,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, DualCertificate, SolverStats};

    fn gradient(n: usize) -> CostMatrix {
        CostMatrix::from_fn(n, n, |i, j| (i + j) as f64).unwrap()
    }

    fn good_report(m: &CostMatrix) -> SolveReport {
        let n = m.n();
        let assignment = Assignment::from_permutation((0..n).collect());
        let objective = assignment.cost(m).unwrap();
        SolveReport {
            assignment,
            objective,
            certificate: DualCertificate::new(
                (0..n).map(|i| i as f64).collect(),
                (0..n).map(|j| j as f64).collect(),
            ),
            stats: SolverStats {
                modeled_cycles: Some(1234),
                ..Default::default()
            },
        }
    }

    #[test]
    fn verified_success_passes_through() {
        let m = gradient(4);
        let a = checked_attempt(&m, crate::COST_EPS, None, "mock", || Ok(good_report(&m)));
        assert!(a.succeeded());
        assert_eq!(a.modeled_cycles, Some(1234));
    }

    #[test]
    fn panics_become_backend_errors() {
        let m = gradient(3);
        let a = checked_attempt(&m, crate::COST_EPS, None, "mock", || panic!("boom"));
        match a.outcome {
            Err(LsapError::Backend { detail }) => assert!(detail.contains("boom")),
            other => panic!("expected Backend, got {other:?}"),
        }
        assert_eq!(a.modeled_cycles, None);
    }

    #[test]
    fn corrupt_results_fail_verification_but_keep_cycles() {
        let m = gradient(3);
        let a = checked_attempt(&m, crate::COST_EPS, None, "liar", || {
            let mut r = good_report(&m);
            r.objective += 5.0;
            Ok(r)
        });
        match &a.outcome {
            Err(LsapError::VerificationFailed { solver, .. }) => assert_eq!(solver, "liar"),
            other => panic!("expected VerificationFailed, got {other:?}"),
        }
        // The wrong answer still occupied the device for 1234 cycles.
        assert_eq!(a.modeled_cycles, Some(1234));
    }

    #[test]
    fn zero_deadline_times_out() {
        let m = gradient(3);
        let a = checked_attempt(&m, crate::COST_EPS, Some(Duration::ZERO), "slow", || {
            Ok(good_report(&m))
        });
        assert!(matches!(a.outcome, Err(LsapError::Timeout { .. })));
    }

    #[test]
    fn classification_taxonomy() {
        assert_eq!(
            classify(&LsapError::Backend { detail: "x".into() }),
            RetryClass::Retry
        );
        assert_eq!(
            classify(&LsapError::Timeout {
                seconds: 1.0,
                limit_seconds: 0.5
            }),
            RetryClass::Retry
        );
        assert_eq!(
            classify(&LsapError::VerificationFailed {
                solver: "s".into(),
                reason: "r".into()
            }),
            RetryClass::Retry
        );
        assert_eq!(
            classify(&LsapError::NotSquare { rows: 2, cols: 3 }),
            RetryClass::Escalate
        );
        assert_eq!(classify(&LsapError::EmptyMatrix), RetryClass::Escalate);
        assert_eq!(
            classify(&LsapError::NanCost { row: 0, col: 0 }),
            RetryClass::Escalate
        );
        assert_eq!(
            classify(&LsapError::DeadlineExceeded {
                budget_cycles: 100,
                needed_cycles: 200
            }),
            RetryClass::Abort
        );
        assert_eq!(
            classify(&LsapError::Overloaded {
                queue_depth: 8,
                capacity: 8
            }),
            RetryClass::Retry
        );
    }
}

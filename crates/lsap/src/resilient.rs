//! A self-verifying, fallback-chained solver wrapper.
//!
//! [`ResilientSolver`] turns any [`LsapSolver`] chain into a supervised
//! service component: every result is independently verified with the
//! LP-duality certificate ([`crate::DualCertificate::verify`]) plus
//! matching-validity and objective checks, failures are retried under a
//! [`RetryPolicy`], and persistent failures escalate down a fallback chain
//! (e.g. HunIPU → FastHA → CPU JV). Attempt supervision — panic
//! containment, deadline enforcement, verification — and the retry
//! taxonomy live in the shared [`crate::policy`] module, so this wrapper,
//! the batch engines, and the serving layer all run under one retry
//! semantics. Because verification is *exact up to
//! floating-point tolerance* — a feasible, tight dual proves optimality
//! with no reference solver in the loop — silent corruption (a flipped
//! bit in device SRAM, a garbled exchange) cannot produce a wrong answer:
//! it produces a [`LsapError::VerificationFailed`], a retry, and
//! eventually a fallback.
//!
//! Deadlines are enforced *post hoc*: the wrapper measures each attempt
//! and rejects results that arrive after
//! [`RetryPolicy::attempt_deadline`]. Solvers run on the caller's thread
//! and are not preempted — the watchdog for a *stuck* (rather than slow)
//! device program is the simulator's divergence guard
//! (`IpuConfig::max_while_iterations`), which turns a hung loop into a
//! backend error this wrapper can retry.

use crate::policy::{self, RetryClass};
use crate::{CostMatrix, LsapError, LsapSolver, SolveReport, COST_EPS};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Retry discipline for one solver in a resilient chain.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per solver before escalating to the next in the chain
    /// (must be ≥ 1).
    pub max_attempts: u32,
    /// Wall-clock budget per attempt; results arriving later are rejected
    /// as [`LsapError::Timeout`]. `None` disables the deadline.
    pub attempt_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            attempt_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` per solver and no deadline.
    pub fn attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1);
        Self {
            max_attempts,
            ..Self::default()
        }
    }

    /// Sets the per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.attempt_deadline = Some(deadline);
        self
    }
}

/// One solve attempt in a [`ResilientSolver`] history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Name of the solver that ran.
    pub solver: String,
    /// 1-based attempt number *within that solver*.
    pub attempt: u32,
    /// Wall-clock seconds the attempt took.
    pub wall_seconds: f64,
    /// `None` on success; the rendered failure otherwise.
    pub error: Option<String>,
}

impl AttemptRecord {
    /// `true` if this attempt produced the accepted result.
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }
}

/// A fallback-chained, self-verifying [`LsapSolver`] wrapper.
///
/// ```
/// use lsap::{CostMatrix, LsapSolver, ResilientSolver, RetryPolicy};
/// # use lsap::{Assignment, DualCertificate, LsapError, SolveReport, SolverStats};
/// # struct Diagonal;
/// # impl LsapSolver for Diagonal {
/// #     fn name(&self) -> &'static str { "diag" }
/// #     fn solve(&mut self, m: &CostMatrix) -> Result<SolveReport, LsapError> {
/// #         let n = m.n();
/// #         let assignment = Assignment::from_permutation((0..n).collect());
/// #         let objective = assignment.cost(m)?;
/// #         Ok(SolveReport {
/// #             assignment,
/// #             objective,
/// #             certificate: DualCertificate::new(
/// #                 (0..n).map(|i| i as f64).collect(),
/// #                 (0..n).map(|j| j as f64).collect(),
/// #             ),
/// #             stats: SolverStats::default(),
/// #         })
/// #     }
/// # }
/// // c_ij = i + j: every permutation is optimal and u_i = i, v_j = j is a
/// // tight feasible dual, so the mock's result passes verification.
/// let m = CostMatrix::from_fn(4, 4, |i, j| (i + j) as f64).unwrap();
/// let mut solver = ResilientSolver::new(Diagonal)
///     .with_policy(RetryPolicy::attempts(2));
/// let report = solver.solve(&m).unwrap();
/// assert_eq!(report.objective, 12.0);
/// assert!(solver.history().iter().all(|a| a.succeeded()));
/// ```
pub struct ResilientSolver {
    chain: Vec<Box<dyn LsapSolver>>,
    policy: RetryPolicy,
    eps: f64,
    history: Vec<AttemptRecord>,
}

impl std::fmt::Debug for ResilientSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSolver")
            .field("chain", &self.chain_names())
            .field("policy", &self.policy)
            .field("eps", &self.eps)
            .field("history", &self.history)
            .finish()
    }
}

impl ResilientSolver {
    /// Wraps a primary solver with the default policy (3 attempts, no
    /// deadline) and the default verification tolerance
    /// [`COST_EPS`].
    pub fn new(primary: impl LsapSolver + 'static) -> Self {
        Self {
            chain: vec![Box::new(primary)],
            policy: RetryPolicy::default(),
            eps: COST_EPS,
            history: Vec::new(),
        }
    }

    /// Appends a fallback solver, tried only after everything before it in
    /// the chain is exhausted.
    pub fn with_fallback(mut self, fallback: impl LsapSolver + 'static) -> Self {
        self.chain.push(Box::new(fallback));
        self
    }

    /// Appends an already-boxed fallback (for heterogeneous chains built
    /// at runtime, e.g. from CLI flags).
    pub fn with_fallback_boxed(mut self, fallback: Box<dyn LsapSolver>) -> Self {
        self.chain.push(fallback);
        self
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1);
        self.policy = policy;
        self
    }

    /// Replaces the verification tolerance (use a looser one, e.g.
    /// `hunipu::F32_VERIFY_EPS`, for f32 backends).
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// The attempt history of the most recent [`LsapSolver::solve`] call,
    /// in execution order (ending with the successful attempt, if any).
    pub fn history(&self) -> &[AttemptRecord] {
        &self.history
    }

    /// Names of the solvers in the chain, primary first.
    pub fn chain_names(&self) -> Vec<&'static str> {
        self.chain.iter().map(|s| s.name()).collect()
    }
}

impl LsapSolver for ResilientSolver {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        self.history.clear();
        let policy = &self.policy;
        'chain: for solver in &mut self.chain {
            for attempt in 1..=policy.max_attempts {
                let a = policy::checked_attempt(
                    matrix,
                    self.eps,
                    policy.attempt_deadline,
                    solver.name(),
                    || solver.solve(matrix),
                );
                self.history.push(AttemptRecord {
                    solver: solver.name().to_string(),
                    attempt,
                    wall_seconds: a.wall_seconds,
                    error: a.outcome.as_ref().err().map(|e| e.to_string()),
                });
                match a.outcome {
                    Ok(report) => return Ok(report),
                    Err(e) => match policy::classify(&e) {
                        // Shape errors are deterministic: retrying the same
                        // solver cannot help, so escalate immediately.
                        RetryClass::Escalate => continue 'chain,
                        // A deadline overrun means the caller's budget is
                        // gone, so a fallback could only finish even later.
                        // The error is returned as-is, not wrapped in
                        // `Exhausted`, so callers see the budget numbers.
                        RetryClass::Abort => return Err(e),
                        RetryClass::Retry => {}
                    },
                }
            }
        }
        Err(LsapError::Exhausted {
            attempts: self.history.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, DualCertificate, SolverStats};

    /// On `c_ij = i + j` every permutation is optimal; `u_i = i, v_j = j`
    /// is feasible and tight everywhere.
    fn gradient_matrix(n: usize) -> CostMatrix {
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
            stats: SolverStats::default(),
        }
    }

    /// Fails `failures` times (with the given kind), then succeeds; can
    /// also be made to always return a corrupt (unverifiable) report.
    struct Scripted {
        name: &'static str,
        failures: u32,
        calls: u32,
        corrupt: bool,
    }

    impl Scripted {
        fn failing(name: &'static str, failures: u32) -> Self {
            Self {
                name,
                failures,
                calls: 0,
                corrupt: false,
            }
        }

        fn corrupt(name: &'static str) -> Self {
            Self {
                name,
                failures: 0,
                calls: 0,
                corrupt: true,
            }
        }
    }

    impl LsapSolver for Scripted {
        fn name(&self) -> &'static str {
            self.name
        }

        fn solve(&mut self, m: &CostMatrix) -> Result<SolveReport, LsapError> {
            self.calls += 1;
            if self.calls <= self.failures {
                return Err(LsapError::Backend {
                    detail: format!("scripted failure #{}", self.calls),
                });
            }
            let mut report = good_report(m);
            if self.corrupt {
                // A silently-wrong answer: claims an objective the
                // assignment does not have.
                report.objective += 10.0;
            }
            Ok(report)
        }
    }

    #[test]
    fn first_try_success_has_single_history_entry() {
        let m = gradient_matrix(5);
        let mut s = ResilientSolver::new(Scripted::failing("primary", 0));
        let report = s.solve(&m).unwrap();
        report.verify(&m, COST_EPS).unwrap();
        assert_eq!(s.history().len(), 1);
        assert!(s.history()[0].succeeded());
        assert_eq!(s.history()[0].solver, "primary");
    }

    #[test]
    fn transient_failures_are_retried_until_success() {
        let m = gradient_matrix(4);
        let mut s = ResilientSolver::new(Scripted::failing("flaky", 2))
            .with_policy(RetryPolicy::attempts(3));
        let report = s.solve(&m).unwrap();
        report.verify(&m, COST_EPS).unwrap();
        let h = s.history();
        assert_eq!(h.len(), 3);
        assert!(!h[0].succeeded() && !h[1].succeeded() && h[2].succeeded());
        assert_eq!(h[2].attempt, 3);
    }

    #[test]
    fn corrupt_results_escalate_to_fallback() {
        let m = gradient_matrix(4);
        let mut s = ResilientSolver::new(Scripted::corrupt("liar"))
            .with_fallback(Scripted::failing("honest", 0))
            .with_policy(RetryPolicy::attempts(2));
        let report = s.solve(&m).unwrap();
        report.verify(&m, COST_EPS).unwrap();
        let h = s.history();
        assert_eq!(h.len(), 3, "2 corrupt attempts + 1 fallback success");
        assert!(h[0]
            .error
            .as_deref()
            .unwrap()
            .contains("failed verification"));
        assert_eq!(h[2].solver, "honest");
        assert!(h[2].succeeded());
    }

    #[test]
    fn exhaustion_carries_full_attempt_history() {
        let m = gradient_matrix(3);
        let mut s = ResilientSolver::new(Scripted::failing("a", u32::MAX))
            .with_fallback(Scripted::corrupt("b"))
            .with_policy(RetryPolicy::attempts(2));
        let err = s.solve(&m).unwrap_err();
        match &err {
            LsapError::Exhausted { attempts } => {
                assert_eq!(attempts.len(), 4);
                assert_eq!(attempts[0].solver, "a");
                assert_eq!(attempts[3].solver, "b");
                assert!(attempts.iter().all(|a| !a.succeeded()));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert!(err.to_string().contains("4 solve attempts"));
    }

    #[test]
    fn zero_deadline_times_every_attempt_out() {
        let m = gradient_matrix(3);
        let mut s = ResilientSolver::new(Scripted::failing("slow", 0))
            .with_policy(RetryPolicy::attempts(2).with_deadline(Duration::ZERO));
        let err = s.solve(&m).unwrap_err();
        let LsapError::Exhausted { attempts } = &err else {
            panic!("expected Exhausted, got {err:?}");
        };
        assert!(attempts
            .iter()
            .all(|a| a.error.as_deref().unwrap().contains("deadline")));
    }

    #[test]
    fn deterministic_shape_errors_skip_retries() {
        let m = CostMatrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
        struct Square;
        impl LsapSolver for Square {
            fn name(&self) -> &'static str {
                "square_only"
            }
            fn solve(&mut self, m: &CostMatrix) -> Result<SolveReport, LsapError> {
                Err(LsapError::NotSquare {
                    rows: m.rows(),
                    cols: m.cols(),
                })
            }
        }
        let mut s = ResilientSolver::new(Square).with_policy(RetryPolicy::attempts(5));
        let err = s.solve(&m).unwrap_err();
        let LsapError::Exhausted { attempts } = err else {
            panic!("expected Exhausted");
        };
        assert_eq!(attempts.len(), 1, "NotSquare must not be retried");
    }

    #[test]
    fn panicking_solver_is_contained_and_fallback_recovers() {
        struct Bomb;
        impl LsapSolver for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn solve(&mut self, _: &CostMatrix) -> Result<SolveReport, LsapError> {
                panic!("index out of bounds: simulated device crash")
            }
        }
        let m = gradient_matrix(3);
        let mut s = ResilientSolver::new(Bomb)
            .with_fallback(Scripted::failing("rescue", 0))
            .with_policy(RetryPolicy::attempts(2));
        let report = s.solve(&m).unwrap();
        report.verify(&m, COST_EPS).unwrap();
        let h = s.history();
        assert_eq!(h.len(), 3, "2 contained panics + 1 fallback success");
        assert!(h[0].error.as_deref().unwrap().contains("panicked"));
        assert!(h[2].succeeded());
    }

    #[test]
    fn deadline_exceeded_aborts_the_whole_chain() {
        struct OverBudget;
        impl LsapSolver for OverBudget {
            fn name(&self) -> &'static str {
                "over_budget"
            }
            fn solve(&mut self, _: &CostMatrix) -> Result<SolveReport, LsapError> {
                Err(LsapError::DeadlineExceeded {
                    budget_cycles: 100,
                    needed_cycles: 250,
                })
            }
        }
        let m = gradient_matrix(3);
        // A healthy fallback exists, but it must NOT run: the caller's
        // budget is already gone.
        let mut s = ResilientSolver::new(OverBudget)
            .with_fallback(Scripted::failing("never_reached", 0))
            .with_policy(RetryPolicy::attempts(3));
        let err = s.solve(&m).unwrap_err();
        assert!(matches!(
            err,
            LsapError::DeadlineExceeded {
                budget_cycles: 100,
                needed_cycles: 250
            }
        ));
        assert_eq!(s.history().len(), 1, "no retry, no fallback");
        assert_eq!(s.history()[0].solver, "over_budget");
    }

    #[test]
    fn chain_names_reflect_order() {
        let s = ResilientSolver::new(Scripted::failing("first", 0))
            .with_fallback(Scripted::failing("second", 0));
        assert_eq!(s.chain_names(), vec!["first", "second"]);
        assert_eq!(s.name(), "resilient");
    }

    #[test]
    fn history_is_reset_between_solves() {
        let m = gradient_matrix(3);
        let mut s = ResilientSolver::new(Scripted::failing("flaky", 1));
        s.solve(&m).unwrap();
        assert_eq!(s.history().len(), 2);
        s.solve(&m).unwrap();
        assert_eq!(s.history().len(), 1, "only the latest solve's attempts");
    }

    #[test]
    fn fallback_attempts_are_numbered_from_one() {
        let m = gradient_matrix(3);
        let mut s = ResilientSolver::new(Scripted::failing("a", u32::MAX))
            .with_fallback(Scripted::failing("b", 1))
            .with_policy(RetryPolicy::attempts(3));
        s.solve(&m).unwrap();
        let h = s.history();
        let trail: Vec<_> = h.iter().map(|a| (&*a.solver, a.attempt)).collect();
        assert_eq!(trail, [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2)]);
    }

    #[test]
    fn shape_errors_escalate_to_the_fallback() {
        let m = gradient_matrix(3);
        let mut s =
            ResilientSolver::new(ShapeError).with_fallback(Scripted::failing("fallback", 0));
        s.solve(&m).unwrap();
        let solvers: Vec<&str> = s.history().iter().map(|a| &*a.solver).collect();
        assert_eq!(solvers, ["shape_error", "fallback"], "no retry");
    }

    struct ShapeError;
    impl LsapSolver for ShapeError {
        fn name(&self) -> &'static str {
            "shape_error"
        }
        fn solve(&mut self, _: &CostMatrix) -> Result<SolveReport, LsapError> {
            Err(LsapError::EmptyMatrix)
        }
    }

    #[test]
    fn the_verification_tolerance_is_configurable() {
        let m = gradient_matrix(3);
        // `corrupt` overclaims by 10; the objective check allows
        // eps * max|c| * n = eps * 4 * 3.
        let solver = |eps| ResilientSolver::new(Scripted::corrupt("c")).with_eps(eps);
        assert!(solver(COST_EPS).solve(&m).is_err() && solver(1.0).solve(&m).is_ok());
    }

    #[test]
    fn boxed_fallbacks_join_the_chain_in_order() {
        let s = ResilientSolver::new(Scripted::failing("first", 0))
            .with_fallback_boxed(Box::new(Scripted::failing("second", 0)))
            .with_fallback(Scripted::failing("third", 0));
        assert_eq!(s.chain_names(), ["first", "second", "third"]);
    }

    #[test]
    #[should_panic]
    fn zero_attempts_are_rejected() {
        RetryPolicy::attempts(0);
    }
}

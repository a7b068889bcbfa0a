//! The solver interface shared by the CPU, simulated-GPU, and simulated-IPU
//! implementations.

use crate::{Assignment, CostMatrix, DualCertificate, LsapError};
use serde::{Deserialize, Serialize};

/// Performance accounting attached to a solve.
///
/// Every engine in this workspace executes the real algorithm on the real
/// input, and *additionally* reports a **modeled runtime**: simulated cycles
/// divided by the modeled device's clock frequency. Wall-clock time of the
/// simulation itself is reported separately and is *not* comparable across
/// engines (simulating an IPU on a laptop is obviously slower than an IPU).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Simulated device time in seconds (cycles / clock). `None` for
    /// engines without a device model.
    pub modeled_seconds: Option<f64>,
    /// Simulated device cycles, if the engine counts them.
    pub modeled_cycles: Option<u64>,
    /// Host wall-clock seconds spent running/simulating.
    pub wall_seconds: f64,
    /// Number of augmenting-path phases executed.
    pub augmentations: u64,
    /// Number of slack-matrix (dual) updates executed (Step 6 in the
    /// paper's decomposition).
    pub dual_updates: u64,
    /// BSP supersteps (IPU) or kernel launches (GPU), when applicable.
    pub device_steps: u64,
    /// Timeline events captured by the engine's profiler, when profiling
    /// was enabled for the solve (0 otherwise; older records deserialize
    /// to 0).
    #[serde(default)]
    pub profile_events: u64,
    /// `true` when this report was produced by a warm-started (seeded)
    /// re-solve whose certificate verified. Cold solves and fallbacks
    /// leave it `false`; older records deserialize to `false`.
    #[serde(default)]
    pub seeded: bool,
}

/// The outcome of a successful solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveReport {
    /// The optimal perfect matching.
    pub assignment: Assignment,
    /// Objective value of `assignment`.
    pub objective: f64,
    /// Dual potentials proving optimality. Always present: every solver in
    /// this workspace maintains the dual.
    pub certificate: DualCertificate,
    /// Performance accounting.
    pub stats: SolverStats,
}

impl SolveReport {
    /// Verifies the report end-to-end against the instance: the assignment
    /// is a perfect matching with the claimed objective, and the
    /// certificate proves its optimality.
    pub fn verify(&self, matrix: &CostMatrix, eps: f64) -> Result<(), LsapError> {
        let cost = self.assignment.cost(matrix)?;
        let (lo, hi) = matrix.min_max();
        let scale = 1.0_f64.max(lo.abs()).max(hi.abs()) * matrix.rows() as f64;
        if (cost - self.objective).abs() > eps * scale {
            return Err(LsapError::InvalidCertificate {
                reason: format!(
                    "claimed objective {} does not match assignment cost {cost}",
                    self.objective
                ),
            });
        }
        self.certificate.verify(matrix, &self.assignment, eps)
    }
}

/// A linear-sum-assignment solver.
///
/// Implementations: `cpu-hungarian` (Munkres, Jonker–Volgenant, auction),
/// `hunipu` (the paper's algorithm on the IPU simulator), and `fastha`
/// (the GPU baseline on the SIMT simulator).
pub trait LsapSolver {
    /// A short stable identifier, e.g. `"jv"`, `"hunipu"`, `"fastha"`.
    fn name(&self) -> &'static str;

    /// Solves the instance to optimality.
    ///
    /// # Errors
    /// Implementations may reject shapes they do not support (e.g. FastHA
    /// requires square power-of-two sizes) with [`LsapError::NotSquare`] or
    /// [`LsapError::ShapeMismatch`].
    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError>;
}

impl<S: LsapSolver + ?Sized> LsapSolver for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        (**self).solve(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy solver used to exercise the trait plumbing: brute force over
    /// all permutations (n <= 8), with duals recovered greedily.
    struct BruteForce;

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn rec(prefix: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
            let n = used.len();
            if prefix.len() == n {
                out.push(prefix.clone());
                return;
            }
            for j in 0..n {
                if !used[j] {
                    used[j] = true;
                    prefix.push(j);
                    rec(prefix, used, out);
                    prefix.pop();
                    used[j] = false;
                }
            }
        }
        let mut out = Vec::new();
        rec(&mut Vec::new(), &mut vec![false; n], &mut out);
        out
    }

    impl LsapSolver for BruteForce {
        fn name(&self) -> &'static str {
            "brute"
        }

        fn solve(&mut self, m: &CostMatrix) -> Result<SolveReport, LsapError> {
            if !m.is_square() {
                return Err(LsapError::NotSquare {
                    rows: m.rows(),
                    cols: m.cols(),
                });
            }
            let n = m.n();
            assert!(n <= 8, "brute force only for tiny instances");
            let best = permutations(n)
                .into_iter()
                .map(|p| {
                    let cost: f64 = p.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
                    (cost, p)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("n >= 1");
            // Recover feasible tight duals by alternating row/col passes
            // over the reduced matrix (Hungarian Step-1 style).
            let mut u = vec![0.0; n];
            let mut v = vec![0.0; n];
            // Simple iterative scheme: repeat enough times to converge on
            // tiny instances.
            #[allow(clippy::needless_range_loop)]
            for _ in 0..2 * n {
                for i in 0..n {
                    u[i] = (0..n)
                        .map(|j| m.get(i, j) - v[j])
                        .fold(f64::INFINITY, f64::min);
                }
                for j in 0..n {
                    v[j] = (0..n)
                        .map(|i| m.get(i, j) - u[i])
                        .fold(f64::INFINITY, f64::min);
                }
            }
            let assignment = Assignment::from_permutation(best.1);
            Ok(SolveReport {
                assignment,
                objective: best.0,
                certificate: DualCertificate::new(u, v),
                stats: SolverStats::default(),
            })
        }
    }

    #[test]
    fn brute_force_report_fails_verification_with_wrong_objective() {
        let m = CostMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let mut s = BruteForce;
        let mut rep = s.solve(&m).unwrap();
        rep.objective += 1.0;
        assert!(rep.verify(&m, crate::COST_EPS).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let m = CostMatrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
        assert!(matches!(
            BruteForce.solve(&m),
            Err(LsapError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = SolverStats::default();
        assert_eq!(s.modeled_seconds, None);
        assert_eq!(s.augmentations, 0);
    }
}

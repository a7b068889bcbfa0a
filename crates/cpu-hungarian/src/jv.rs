//! Shortest-augmenting-path LSAP solver (Jonker–Volgenant style).
//!
//! For every row the solver grows a Dijkstra-like shortest alternating
//! path tree over the reduced costs `c_ij - u_i - v_j`, augments along the
//! cheapest path to a free column, and updates the potentials so reduced
//! costs stay non-negative. This is the core of the Jonker–Volgenant
//! algorithm (the fastest practical sequential LSAP method, and the basis
//! of `scipy.optimize.linear_sum_assignment`); the original JV
//! column-reduction / augmenting-row-reduction pre-passes are heuristic
//! accelerations of the same invariant and are not required for
//! correctness.
//!
//! Complexity: `O(n^3)` worst case, with excellent constants. This solver
//! is the workspace's **ground truth**: every other engine is verified
//! against its objective and against its own dual certificate.

use crate::calibration;
use crate::ops::OpCounter;
use lsap::{
    Assignment, CostMatrix, DualCertificate, LsapError, LsapSolver, SolveReport, SolverStats,
};
use std::time::Instant;

/// Shortest-augmenting-path solver. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct JonkerVolgenant {
    _private: (),
}

impl JonkerVolgenant {
    /// Creates a solver.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LsapSolver for JonkerVolgenant {
    fn name(&self) -> &'static str {
        "jv"
    }

    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        if !matrix.is_square() {
            return Err(LsapError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        let start = Instant::now();
        let n = matrix.n();
        let c = matrix.as_slice();

        const FREE: usize = usize::MAX;
        let mut ops = OpCounter::new();
        let mut u = vec![0.0_f64; n];
        // Column potentials; index `n` is the virtual root column that
        // anchors the alternating tree of the row being inserted.
        let mut v = vec![0.0_f64; n + 1];
        // col_row[j] = row currently matched to column j (FREE if none).
        let mut col_row = vec![FREE; n + 1];

        // Scratch buffers reused across rows (avoids n allocations).
        let mut minv = vec![0.0_f64; n];
        let mut way = vec![0_usize; n];
        let mut used = vec![false; n + 1];

        let mut augmentations = 0u64;
        for i in 0..n {
            col_row[n] = i;
            let mut j0 = n;
            minv.iter_mut().for_each(|x| *x = f64::INFINITY);
            used.iter_mut().for_each(|x| *x = false);

            // Dijkstra over columns: settle the cheapest reachable column
            // until a free one is found.
            loop {
                used[j0] = true;
                let i0 = col_row[j0];
                let row = &c[i0 * n..(i0 + 1) * n];
                let u0 = u[i0];
                let mut delta = f64::INFINITY;
                let mut j1 = FREE;
                for (j, (&cost, &vj)) in row.iter().zip(v[..n].iter()).enumerate() {
                    if !used[j] {
                        let cur = cost - u0 - vj;
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                ops.scan(2 * n);
                debug_assert!(j1 != FREE, "some column must be reachable");

                // Shift potentials: settled part of the tree moves by
                // delta, the frontier's tentative distances shrink.
                for j in 0..n {
                    if used[j] {
                        u[col_row[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                u[col_row[n]] += delta; // virtual column is always used
                v[n] -= delta;
                ops.update(n);

                j0 = j1;
                if col_row[j0] == FREE {
                    break;
                }
            }

            // Augment: walk the tree back to the root, shifting matches.
            loop {
                let j1 = way[j0];
                col_row[j0] = col_row[j1];
                j0 = j1;
                if j0 == n {
                    break;
                }
            }
            augmentations += 1;
        }
        let wall = start.elapsed().as_secs_f64();

        let mut row_to_col = vec![None; n];
        for j in 0..n {
            if col_row[j] != FREE {
                row_to_col[col_row[j]] = Some(j);
            }
        }
        let assignment = Assignment::from_row_to_col(row_to_col);
        let objective = assignment.cost(matrix)?;
        v.truncate(n);
        let stats = SolverStats {
            modeled_seconds: Some(calibration::modeled_seconds(&ops)),
            modeled_cycles: Some(calibration::modeled_cycles(&ops)),
            wall_seconds: wall,
            augmentations,
            dual_updates: 0,
            device_steps: 0,
            profile_events: 0,
            ..Default::default()
        };
        Ok(SolveReport {
            assignment,
            objective,
            certificate: DualCertificate::new(u, v),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsap::COST_EPS;

    fn solve(m: &CostMatrix) -> SolveReport {
        let rep = JonkerVolgenant::new().solve(m).unwrap();
        rep.verify(m, COST_EPS).unwrap();
        rep
    }

    #[test]
    fn solves_known_3x3() {
        let m =
            CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]).unwrap();
        assert_eq!(solve(&m).objective, 5.0);
    }

    #[test]
    fn solves_permutation_matrix() {
        let n = 7;
        let m = CostMatrix::from_fn(n, n, |i, j| if (i + 3) % n == j { 0.0 } else { 1.0 }).unwrap();
        let rep = solve(&m);
        assert_eq!(rep.objective, 0.0);
        for (i, j) in rep.assignment.pairs() {
            assert_eq!((i + 3) % n, j);
        }
    }

    #[test]
    fn ties_are_resolved_to_an_optimal_matching() {
        let m = CostMatrix::filled(5, 3.0).unwrap();
        assert_eq!(solve(&m).objective, 15.0);
    }

    #[test]
    fn negative_costs_supported() {
        let m = CostMatrix::from_rows(&[&[-5.0, 0.0], &[0.0, -5.0]]).unwrap();
        assert_eq!(solve(&m).objective, -10.0);
    }

    #[test]
    fn agrees_with_brute_force_on_small_instances() {
        // Deterministic pseudo-random 5x5 instances.
        for seed in 0..20u64 {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 10.0
            };
            let n = 5;
            let m = CostMatrix::from_fn(n, n, |_, _| next()).unwrap();
            let rep = solve(&m);
            let brute = brute_force(&m);
            assert!(
                (rep.objective - brute).abs() < 1e-9,
                "seed {seed}: jv {} vs brute {brute}",
                rep.objective
            );
        }
    }

    fn brute_force(m: &CostMatrix) -> f64 {
        fn rec(m: &CostMatrix, i: usize, used: &mut Vec<bool>) -> f64 {
            let n = m.n();
            if i == n {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for j in 0..n {
                if !used[j] {
                    used[j] = true;
                    best = best.min(m.get(i, j) + rec(m, i + 1, used));
                    used[j] = false;
                }
            }
            best
        }
        rec(m, 0, &mut vec![false; m.n()])
    }

    #[test]
    fn rejects_non_square() {
        let m = CostMatrix::from_vec(3, 2, vec![0.0; 6]).unwrap();
        assert!(matches!(
            JonkerVolgenant::new().solve(&m),
            Err(LsapError::NotSquare { .. })
        ));
    }

    #[test]
    fn counts_one_augmentation_per_row() {
        let m = CostMatrix::from_fn(9, 9, |i, j| ((i * j + 1) % 11) as f64).unwrap();
        let rep = solve(&m);
        assert_eq!(rep.stats.augmentations, 9);
    }
}

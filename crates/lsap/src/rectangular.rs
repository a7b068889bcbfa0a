//! Rectangular LSAP support.
//!
//! The paper assumes `|P| = |Q| = n` w.l.o.g. (§II); this module supplies
//! the standard reduction that justifies the "w.l.o.g.": an `r x c`
//! problem with `r < c` is padded with `c - r` dummy rows of constant
//! cost (any constant — dummies take the leftover columns without
//! affecting which real pairs are optimal), solved square, and the dummy
//! matches dropped.

use crate::{Assignment, CostMatrix, LsapError, LsapSolver};

/// Solves a possibly-rectangular instance with `solver` by dummy-padding
/// to square, returning the matching restricted to real rows/columns
/// (every row matched if `rows <= cols`, every column if `cols <= rows`)
/// and its cost on the original matrix.
///
/// # Errors
/// Propagates solver errors.
pub fn solve_rectangular(
    matrix: &CostMatrix,
    solver: &mut dyn LsapSolver,
) -> Result<(Assignment, f64), LsapError> {
    let (r, c) = (matrix.rows(), matrix.cols());
    let n = r.max(c);
    // Dummy cost: anything finite works; 0 keeps the slack structure
    // trivial for the padded rows/columns.
    let padded = matrix.padded(n, n, 0.0);
    let report = solver.solve(&padded)?;
    let restricted = report.assignment.truncated(r, c);
    let cost = restricted.cost(matrix)?;
    Ok((restricted, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DualCertificate, SolveReport, SolverStats};

    /// Brute-force square solver for the tests.
    struct Brute;

    impl LsapSolver for Brute {
        fn name(&self) -> &'static str {
            "brute"
        }

        fn solve(&mut self, m: &CostMatrix) -> Result<SolveReport, LsapError> {
            let n = m.n();
            assert!(n <= 8);
            fn rec(m: &CostMatrix, i: usize, used: &mut Vec<bool>) -> (f64, Vec<usize>) {
                let n = m.n();
                if i == n {
                    return (0.0, Vec::new());
                }
                let mut best = (f64::INFINITY, Vec::new());
                for j in 0..n {
                    if !used[j] {
                        used[j] = true;
                        let (sub, mut perm) = rec(m, i + 1, used);
                        used[j] = false;
                        let total = m.get(i, j) + sub;
                        if total < best.0 {
                            perm.insert(0, j);
                            best = (total, perm);
                        }
                    }
                }
                best
            }
            let (objective, perm) = rec(m, 0, &mut vec![false; n]);
            Ok(SolveReport {
                assignment: Assignment::from_permutation(perm),
                objective,
                certificate: DualCertificate::new(vec![0.0; n], vec![0.0; n]),
                stats: SolverStats::default(),
            })
        }
    }

    #[test]
    fn wide_instance_matches_exhaustive() {
        // 2 workers, 4 tasks: pick the 2 cheapest compatible cells.
        let m = CostMatrix::from_rows(&[&[5.0, 1.0, 9.0, 4.0], &[2.0, 6.0, 3.0, 8.0]]).unwrap();
        let (a, cost) = solve_rectangular(&m, &mut Brute).unwrap();
        assert_eq!(a.matched_count(), 2);
        assert_eq!(cost, 3.0); // (0,1)=1 + (1,0)=2
    }

    #[test]
    fn tall_instance_matches_exhaustive() {
        let m = CostMatrix::from_rows(&[&[5.0, 1.0], &[2.0, 6.0], &[4.0, 3.0]]).unwrap();
        let (a, cost) = solve_rectangular(&m, &mut Brute).unwrap();
        // Two of the three rows get matched, one stays unmatched.
        assert_eq!(a.matched_count(), 2);
        assert_eq!(cost, 3.0); // (0,1)=1 + (1,0)=2, row 2 unmatched
    }

    #[test]
    fn square_instance_passes_through() {
        let m = CostMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let (a, cost) = solve_rectangular(&m, &mut Brute).unwrap();
        assert_eq!(cost, 2.0);
        assert!(a.is_perfect());
    }

    #[test]
    fn a_single_row_takes_its_cheapest_column() {
        let m = CostMatrix::from_rows(&[&[4.0, 2.0, 7.0]]).unwrap();
        let (a, cost) = solve_rectangular(&m, &mut Brute).unwrap();
        assert_eq!((a.col_of(0), cost), (Some(1), 2.0));
    }

    #[test]
    fn a_single_column_goes_to_its_cheapest_row() {
        let m = CostMatrix::from_rows(&[&[4.0], &[2.0], &[7.0]]).unwrap();
        let (a, cost) = solve_rectangular(&m, &mut Brute).unwrap();
        assert_eq!(a.pairs().collect::<Vec<_>>(), [(1, 0)]);
        assert_eq!(cost, 2.0);
    }
}

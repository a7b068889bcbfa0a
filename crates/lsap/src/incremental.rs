//! Warm-start state for seeded re-solves.
//!
//! Dynamic workloads (object tracking, ride matching, ad allocation)
//! re-solve near-identical LSAP instances every tick. A cold solve
//! discards two things the previous tick already paid for:
//!
//! 1. **Dual potentials.** The previous optimum's `(u, v)` is feasible
//!    for the perturbed instance after an `O(n^2)` repair pass
//!    (recompute `u_i = min_j(c_ij - v_j)` keeping `v`), and is
//!    near-tight everywhere the costs did not move — so the augmenting
//!    phase starts near-converged instead of from zero.
//! 2. **The matching.** Matched pairs whose reduced cost is still
//!    exactly zero under the repaired duals remain usable; only edges
//!    touched by the perturbation (directly, or through the `u`
//!    repair) need re-augmenting.
//!
//! This module holds the engine-agnostic pieces: [`WarmStart`] (the
//! solution state carried between ticks) and [`repair_duals_f32`], the
//! repair pass in the device `f32` domain. The one engine that launches
//! a seeded solve is HunIPU, through `WarmEngine::solve_seeded`; its
//! callers verify the answer's certificate and fall back to a cold
//! solve, counted, when it fails.

use crate::{Assignment, CostMatrix, LsapError, SolveReport};

/// Solution state carried from one solve to the next: the dual
/// potentials and the matching of the previous optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Previous row potentials.
    pub u: Vec<f64>,
    /// Previous column potentials.
    pub v: Vec<f64>,
    /// Previous optimal matching.
    pub assignment: Assignment,
}

impl WarmStart {
    /// Extracts the warm-start state from a (verified) solve report.
    pub fn from_report(report: &SolveReport) -> Self {
        Self {
            u: report.certificate.u.clone(),
            v: report.certificate.v.clone(),
            assignment: report.assignment.clone(),
        }
    }
}

/// A repaired seed in the device `f32` domain: the slack matrix and
/// potentials a seeded device launch uploads in place of its Step-1
/// reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedSeedF32 {
    /// Repaired row potentials (`f32`).
    pub u: Vec<f32>,
    /// Column potentials, carried over (`f32`).
    pub v: Vec<f32>,
    /// Row-major slack `(c32_ij - v_j) - u_i`: non-negative, with the
    /// row argmin exactly `0.0` — the invariant the zero-based device
    /// steps require.
    pub slack: Vec<f32>,
    /// Surviving matches (slack exactly `0.0`, column unclaimed).
    pub assignment: Assignment,
}

/// Dual repair in the device `f32` domain.
///
/// Keeps the previous `v`, recomputes every `u_i` as the row minimum of
/// the reduced costs — which restores dual feasibility
/// (`c_ij - u_i - v_j >= 0`) for **arbitrary** perturbations — and keeps
/// a previous match `(i, j)` only when its slack is exactly `0.0` and
/// its column is not already claimed by an earlier row. Rows whose costs
/// did not change keep their old `u_i` and their old (tight) match, so
/// the number of free rows left to augment is `O(k)` for a `k`-row
/// perturbation.
///
/// Every operation happens on the `f32` values the device will actually
/// see, so the invariants the device programs rely on hold *bitwise*:
/// `slack >= 0.0` everywhere and `slack == 0.0` at each row's argmin.
/// (A non-negative `f64` computation truncated to `f32` would not
/// guarantee exact zeros.)
///
/// # Errors
/// [`LsapError::ShapeMismatch`] when the warm start's shape does not
/// match `matrix`.
pub fn repair_duals_f32(
    matrix: &CostMatrix,
    warm: &WarmStart,
) -> Result<RepairedSeedF32, LsapError> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    if warm.u.len() != rows || warm.v.len() != cols || warm.assignment.rows() != rows {
        return Err(LsapError::ShapeMismatch {
            expected: format!("warm start over {rows}x{cols}"),
            found: format!(
                "u: {}, v: {}, assignment rows: {}",
                warm.u.len(),
                warm.v.len(),
                warm.assignment.rows()
            ),
        });
    }
    let v: Vec<f32> = warm.v.iter().map(|&x| x as f32).collect();
    let mut slack = vec![0.0f32; rows * cols];
    let mut u = vec![0.0f32; rows];
    for i in 0..rows {
        let row = matrix.row(i);
        let s = &mut slack[i * cols..(i + 1) * cols];
        let mut m = f32::INFINITY;
        for j in 0..cols {
            let d = row[j] as f32 - v[j];
            s[j] = d;
            m = m.min(d);
        }
        u[i] = m;
        // `d - m >= 0` exactly for finite `d >= m` (rounding is
        // monotone and the true difference is non-negative), and the
        // argmin entries become exactly `0.0`.
        for sj in s.iter_mut() {
            *sj -= m;
        }
    }
    let mut assignment = Assignment::unmatched(rows);
    let mut col_taken = vec![false; cols];
    for i in 0..rows {
        if let Some(j) = warm.assignment.col_of(i) {
            if j < cols && !col_taken[j] && slack[i * cols + j] == 0.0 {
                assignment.set(i, j);
                col_taken[j] = true;
            }
        }
    }
    Ok(RepairedSeedF32 {
        u,
        v,
        slack,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DualCertificate, SolverStats};

    /// Off-diagonal costs in 1..=11 and a zero diagonal: the identity is
    /// optimal with `u = v = 0`, so that is a valid warm start.
    fn zero_diagonal(n: usize) -> CostMatrix {
        CostMatrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                (1 + (i * 7 + j * 3) % 11) as f64
            }
        })
        .unwrap()
    }

    fn identity_optimum(n: usize) -> WarmStart {
        WarmStart {
            u: vec![0.0; n],
            v: vec![0.0; n],
            assignment: Assignment::identity(n),
        }
    }

    #[test]
    fn repair_keeps_untouched_tight_pairs_and_drops_touched() {
        let m = zero_diagonal(6);
        let warm = identity_optimum(6);
        // Bump row 2's *matched* entry so its old match is no longer
        // tight. (A uniform bump of the whole row would be absorbed by
        // the recomputed `u_2` and the match would rightly survive.)
        let mut m2 = m.clone();
        m2.set(2, 2, 100.0);

        let seed = repair_duals_f32(&m2, &warm).unwrap();
        // Duals stay feasible for the perturbed matrix.
        for (i, j, c) in m2.entries() {
            assert!(
                f64::from(seed.u[i] + seed.v[j]) <= c,
                "infeasible at ({i},{j})"
            );
        }
        for i in (0..6).filter(|&i| i != 2) {
            assert_eq!(seed.assignment.col_of(i), Some(i));
        }
        assert_eq!(seed.assignment.col_of(2), None);
        assert_eq!(seed.u[2], m2.row_min(2) as f32);
    }

    #[test]
    fn repair_f32_invariants() {
        let m = CostMatrix::from_fn(8, 8, |i, j| ((i * 7 + j * 3) % 11) as f64).unwrap();
        // Any carried `v` works: the repair re-derives `u` from it.
        let warm = WarmStart {
            u: vec![0.0; 8],
            v: (0..8).map(|j| (j % 3) as f64 - 1.0).collect(),
            assignment: Assignment::from_permutation(vec![3, 1, 4, 0, 5, 2, 7, 6]),
        };
        let seed = repair_duals_f32(&m, &warm).unwrap();
        let n = m.n();
        for i in 0..n {
            let row = &seed.slack[i * n..(i + 1) * n];
            assert!(row.iter().all(|&s| s >= 0.0), "negative slack in row {i}");
            assert!(row.contains(&0.0), "row {i} lost its exact zero");
        }
        for (i, j) in seed.assignment.pairs() {
            assert_eq!(seed.slack[i * n + j], 0.0);
        }
    }

    #[test]
    fn repair_f32_invariants_hold_where_costs_round_in_f32() {
        // Costs and potentials near 2^25 are not all representable in
        // f32, so every subtraction rounds; the repair must still leave
        // non-negative slack with an exact zero per row.
        let big = 33_554_432.0;
        let m = CostMatrix::from_fn(6, 6, |i, j| big + ((i * 5 + j * 3) % 7) as f64 + 0.3).unwrap();
        let warm = WarmStart {
            u: vec![0.0; 6],
            v: (0..6).map(|j| 0.1 * j as f64 - 1.7).collect(),
            assignment: Assignment::identity(6),
        };
        let seed = repair_duals_f32(&m, &warm).unwrap();
        for row in seed.slack.chunks(6) {
            assert!(row.iter().all(|&s| s >= 0.0), "negative slack: {row:?}");
            assert!(row.contains(&0.0), "no exact zero: {row:?}");
        }
        for (i, j) in seed.assignment.pairs() {
            assert_eq!(seed.slack[i * 6 + j], 0.0);
        }
    }

    #[test]
    fn repair_rejects_shape_mismatch() {
        let m = zero_diagonal(4);
        let short_u = WarmStart {
            u: vec![0.0; 3],
            ..identity_optimum(4)
        };
        let short_v = WarmStart {
            v: vec![0.0; 5],
            ..identity_optimum(4)
        };
        let short_matching = WarmStart {
            assignment: Assignment::identity(3),
            ..identity_optimum(4)
        };
        for warm in [short_u, short_v, short_matching] {
            assert!(
                matches!(
                    repair_duals_f32(&m, &warm),
                    Err(LsapError::ShapeMismatch { .. })
                ),
                "{warm:?}"
            );
        }
    }

    #[test]
    fn repair_of_an_unchanged_optimum_keeps_every_match_and_dual() {
        let m = zero_diagonal(7);
        let seed = repair_duals_f32(&m, &identity_optimum(7)).unwrap();
        assert!(seed.assignment.is_perfect());
        assert_eq!(seed.assignment, Assignment::identity(7));
        assert_eq!(seed.u, vec![0.0f32; 7]);
        assert_eq!(seed.v, vec![0.0f32; 7]);
        let slack: Vec<f32> = m.as_slice().iter().map(|&c| c as f32).collect();
        assert_eq!(seed.slack, slack);
    }

    #[test]
    fn repair_carries_v_and_takes_u_as_the_reduced_row_minimum() {
        let m =
            CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]).unwrap();
        let warm = WarmStart {
            u: vec![9.0; 3],
            v: vec![1.0, -1.0, 0.5],
            assignment: Assignment::unmatched(3),
        };
        let seed = repair_duals_f32(&m, &warm).unwrap();
        assert_eq!(seed.v, vec![1.0f32, -1.0, 0.5]);
        // `c_ij - v_j` is [3, 2, 2.5], [1, 1, 4.5] and [2, 3, 1.5] by row.
        assert_eq!(seed.u, vec![2.0f32, 1.0, 1.5]);
        assert_eq!(
            seed.slack,
            vec![1.0, 0.0, 0.5, 0.0, 0.0, 3.5, 0.5, 1.5, 0.0]
        );
        // An unmatched warm start seeds no matches.
        assert_eq!(seed.assignment.matched_count(), 0);
    }

    #[test]
    fn repair_gives_a_contested_column_to_the_first_tight_row() {
        // Rows 0 and 1 both claim column 0 and both are tight there; the
        // seed must stay a matching, so only row 0 keeps it.
        let m = CostMatrix::from_rows(&[&[0.0, 5.0], &[0.0, 5.0]]).unwrap();
        let warm = WarmStart {
            u: vec![0.0; 2],
            v: vec![0.0; 2],
            assignment: Assignment::from_row_to_col(vec![Some(0), Some(0)]),
        };
        let seed = repair_duals_f32(&m, &warm).unwrap();
        assert_eq!(seed.assignment.col_of(0), Some(0));
        assert_eq!(seed.assignment.col_of(1), None);
    }

    #[test]
    fn warm_start_carries_a_reports_duals_and_matching() {
        let report = SolveReport {
            assignment: Assignment::from_permutation(vec![1, 0]),
            objective: 3.0,
            certificate: DualCertificate::new(vec![1.0, 2.0], vec![0.0, -0.5]),
            stats: SolverStats::default(),
        };
        let warm = WarmStart::from_report(&report);
        assert_eq!(warm.u, vec![1.0, 2.0]);
        assert_eq!(warm.v, vec![0.0, -0.5]);
        assert_eq!(warm.assignment, report.assignment);
    }
}

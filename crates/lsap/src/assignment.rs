//! Row-to-column assignments (matchings in the bipartite graph).

use crate::{CostMatrix, LsapError};
use serde::{Deserialize, Serialize};

/// A (possibly partial) one-to-one assignment of rows to columns.
///
/// `row_to_col[i] = Some(j)` means row `i` is matched to column `j`. The
/// invariant enforced by [`Assignment::validate`] is that no column appears
/// twice — i.e. the assignment encodes a matching in the bipartite graph
/// (§II of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    row_to_col: Vec<Option<usize>>,
}

impl Assignment {
    /// Creates an empty (fully unmatched) assignment over `rows` rows.
    pub fn unmatched(rows: usize) -> Self {
        Self {
            row_to_col: vec![None; rows],
        }
    }

    /// Creates an assignment from a row→column vector.
    pub fn from_row_to_col(row_to_col: Vec<Option<usize>>) -> Self {
        Self { row_to_col }
    }

    /// Creates a perfect assignment from a permutation vector
    /// (`perm[i] = j` matches row `i` with column `j`).
    pub fn from_permutation(perm: Vec<usize>) -> Self {
        Self {
            row_to_col: perm.into_iter().map(Some).collect(),
        }
    }

    /// The identity assignment on `n` rows.
    pub fn identity(n: usize) -> Self {
        Self::from_permutation((0..n).collect())
    }

    /// Number of rows this assignment covers.
    pub fn rows(&self) -> usize {
        self.row_to_col.len()
    }

    /// The column matched to `row`, if any.
    pub fn col_of(&self, row: usize) -> Option<usize> {
        self.row_to_col.get(row).copied().flatten()
    }

    /// Matches `row` with `col`, replacing any previous match of that row.
    pub fn set(&mut self, row: usize, col: usize) {
        self.row_to_col[row] = Some(col);
    }

    /// Number of matched rows.
    pub fn matched_count(&self) -> usize {
        self.row_to_col.iter().filter(|c| c.is_some()).count()
    }

    /// `true` when every row is matched.
    pub fn is_perfect(&self) -> bool {
        self.row_to_col.iter().all(|c| c.is_some())
    }

    /// Iterator over matched `(row, col)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_to_col
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|j| (i, j)))
    }

    /// The inverse mapping: `col_to_row[j] = Some(i)` iff row `i` is
    /// matched with column `j`.
    ///
    /// # Errors
    /// Returns [`LsapError::DuplicateColumn`] if two rows share a column,
    /// or [`LsapError::IndexOutOfBounds`] if a column exceeds `cols`.
    pub fn col_to_row(&self, cols: usize) -> Result<Vec<Option<usize>>, LsapError> {
        let mut inv = vec![None; cols];
        for (i, j) in self.pairs() {
            if j >= cols {
                return Err(LsapError::IndexOutOfBounds {
                    index: j,
                    bound: cols,
                });
            }
            if inv[j].is_some() {
                return Err(LsapError::DuplicateColumn { col: j });
            }
            inv[j] = Some(i);
        }
        Ok(inv)
    }

    /// Validates the assignment against a matrix shape.
    ///
    /// Checks column bounds and the matching property (no duplicate
    /// columns). If `require_perfect`, additionally checks every row is
    /// matched.
    pub fn validate(&self, matrix: &CostMatrix, require_perfect: bool) -> Result<(), LsapError> {
        if self.row_to_col.len() != matrix.rows() {
            return Err(LsapError::ShapeMismatch {
                expected: format!("{} rows", matrix.rows()),
                found: format!("{} rows", self.row_to_col.len()),
            });
        }
        self.col_to_row(matrix.cols())?;
        if require_perfect {
            if let Some(row) = self.row_to_col.iter().position(|c| c.is_none()) {
                return Err(LsapError::NotPerfect { row });
            }
        }
        Ok(())
    }

    /// Total cost of the matched pairs under `matrix`.
    ///
    /// # Errors
    /// Propagates validation errors (bounds / duplicate columns).
    pub fn cost(&self, matrix: &CostMatrix) -> Result<f64, LsapError> {
        self.validate(matrix, false)?;
        Ok(self.pairs().map(|(i, j)| matrix.get(i, j)).sum())
    }

    /// Truncates a padded solution back to the original `rows x cols`
    /// problem: matches that land in padding rows/columns are dropped.
    ///
    /// Used after solving a power-of-two padded instance (FastHA, §V-C) to
    /// recover the assignment on the original similarity matrix.
    pub fn truncated(&self, rows: usize, cols: usize) -> Self {
        let row_to_col = self
            .row_to_col
            .iter()
            .take(rows)
            .map(|c| c.filter(|&j| j < cols))
            .collect();
        Self { row_to_col }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square3() -> CostMatrix {
        CostMatrix::filled(3, 1.0).unwrap()
    }

    #[test]
    fn perfect_assignment_cost() {
        let c =
            CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]).unwrap();
        let a = Assignment::from_permutation(vec![1, 0, 2]);
        assert_eq!(a.cost(&c).unwrap(), 5.0);
        assert!(a.is_perfect());
        assert_eq!(a.matched_count(), 3);
    }

    #[test]
    fn partial_assignment_cost_sums_matched_only() {
        let c = square3();
        let a = Assignment::from_row_to_col(vec![Some(0), None, Some(2)]);
        assert_eq!(a.cost(&c).unwrap(), 2.0);
        assert!(!a.is_perfect());
        assert_eq!(a.matched_count(), 2);
    }

    #[test]
    fn duplicate_column_rejected() {
        let c = square3();
        let a = Assignment::from_row_to_col(vec![Some(0), Some(0), None]);
        assert_eq!(
            a.cost(&c).unwrap_err(),
            LsapError::DuplicateColumn { col: 0 }
        );
    }

    #[test]
    fn out_of_bounds_column_rejected() {
        let c = square3();
        let a = Assignment::from_row_to_col(vec![Some(7), None, None]);
        assert!(matches!(
            a.cost(&c),
            Err(LsapError::IndexOutOfBounds { index: 7, bound: 3 })
        ));
    }

    #[test]
    fn perfect_validation_reports_first_unmatched_row() {
        let c = square3();
        let a = Assignment::from_row_to_col(vec![Some(0), None, Some(2)]);
        assert_eq!(
            a.validate(&c, true).unwrap_err(),
            LsapError::NotPerfect { row: 1 }
        );
        assert!(a.validate(&c, false).is_ok());
    }

    #[test]
    fn inverse_mapping() {
        let a = Assignment::from_permutation(vec![2, 0, 1]);
        let inv = a.col_to_row(3).unwrap();
        assert_eq!(inv, vec![Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn inverse_mapping_rejects_out_of_range_and_shared_columns() {
        let a = Assignment::from_permutation(vec![2, 0, 1]);
        let e = a.col_to_row(2);
        assert_eq!(e, Err(LsapError::IndexOutOfBounds { index: 2, bound: 2 }));
        let e = Assignment::from_row_to_col(vec![Some(1), None, Some(1)]).col_to_row(3);
        assert_eq!(e, Err(LsapError::DuplicateColumn { col: 1 }));
    }

    #[test]
    fn truncation_drops_padding_matches() {
        // 3x3 problem padded to 4x4; solver matched row 1 into the padding
        // column 3 and the padding row 3 into column 1.
        let a = Assignment::from_permutation(vec![0, 3, 2, 1]);
        let t = a.truncated(3, 3);
        assert_eq!(t.col_of(0), Some(0));
        assert_eq!(t.col_of(1), None);
        assert_eq!(t.col_of(2), Some(2));
        assert_eq!(t.rows(), 3);
    }

    #[test]
    fn set_unset_roundtrip() {
        let mut a = Assignment::unmatched(2);
        assert_eq!(a.matched_count(), 0);
        a.set(0, 1);
        assert_eq!(a.col_of(0), Some(1));
    }

    #[test]
    fn shape_mismatch_detected() {
        let c = square3();
        let a = Assignment::unmatched(4);
        assert!(matches!(
            a.validate(&c, false),
            Err(LsapError::ShapeMismatch { .. })
        ));
    }
}

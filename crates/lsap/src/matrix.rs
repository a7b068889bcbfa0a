//! Dense row-major cost matrix.

use crate::LsapError;
use serde::{Deserialize, Serialize};

/// A dense cost matrix for the linear sum assignment problem.
///
/// Stored row-major in a single contiguous allocation. Entries are `f64`;
/// NaN entries are rejected at construction so that all comparisons are
/// total.
///
/// The paper works with square matrices (|P| = |Q| = n, §II), but the type
/// supports rectangular matrices for padding workflows (FastHA requires
/// power-of-two sizes, §V-C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// - [`LsapError::EmptyMatrix`] if either dimension is zero,
    /// - [`LsapError::ShapeMismatch`] if `data.len() != rows * cols`,
    /// - [`LsapError::NanCost`] if any entry is NaN.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LsapError> {
        if rows == 0 || cols == 0 {
            return Err(LsapError::EmptyMatrix);
        }
        if data.len() != rows * cols {
            return Err(LsapError::ShapeMismatch {
                expected: format!("{} entries ({rows}x{cols})", rows * cols),
                found: format!("{} entries", data.len()),
            });
        }
        if let Some(pos) = data.iter().position(|x| x.is_nan()) {
            return Err(LsapError::NanCost {
                row: pos / cols,
                col: pos % cols,
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LsapError> {
        if rows.is_empty() {
            return Err(LsapError::EmptyMatrix);
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LsapError::ShapeMismatch {
                    expected: format!("{cols} columns in every row"),
                    found: format!("{} columns in row {i}", r.len()),
                });
            }
        }
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates an `rows x cols` matrix by evaluating `f(row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self, LsapError> {
        if rows == 0 || cols == 0 {
            return Err(LsapError::EmptyMatrix);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Creates a square matrix filled with `value`.
    pub fn filled(n: usize, value: f64) -> Result<Self, LsapError> {
        Self::from_vec(n, n, vec![value; n * n])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Side length of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    #[inline]
    pub fn n(&self) -> usize {
        assert!(
            self.is_square(),
            "matrix is {}x{}, not square",
            self.rows,
            self.cols
        );
        self.rows
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access or NaN value.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of bounds"
        );
        assert!(!value.is_nan(), "cost must not be NaN");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of row `row` as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of row `row`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Minimum entry of row `row`.
    pub fn row_min(&self, row: usize) -> f64 {
        self.row(row).iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Minimum entry of column `col`.
    pub fn col_min(&self, col: usize) -> f64 {
        assert!(col < self.cols, "col {col} out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + col])
            .fold(f64::INFINITY, f64::min)
    }

    /// Minimum and maximum entry over the whole matrix.
    pub fn min_max(&self) -> (f64, f64) {
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    }

    /// Transposed copy of the matrix.
    pub fn transposed(&self) -> Self {
        let mut data = vec![0.0; self.data.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Pads the matrix with `fill`-valued rows/columns up to `new_rows x
    /// new_cols`. Existing entries keep their positions.
    ///
    /// The paper pads similarity matrices with zero rows and columns to the
    /// nearest power-of-two size because FastHA only operates on `2^m`
    /// matrices (§V-C).
    ///
    /// # Panics
    /// Panics if the new shape is smaller than the current shape.
    pub fn padded(&self, new_rows: usize, new_cols: usize, fill: f64) -> Self {
        assert!(
            new_rows >= self.rows && new_cols >= self.cols,
            "padding cannot shrink the matrix"
        );
        let mut data = vec![fill; new_rows * new_cols];
        for i in 0..self.rows {
            data[i * new_cols..i * new_cols + self.cols].copy_from_slice(self.row(i));
        }
        Self {
            rows: new_rows,
            cols: new_cols,
            data,
        }
    }

    /// Pads a square matrix to the next power-of-two side with `fill`.
    /// Returns the padded matrix and the original side length.
    pub fn padded_to_pow2(&self, fill: f64) -> (Self, usize) {
        let n = self.rows.max(self.cols);
        let target = n.next_power_of_two();
        (self.padded(target, target, fill), self.rows)
    }

    /// Element-wise map, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        let data: Vec<f64> = self.data.iter().map(|&x| f(x)).collect();
        assert!(data.iter().all(|x| !x.is_nan()), "map produced a NaN cost");
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Converts a similarity matrix (maximize) into a cost matrix
    /// (minimize) by `max - s_ij`.
    ///
    /// The graph-alignment use case computes pairwise node *similarities*
    /// and wants the maximum-similarity matching (§V-C); the Hungarian
    /// algorithm minimizes, so we flip the objective.
    pub fn similarity_to_cost(&self) -> Self {
        let (_, max) = self.min_max();
        self.map(|x| max - x)
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (k / cols, k % cols, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostMatrix {
        CostMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_vec_shape_checks() {
        assert!(matches!(
            CostMatrix::from_vec(0, 3, vec![]),
            Err(LsapError::EmptyMatrix)
        ));
        assert!(matches!(
            CostMatrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LsapError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn every_zero_sized_constructor_is_an_empty_matrix() {
        let empty: &[&[f64]] = &[];
        assert_eq!(CostMatrix::from_rows(empty), Err(LsapError::EmptyMatrix));
        assert_eq!(CostMatrix::from_rows(&[&[]]), Err(LsapError::EmptyMatrix));
        let e = CostMatrix::from_fn(3, 0, |_, _| 0.0);
        assert_eq!(e, Err(LsapError::EmptyMatrix));
        assert_eq!(CostMatrix::filled(0, 1.0), Err(LsapError::EmptyMatrix));
    }

    #[test]
    fn nan_rejected_with_position() {
        let err = CostMatrix::from_vec(2, 2, vec![0.0, 1.0, f64::NAN, 3.0]).unwrap_err();
        assert_eq!(err, LsapError::NanCost { row: 1, col: 0 });
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = CostMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LsapError::ShapeMismatch { .. }));
    }

    #[test]
    fn row_and_col_min() {
        let m = sample();
        assert_eq!(m.row_min(0), 1.0);
        assert_eq!(m.row_min(1), 4.0);
        assert_eq!(m.col_min(0), 1.0);
        assert_eq!(m.col_min(2), 3.0);
    }

    #[test]
    fn min_max_over_matrix() {
        assert_eq!(sample().min_max(), (1.0, 6.0));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn padding_preserves_entries_and_fills() {
        let m = sample();
        let p = m.padded(4, 4, 0.0);
        assert_eq!(p.rows(), 4);
        assert_eq!(p.get(0, 1), 2.0);
        assert_eq!(p.get(3, 3), 0.0);
        assert_eq!(p.get(0, 3), 0.0);
    }

    #[test]
    fn pow2_padding() {
        let m = CostMatrix::filled(5, 1.0).unwrap();
        let (p, orig) = m.padded_to_pow2(0.0);
        assert_eq!(p.n(), 8);
        assert_eq!(orig, 5);
        // Already power-of-two sizes are unchanged.
        let m = CostMatrix::filled(8, 1.0).unwrap();
        let (p, _) = m.padded_to_pow2(0.0);
        assert_eq!(p.n(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn padding_cannot_shrink() {
        sample().padded(1, 1, 0.0);
    }

    #[test]
    fn similarity_to_cost_flips_order() {
        let s = CostMatrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]).unwrap();
        let c = s.similarity_to_cost();
        // Largest similarity becomes smallest cost.
        assert_eq!(c.get(0, 0), 0.0);
        assert!(c.get(0, 1) > c.get(0, 0));
    }

    #[test]
    fn entries_iterates_row_major() {
        let m = sample();
        let v: Vec<_> = m.entries().collect();
        assert_eq!(v[0], (0, 0, 1.0));
        assert_eq!(v[3], (1, 0, 4.0));
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = CostMatrix::from_fn(3, 3, |i, j| (i * 10 + j) as f64).unwrap();
        assert_eq!(m.get(2, 1), 21.0);
    }

    #[test]
    fn implements_serde_traits() {
        fn assert_serde<T: Serialize + Deserialize>() {}
        assert_serde::<CostMatrix>();
    }
}

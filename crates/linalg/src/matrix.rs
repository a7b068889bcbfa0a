//! A dense, row-major f64 matrix.

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a generator function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `true` if the matrix equals its transpose within `eps`.
    pub fn is_symmetric(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > eps {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `self * x` for a vector `x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x.iter()).map(|(a, b)| a * b).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let i = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64);
        let b = DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j + 1) as f64);
        let c = a.matmul(&b);
        // [[1,2,3],[4,5,6]] * [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
        assert_eq!(c.get(0, 0), 22.0);
        assert_eq!(c.get(0, 1), 28.0);
        assert_eq!(c.get(1, 0), 49.0);
        assert_eq!(c.get(1, 1), 64.0);
    }

    #[test]
    fn transpose_and_symmetry() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i + j) as f64);
        assert!(a.is_symmetric(0.0));
        let b = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert!(!b.is_symmetric(1e-12));
        assert_eq!(b.transposed().get(0, 2), b.get(2, 0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| ((i * 7 + j * 5) % 4) as f64);
        let x = vec![1.0, -2.0, 0.5];
        let y = a.matvec(&x);
        for (i, yi) in y.iter().enumerate() {
            let expect: f64 = (0..3).map(|j| a.get(i, j) * x[j]).sum();
            assert!((yi - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn frobenius_norm() {
        let a = DenseMatrix::from_fn(2, 2, |i, j| if i == j { 3.0 } else { 4.0 });
        assert!((a.frobenius() - 50.0f64.sqrt()).abs() < 1e-12);
    }
}

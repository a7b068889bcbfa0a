//! Symmetric eigendecomposition: Householder tridiagonalisation followed
//! by implicit QL with eigenvector accumulation (the EISPACK
//! `tred2`/`tql2` pair, as in JAMA).

use crate::DenseMatrix;

/// QL iterations allowed per eigenvalue before giving up. Convergence is
/// cubic, so an eigenvalue typically takes one to three; the cap only
/// guards against input that can never converge.
const MAX_QL_ITERATIONS: usize = 60;

/// Why [`symmetric_eigen`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigenError {
    /// The matrix is not square.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// The first NaN or infinite entry, in row-major order.
    NonFinite {
        /// Its row.
        row: usize,
        /// Its column.
        col: usize,
    },
    /// Some `a[i][j]` and `a[j][i]` differ by more than `1e-9`.
    Asymmetric,
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotSquare { rows, cols } => {
                write!(
                    f,
                    "eigendecomposition needs a square matrix, got {rows}x{cols}"
                )
            }
            Self::NonFinite { row, col } => {
                write!(
                    f,
                    "eigendecomposition needs finite entries, ({row}, {col}) is not"
                )
            }
            Self::Asymmetric => write!(f, "eigendecomposition needs a symmetric matrix"),
        }
    }
}

impl std::error::Error for EigenError {}

/// The result of [`symmetric_eigen`]: `A = V * diag(λ) * Vᵀ` with
/// orthonormal columns in `V`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Eigenvectors as **columns** of `vectors` (column `k` pairs with
    /// `values[k]`).
    pub vectors: DenseMatrix,
}

impl EigenDecomposition {
    /// Reconstructs `V * diag(λ) * Vᵀ` (for verification).
    pub fn reconstruct(&self) -> DenseMatrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        for i in 0..n {
            for k in 0..n {
                scaled.set(i, k, self.vectors.get(i, k) * self.values[k]);
            }
        }
        scaled.matmul(&self.vectors.transposed())
    }

    /// Maximum deviation of `VᵀV` from the identity.
    pub fn orthonormality_error(&self) -> f64 {
        let vtv = self.vectors.transposed().matmul(&self.vectors);
        let n = self.values.len();
        let mut worst: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let target = f64::from(i == j);
                worst = worst.max((vtv.get(i, j) - target).abs());
            }
        }
        worst
    }
}

/// Full eigendecomposition of a symmetric matrix.
///
/// Householder reflections reduce `a` to tridiagonal form, then implicit
/// QL iterations with Wilkinson-style shifts diagonalise it, accumulating
/// every transformation into the eigenvector matrix. The work is `O(n³)`
/// with a small constant and needs no tolerance or sweep count: QL runs
/// until each subdiagonal entry is negligible at machine precision.
///
/// The eigenvector matrix is kept **transposed** while working (row `k`
/// holds eigenvector `k`), so each Householder update and each Givens
/// rotation streams over contiguous rows. It is transposed once at the
/// end.
///
/// # Errors
/// [`EigenError`] if `a` is not square, has a non-finite entry, or is
/// not symmetric to `1e-9`. The empty matrix decomposes to nothing.
pub fn symmetric_eigen(a: &DenseMatrix) -> Result<EigenDecomposition, EigenError> {
    let (rows, cols) = (a.rows(), a.cols());
    if rows != cols {
        return Err(EigenError::NotSquare { rows, cols });
    }
    if let Some(p) = a.as_slice().iter().position(|x| !x.is_finite()) {
        return Err(EigenError::NonFinite {
            row: p / cols,
            col: p % cols,
        });
    }
    if !a.is_symmetric(1e-9) {
        return Err(EigenError::Asymmetric);
    }
    let n = rows;
    if n == 0 {
        return Ok(EigenDecomposition {
            values: Vec::new(),
            vectors: DenseMatrix::zeros(0, 0),
        });
    }
    // `w[k]` is row `k` of Vᵀ. `a` is symmetric, so Vᵀ starts as `a`.
    let mut w: Vec<Vec<f64>> = (0..n).map(|i| a.row(i).to_vec()).collect();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut w, &mut d, &mut e);
    diagonalize(&mut w, &mut d, &mut e);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[x].total_cmp(&d[y]));
    let values = order.iter().map(|&k| d[k]).collect();
    let vectors = DenseMatrix::from_fn(n, n, |i, k| w[order[k]][i]);
    Ok(EigenDecomposition { values, vectors })
}

/// `tred2`: Householder reduction of the symmetric matrix held in `w` to
/// tridiagonal form. On return `d` is the diagonal, `e[1..]` the
/// subdiagonal (`e[0] = 0`), and `w` the transposed orthogonal transform.
fn tridiagonalize(w: &mut [Vec<f64>], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = w[j][n - 1];
    }
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j][i - 1];
                w[j][i] = 0.0;
                w[i][j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // Apply the similarity transformation to the remaining
            // columns (row `j` of `w` holds column `j` of the active
            // lower triangle).
            for j in 0..i {
                let f = d[j];
                w[i][j] = f;
                let row = &w[j];
                let mut g = e[j] + row[j] * f;
                for k in (j + 1)..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the transformations.
    for i in 0..n - 1 {
        w[i][n - 1] = w[i][i];
        w[i][i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = w.split_at_mut(i + 1);
        let householder = &mut tail[0];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = householder[k] / h;
            }
            for row in head.iter_mut() {
                let g: f64 = householder[..=i]
                    .iter()
                    .zip(&row[..=i])
                    .map(|(u, x)| u * x)
                    .sum();
                for (x, dk) in row[..=i].iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        householder[..=i].fill(0.0);
    }
    for j in 0..n {
        d[j] = w[j][n - 1];
        w[j][n - 1] = 0.0;
    }
    w[n - 1][n - 1] = 1.0;
    e[0] = 0.0;
}

/// `tql2`: implicit QL on the tridiagonal `(d, e)` left by
/// [`tridiagonalize`], rotating the rows of `w` along. On return `d`
/// holds the (unsorted) eigenvalues and row `k` of `w` the eigenvector
/// of `d[k]`.
///
/// # Panics
/// Panics if an eigenvalue needs more than [`MAX_QL_ITERATIONS`].
fn diagonalize(w: &mut [Vec<f64>], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut shift = 0.0;
    let mut tst1: f64 = 0.0;
    for l in 0..n {
        // Find a negligible subdiagonal element (`e[n - 1]` is zero, so
        // the search always stops).
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let m = (l..n)
            .find(|&m| e[m].abs() <= f64::EPSILON * tst1)
            .unwrap_or(n - 1);

        let mut iterations = 0;
        while m > l && e[l].abs() > f64::EPSILON * tst1 {
            iterations += 1;
            assert!(
                iterations <= MAX_QL_ITERATIONS,
                "QL iteration did not converge for eigenvalue {l}"
            );
            // Implicit shift.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            shift += h;

            // Implicit QL transformation.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // Rotate eigenvectors `i` and `i + 1`.
                let (lo, hi) = w.split_at_mut(i + 1);
                for (x, y) in lo[i].iter_mut().zip(hi[0].iter_mut()) {
                    let h = *y;
                    *y = s * *x + c * h;
                    *x = c * *x - s * h;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decompose(a: &DenseMatrix) -> EigenDecomposition {
        let e = symmetric_eigen(a).unwrap();
        // Reconstruction and orthonormality are the decomposition's own
        // proof of correctness.
        let r = e.reconstruct();
        let mut worst: f64 = 0.0;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                worst = worst.max((r.get(i, j) - a.get(i, j)).abs());
            }
        }
        assert!(
            worst <= 1e-8 * a.frobenius(),
            "reconstruction error {worst}"
        );
        assert!(e.orthonormality_error() < 1e-8);
        assert!(
            e.values.windows(2).all(|p| p[0] <= p[1]),
            "eigenvalues not ascending: {:?}",
            e.values
        );
        e
    }

    fn assert_values(e: &EigenDecomposition, expect: &[f64], tol: f64) {
        assert_eq!(e.values.len(), expect.len());
        for (got, want) in e.values.iter().zip(expect) {
            assert!((got - want).abs() < tol, "{got} vs {want}");
        }
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = DenseMatrix::from_fn(4, 4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let e = decompose(&a);
        assert_eq!(e.values, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn diagonal_with_repeated_entries() {
        let diag = [3.0, -1.0, 3.0, 0.5, -1.0, 3.0];
        let a = DenseMatrix::from_fn(6, 6, |i, j| if i == j { diag[i] } else { 0.0 });
        let e = decompose(&a);
        assert_values(&e, &[-1.0, -1.0, 0.5, 3.0, 3.0, 3.0], 1e-9);
    }

    #[test]
    fn one_by_one() {
        let a = DenseMatrix::from_fn(1, 1, |_, _| -2.5);
        let e = decompose(&a);
        assert_eq!(e.values, vec![-2.5]);
        assert_eq!(e.vectors.get(0, 0).abs(), 1.0);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = DenseMatrix::from_fn(2, 2, |i, j| if i == j { 2.0 } else { 1.0 });
        let e = decompose(&a);
        assert_values(&e, &[1.0, 3.0], 1e-10);
    }

    #[test]
    fn zero_matrix() {
        let e = decompose(&DenseMatrix::zeros(5, 5));
        assert_eq!(e.values, vec![0.0; 5]);
    }

    #[test]
    fn path_graph_spectrum() {
        // Adjacency of the path P4: eigenvalues 2cos(kπ/5), k=1..4.
        let n = 4;
        let a = DenseMatrix::from_fn(n, n, |i, j| f64::from(i.abs_diff(j) == 1));
        let e = decompose(&a);
        let mut expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 * (std::f64::consts::PI * k as f64 / (n + 1) as f64).cos())
            .collect();
        expect.sort_by(f64::total_cmp);
        assert_values(&e, &expect, 1e-9);
    }

    #[test]
    fn complete_graph_spectrum() {
        // K8: eigenvalue 7 once and -1 with multiplicity 7.
        let a = DenseMatrix::from_fn(8, 8, |i, j| f64::from(i != j));
        let e = decompose(&a);
        let mut expect = vec![-1.0; 7];
        expect.push(7.0);
        assert_values(&e, &expect, 1e-9);
    }

    #[test]
    fn star_graph_spectrum() {
        // Star with one hub and 9 leaves: ±3 once each, 0 eight times.
        let n = 10;
        let a = DenseMatrix::from_fn(n, n, |i, j| f64::from((i == 0) != (j == 0)));
        let e = decompose(&a);
        let mut expect = vec![-3.0];
        expect.extend([0.0; 8]);
        expect.push(3.0);
        assert_values(&e, &expect, 1e-9);
    }

    fn random_symmetric(n: usize, mut s: u64) -> DenseMatrix {
        let mut raw = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let x = (s % 2000) as f64 / 100.0 - 10.0;
                raw.set(i, j, x);
                raw.set(j, i, x);
            }
        }
        raw
    }

    #[test]
    fn random_symmetric_decomposes() {
        for (n, seed) in [(24, 0xDEADBEEF), (60, 0x5EED_0060)] {
            let raw = random_symmetric(n, seed);
            let e = decompose(&raw);
            // Trace equals the eigenvalue sum.
            let trace: f64 = (0..n).map(|i| raw.get(i, i)).sum();
            let sum: f64 = e.values.iter().sum();
            assert!((trace - sum).abs() < 1e-7, "n={n}");
        }
    }

    #[test]
    fn asymmetric_rejected() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(symmetric_eigen(&a).unwrap_err(), EigenError::Asymmetric);
    }

    #[test]
    fn nan_rejected() {
        let mut a = DenseMatrix::identity(3);
        a.set(1, 1, f64::NAN);
        assert_eq!(
            symmetric_eigen(&a).unwrap_err(),
            EigenError::NonFinite { row: 1, col: 1 }
        );
    }

    #[test]
    fn infinity_rejected() {
        let mut a = DenseMatrix::identity(3);
        a.set(0, 2, f64::INFINITY);
        a.set(2, 0, f64::INFINITY);
        assert_eq!(
            symmetric_eigen(&a).unwrap_err(),
            EigenError::NonFinite { row: 0, col: 2 }
        );
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        let err = symmetric_eigen(&a).unwrap_err();
        assert_eq!(err, EigenError::NotSquare { rows: 2, cols: 3 });
        assert!(err.to_string().contains("2x3"), "{err}");
    }

    #[test]
    fn empty_matrix_decomposes_to_nothing() {
        let e = symmetric_eigen(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
        assert_eq!(e.vectors.rows(), 0);
    }
}

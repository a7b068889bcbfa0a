//! Graph alignment via GRAMPA + linear assignment (§V-C of the paper).
//!
//! Graph alignment derives a pairwise node-similarity matrix from two
//! graphs' adjacency matrices; the Hungarian algorithm then extracts the
//! maximum-similarity one-to-one correspondence. The paper uses GRAMPA
//! (Fan, Mao, Wu, Xu: "Spectral graph matching and regularized quadratic
//! relaxations I", 2019) with its default regularizer η = 0.2 to build
//! the similarity matrix, and evaluates by aligning a graph against a
//! noisy copy of itself.
//!
//! GRAMPA's similarity is
//!
//! ```text
//! X = Σ_{i,j} w(λ_i, μ_j) · u_i u_iᵀ J v_j v_jᵀ,
//! w(λ, μ) = 1 / ((λ − μ)² + η²),
//! ```
//!
//! where `(λ_i, u_i)` / `(μ_j, v_j)` are the eigenpairs of the two
//! adjacency matrices and `J` the all-ones matrix. Using
//! `u u_iᵀ J v_j vᵀ = (u_iᵀ1)(v_jᵀ1) · u_i v_jᵀ`, this is computed as
//! `X = U · M · Vᵀ` with `M_ij = w(λ_i, μ_j) (u_iᵀ1)(v_jᵀ1)` — two dense
//! products after the eigendecompositions.

#![warn(missing_docs)]
#![warn(clippy::all)]

use graphs::Graph;
use linalg::{symmetric_eigen, DenseMatrix};
use lsap::{Assignment, CostMatrix, LsapError, LsapSolver, SolveReport};

/// GRAMPA's default regularizer (the paper sets η = 0.2).
pub const DEFAULT_ETA: f64 = 0.2;

/// Computes the GRAMPA similarity matrix between two graphs of equal
/// size. Entry `(i, j)` scores matching node `i` of `a` to node `j` of
/// `b` (higher = more similar).
///
/// # Panics
/// Panics if the graphs have different node counts or `eta <= 0`.
pub fn grampa_similarity(a: &Graph, b: &Graph, eta: f64) -> CostMatrix {
    assert_eq!(a.n(), b.n(), "GRAMPA aligns graphs of equal size");
    assert!(eta > 0.0, "eta must be positive");
    let n = a.n();

    let (da, db) = (a.adjacency_dense(), b.adjacency_dense());
    let adj_a = DenseMatrix::from_fn(n, n, |i, j| da[i * n + j]);
    let adj_b = DenseMatrix::from_fn(n, n, |i, j| db[i * n + j]);
    let ea = symmetric_eigen(&adj_a);
    let eb = symmetric_eigen(&adj_b);

    // a_i = u_iᵀ 1 and b_j = v_jᵀ 1 (column sums of the eigenvector
    // matrices).
    let ones = vec![1.0; n];
    let asum = ea.vectors.transposed().matvec(&ones);
    let bsum = eb.vectors.transposed().matvec(&ones);

    let m = DenseMatrix::from_fn(n, n, |i, j| {
        let d = ea.values[i] - eb.values[j];
        asum[i] * bsum[j] / (d * d + eta * eta)
    });
    let x = ea.vectors.matmul(&m).matmul(&eb.vectors.transposed());

    CostMatrix::from_vec(n, n, x.as_slice().to_vec()).expect("similarity is finite")
}

/// Result of one alignment run.
#[derive(Debug, Clone)]
pub struct AlignmentOutcome {
    /// The node correspondence (rows of `a` to columns of `b`).
    pub matching: Assignment,
    /// The LSAP solver's report (runtime accounting, certificate).
    pub report: SolveReport,
}

/// Aligns `a` to `b`: GRAMPA similarity → cost conversion → LSAP solve
/// with the provided solver.
///
/// # Errors
/// Propagates solver errors (e.g. FastHA's power-of-two requirement —
/// pad the similarity first via [`pad_for_pow2_solver`]).
pub fn align_with(
    a: &Graph,
    b: &Graph,
    eta: f64,
    solver: &mut dyn LsapSolver,
) -> Result<AlignmentOutcome, LsapError> {
    let sim = grampa_similarity(a, b, eta);
    let cost = sim.similarity_to_cost();
    let report = solver.solve(&cost)?;
    Ok(AlignmentOutcome {
        matching: report.assignment.clone(),
        report,
    })
}

/// Pads a similarity-derived cost matrix with zero rows/columns to the
/// next power-of-two size, as the paper does for FastHA (§V-C), and
/// returns the padded matrix plus the original size for truncating the
/// solution afterwards.
pub fn pad_for_pow2_solver(cost: &CostMatrix) -> (CostMatrix, usize) {
    cost.padded_to_pow2(0.0)
}

/// Fraction of nodes mapped to their ground-truth counterpart
/// ("node correctness" in the alignment literature).
///
/// `truth[i]` is the correct column for row `i`.
pub fn node_correctness(matching: &Assignment, truth: &[usize]) -> f64 {
    let n = truth.len();
    if n == 0 {
        return 1.0;
    }
    let correct = truth
        .iter()
        .enumerate()
        .filter(|&(i, &t)| matching.col_of(i) == Some(t))
        .count();
    correct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_hungarian::JonkerVolgenant;
    use graphs::erdos_renyi_gnm;

    #[test]
    fn identical_graphs_align_to_identity_like_quality() {
        // Aligning a graph to itself: GRAMPA should recover most nodes
        // (spectrally distinguishable ones).
        let g = erdos_renyi_gnm(24, 80, 11);
        let mut solver = JonkerVolgenant::new();
        let out = align_with(&g, &g, DEFAULT_ETA, &mut solver).unwrap();
        let truth: Vec<usize> = (0..g.n()).collect();
        let nc = node_correctness(&out.matching, &truth);
        assert!(nc >= 0.8, "self-alignment correctness {nc}");
    }

    #[test]
    fn permuted_graph_is_recovered() {
        let g = erdos_renyi_gnm(20, 70, 3);
        // Permute node labels; ground truth maps node i of g to perm[i].
        let perm: Vec<usize> = (0..20).map(|i| (i * 7 + 3) % 20).collect();
        let h = g.permuted(&perm);
        let mut solver = JonkerVolgenant::new();
        let out = align_with(&g, &h, DEFAULT_ETA, &mut solver).unwrap();
        let nc = node_correctness(&out.matching, &perm);
        assert!(nc >= 0.8, "permutation recovery {nc}");
    }

    #[test]
    fn similarity_is_finite_and_shaped() {
        let a = erdos_renyi_gnm(12, 30, 1);
        let b = erdos_renyi_gnm(12, 30, 2);
        let s = grampa_similarity(&a, &b, DEFAULT_ETA);
        assert_eq!(s.rows(), 12);
        assert_eq!(s.cols(), 12);
        let (lo, hi) = s.min_max();
        assert!(lo.is_finite() && hi.is_finite());
    }

    #[test]
    fn node_correctness_counts_matches() {
        let a = Assignment::from_permutation(vec![1, 0, 2, 3]);
        assert_eq!(node_correctness(&a, &[1, 0, 3, 2]), 0.5);
        assert_eq!(node_correctness(&a, &[1, 0, 2, 3]), 1.0);
    }

    #[test]
    fn padding_helper_rounds_up() {
        let c = CostMatrix::filled(12, 1.0).unwrap();
        let (p, orig) = pad_for_pow2_solver(&c);
        assert_eq!(p.n(), 16);
        assert_eq!(orig, 12);
    }

    /// The JV assignment on `bench table3`'s HighSchool 90% cell
    /// (dataset seed 1, noise seed 101), recorded from the cyclic Jacobi
    /// eigensolver this crate used before Householder + QL. GRAMPA's
    /// similarity is independent of eigenvector signs and of the basis
    /// chosen inside repeated eigenspaces, so a change of eigensolver
    /// must reproduce it exactly.
    #[rustfmt::skip]
    const HIGHSCHOOL_90_ASSIGNMENT: [usize; 327] = [
        209, 300, 184, 3, 127, 5, 30, 109, 200, 112, 10, 25, 285, 13, 226, 108,
        114, 290, 313, 118, 20, 21, 22, 38, 95, 75, 219, 27, 113, 234, 172, 19,
        48, 325, 34, 35, 36, 266, 102, 199, 148, 41, 130, 101, 211, 318, 154, 236,
        228, 98, 157, 92, 137, 53, 317, 140, 296, 57, 89, 314, 191, 324, 225, 241,
        178, 289, 66, 84, 73, 175, 7, 270, 72, 87, 74, 31, 76, 70, 39, 278,
        80, 152, 277, 263, 107, 54, 123, 195, 305, 269, 215, 62, 284, 138, 43, 194,
        133, 169, 44, 93, 37, 9, 125, 231, 288, 144, 136, 110, 208, 166, 192, 281,
        159, 271, 323, 115, 207, 117, 272, 119, 141, 68, 239, 242, 251, 253, 190, 132,
        131, 134, 86, 28, 268, 2, 162, 82, 276, 153, 293, 63, 262, 310, 142, 250,
        321, 182, 12, 4, 33, 224, 145, 61, 189, 1, 181, 155, 156, 45, 221, 230,
        160, 161, 254, 163, 164, 165, 77, 167, 128, 247, 301, 197, 16, 173, 50, 149,
        55, 233, 217, 179, 180, 6, 106, 222, 249, 319, 47, 295, 244, 26, 203, 14,
        17, 201, 151, 8, 252, 135, 46, 104, 78, 100, 257, 71, 204, 212, 308, 97,
        229, 322, 210, 122, 103, 120, 51, 206, 24, 170, 275, 94, 158, 174, 218, 214,
        91, 326, 99, 52, 291, 42, 320, 79, 261, 143, 139, 60, 150, 237, 85, 188,
        147, 248, 168, 213, 56, 245, 312, 146, 40, 176, 185, 23, 32, 307, 260, 255,
        196, 202, 256, 259, 111, 124, 282, 18, 264, 90, 306, 83, 297, 67, 15, 186,
        227, 273, 274, 283, 116, 58, 96, 279, 280, 11, 294, 243, 304, 258, 286, 287,
        171, 246, 69, 235, 240, 0, 223, 29, 220, 81, 298, 299, 126, 198, 302, 316,
        292, 183, 129, 311, 193, 309, 105, 238, 177, 205, 59, 315, 64, 232, 265, 216,
        121, 88, 49, 187, 267, 65, 303,
    ];

    #[test]
    fn highschool_90_assignment_is_pinned() {
        let g = graphs::realworld::by_name("highschool", 1).unwrap();
        let noisy = graphs::keep_edge_fraction(&g, 0.90, 101);
        let cost = grampa_similarity(&g, &noisy, DEFAULT_ETA).similarity_to_cost();
        let report = JonkerVolgenant::new().solve(&cost).unwrap();
        let cols: Vec<usize> = (0..g.n())
            .map(|i| report.assignment.col_of(i).unwrap())
            .collect();
        assert_eq!(cols, HIGHSCHOOL_90_ASSIGNMENT);
    }

    #[test]
    fn similarity_is_permutation_equivariant() {
        // Relabelling b's nodes by p relabels the similarity's columns.
        let a = erdos_renyi_gnm(40, 150, 5);
        let b = erdos_renyi_gnm(40, 150, 6);
        let p: Vec<usize> = (0..40).map(|j| (j * 17 + 9) % 40).collect();
        let x = grampa_similarity(&a, &b, DEFAULT_ETA);
        let xp = grampa_similarity(&a, &b.permuted(&p), DEFAULT_ETA);
        let (lo, hi) = x.min_max();
        let tol = 1e-9 * lo.abs().max(hi.abs());
        for (i, j, v) in x.entries() {
            let got = xp.get(i, p[j]);
            assert!(
                (got - v).abs() <= tol,
                "X'[{i}][{}] = {got} vs X[{i}][{j}] = {v}",
                p[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn size_mismatch_rejected() {
        let a = erdos_renyi_gnm(5, 4, 0);
        let b = erdos_renyi_gnm(6, 4, 0);
        grampa_similarity(&a, &b, DEFAULT_ETA);
    }
}

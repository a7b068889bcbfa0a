//! Synthetic LSAP instances following the paper's experimental setup
//! (§V, "Dataset").
//!
//! The paper generates square cost matrices of size
//! n ∈ {512, 1024, 2048, 4096, 8192} with values in the range
//! `[1, k·n]` for k ∈ {1, 10, 100, 500, 1000, 5000, 10000}, drawn from a
//! Gaussian with mean `μ = k·n/2` and standard deviation `σ = k·n/6`
//! (uniform variants are also mentioned). Larger `k` spreads the values,
//! which makes zeros in the slack matrix sparser — the density effect
//! Table II and Figure 5 sweep.
//!
//! **Integer rounding.** Entries are rounded to whole numbers (and
//! clamped to `[1, k·n]`). The paper's device computes in `float`; with
//! integer inputs below 2^24 every subtraction in the algorithm is exact
//! in f32, so CPU (f64) and device (f32) engines solve *identical*
//! problems and their objectives can be compared exactly. For the
//! largest ranges (k·n ≥ 2^24) f32 rounds the inputs; the harnesses
//! compare with a relative tolerance there.

#![warn(missing_docs)]
#![warn(clippy::all)]

use lsap::sparse::SparseCost;
use lsap::CostMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The k values of Table II / Figure 5 (value range `[1, k·n]`).
pub const PAPER_KS: [u64; 7] = [1, 10, 100, 500, 1000, 5000, 10000];

/// The matrix sizes of Table II / Figure 5.
pub const PAPER_SIZES: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// The subset of k values plotted in Figure 5 (10n, 500n, 5000n).
pub const FIG5_KS: [u64; 3] = [10, 500, 5000];

/// Draws one standard normal via Box–Muller (no extra dependency).
fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Gaussian cost matrix per the paper: values in `[1, k·n]`,
/// `μ = k·n/2`, `σ = k·n/6`, rounded to integers.
pub fn gaussian_cost_matrix(n: usize, k: u64, seed: u64) -> CostMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let range = (k as f64) * (n as f64);
    let mu = range / 2.0;
    let sigma = range / 6.0;
    CostMatrix::from_fn(n, n, |_, _| {
        let x = mu + sigma * standard_normal(&mut rng);
        x.round().clamp(1.0, range.max(1.0))
    })
    .expect("n > 0")
}

/// Uniform cost matrix over `[1, k·n]`, rounded to integers (the paper
/// reports "similar speedup with uniformly distributed data").
pub fn uniform_cost_matrix(n: usize, k: u64, seed: u64) -> CostMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let range = ((k as f64) * (n as f64)).max(1.0);
    CostMatrix::from_fn(n, n, |_, _| rng.gen_range(1.0..=range).round()).expect("n > 0")
}

/// `true` when all entries of instances with this `(n, k)` are exactly
/// representable in f32 (integer values below 2^24).
pub fn f32_exact(n: usize, k: u64) -> bool {
    k.saturating_mul(n as u64) < (1 << 24)
}

/// Prunes a dense instance to its `cand` cheapest columns per row — the
/// GRAMPA-style candidate screening used by the sparse k-candidate
/// engine. Ties break toward the lower column id, so the prune is
/// deterministic; repairing a prune that cut an optimal edge is the job
/// of [`lsap::solve_pruned_with_repair`].
pub fn prune_topk(m: &CostMatrix, cand: usize) -> SparseCost {
    SparseCost::from_dense_topk(m, cand).expect("dense instance is square and nonempty")
}

/// A diagonally dominant integer instance whose optimum follows a known
/// permutation: `c[i][p(i)] = 1` with `p(i) = (i + shift) mod n`, every
/// other entry in `[10, 16]`. Step 2 of Munkres matches almost every row
/// immediately, so even n = 4096 solves in a handful of device steps —
/// the regime the large-n scaling tests and benches need to stay
/// tractable under simulation. `conflicts` rows (starting at row 0) are
/// additionally given a second `1` at `p(i+1)`, creating contention that
/// forces a few augmenting searches without changing the optimum's cost.
///
/// All entries are small integers, so f32 device arithmetic is exact and
/// certificates verify at machine precision.
pub fn diag_dominant(n: usize, shift: usize, conflicts: usize) -> CostMatrix {
    CostMatrix::from_fn(n, n, |i, j| {
        if j == (i + shift) % n || (i < conflicts && j == (i + 1 + shift) % n) {
            1.0
        } else {
            10.0 + ((i * 31 + j * 7) % 7) as f64
        }
    })
    .expect("n > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_respects_range_and_stats() {
        let n = 256;
        let k = 10;
        let m = gaussian_cost_matrix(n, k, 42);
        let (lo, hi) = m.min_max();
        let range = (k * n as u64) as f64;
        assert!(lo >= 1.0 && hi <= range);
        // Mean within 5% of kn/2, std within 20% of kn/6 (clipping
        // shaves the tails slightly).
        let vals = m.as_slice();
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - range / 2.0).abs() < 0.05 * range, "mean {mean}");
        let var: f64 =
            vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / vals.len() as f64;
        let sd = var.sqrt();
        assert!(
            (sd - range / 6.0).abs() < 0.2 * (range / 6.0),
            "sd {sd} vs {}",
            range / 6.0
        );
    }

    #[test]
    fn entries_are_integers() {
        let m = gaussian_cost_matrix(64, 100, 7);
        assert!(m.as_slice().iter().all(|x| x.fract() == 0.0));
        let m = uniform_cost_matrix(64, 100, 7);
        assert!(m.as_slice().iter().all(|x| x.fract() == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            gaussian_cost_matrix(32, 10, 5),
            gaussian_cost_matrix(32, 10, 5)
        );
        assert_ne!(
            gaussian_cost_matrix(32, 10, 5),
            gaussian_cost_matrix(32, 10, 6)
        );
    }

    #[test]
    fn uniform_spans_range() {
        let m = uniform_cost_matrix(128, 100, 3);
        let (lo, hi) = m.min_max();
        let range = 100.0 * 128.0;
        assert!(lo < 0.1 * range);
        assert!(hi > 0.9 * range);
    }

    #[test]
    fn f32_exactness_boundary() {
        assert!(f32_exact(512, 10000)); // 5.12e6 < 2^24
        assert!(!f32_exact(8192, 10000)); // 8.19e7 > 2^24
        assert!(f32_exact(8192, 1000)); // 8.19e6 < 2^24
    }

    #[test]
    fn prune_topk_keeps_cheapest_candidates() {
        let m = uniform_cost_matrix(32, 10, 11);
        let sc = prune_topk(&m, 4);
        assert_eq!(sc.n(), 32);
        assert_eq!(sc.k(), 4);
        for i in 0..32 {
            // Every kept candidate is no more expensive than every
            // dropped column.
            let kept_max = sc
                .row_costs(i)
                .iter()
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            let dropped_min = (0..32)
                .filter(|&j| !sc.row_cols(i).contains(&(j as u32)))
                .map(|j| m.get(i, j))
                .fold(f64::INFINITY, f64::min);
            assert!(kept_max <= dropped_min);
        }
    }

    #[test]
    fn diag_dominant_has_known_optimum() {
        let n = 64;
        let m = diag_dominant(n, 3, 4);
        for i in 0..n {
            assert_eq!(m.get(i, (i + 3) % n), 1.0);
        }
        // Conflict rows carry a second 1 at the next shifted column.
        assert_eq!(m.get(0, 4), 1.0);
        assert_eq!(
            m.get(5, (5 + 4) % n),
            10.0 + ((5 * 31 + ((5 + 4) % n) * 7) % 7) as f64
        );
        let (lo, hi) = m.min_max();
        assert_eq!(lo, 1.0);
        assert!(hi <= 16.0);
        // The shifted identity costs exactly n, and nothing beats it:
        // any row off its 1-entries pays at least 10.
        let perm: Vec<usize> = (0..n).map(|i| (i + 3) % n).collect();
        let cost: f64 = perm.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
        assert_eq!(cost, n as f64);
    }

    #[test]
    fn k1_small_range_has_many_ties() {
        // k = 1 on n = 128: values in [1, 128] — dense ties, the regime
        // where Table II's first column lives.
        let m = gaussian_cost_matrix(128, 1, 9);
        let (lo, hi) = m.min_max();
        assert!(hi - lo <= 127.0);
    }
}

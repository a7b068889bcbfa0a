//! Engine runners shared by the harness binaries.

use cpu_hungarian::Munkres;
use fastha::FastHa;
use hunipu::HunIpu;
use lsap::{CostMatrix, LsapSolver, SolveReport};

/// Runs HunIPU on the full Mk2 model and returns the report.
///
/// # Panics
/// Panics on solver failure (harness instances are well-formed).
pub fn run_hunipu(matrix: &CostMatrix) -> SolveReport {
    HunIpu::new().solve(matrix).expect("hunipu solve failed")
}

/// Runs FastHA on the A100 model (matrix must be a power-of-two size).
///
/// # Panics
/// Panics on solver failure.
pub fn run_fastha(matrix: &CostMatrix) -> SolveReport {
    FastHa::new().solve(matrix).expect("fastha solve failed")
}

/// Runs the CPU Munkres baseline natively, returning the report (with
/// its modeled EPYC runtime).
///
/// # Panics
/// Panics on solver failure.
pub fn run_cpu(matrix: &CostMatrix) -> SolveReport {
    Munkres::new().solve(matrix).expect("munkres solve failed")
}

/// Power-law extrapolation of the CPU baseline's modeled runtime.
///
/// The Hungarian algorithm's work on random instances grows as a smooth
/// power of n for fixed k. The Table II harness runs the CPU natively up
/// to a cutoff and extends the curve with the exponent fitted from the
/// measured sizes — every extrapolated cell is marked in the output.
#[derive(Debug, Default)]
pub struct CpuExtrapolator {
    /// Measured `(n, modeled_seconds)` points, in insertion order.
    points: Vec<(usize, f64)>,
}

impl CpuExtrapolator {
    /// Creates an empty extrapolator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a measured point.
    pub fn record(&mut self, n: usize, modeled_seconds: f64) {
        self.points.push((n, modeled_seconds));
    }

    /// Predicts the modeled seconds at `n`.
    ///
    /// With ≥ 2 points, fits `t = c * n^p` through the last two measured
    /// sizes (log–log secant); with one point, assumes cubic growth;
    /// with none, returns `None`.
    pub fn predict(&self, n: usize) -> Option<f64> {
        match self.points.len() {
            0 => None,
            1 => {
                let (n0, t0) = self.points[0];
                Some(t0 * ((n as f64) / (n0 as f64)).powi(3))
            }
            _ => {
                let (n1, t1) = self.points[self.points.len() - 2];
                let (n2, t2) = self.points[self.points.len() - 1];
                let p = ((t2 / t1).ln() / ((n2 as f64) / (n1 as f64)).ln()).clamp(1.0, 4.0);
                Some(t2 * ((n as f64) / (n2 as f64)).powf(p))
            }
        }
    }
}

/// Formats seconds for human-readable tables (µs/ms/s).
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolator_fits_power_law() {
        let mut e = CpuExtrapolator::new();
        // Perfect cubic data.
        e.record(100, 1.0);
        e.record(200, 8.0);
        let p = e.predict(400).unwrap();
        assert!((p - 64.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn single_point_assumes_cubic() {
        let mut e = CpuExtrapolator::new();
        e.record(100, 2.0);
        assert!((e.predict(200).unwrap() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_predicts_none() {
        assert!(CpuExtrapolator::new().predict(10).is_none());
    }

    #[test]
    fn exponent_is_clamped_against_noise() {
        let mut e = CpuExtrapolator::new();
        e.record(100, 1.0);
        e.record(200, 1.0); // flat (noise) -> clamp to exponent 1
        assert!((e.predict(400).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn the_fit_runs_through_the_last_two_points() {
        let mut e = CpuExtrapolator::new();
        e.record(50, 7.0); // off the law; superseded by the later points
        e.record(100, 1.0);
        e.record(200, 4.0);
        assert!((e.predict(400).unwrap() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(5e-7), "0.5µs");
        assert_eq!(fmt_time(2.5e-3), "2.50ms");
        assert_eq!(fmt_time(3.0), "3.00s");
    }

    #[test]
    fn runners_solve_small_instances_consistently() {
        let m = CostMatrix::from_fn(8, 8, |i, j| ((i * 5 + j * 3) % 13) as f64).unwrap();
        let h = run_hunipu(&m);
        let f = run_fastha(&m);
        let c = run_cpu(&m);
        assert_eq!(h.objective, c.objective);
        assert_eq!(f.objective, c.objective);
    }
}

//! Order statistics, the compute-cycle grouping by Hungarian step, and
//! the run fingerprint.

use ipu_sim::CycleStats;

/// Nearest-rank percentile of `values` for `q` in `(0, 1]`: the
/// `ceil(q·N)`-th smallest sample (1-based). `0.0` with no samples.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 0.5)
}

/// The tail order statistic: the `(N−10)`-th smallest of `N` samples, so
/// exactly ten samples lie beyond it. With ten samples or fewer no such
/// rank exists and the maximum stands in for it.
pub fn tail(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n <= 10 => sorted[n - 1],
        n => sorted[n - 11],
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The groups HunIPU compute cycles are attributed to: the paper's six
/// steps, compression, the tiled layout's setup, and everything else.
pub const STEP_GROUPS: [&str; 9] = [
    "step1", "compress", "step2", "step3", "step4", "step5", "step6", "tsetup", "other",
];

/// Which [`STEP_GROUPS`] entry a compute set belongs to, by its name up to
/// the first `.`. Priming zeros is part of the path search (step 4) and
/// `begin_search` opens the completion check (step 3).
pub fn step_group(compute_set: &str) -> usize {
    let prefix = compute_set.split('.').next().unwrap_or(compute_set);
    match prefix {
        "step1" => 0,
        "compress" => 1,
        "step2" => 2,
        "step3" | "begin_search" => 3,
        "step4" | "prime" => 4,
        "step5" => 5,
        "step6" => 6,
        "tsetup" => 7,
        _ => 8,
    }
}

/// Compute cycles of one run, summed per [`STEP_GROUPS`] entry.
pub fn step_cycles(stats: &CycleStats) -> [u64; 9] {
    let mut groups = [0u64; 9];
    for set in &stats.per_compute_set {
        groups[step_group(&set.name)] += set.compute_cycles;
    }
    groups
}

/// FNV-1a over everything a workload's answers and modeled clock depend
/// on. Two runs of the same code and seed must produce the same value.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add(&mut self, x: u64) {
        self.add_bytes(&x.to_le_bytes());
    }

    pub fn add_assignment(&mut self, a: &lsap::Assignment) {
        for row in 0..a.rows() {
            self.add(a.col_of(row).map_or(u64::MAX, |c| c as u64));
        }
    }

    pub fn add_cycles(&mut self, s: &CycleStats) {
        for x in [
            s.compute_cycles,
            s.sync_cycles,
            s.exchange_cycles,
            s.control_cycles,
            s.supersteps,
            s.exchanges,
            s.exchange_bytes,
            s.host_bytes,
        ] {
            self.add(x);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&ramp(11)), 1.0);
        assert_eq!(tail(&ramp(30)), 20.0);
        let v = ramp(300);
        let t = tail(&v);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
    }

    #[test]
    fn tail_of_ten_or_fewer_is_the_maximum() {
        assert_eq!(tail(&ramp(10)), 10.0);
        assert_eq!(tail(&ramp(4)), 4.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(median(&v), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.01), 1.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn step_groups_follow_the_name_prefix() {
        let group = |name| STEP_GROUPS[step_group(name)];
        assert_eq!(group("step1.rowmin.seg"), "step1");
        assert_eq!(group("compress"), "compress");
        assert_eq!(group("step4.status"), "step4");
        assert_eq!(group("prime"), "step4");
        assert_eq!(group("prime.partial"), "step4");
        assert_eq!(group("begin_search"), "step3");
        assert_eq!(group("step6.update"), "step6");
        assert_eq!(group("tsetup.umin[3]"), "tsetup");
        assert_eq!(group("stepper"), "other");
        assert_eq!(group(""), "other");
    }

    #[test]
    fn step_groups_sum_to_compute_cycles_of_a_real_solve() {
        use hunipu::HunIpu;
        let solver = HunIpu::with_config(ipu_sim::IpuConfig::tiny(8));
        let m = datasets::gaussian_cost_matrix(24, 10, 3);
        let (_, engine) = solver.solve_with_engine(&m).expect("solves");
        let groups = step_cycles(engine.stats());
        assert_eq!(groups.iter().sum::<u64>(), engine.stats().compute_cycles);
        assert!(groups[4] > 0, "the path search runs");
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_repeatable() {
        let fp = |xs: &[u64]| {
            let mut f = Fingerprint::default();
            xs.iter().for_each(|&x| f.add(x));
            f.hex()
        };
        assert_eq!(fp(&[1, 2]), fp(&[1, 2]));
        assert_ne!(fp(&[1, 2]), fp(&[2, 1]));
    }
}

//! The Table III alignment cells (§V-C), shared by the `table3` harness
//! and the Table III priming ablation so that both solve the same
//! matrices.

use align::{grampa_similarity, DEFAULT_ETA};
use graphs::{keep_edge_fraction, Graph};
use lsap::CostMatrix;

/// One Table III cell: the dataset graph against a noisy copy that
/// keeps `keep` of its edges, drawn with `noise_seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignCell {
    /// Row label: the kept-edge percentage, or the MultiMagna variant.
    pub label: String,
    /// Fraction of the dataset's edges the noisy copy keeps.
    pub keep: f64,
    /// Seed of the noisy copy.
    pub noise_seed: u64,
}

impl AlignCell {
    /// The cells of `dataset` for harness seed `seed`. MultiMagna is
    /// evaluated on five noisy variants in the paper; the proximity
    /// datasets sweep the kept-edge percentage.
    pub fn all(dataset: &str, seed: u64) -> Vec<AlignCell> {
        if dataset.eq_ignore_ascii_case("multimagna") {
            (1..=5)
                .map(|v| AlignCell {
                    label: format!("variant{v}"),
                    keep: 0.9,
                    noise_seed: seed + v,
                })
                .collect()
        } else {
            [0.80, 0.90, 0.95, 0.99]
                .iter()
                .map(|&keep| AlignCell {
                    label: format!("{:.0}%", keep * 100.0),
                    keep,
                    noise_seed: seed + 100,
                })
                .collect()
        }
    }

    /// The GRAMPA similarity (η = [`DEFAULT_ETA`]) of `g` against this
    /// cell's noisy copy; its `similarity_to_cost` is the matrix the
    /// cell solves.
    pub fn similarity(&self, g: &Graph) -> CostMatrix {
        let noisy = keep_edge_fraction(g, self.keep, self.noise_seed);
        grampa_similarity(g, &noisy, DEFAULT_ETA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proximity_datasets_sweep_the_kept_edges_with_one_noise_seed() {
        let cells = AlignCell::all("voles", 3);
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["80%", "90%", "95%", "99%"]);
        assert!(cells.iter().all(|c| c.noise_seed == 103));
        let variants = AlignCell::all("MultiMagna", 3);
        assert_eq!(variants.len(), 5);
        assert_eq!((variants[4].keep, variants[4].noise_seed), (0.9, 8));
    }
}

//! Ablation support: the design alternatives DESIGN.md calls out.
//!
//! - **A1 — 1D vs 2D decomposition (§IV-A).** The paper rejects the 2D
//!   decomposition at design time because every row operation would need
//!   cross-tile combination. We model the 2D exchange volume analytically
//!   ([`two_d_exchange_bytes_per_scan`]) and compare it against the 1D
//!   implementation's *measured* exchange volume.
//! - **A2 — matrix compression (§IV-B).** [`AblationConfig::compression`]
//!   switches the Step 4 row scan between the compressed zero lists and a
//!   direct slack-row scan (and skips the per-update re-compression).
//! - **A3 — column-segment size (§IV-E).** Swept via
//!   [`crate::HunIpu::with_col_seg`].
//! - **A4 — dynamic-slice strategy (§IV-G)**, retired: Step 4's arg-max
//!   key carries the selected column and Step 5 walks the collector's
//!   mirrors, so the program makes no read at a runtime index for a
//!   strategy to serve.
//! - **A5 — priming granularity (§IV-F).** [`AblationConfig::layered_priming`]
//!   switches Step 4 between priming every primable row in one pass
//!   (the default) and the paper's one prime per search iteration.

use serde::{Deserialize, Serialize};

/// Toggles for the design choices HunIPU is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationConfig {
    /// Use the compressed zero matrix in the Step 4/6 loop (§IV-B). When
    /// off, Step 4 scans the slack rows directly and Step 6 skips the
    /// re-compression (Step 2's one-time initial matching still uses
    /// compression in both settings, isolating the loop effect).
    pub compression: bool,
    /// Prime every row whose status is 0 in one Step 4 pass, building
    /// the alternating tree a layer at a time. When off, Step 4 primes
    /// the arg-max row only, as the paper does (§IV-F): one broadcast of
    /// the decoded row and zero column per prime (its star's column needs
    /// no uncover write, since Step 4 derives column covers).
    pub layered_priming: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            compression: true,
            layered_priming: true,
        }
    }
}

/// Modeled exchange bytes that ONE full-matrix row-status scan would
/// need under a 2D `g x g` decomposition (`g = floor(sqrt(tiles))`).
///
/// Under 2D, each of the `n` rows is split over `g` tiles; producing a
/// per-row flag requires a `g`-way combine per row (each participant
/// ships one 4-byte partial), plus redistributing the result — `≈ 8·n·…`
/// bytes per scan, against the 1D layout's **zero** exchange for the
/// same step (each row is tile-local; only the final scalar reduction
/// leaves the tile).
pub fn two_d_exchange_bytes_per_scan(n: usize, tiles: usize) -> u64 {
    let g = (tiles as f64).sqrt().floor() as u64;
    // Per row: (g - 1) partials gathered + 1 result scattered back to
    // (g - 1) tiles, 4 bytes each.
    2 * (g.saturating_sub(1)) * 4 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_design() {
        // Compression is the paper's choice; layered priming is not — A5
        // turns it off to recover the paper's one-prime Step 4.
        let c = AblationConfig::default();
        assert!(c.compression);
        assert!(c.layered_priming);
    }

    #[test]
    fn two_d_volume_grows_with_grid() {
        let small = two_d_exchange_bytes_per_scan(512, 64);
        let big = two_d_exchange_bytes_per_scan(512, 1472);
        assert!(big > small);
        // 1472 tiles -> g = 38: 2 * 37 * 4 * 512 bytes.
        assert_eq!(big, 2 * 37 * 4 * 512);
    }

    #[test]
    fn single_tile_handles_degenerate_grid() {
        assert_eq!(two_d_exchange_bytes_per_scan(100, 1), 0);
    }
}

//! Data-to-tile layout for HunIPU.
//!
//! Implements the paper's mapping decisions:
//!
//! - **1D row decomposition (§IV-A):** each tile owns a contiguous block
//!   of matrix rows, with an (almost) equal number of rows per tile so
//!   the BSP supersteps stay balanced (C3).
//! - **Six per-row thread segments (§IV-B):** every row is split into six
//!   approximately equal column segments, one per hardware thread.
//! - **32-element column segments (§IV-E):** the per-column state
//!   (`col_star`, `col_cover`, `v`) is partitioned into segments of 32
//!   elements, distributed round-robin over the row-owning tiles. The
//!   paper finds 32 to work well "regardless of the data and the
//!   architecture"; the ablation harness sweeps this constant.
//! - **Chips (multi-IPU):** [`Layout::new`] applies the rule per chip.
//!   Rows are block-partitioned over the chips, each chip's block is
//!   spread over that chip's tiles but its last, and each chip's column
//!   segments round-robin over that chip's own row-owning tiles. A
//!   chip's last tile is its *sub-collector*, which stages the chip's
//!   share of reductions and broadcasts before anything crosses an
//!   IPU-Link; the root collector is the device's last tile (the last
//!   chip's sub-collector). A flat layout is one chip spanning the whole
//!   device, so the flat rule is this rule with `chips = 1`.

use ipu_sim::poplib::TileGroups;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Default column-segment size for per-column state (§IV-E footnote: "we
/// empirically find that 32 works well regardless of the data and the
/// architecture").
pub const COL_SEG: usize = 32;

/// The static layout of one HunIPU instance on one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Problem size (square matrix side).
    pub n: usize,
    /// Stored elements per row of the matrix-shaped tensors. Equal to
    /// `n` for the dense layouts; the sparse k-candidate layout stores
    /// only `k` entries per row, and the tiled out-of-core layout keeps
    /// just a small zero-list per row on the device. Thread segments
    /// ([`Layout::seg_cols`]) and flat row indexing
    /// ([`Layout::row_range`]) partition *this* width, so the step
    /// builders that walk per-row storage compile unchanged against
    /// narrow rows; the per-column state stays `n`-sized regardless.
    pub width: usize,
    /// Rows per tile on the fullest chip (a chip's last used tile may
    /// hold fewer).
    pub rows_per_tile: usize,
    /// Number of tiles that own matrix rows.
    pub used_tiles: usize,
    /// Hardware threads per tile (row segments per row).
    pub threads: usize,
    /// Column-segment size for per-column state.
    pub col_seg: usize,
    /// The tile hosting gathered scalars, reductions, and the green
    /// stack — chosen as the last tile of the device, which holds no (or
    /// the fewest) matrix rows, keeping its memory free (C2).
    pub collector_tile: usize,
    /// Chips the layout places data across. `1` is the flat layout (also
    /// used on multi-chip devices as the chip-oblivious ablation
    /// baseline, with one chip spanning the device).
    pub chips: usize,
    /// Tiles per chip (the whole device when `chips == 1`).
    pub tiles_per_chip: usize,
}

impl Layout {
    /// Computes the layout of an `n x n` problem over `chips` chips of
    /// `tiles_per_chip` tiles each, with `threads` threads per tile and
    /// `col_seg`-element column segments. Rows are block-partitioned per
    /// chip (balanced to within one row), each chip's last tile is its
    /// sub-collector, and the root collector is the device's last tile.
    /// Pass `chips = 1` with every tile of the device for the flat
    /// layout.
    ///
    /// # Panics
    /// Panics if `n == 0`, `chips == 0`, `threads == 0`, `col_seg == 0`,
    /// or a chip has fewer than 2 tiles.
    pub fn new(
        n: usize,
        threads: usize,
        col_seg: usize,
        chips: usize,
        tiles_per_chip: usize,
    ) -> Self {
        assert!(n > 0, "empty problem");
        assert!(chips >= 1, "need at least one chip");
        assert!(
            tiles_per_chip >= 2,
            "need at least 2 tiles per chip (one collector)"
        );
        assert!(threads >= 1 && col_seg >= 1);
        let mut l = Self {
            n,
            width: n,
            rows_per_tile: 0,
            used_tiles: 0,
            threads,
            col_seg,
            collector_tile: chips * tiles_per_chip - 1,
            chips,
            tiles_per_chip,
        };
        l.rows_per_tile = (0..chips).map(|c| l.chip_rpt(c)).max().unwrap_or(1);
        l.used_tiles = (0..chips).map(|c| l.chip_owner_count(c)).sum();
        l
    }

    /// Narrows the per-row storage width (candidates per row for the
    /// sparse layout, zero-list capacity for the tiled one). Row
    /// ownership and per-column state are untouched.
    ///
    /// # Panics
    /// Panics if `width` is zero or exceeds `n`.
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width >= 1 && width <= self.n, "width must be in 1..=n");
        self.width = width;
        self
    }

    /// The rows block-assigned to chip `chip`.
    fn chip_rows(&self, chip: usize) -> Range<usize> {
        chip * self.n / self.chips..(chip + 1) * self.n / self.chips
    }

    /// Rows per tile on chip `chip`: its block spread over every tile of
    /// the chip but the sub-collector.
    fn chip_rpt(&self, chip: usize) -> usize {
        self.chip_rows(chip)
            .len()
            .div_ceil(self.tiles_per_chip - 1)
            .max(1)
    }

    /// Number of row-owning tiles on chip `chip`.
    fn chip_owner_count(&self, chip: usize) -> usize {
        self.chip_rows(chip).len().div_ceil(self.chip_rpt(chip))
    }

    /// The tile owning matrix row `row`.
    pub fn tile_of_row(&self, row: usize) -> usize {
        debug_assert!(row < self.n);
        // The chip whose block holds `row` (the inverse of `chip_rows`).
        let c = ((row + 1) * self.chips - 1) / self.n;
        c * self.tiles_per_chip + (row - self.chip_rows(c).start) / self.chip_rpt(c)
    }

    /// The rows owned by tile `tile` (empty if the tile owns none).
    pub fn rows_of_tile(&self, tile: usize) -> Range<usize> {
        let c = tile / self.tiles_per_chip;
        let local = tile % self.tiles_per_chip;
        let (r, rpt) = (self.chip_rows(c), self.chip_rpt(c));
        (r.start + local * rpt).min(r.end)..(r.start + (local + 1) * rpt).min(r.end)
    }

    /// The layout's chips as the tile groups its reductions fan in
    /// through, each staged through its last tile, the chip's
    /// sub-collector: one group when flat. The last chip's sub-collector
    /// is [`collector_tile`](Self::collector_tile), so the root of a
    /// reduction tree needs no extra hop.
    pub fn groups(&self) -> TileGroups {
        NonZeroUsize::new(self.tiles_per_chip).map_or(TileGroups::ONE, TileGroups::blocks)
    }

    /// Row-owning tiles in row order: per-chip blocks from each chip's
    /// first tile, with gaps at the sub-collectors (`0..used_tiles` when
    /// flat).
    pub fn owner_tiles(&self) -> Vec<usize> {
        (0..self.chips)
            .flat_map(|c| (0..self.chip_owner_count(c)).map(move |i| c * self.tiles_per_chip + i))
            .collect()
    }

    /// Index of `tile`'s block in an owner-ranked mirror tensor (the
    /// `reduce_columns_mirrored` builder emits one `n`-sized block per
    /// row-owning tile, in owner order). The sub-collector tiles own no
    /// rows, so the rank runs behind the tile id by one per preceding
    /// chip (and equals it when flat).
    pub fn mirror_block(&self, tile: usize) -> usize {
        let c = tile / self.tiles_per_chip;
        let before: usize = (0..c).map(|cc| self.chip_owner_count(cc)).sum();
        let local = tile - c * self.tiles_per_chip;
        debug_assert!(
            local < self.chip_owner_count(c),
            "tile {tile} is not a row owner"
        );
        before + local
    }

    /// The position range of thread segment `seg` (`0..threads`) within
    /// a stored row ([`Layout::width`] elements), balanced to within one
    /// element. On dense layouts positions are column indices; on narrow
    /// layouts they index the per-row candidate/zero storage.
    pub fn seg_cols(&self, seg: usize) -> Range<usize> {
        debug_assert!(seg < self.threads);
        let base = self.width / self.threads;
        let extra = self.width % self.threads;
        let start = seg * base + seg.min(extra);
        let len = base + usize::from(seg < extra);
        start..(start + len)
    }

    /// Number of 32-element (or `col_seg`-element) column segments.
    pub fn n_col_segs(&self) -> usize {
        self.n.div_ceil(self.col_seg)
    }

    /// The column range of column segment `seg`.
    pub fn col_seg_cols(&self, seg: usize) -> Range<usize> {
        let start = seg * self.col_seg;
        start..(start + self.col_seg).min(self.n)
    }

    /// The tile owning column segment `seg`: round-robin over the
    /// row-owning tiles (so column-state owners also hold the
    /// column-minimum mirror built in Step 1).
    ///
    /// Segments are first block-assigned to chips (contiguous runs of
    /// `ceil(n_col_segs/chips)` segments), then round-robin within the
    /// owning chip's row-owning tiles — so per-column state is served by
    /// on-chip traffic wherever possible. A chip that owns no rows (only
    /// possible when `n < chips`) falls back to the global owner list.
    pub fn col_seg_tile(&self, seg: usize) -> usize {
        let per = self.n_col_segs().div_ceil(self.chips);
        let c = (seg / per).min(self.chips - 1);
        let owners = self.chip_owner_count(c);
        if owners == 0 {
            let all = self.owner_tiles();
            return all[seg % all.len()];
        }
        c * self.tiles_per_chip + (seg - c * per) % owners
    }

    /// Flat range of row `row` inside an `n x width` row-major tensor.
    pub fn row_range(&self, row: usize) -> Range<usize> {
        row * self.width..(row + 1) * self.width
    }

    /// Flat range of `(row, thread segment)` inside an `n x width`
    /// row-major tensor.
    pub fn row_seg_range(&self, row: usize, seg: usize) -> Range<usize> {
        let c = self.seg_cols(seg);
        row * self.width + c.start..row * self.width + c.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat layout: one chip spanning all `tiles`.
    fn flat(n: usize, tiles: usize) -> Layout {
        Layout::new(n, 6, COL_SEG, 1, tiles)
    }

    #[test]
    fn rows_are_balanced_and_cover_everything() {
        let l = flat(100, 8);
        // 7 worker tiles -> ceil(100/7) = 15 rows per tile, 7 used tiles.
        assert_eq!(l.rows_per_tile, 15);
        assert_eq!(l.used_tiles, 7);
        let mut total = 0;
        for t in 0..l.used_tiles {
            let r = l.rows_of_tile(t);
            assert!(r.len() <= l.rows_per_tile);
            total += r.len();
        }
        assert_eq!(total, 100);
        assert_eq!(l.tile_of_row(0), 0);
        assert_eq!(l.tile_of_row(99), 6);
    }

    #[test]
    fn collector_is_last_tile() {
        let l = flat(16, 4);
        assert_eq!(l.collector_tile, 3);
        // Workers are tiles 0..3.
        assert!(l.used_tiles <= 3);
    }

    #[test]
    fn thread_segments_partition_each_row() {
        let l = flat(17, 4);
        let mut covered = 0;
        for s in 0..6 {
            let c = l.seg_cols(s);
            assert_eq!(c.start, covered);
            covered = c.end;
            // Balanced to within one element.
            assert!(c.len() == 2 || c.len() == 3);
        }
        assert_eq!(covered, 17);
    }

    #[test]
    fn col_segments_partition_columns() {
        let l = Layout::new(70, 6, 32, 1, 8);
        assert_eq!(l.n_col_segs(), 3);
        assert_eq!(l.col_seg_cols(0), 0..32);
        assert_eq!(l.col_seg_cols(2), 64..70);
        for s in 0..3 {
            assert!(l.col_seg_tile(s) < l.used_tiles);
        }
    }

    #[test]
    fn mk2_scale_layout_matches_paper_numbers() {
        // n = 8192 on 1472 tiles: 6 rows on most tiles, collector free.
        let l = flat(8192, 1472);
        assert_eq!(l.rows_per_tile, 6);
        assert_eq!(l.used_tiles, 1366);
        assert_eq!(l.collector_tile, 1471);
        assert!(l.rows_of_tile(1471).is_empty());
        // Per-tile slack block: 6 rows x 8192 cols x 4 B = 192 KiB, under
        // the 624 KiB budget even with the compressed matrix alongside.
        assert_eq!(6 * 8192 * 4, 192 * 1024);
    }

    #[test]
    fn row_seg_range_indexes_flat_tensor() {
        let l = flat(12, 4);
        assert_eq!(l.row_range(2), 24..36);
        let r = l.row_seg_range(2, 0);
        assert_eq!(r.start, 24);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty problem")]
    fn zero_size_rejected() {
        flat(0, 4);
    }

    #[test]
    fn narrow_width_partitions_row_storage_not_columns() {
        let l = flat(64, 8).with_width(8);
        // Thread segments split the 8 stored positions...
        let mut covered = 0;
        for s in 0..6 {
            let c = l.seg_cols(s);
            assert_eq!(c.start, covered);
            covered = c.end;
        }
        assert_eq!(covered, 8);
        assert_eq!(l.row_range(3), 24..32);
        // ...while per-column state stays n-sized.
        assert_eq!(l.n_col_segs(), 2);
        assert_eq!(l.col_seg_cols(1), 32..64);
        // Row ownership is unchanged by the width.
        assert_eq!(l.tile_of_row(63), flat(64, 8).tile_of_row(63));
    }

    #[test]
    fn tiny_problem_fewer_rows_than_workers() {
        // n=3 on 8 tiles: 1 row per tile, only 3 used tiles; the rest
        // (including the collector) own nothing.
        let l = flat(3, 8);
        assert_eq!(l.rows_per_tile, 1);
        assert_eq!(l.used_tiles, 3);
        assert_eq!(l.owner_tiles(), vec![0, 1, 2]);
        for t in 3..8 {
            assert!(l.rows_of_tile(t).is_empty());
        }
        for row in 0..3 {
            assert!(l.rows_of_tile(l.tile_of_row(row)).contains(&row));
        }
    }

    #[test]
    fn ragged_last_tile_when_n_not_divisible() {
        // n=10 on 5 tiles: 4 workers -> 3 rows per tile, last used tile
        // holds only one row; coverage is exact and non-overlapping.
        let l = flat(10, 5);
        assert_eq!(l.rows_per_tile, 3);
        assert_eq!(l.used_tiles, 4);
        assert_eq!(l.rows_of_tile(3), 9..10);
        let mut seen = vec![false; 10];
        for t in l.owner_tiles() {
            for r in l.rows_of_tile(t) {
                assert!(!seen[r], "row {r} owned twice");
                seen[r] = true;
                assert_eq!(l.tile_of_row(r), t);
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn col_seg_larger_than_n_is_one_segment() {
        let l = Layout::new(10, 6, 32, 1, 5);
        assert_eq!(l.n_col_segs(), 1);
        assert_eq!(l.col_seg_cols(0), 0..10);
        assert!(l.col_seg_tile(0) < l.used_tiles);
    }

    #[test]
    fn one_chip_layout_follows_the_flat_rule() {
        // A one-chip layout is the paper's §IV-A decomposition: contiguous
        // blocks of ceil(n / (tiles - 1)) rows from tile 0, the last tile
        // as collector, column segments round-robin over the owners.
        // (n, tiles, col_seg): n < tiles, ragged last tile, col_seg > n,
        // the Mk2 at n = 8,192, and a few in between.
        let grid = [
            (1, 2, 32),
            (3, 8, 32),
            (7, 8, 1),
            (10, 5, 32),
            (10, 5, 3),
            (16, 4, 32),
            (70, 8, 32),
            (100, 8, 7),
            (129, 16, 64),
            (8192, 1472, 32),
        ];
        for (n, tiles, col_seg) in grid {
            let flat = Layout::new(n, 6, col_seg, 1, tiles);
            for l in [flat.clone(), flat.with_width(n.div_ceil(3))] {
                let rpt = n.div_ceil(tiles - 1);
                let used = n.div_ceil(rpt);
                let case = format!("n={n} tiles={tiles} col_seg={col_seg} width={}", l.width);
                assert_eq!(l.rows_per_tile, rpt, "{case}");
                assert_eq!(l.used_tiles, used, "{case}");
                assert_eq!(l.collector_tile, tiles - 1, "{case}");
                assert_eq!(l.groups().count(tiles), 1, "{case}");
                for row in 0..n {
                    assert_eq!(l.tile_of_row(row), row / rpt, "{case} row {row}");
                }
                for tile in 0..tiles {
                    let block = (tile * rpt).min(n)..((tile + 1) * rpt).min(n);
                    assert_eq!(l.rows_of_tile(tile), block, "{case} tile {tile}");
                }
                assert_eq!(l.owner_tiles(), (0..used).collect::<Vec<_>>(), "{case}");
                for tile in 0..used {
                    assert_eq!(l.mirror_block(tile), tile, "{case} tile {tile}");
                }
                assert_eq!(l.n_col_segs(), n.div_ceil(col_seg), "{case}");
                for seg in 0..l.n_col_segs() {
                    assert_eq!(l.col_seg_tile(seg), seg % used, "{case} seg {seg}");
                }
            }
        }
    }

    #[test]
    fn chip_aware_partitions_rows_per_chip() {
        // n=100 on 4 chips x 8 tiles: 25 rows per chip over 7 workers.
        let l = Layout::new(100, 6, 32, 4, 8);
        let device = ipu_sim::IpuConfig::tiny_multi(4, 8);
        assert_eq!(l.chips, 4);
        assert_eq!(l.collector_tile, 31);
        assert_eq!(l.groups().count(32), 4);
        for c in 0..4 {
            assert_eq!(l.groups().stage(c, 32), c * 8 + 7);
            // Sub-collectors own no rows.
            assert!(l.rows_of_tile(c * 8 + 7).is_empty());
        }
        // Every row is owned exactly once, by a tile on its own chip.
        let mut seen = vec![false; 100];
        for t in l.owner_tiles() {
            for r in l.rows_of_tile(t) {
                assert!(!seen[r]);
                seen[r] = true;
                assert_eq!(l.tile_of_row(r), t);
                assert_eq!(device.ipu_of(t), r / 25);
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn chip_aware_col_segs_stay_on_their_chip() {
        // 128 columns / 32 = 4 segments on 2 chips: segments 0-1 on
        // chip 0's owners, 2-3 on chip 1's.
        let l = Layout::new(128, 6, 32, 2, 8);
        let device = ipu_sim::IpuConfig::tiny_multi(2, 8);
        assert_eq!(l.n_col_segs(), 4);
        assert_eq!(device.ipu_of(l.col_seg_tile(0)), 0);
        assert_eq!(device.ipu_of(l.col_seg_tile(1)), 0);
        assert_eq!(device.ipu_of(l.col_seg_tile(2)), 1);
        assert_eq!(device.ipu_of(l.col_seg_tile(3)), 1);
        // Segment owners are always row-owning tiles.
        let owners = l.owner_tiles();
        for s in 0..l.n_col_segs() {
            assert!(owners.contains(&l.col_seg_tile(s)));
        }
    }

    #[test]
    fn chip_aware_survives_fewer_rows_than_chips() {
        // n=3 on 4 chips x 4 tiles: one chip ends up rowless; column
        // segments fall back to the global owner list.
        let l = Layout::new(3, 6, 32, 4, 4);
        let owners = l.owner_tiles();
        assert_eq!(owners.len(), 3);
        let mut seen = vec![false; 3];
        for &t in &owners {
            for r in l.rows_of_tile(t) {
                seen[r] = true;
                assert_eq!(l.tile_of_row(r), t);
            }
        }
        assert!(seen.into_iter().all(|s| s));
        for s in 0..l.n_col_segs() {
            assert!(owners.contains(&l.col_seg_tile(s)));
        }
    }

    #[test]
    fn chip_aware_mk2_scale() {
        // n=8192 on 4 Mk2 chips: 2048 rows per chip over 1471 workers
        // -> 2 rows per tile, 1024 owners per chip.
        let l = Layout::new(8192, 6, 32, 4, 1472);
        assert_eq!(l.rows_per_tile, 2);
        assert_eq!(l.used_tiles, 4 * 1024);
        assert_eq!(l.collector_tile, 4 * 1472 - 1);
        assert_eq!(l.rows_of_tile(1472), 2048..2050);
        assert_eq!(l.tile_of_row(2048), 1472);
        assert_eq!(l.owner_tiles().len(), l.used_tiles);
    }
}

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
//! - **Chip-aware placement (multi-IPU):** on devices with more than one
//!   chip, [`Layout::chip_aware`] block-partitions the rows per chip,
//!   round-robins each chip's column segments over that chip's own
//!   row-owning tiles, and reserves the last tile of every chip as a
//!   *sub-collector* that stages the chip's share of reductions and
//!   broadcasts before anything crosses an IPU-Link. The root collector
//!   stays the device's last tile (the last chip's sub-collector), so
//!   single-chip layouts are bit-identical to the flat ones.

use ipu_sim::poplib::TileGroups;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Default column-segment size for per-column state (§IV-E footnote).
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
    /// Rows per tile (the last used tile may hold fewer).
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
    /// Chips the layout places data across. `1` means chip-oblivious
    /// (the flat layout, also used on multi-chip devices as the
    /// ablation baseline); `> 1` activates per-chip row blocks,
    /// per-chip column-segment round-robin, and sub-collectors.
    pub chips: usize,
    /// Tiles per chip (the whole device when `chips == 1`).
    pub tiles_per_chip: usize,
    /// Per-chip row ranges (`chips` entries; `[0..n]` when flat).
    chip_rows: Vec<Range<usize>>,
    /// Per-chip rows-per-tile (`chips` entries).
    chip_rpt: Vec<usize>,
}

impl Layout {
    /// Computes the layout for an `n x n` problem on a device with
    /// `tiles` tiles and `threads` threads per tile.
    ///
    /// # Panics
    /// Panics if `n == 0` or the device has fewer than 2 tiles.
    pub fn new(n: usize, tiles: usize, threads: usize) -> Self {
        Self::with_col_seg(n, tiles, threads, COL_SEG)
    }

    /// Layout with an explicit column-segment size (for the §IV-E
    /// ablation).
    pub fn with_col_seg(n: usize, tiles: usize, threads: usize, col_seg: usize) -> Self {
        assert!(n > 0, "empty problem");
        assert!(tiles >= 2, "need at least 2 tiles (one collector)");
        assert!(threads >= 1 && col_seg >= 1);
        // Spread rows over all tiles but the collector.
        let worker_tiles = tiles - 1;
        let rows_per_tile = n.div_ceil(worker_tiles).max(1);
        let used_tiles = n.div_ceil(rows_per_tile);
        Self {
            n,
            width: n,
            rows_per_tile,
            used_tiles,
            threads,
            col_seg,
            collector_tile: tiles - 1,
            chips: 1,
            tiles_per_chip: tiles,
            // One chip owning every row (a single Range, not 0..n items).
            chip_rows: std::iter::once(0..n).collect(),
            chip_rpt: vec![rows_per_tile],
        }
    }

    /// Chip-aware layout for a device of `chips` chips with
    /// `tiles_per_chip` tiles each: rows are block-partitioned per chip
    /// (balanced to within one row), each chip's last tile is its
    /// sub-collector, and the root collector is the device's last tile.
    /// With `chips == 1` this **is** [`Self::with_col_seg`] — the flat
    /// layout — which is what keeps single-chip solves bit-identical.
    ///
    /// # Panics
    /// Panics if `n == 0`, `chips == 0`, or any chip has fewer than
    /// 2 tiles.
    pub fn chip_aware(
        n: usize,
        threads: usize,
        col_seg: usize,
        chips: usize,
        tiles_per_chip: usize,
    ) -> Self {
        assert!(chips >= 1, "need at least one chip");
        if chips == 1 {
            return Self::with_col_seg(n, tiles_per_chip, threads, col_seg);
        }
        assert!(n > 0, "empty problem");
        assert!(
            tiles_per_chip >= 2,
            "need at least 2 tiles per chip (one sub-collector)"
        );
        assert!(threads >= 1 && col_seg >= 1);
        let workers_per_chip = tiles_per_chip - 1;
        let chip_rows: Vec<Range<usize>> = (0..chips)
            .map(|c| c * n / chips..(c + 1) * n / chips)
            .collect();
        let chip_rpt: Vec<usize> = chip_rows
            .iter()
            .map(|r| r.len().div_ceil(workers_per_chip).max(1))
            .collect();
        let used_tiles = chip_rows
            .iter()
            .zip(&chip_rpt)
            .map(|(r, &rpt)| r.len().div_ceil(rpt))
            .sum();
        let rows_per_tile = chip_rpt.iter().copied().max().unwrap_or(1);
        Self {
            n,
            width: n,
            rows_per_tile,
            used_tiles,
            threads,
            col_seg,
            collector_tile: chips * tiles_per_chip - 1,
            chips,
            tiles_per_chip,
            chip_rows,
            chip_rpt,
        }
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

    /// The tile owning matrix row `row`.
    pub fn tile_of_row(&self, row: usize) -> usize {
        debug_assert!(row < self.n);
        if self.chips == 1 {
            return row / self.rows_per_tile;
        }
        let c = self
            .chip_rows
            .iter()
            .position(|r| r.contains(&row))
            .expect("row ranges cover 0..n");
        c * self.tiles_per_chip + (row - self.chip_rows[c].start) / self.chip_rpt[c]
    }

    /// The rows owned by tile `tile` (empty if the tile owns none).
    pub fn rows_of_tile(&self, tile: usize) -> Range<usize> {
        if self.chips == 1 {
            let start = (tile * self.rows_per_tile).min(self.n);
            let end = ((tile + 1) * self.rows_per_tile).min(self.n);
            return start..end;
        }
        let c = tile / self.tiles_per_chip;
        let local = tile % self.tiles_per_chip;
        let r = &self.chip_rows[c];
        let rpt = self.chip_rpt[c];
        let start = (r.start + local * rpt).min(r.end);
        let end = (r.start + (local + 1) * rpt).min(r.end);
        start..end
    }

    /// The rows block-assigned to chip `chip` (the whole problem when
    /// flat).
    pub fn chip_row_range(&self, chip: usize) -> Range<usize> {
        self.chip_rows[chip].clone()
    }

    /// The layout's chips as the tile groups its reductions fan in
    /// through, each staged through its last tile, the chip's
    /// sub-collector: one group when flat. The last chip's sub-collector
    /// is [`collector_tile`](Self::collector_tile), so the root of a
    /// reduction tree needs no extra hop.
    pub fn groups(&self) -> TileGroups {
        NonZeroUsize::new(self.tiles_per_chip).map_or(TileGroups::ONE, TileGroups::blocks)
    }

    /// Row-owning tiles in row order. Contiguous `0..used_tiles` when
    /// flat; per-chip blocks with gaps at the sub-collectors when
    /// chip-aware.
    pub fn owner_tiles(&self) -> Vec<usize> {
        if self.chips == 1 {
            return (0..self.used_tiles).collect();
        }
        let mut tiles = Vec::with_capacity(self.used_tiles);
        for c in 0..self.chips {
            let used = self.chip_rows[c].len().div_ceil(self.chip_rpt[c]);
            tiles.extend((0..used).map(|i| c * self.tiles_per_chip + i));
        }
        tiles
    }

    /// Index of `tile`'s block in an owner-ranked mirror tensor (the
    /// `reduce_columns_mirrored` builder emits one `n`-sized block per
    /// row-owning tile, in owner order). Equal to the tile id itself on
    /// flat layouts, where owner tiles are contiguous from 0; chip-aware
    /// layouts skip the per-chip sub-collector tiles, so the rank runs
    /// behind the tile id by one per preceding chip.
    pub fn mirror_block(&self, tile: usize) -> usize {
        if self.chips == 1 {
            return tile;
        }
        let c = tile / self.tiles_per_chip;
        let before: usize = (0..c).map(|cc| self.chip_owner_count(cc)).sum();
        let local = tile - c * self.tiles_per_chip;
        debug_assert!(
            local < self.chip_owner_count(c),
            "tile {tile} is not a row owner"
        );
        before + local
    }

    /// Number of row-owning tiles on chip `chip`.
    fn chip_owner_count(&self, chip: usize) -> usize {
        if self.chips == 1 {
            return self.used_tiles;
        }
        self.chip_rows[chip].len().div_ceil(self.chip_rpt[chip])
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
    /// Chip-aware layouts first block-assign segments to chips
    /// (contiguous runs of `ceil(n_col_segs/chips)` segments), then
    /// round-robin within the owning chip's row-owning tiles — so
    /// per-column state is served by on-chip traffic wherever possible.
    /// A chip that owns no rows (only possible when `n < chips`) falls
    /// back to the global owner list.
    pub fn col_seg_tile(&self, seg: usize) -> usize {
        if self.chips == 1 {
            return seg % self.used_tiles;
        }
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

    #[test]
    fn rows_are_balanced_and_cover_everything() {
        let l = Layout::new(100, 8, 6);
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
        let l = Layout::new(16, 4, 6);
        assert_eq!(l.collector_tile, 3);
        // Workers are tiles 0..3.
        assert!(l.used_tiles <= 3);
    }

    #[test]
    fn thread_segments_partition_each_row() {
        let l = Layout::new(17, 4, 6);
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
        let l = Layout::with_col_seg(70, 8, 6, 32);
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
        let l = Layout::new(8192, 1472, 6);
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
        let l = Layout::new(12, 4, 6);
        assert_eq!(l.row_range(2), 24..36);
        let r = l.row_seg_range(2, 0);
        assert_eq!(r.start, 24);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty problem")]
    fn zero_size_rejected() {
        Layout::new(0, 4, 6);
    }

    #[test]
    fn narrow_width_partitions_row_storage_not_columns() {
        let l = Layout::new(64, 8, 6).with_width(8);
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
        assert_eq!(l.tile_of_row(63), Layout::new(64, 8, 6).tile_of_row(63));
    }

    #[test]
    fn tiny_problem_fewer_rows_than_workers() {
        // n=3 on 8 tiles: 1 row per tile, only 3 used tiles; the rest
        // (including the collector) own nothing.
        let l = Layout::new(3, 8, 6);
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
        let l = Layout::new(10, 5, 6);
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
        let l = Layout::with_col_seg(10, 5, 6, 32);
        assert_eq!(l.n_col_segs(), 1);
        assert_eq!(l.col_seg_cols(0), 0..10);
        assert!(l.col_seg_tile(0) < l.used_tiles);
    }

    #[test]
    fn chip_aware_single_chip_is_exactly_flat() {
        // The bit-identity hinge: chips == 1 must not merely be
        // equivalent but the very same layout.
        for (n, tiles) in [(16, 4), (100, 8), (7, 8)] {
            assert_eq!(
                Layout::chip_aware(n, 6, 32, 1, tiles),
                Layout::with_col_seg(n, tiles, 6, 32)
            );
        }
    }

    #[test]
    fn chip_aware_partitions_rows_per_chip() {
        // n=100 on 4 chips x 8 tiles: 25 rows per chip over 7 workers.
        let l = Layout::chip_aware(100, 6, 32, 4, 8);
        let device = ipu_sim::IpuConfig::tiny_multi(4, 8);
        assert_eq!(l.chips, 4);
        assert_eq!(l.collector_tile, 31);
        assert_eq!(l.groups().count(32), 4);
        for c in 0..4 {
            assert_eq!(l.chip_row_range(c), c * 25..(c + 1) * 25);
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
        let l = Layout::chip_aware(128, 6, 32, 2, 8);
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
        let l = Layout::chip_aware(3, 6, 32, 4, 4);
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
        let l = Layout::chip_aware(8192, 6, 32, 4, 1472);
        assert_eq!(l.rows_per_tile, 2);
        assert_eq!(l.used_tiles, 4 * 1024);
        assert_eq!(l.collector_tile, 4 * 1472 - 1);
        assert_eq!(l.chip_row_range(1), 2048..4096);
        assert_eq!(l.tile_of_row(2048), 1472);
        assert_eq!(l.owner_tiles().len(), l.used_tiles);
    }
}

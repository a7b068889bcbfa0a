//! Graph construction for HunIPU: tensors, mappings, and shared builder
//! utilities. The per-step compute sets live in [`crate::steps`].

use crate::layout::Layout;
use ipu_sim::{
    cost, Access, ComputeSetId, DType, Graph, GraphError, IpuConfig, Program, Tensor, TensorSlice,
    VertexCtx,
};
use std::ops::Range;

/// Which cost-matrix representation the device graph stores.
///
/// The dense mode is the paper's layout: the full `n x n` slack matrix
/// resident in tile SRAM. The two other modes break that SRAM ceiling:
/// `Sparse` keeps only `k` candidate columns per row (CSR-style), and
/// `Tiled` keeps the cost matrix in host memory and streams it through
/// the device one column block at a time, so only duals, matching state,
/// and one block are ever resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Storage {
    /// Full `n x n` slack in SRAM.
    Dense,
    /// `k` candidate columns per row; per-tile memory O(n·k / tiles).
    Sparse {
        /// Candidate columns stored per row.
        k: usize,
    },
    /// Out-of-core block streaming over host-resident costs.
    Tiled {
        /// Columns per streamed block (the resident working-set width).
        block_cols: usize,
        /// Zero-list capacity per row (Step 2 warm-start bound).
        zcap: usize,
    },
}

/// All device state of one HunIPU instance.
///
/// Naming follows the paper: `slack` and the compressed matrix (§IV-B),
/// star/prime/cover state (§II-A), `zero_status` (§IV-F), the green
/// stack (§IV-G), and the dual potentials `u`, `v` that Step 1 and Step 6
/// maintain implicitly (tracked explicitly here so every solve returns an
/// LP-duality certificate).
#[derive(Clone)]
pub(crate) struct Ts {
    // ---- matrix-shaped, 1D row decomposition ----
    /// Slack matrix, f32 `n x n`.
    pub slack: Tensor,
    /// Compressed zero positions, i32 `n x n` (−1 padding), per-thread
    /// segments (§IV-B, Fig. 1).
    pub compress: Tensor,
    /// Zeros per (row, thread segment), i32 `n x threads`.
    pub zero_count: Tensor,
    /// Per-(row, segment) f32 scratch minima (Step 1 row minima and
    /// Step 6 uncovered minima share this buffer).
    pub seg_min: Tensor,
    /// Total zeros per row, i32 `n` (Step 2's τ reduction input).
    pub row_total: Tensor,
    // ---- per-row state (on the row's tile) ----
    pub row_star: Tensor,
    pub row_cover: Tensor,
    pub row_prime: Tensor,
    /// Row state −1/0/1 of §IV-F.
    pub zero_status: Tensor,
    /// First uncovered-zero column of each row (valid when status ≥ 0).
    pub row_zero_col: Tensor,
    /// Encoded (status, row) keys for the arg-max reduction.
    pub enc: Tensor,
    /// Row potentials (dual certificate), f32 `n`.
    pub u: Tensor,
    /// Step 2 proposals, i32 `n`.
    pub prop: Tensor,
    // ---- per-column state (32-element segments, §IV-E) ----
    pub col_star: Tensor,
    pub col_cover: Tensor,
    /// Column potentials (dual certificate), f32 `n`.
    pub v: Tensor,
    // ---- collector-tile state ----
    /// The green stack of §IV-G: (row, col) hops of the augmenting path.
    pub green_rows: Tensor,
    pub green_cols: Tensor,
    pub green_len: Tensor,
    /// Loop/branch flags (i32 scalars).
    pub not_done: Tensor,
    pub searching: Tensor,
    pub st1: Tensor,
    pub st0: Tensor,
    pub pass: Tensor,
    pub pass_lt: Tensor,
    /// Selected row of Step 4's arg-max (decode output).
    pub sel_row: Tensor,
    /// Current column of the Step 5 walk.
    pub cur_col: Tensor,
    /// Walk-continuation flag.
    pub walking: Tensor,
    /// Device-side counters: augmentations and dual (slack) updates.
    pub ctr_aug: Tensor,
    pub ctr_dual: Tensor,
    // ---- replicated mirrors (each tile holds a read-only copy) ----
    /// Column-cover mirror, refreshed before every Step 4/6 superstep.
    pub ccm: Tensor,
    /// Scratch mirrors `n` i32 (proposals / col_star / green rows+cols —
    /// reused at disjoint program points to respect tile SRAM, C2).
    pub ma: Tensor,
    pub mb: Tensor,
    /// Scalar mirrors.
    pub len_m: Tensor,
    pub pass_m: Tensor,
    pub sel_row_m: Tensor,
    pub sel_col_m: Tensor,
    pub star_col_m: Tensor,
    pub cur_col_m: Tensor,
    pub k_row_m: Tensor,
    /// Step 6's Δ, f32.
    pub delta_m: Tensor,
    // ---- representation-specific state (only `seeded` in dense mode) ----
    /// Candidate column ids, i32 `n x k` (sparse mode): `cand[r*k + p]`
    /// is the absolute column of stored entry `p` of row `r`.
    pub cand: Option<Tensor>,
    /// Host-resident cost matrix, f32 `n x n` (tiled mode) — never
    /// mapped to a tile, streamed through PCIe block by block.
    pub host_cost: Option<Tensor>,
    /// Replicated column-potential mirror, f32 `n` (tiled mode): lets
    /// every tile recompute `c - u - v` slacks on streamed blocks.
    pub vm: Option<Tensor>,
    /// Per-row uncovered minima, f32 `n` (tiled Step 6 accumulator).
    pub rowacc: Option<Tensor>,
    /// Collector flag: Step 6's δ was finite, so the dual update may run.
    pub delta_ok: Option<Tensor>,
    /// Collector flag: the candidate graph admits no perfect matching
    /// (δ = ∞ in sparse Step 6 — a Hall violation from pruning).
    pub infeasible: Option<Tensor>,
    /// Collector flag (dense mode): the launch uploaded a repaired seed
    /// in place of the raw costs, so the program skips Step 1. The
    /// pristine snapshot holds it at 0, so a cold launch runs Step 1.
    pub seeded: Option<Tensor>,
}

/// Builds the static HunIPU graph for one problem size on one device.
pub(crate) struct Builder {
    pub g: Graph,
    pub l: Layout,
    pub t: Ts,
    pub ab: crate::ablation::AblationConfig,
    pub storage: Storage,
}

impl Builder {
    pub fn new(
        config: IpuConfig,
        l: Layout,
        ab: crate::ablation::AblationConfig,
        storage: Storage,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::new(config);
        let n = l.n;
        let th = l.threads;
        let c = l.collector_tile;

        // Per-row widths of the two matrix-shaped buffers. The layout's
        // `width` drives thread segmentation and must match the width the
        // per-thread fragments iterate (slack in dense/sparse, the zero
        // list in tiled mode).
        let (slack_w, comp_w) = match storage {
            Storage::Dense => (n, n),
            Storage::Sparse { k } => (k, k),
            Storage::Tiled { block_cols, zcap } => (block_cols, zcap),
        };
        match storage {
            Storage::Dense => debug_assert_eq!(l.width, n),
            Storage::Sparse { k } => debug_assert_eq!(l.width, k),
            Storage::Tiled { zcap, .. } => debug_assert_eq!(l.width, zcap),
        }

        // Matrix-shaped tensors: row blocks of `rows_per_tile` rows per
        // tile, in tile order (contiguous in the flat layout). In dense
        // mode both span the full `n` columns; sparse stores `k` entries
        // per row, tiled stores one streamed block and a bounded zero
        // list.
        let slack = g.add_tensor("slack", DType::F32, n * slack_w);
        let compress = g.add_tensor("compress", DType::I32, n * comp_w);
        let zero_count = g.add_tensor("zero_count", DType::I32, n * th);
        let seg_min = g.add_tensor("seg_min", DType::F32, n * th);
        let row_total = g.add_tensor("row_total", DType::I32, n);
        let row_star = g.add_tensor("row_star", DType::I32, n);
        let row_cover = g.add_tensor("row_cover", DType::I32, n);
        let row_prime = g.add_tensor("row_prime", DType::I32, n);
        let zero_status = g.add_tensor("zero_status", DType::I32, n);
        let row_zero_col = g.add_tensor("row_zero_col", DType::I32, n);
        let enc = g.add_tensor("enc", DType::I32, n);
        let u = g.add_tensor("u", DType::F32, n);
        let prop = g.add_tensor("prop", DType::I32, n);
        for (tensor, per_row) in [
            (slack, slack_w),
            (compress, comp_w),
            (zero_count, th),
            (seg_min, th),
            (row_total, 1),
            (row_star, 1),
            (row_cover, 1),
            (row_prime, 1),
            (zero_status, 1),
            (row_zero_col, 1),
            (enc, 1),
            (u, 1),
            (prop, 1),
        ] {
            for tile in l.owner_tiles() {
                let rows = l.rows_of_tile(tile);
                g.map_slice(tensor.slice(rows.start * per_row..rows.end * per_row), tile)?;
            }
        }

        // Per-column state in `col_seg`-element segments (§IV-E).
        let col_star = g.add_tensor("col_star", DType::I32, n);
        let col_cover = g.add_tensor("col_cover", DType::I32, n);
        let v = g.add_tensor("v", DType::F32, n);
        for tensor in [col_star, col_cover, v] {
            for s in 0..l.n_col_segs() {
                g.map_slice(tensor.slice(l.col_seg_cols(s)), l.col_seg_tile(s))?;
            }
        }

        // Collector-tile state.
        let green_rows = g.add_tensor("green_rows", DType::I32, n);
        let green_cols = g.add_tensor("green_cols", DType::I32, n);
        let green_len = g.add_tensor("green_len", DType::I32, 1);
        let not_done = g.add_tensor("not_done", DType::I32, 1);
        let searching = g.add_tensor("searching", DType::I32, 1);
        let st1 = g.add_tensor("st1", DType::I32, 1);
        let st0 = g.add_tensor("st0", DType::I32, 1);
        let pass = g.add_tensor("pass", DType::I32, 1);
        let pass_lt = g.add_tensor("pass_lt", DType::I32, 1);
        let sel_row = g.add_tensor("sel_row", DType::I32, 1);
        let cur_col = g.add_tensor("cur_col", DType::I32, 1);
        let walking = g.add_tensor("walking", DType::I32, 1);
        let ctr_aug = g.add_tensor("ctr_aug", DType::I32, 1);
        let ctr_dual = g.add_tensor("ctr_dual", DType::I32, 1);
        for tensor in [
            green_rows, green_cols, green_len, not_done, searching, st1, st0, pass, pass_lt,
            sel_row, cur_col, walking, ctr_aug, ctr_dual,
        ] {
            g.map_to_tile(tensor, c)?;
        }

        // Replicated mirrors.
        let ccm = g.add_replicated("ccm", DType::I32, n);
        let ma = g.add_replicated("mirror_a", DType::I32, n);
        let mb = g.add_replicated("mirror_b", DType::I32, n);
        let len_m = g.add_replicated("len_m", DType::I32, 1);
        let pass_m = g.add_replicated("pass_m", DType::I32, 1);
        let sel_row_m = g.add_replicated("sel_row_m", DType::I32, 1);
        let sel_col_m = g.add_replicated("sel_col_m", DType::I32, 1);
        let star_col_m = g.add_replicated("star_col_m", DType::I32, 1);
        let cur_col_m = g.add_replicated("cur_col_m", DType::I32, 1);
        let k_row_m = g.add_replicated("k_row_m", DType::I32, 1);
        let delta_m = g.add_replicated("delta_m", DType::F32, 1);

        // Representation-specific tensors, created strictly after every
        // shared tensor so the shared tensors keep the same ids and
        // placement in every storage mode.
        let mut cand = None;
        let mut host_cost = None;
        let mut vm = None;
        let mut rowacc = None;
        let mut delta_ok = None;
        let mut infeasible = None;
        let mut seeded = None;
        match storage {
            Storage::Dense => {
                let t = g.add_tensor("seeded", DType::I32, 1);
                g.map_to_tile(t, c)?;
                seeded = Some(t);
            }
            Storage::Sparse { k } => {
                let t = g.add_tensor("cand", DType::I32, n * k);
                for tile in l.owner_tiles() {
                    let rows = l.rows_of_tile(tile);
                    g.map_slice(t.slice(rows.start * k..rows.end * k), tile)?;
                }
                cand = Some(t);
            }
            Storage::Tiled { .. } => {
                host_cost = Some(g.add_host_tensor("host_cost", DType::F32, n * n));
                vm = Some(g.add_replicated("v_m", DType::F32, n));
                let t = g.add_tensor("rowacc", DType::F32, n);
                for tile in l.owner_tiles() {
                    g.map_slice(t.slice(l.rows_of_tile(tile)), tile)?;
                }
                rowacc = Some(t);
            }
        }
        if storage != Storage::Dense {
            let ok = g.add_tensor("delta_ok", DType::I32, 1);
            let inf = g.add_tensor("infeasible", DType::I32, 1);
            g.map_to_tile(ok, c)?;
            g.map_to_tile(inf, c)?;
            delta_ok = Some(ok);
            infeasible = Some(inf);
        }

        let t = Ts {
            slack,
            compress,
            zero_count,
            seg_min,
            row_total,
            row_star,
            row_cover,
            row_prime,
            zero_status,
            row_zero_col,
            enc,
            u,
            prop,
            col_star,
            col_cover,
            v,
            green_rows,
            green_cols,
            green_len,
            not_done,
            searching,
            st1,
            st0,
            pass,
            pass_lt,
            sel_row,
            cur_col,
            walking,
            ctr_aug,
            ctr_dual,
            ccm,
            ma,
            mb,
            len_m,
            pass_m,
            sel_row_m,
            sel_col_m,
            star_col_m,
            cur_col_m,
            k_row_m,
            delta_m,
            cand,
            host_cost,
            vm,
            rowacc,
            delta_ok,
            infeasible,
            seeded,
        };
        Ok(Self {
            g,
            l,
            t,
            ab,
            storage,
        })
    }

    /// Interval list of a per-row tensor (`per_row` elements per row):
    /// one `(range, tile)` per row-owning tile.
    pub fn row_block_intervals(&self, per_row: usize) -> Vec<(Range<usize>, usize)> {
        self.l
            .owner_tiles()
            .into_iter()
            .map(|tile| {
                let rows = self.l.rows_of_tile(tile);
                (rows.start * per_row..rows.end * per_row, tile)
            })
            .collect()
    }

    /// Interval list of a per-column tensor in `col_seg` segments.
    pub fn col_seg_intervals(&self) -> Vec<(Range<usize>, usize)> {
        (0..self.l.n_col_segs())
            .map(|s| (self.l.col_seg_cols(s), self.l.col_seg_tile(s)))
            .collect()
    }

    /// Builds a gather of `src` (distributed per `intervals`) into a new
    /// same-length tensor on the collector tile — one exchange phase.
    pub fn gather_to_collector(
        &mut self,
        name: &str,
        src: Tensor,
        intervals: &[(Range<usize>, usize)],
    ) -> Result<(Tensor, Program), GraphError> {
        let dst = self.g.add_tensor(name, src.dtype(), src.len());
        self.g.map_to_tile(dst, self.l.collector_tile)?;
        let pairs = intervals
            .iter()
            .map(|(r, _)| (src.slice(r.clone()), dst.slice(r.clone())))
            .collect();
        Ok((dst, Program::exchange(pairs)))
    }

    /// Whether a two-level reduction pays for itself when `off_chip`
    /// partial scalars live off the collector's chip: the flat gather
    /// serializes `4·off_chip` bytes through the collector's IPU-Link,
    /// while the hierarchy spends two extra supersteps (one exchange
    /// phase plus one compute set). Both sides are static per shape, so
    /// the structure choice is deterministic at build time — tiny
    /// multi-chip configs keep the flat gather, Mk2-scale ones go
    /// hierarchical.
    fn hier_reduce_pays(&self, off_chip: usize) -> bool {
        let c = self.g.config();
        let saved = off_chip as f64 * 4.0 / c.inter_ipu_bytes_per_cycle;
        let overhead = 2.0 * (c.sync_cycles + c.exchange_setup_cycles) as f64;
        saved > overhead
    }

    /// Number of distinct tiles holding `input` elements outside the
    /// collector's chip — the partial scalars a flat gather would drag
    /// across IPU-Links.
    fn off_root_chip_tiles(&self, input: Tensor) -> usize {
        let root = self.l.chip_of_tile(self.l.collector_tile);
        let mut tiles: Vec<usize> = (0..input.len())
            .filter_map(|i| self.g.tile_of(input, i))
            .filter(|&t| self.l.chip_of_tile(t) != root)
            .collect();
        tiles.sort_unstable();
        tiles.dedup();
        tiles.len()
    }

    /// Builds a reduction of a distributed tensor to a scalar on the
    /// collector tile, picking the flat single-gather structure on
    /// chip-oblivious layouts (identical graph to the seed — the
    /// single-chip bit-identity hinge) and the two-level
    /// gather-through-sub-collectors structure on chip-aware layouts
    /// where the cross-chip partial traffic outweighs the extra phases
    /// (see [`Builder::hier_reduce_pays`]).
    pub fn reduce_scalar(
        &mut self,
        name: &str,
        input: Tensor,
        op: ipu_sim::poplib::ReduceOp,
    ) -> Result<(Tensor, Program), GraphError> {
        if self.l.chips > 1 {
            let off_chip = self.off_root_chip_tiles(input);
            if self.hier_reduce_pays(off_chip) {
                return ipu_sim::poplib::reduce_to_scalar_hier(
                    &mut self.g,
                    name,
                    input,
                    op,
                    &self.l.chip_stages(),
                    self.l.collector_tile,
                );
            }
        }
        ipu_sim::poplib::reduce_to_scalar(&mut self.g, name, input, op, self.l.collector_tile)
    }

    /// Builds a refresh of the replicated `mirror` from a tensor that
    /// lives wholly on the collector tile (the green stack after a
    /// serial walk). Flat layouts broadcast straight from the collector
    /// — one phase, but the collector's link share serializes a copy
    /// per remote chip. Chip-aware layouts first scatter distinct
    /// `n/chips` chunks to the per-chip sub-collectors (the collector
    /// sends each byte across each link once) and then broadcast from
    /// the now-distributed staging tensor, so the per-chip replica
    /// traffic leaves from `chips` tiles in parallel.
    pub fn broadcast_from_collector(
        &mut self,
        name: &str,
        src: Tensor,
        mirror: Tensor,
    ) -> Result<Program, GraphError> {
        if self.l.chips == 1 {
            return Ok(Program::broadcast(src.whole(), mirror.whole()));
        }
        let n = src.len();
        let stage = self.g.add_tensor(&format!("{name}.stage"), src.dtype(), n);
        let mut pairs = Vec::with_capacity(self.l.chips);
        for c in 0..self.l.chips {
            let chunk = c * n / self.l.chips..(c + 1) * n / self.l.chips;
            if chunk.is_empty() {
                continue;
            }
            self.g
                .map_slice(stage.slice(chunk.clone()), self.l.sub_collector(c))?;
            pairs.push((src.slice(chunk.clone()), stage.slice(chunk)));
        }
        Ok(Program::seq(vec![
            Program::exchange(pairs),
            Program::broadcast(stage.whole(), mirror.whole()),
        ]))
    }

    /// Builds a **dynamic read**: reads `src[idx]` where `idx` arrives in
    /// the replicated scalar `idx_m`, using the strategy selected by the
    /// ablation config — partition-and-distribute (§IV-G, Fig. 4: every
    /// interval owner probes in parallel, a ≤-tiles temporary is reduced
    /// on the collector) or the rejected whole-tensor single-tile copy.
    /// On chip-aware layouts the ≤-tiles temporary is reduced through
    /// the per-chip sub-collectors instead of one flat gather.
    /// Returns the 1-element output tensor (on the collector) and the
    /// program fragment.
    pub fn dyn_read_i32(
        &mut self,
        name: &str,
        src: Tensor,
        idx_m: Tensor,
        intervals: &[(Range<usize>, usize)],
    ) -> Result<(Tensor, Program), GraphError> {
        if self.ab.dyn_slice == crate::ablation::DynSlice::SingleTileGather {
            return self.dyn_read_i32_single_tile(name, src, idx_m);
        }
        if self.l.chips > 1 {
            let root = self.l.chip_of_tile(self.l.collector_tile);
            let off_chip = intervals
                .iter()
                .filter(|(_, t)| self.l.chip_of_tile(*t) != root)
                .count();
            if self.hier_reduce_pays(off_chip) {
                return self.dyn_read_i32_hier(name, src, idx_m, intervals);
            }
        }
        let k = intervals.len();
        let partials = self.g.add_tensor(&format!("{name}.part"), DType::I32, k);
        for (i, (_, tile)) in intervals.iter().enumerate() {
            self.g.map_slice(partials.element(i), *tile)?;
        }
        let gathered = self.g.add_tensor(&format!("{name}.gath"), DType::I32, k);
        self.g.map_to_tile(gathered, self.l.collector_tile)?;
        let out = self.g.add_tensor(&format!("{name}.out"), DType::I32, 1);
        self.g.map_to_tile(out, self.l.collector_tile)?;

        let cs = self.g.add_compute_set(&format!("{name}.probe"));
        for (i, (range, tile)) in intervals.iter().enumerate() {
            let (start, end) = (range.start, range.end);
            let vtx = self
                .g
                .add_vertex(cs, *tile, &format!("{name}.probe[{i}]"), move |ctx| {
                    let idx = ctx.i32(0)[0] as usize;
                    let seg = ctx.i32(1);
                    let out = if idx >= start && idx < end {
                        seg[idx - start]
                    } else {
                        i32::MIN
                    };
                    ctx.i32_mut(2)[0] = out;
                    cost::scalar(6)
                })?;
            self.g.connect(vtx, idx_m.whole(), Access::Read)?;
            self.g
                .connect(vtx, src.slice(range.clone()), Access::Read)?;
            self.g.connect(vtx, partials.element(i), Access::Write)?;
        }

        // Multithreaded max over the gathered partials (exactly the
        // "slice the element from the temporary tensor in a single tile"
        // step of Fig. 4, using the tile's six threads).
        let pick = ipu_sim::poplib::reduce_on_tile(
            &mut self.g,
            &format!("{name}.pick"),
            gathered,
            out,
            ipu_sim::poplib::ReduceOp::Max,
            self.l.collector_tile,
        )?;

        let gather = Program::exchange(
            (0..k)
                .map(|i| (partials.element(i), gathered.element(i)))
                .collect(),
        );
        Ok((out, Program::seq(vec![Program::execute(cs), gather, pick])))
    }

    /// Chip-aware dynamic read: the same per-owner probe vertices as the
    /// flat path (non-owners emit `i32::MIN`), but the max over the
    /// partials travels through the per-chip sub-collectors so only one
    /// scalar per chip crosses an IPU-Link.
    fn dyn_read_i32_hier(
        &mut self,
        name: &str,
        src: Tensor,
        idx_m: Tensor,
        intervals: &[(Range<usize>, usize)],
    ) -> Result<(Tensor, Program), GraphError> {
        let k = intervals.len();
        let partials = self.g.add_tensor(&format!("{name}.part"), DType::I32, k);
        for (i, (_, tile)) in intervals.iter().enumerate() {
            self.g.map_slice(partials.element(i), *tile)?;
        }
        let cs = self.g.add_compute_set(&format!("{name}.probe"));
        for (i, (range, tile)) in intervals.iter().enumerate() {
            let (start, end) = (range.start, range.end);
            let vtx = self
                .g
                .add_vertex(cs, *tile, &format!("{name}.probe[{i}]"), move |ctx| {
                    let idx = ctx.i32(0)[0] as usize;
                    let seg = ctx.i32(1);
                    let out = if idx >= start && idx < end {
                        seg[idx - start]
                    } else {
                        i32::MIN
                    };
                    ctx.i32_mut(2)[0] = out;
                    cost::scalar(6)
                })?;
            self.g.connect(vtx, idx_m.whole(), Access::Read)?;
            self.g
                .connect(vtx, src.slice(range.clone()), Access::Read)?;
            self.g.connect(vtx, partials.element(i), Access::Write)?;
        }
        let (out, pick) = ipu_sim::poplib::reduce_partials_hier(
            &mut self.g,
            &format!("{name}.pick"),
            partials,
            ipu_sim::poplib::ReduceOp::Max,
            &self.l.chip_stages(),
            self.l.collector_tile,
        )?;
        Ok((out, Program::seq(vec![Program::execute(cs), pick])))
    }

    /// The rejected dynamic-slice alternative (§IV-G): ship the whole
    /// tensor to the collector for every read, then index locally.
    fn dyn_read_i32_single_tile(
        &mut self,
        name: &str,
        src: Tensor,
        idx_m: Tensor,
    ) -> Result<(Tensor, Program), GraphError> {
        let scratch = self
            .g
            .add_tensor(&format!("{name}.shipped"), DType::I32, src.len());
        self.g.map_to_tile(scratch, self.l.collector_tile)?;
        let out = self.g.add_tensor(&format!("{name}.out"), DType::I32, 1);
        self.g.map_to_tile(out, self.l.collector_tile)?;
        let cs = self.g.add_compute_set(&format!("{name}.index"));
        let vtx =
            self.g
                .add_vertex(cs, self.l.collector_tile, &format!("{name}.index"), |ctx| {
                    let idx = ctx.i32(0)[0] as usize;
                    let data = ctx.i32(1);
                    ctx.i32_mut(2)[0] = if idx < data.len() {
                        data[idx]
                    } else {
                        i32::MIN
                    };
                    cost::scalar(5)
                })?;
        self.g.connect(vtx, idx_m.whole(), Access::Read)?;
        self.g.connect(vtx, scratch.whole(), Access::Read)?;
        self.g.connect(vtx, out.whole(), Access::Write)?;
        Ok((
            out,
            Program::seq(vec![
                Program::copy(src.whole(), scratch.whole()),
                Program::execute(cs),
            ]),
        ))
    }

    /// Adds one vertex on the collector tile — the home of scalar control
    /// state (decode, flag updates, green-stack pushes).
    pub fn collector_vertex(
        &mut self,
        cs: ComputeSetId,
        name: &str,
        fields: Vec<(TensorSlice, Access)>,
        f: impl Fn(&VertexCtx) -> u64 + 'static,
    ) -> Result<(), GraphError> {
        let vtx = self.g.add_vertex(cs, self.l.collector_tile, name, f)?;
        for (slice, access) in fields {
            self.g.connect(vtx, slice, access)?;
        }
        Ok(())
    }
}

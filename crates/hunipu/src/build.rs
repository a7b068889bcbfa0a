//! Graph construction for HunIPU: tensors, mappings, and shared builder
//! utilities. The per-step compute sets live in [`crate::steps`].

use crate::layout::Layout;
use ipu_sim::poplib::{self, Finish, ReduceOp};
use ipu_sim::{
    Access, ComputeSetId, DType, Graph, GraphError, IpuConfig, Program, Tensor, TensorSlice,
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
/// star/prime/cover state (§II-A), the arg-max keys (§IV-F), the green
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
    /// Each row's primed column, −1 when unprimed. A row is covered iff
    /// it holds a prime: every prime covers its row and Step 5 clears
    /// both, so no separate row-cover vector is kept.
    pub row_prime: Tensor,
    /// Step 4's arg-max keys: each row's class (§IV-F), the row and its
    /// first uncovered-zero column or, on a covered row, its prime, packed
    /// into one i32. Broadcast into `ma` every pass, they are also the
    /// search loop's row-prime mirror.
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
    /// Selected row and column of Step 4's arg-max (decode output).
    pub sel: Tensor,
    /// Step 4 classifications of the running search, which the decode
    /// counts against the search's bound.
    pub iterations: Tensor,
    /// Device-side counters: augmentations and dual (slack) updates.
    pub ctr_aug: Tensor,
    pub ctr_dual: Tensor,
    /// Latched when Step 6's δ is not finite (`LATCH_DELTA`): no
    /// uncovered row holds an entry in an uncovered column. On a sparse
    /// prune that is a Hall violation; on square dense costs only
    /// corrupted state gets there. Also latched when a search outruns
    /// its bound (`LATCH_BOUND`) or walks a path the mirrors cannot hold
    /// (`LATCH_WALK`), which only corrupted state does.
    pub infeasible: Tensor,
    // ---- replicated mirrors (each tile holds a read-only copy) ----
    /// Column-cover mirror, refreshed before every dual update and
    /// tiled block stream.
    pub ccm: Tensor,
    /// Scratch mirrors `n` i32, reused at disjoint program points to
    /// respect tile SRAM (C2): Step 2's proposals and column stars,
    /// the search loop's arg-max keys (`ma`, which record the row
    /// primes) and column stars (`mb`), which Step 4 derives covers from
    /// and Step 5 walks, and Step 5's green rows and columns.
    pub ma: Tensor,
    pub mb: Tensor,
    /// Scalar mirrors.
    pub len_m: Tensor,
    pub pass_m: Tensor,
    /// Mirror of `sel`, which A5's one-prime Step 4 writes from.
    pub sel_m: Tensor,
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
    /// Collector flag (sparse and tiled): Step 6's δ was finite, so the
    /// dual update may run.
    pub delta_ok: Option<Tensor>,
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
        let row_prime = g.add_tensor("row_prime", DType::I32, n);
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
            (row_prime, 1),
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
        let sel = g.add_tensor("sel", DType::I32, 2);
        let iterations = g.add_tensor("iterations", DType::I32, 1);
        let ctr_aug = g.add_tensor("ctr_aug", DType::I32, 1);
        let ctr_dual = g.add_tensor("ctr_dual", DType::I32, 1);
        let infeasible = g.add_tensor("infeasible", DType::I32, 1);
        for tensor in [
            green_rows, green_cols, green_len, not_done, searching, st1, st0, pass, pass_lt, sel,
            iterations, ctr_aug, ctr_dual, infeasible,
        ] {
            g.map_to_tile(tensor, c)?;
        }

        // Replicated mirrors.
        let ccm = g.add_replicated("ccm", DType::I32, n);
        let ma = g.add_replicated("mirror_a", DType::I32, n);
        let mb = g.add_replicated("mirror_b", DType::I32, n);
        let len_m = g.add_replicated("len_m", DType::I32, 1);
        let pass_m = g.add_replicated("pass_m", DType::I32, 1);
        let sel_m = g.add_replicated("sel_m", DType::I32, 2);
        let delta_m = g.add_replicated("delta_m", DType::F32, 1);

        // Representation-specific tensors, created strictly after every
        // shared tensor so the shared tensors keep the same ids and
        // placement in every storage mode.
        let mut cand = None;
        let mut host_cost = None;
        let mut vm = None;
        let mut rowacc = None;
        let mut delta_ok = None;
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
            g.map_to_tile(ok, c)?;
            delta_ok = Some(ok);
        }

        let t = Ts {
            slack,
            compress,
            zero_count,
            seg_min,
            row_total,
            row_star,
            row_prime,
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
            sel,
            iterations,
            ctr_aug,
            ctr_dual,
            infeasible,
            ccm,
            ma,
            mb,
            len_m,
            pass_m,
            sel_m,
            delta_m,
            cand,
            host_cost,
            vm,
            rowacc,
            delta_ok,
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

    /// Builds a refresh of the replicated `mirror` from the distributed
    /// `src` (laid out per `intervals`): one broadcast straight from the
    /// owning tiles, which on multi-chip layouts spreads the per-replica
    /// link traffic across every owning tile's chip. Every mirror of
    /// distributed state is refreshed here: Step 2's proposals and column
    /// stars, and the search loop's keys, column stars and column covers.
    /// A one-chip layout on a multi-IPU device (`LayoutMode::Flat`, and
    /// the sparse and tiled programs, which are flat by construction)
    /// instead gathers `src` into a collector tensor named `name` and
    /// broadcasts from there. That is the chip-oblivious reference the
    /// chip-aware layout is measured against, so the chip-aware cut
    /// includes this detour (DESIGN.md §15 gives its share).
    pub fn refresh_mirror(
        &mut self,
        name: &str,
        src: Tensor,
        mirror: Tensor,
        intervals: &[(Range<usize>, usize)],
    ) -> Result<Program, GraphError> {
        if self.l.chips == 1 && self.g.config().ipus > 1 {
            let gathered = self.g.add_tensor(name, src.dtype(), src.len());
            self.g.map_to_tile(gathered, self.l.collector_tile)?;
            let pairs = intervals
                .iter()
                .map(|(r, _)| (src.slice(r.clone()), gathered.slice(r.clone())))
                .collect();
            return Ok(Program::seq(vec![
                Program::exchange(pairs),
                Program::broadcast(gathered.whole(), mirror.whole()),
            ]));
        }
        Ok(Program::broadcast(src.whole(), mirror.whole()))
    }

    /// Builds a reduction of a distributed tensor to a scalar on the
    /// collector tile, with `finish` fused into its last vertex, fanning
    /// in through the layout's chips where poplib's cost rule says it
    /// pays ([`poplib::reduce_to_scalar`]).
    pub fn reduce_scalar(
        &mut self,
        name: &str,
        input: Tensor,
        op: ReduceOp,
        finish: Option<Finish>,
    ) -> Result<(Tensor, Program), GraphError> {
        poplib::reduce_to_scalar(
            &mut self.g,
            name,
            input,
            op,
            self.l.groups(),
            self.l.collector_tile,
            finish,
        )
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
        let (groups, tiles) = (self.l.groups(), self.g.config().tiles);
        let chips = groups.count(tiles);
        if chips == 1 {
            return Ok(Program::broadcast(src.whole(), mirror.whole()));
        }
        let n = src.len();
        let stage = self.g.add_tensor(&format!("{name}.stage"), src.dtype(), n);
        let mut pairs = Vec::with_capacity(chips);
        for c in 0..chips {
            let chunk = c * n / chips..(c + 1) * n / chips;
            if chunk.is_empty() {
                continue;
            }
            self.g
                .map_slice(stage.slice(chunk.clone()), groups.stage(c, tiles))?;
            pairs.push((src.slice(chunk.clone()), stage.slice(chunk)));
        }
        Ok(Program::seq(vec![
            Program::exchange(pairs),
            Program::broadcast(stage.whole(), mirror.whole()),
        ]))
    }

    /// Adds one vertex on the collector tile — the home of scalar control
    /// state (decode, flag updates, the green-stack walk).
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

//! Library subgraph builders — the simulator's equivalent of Poplar's
//! `popops` operators (reduce, broadcast, sort are invoked by the paper in
//! Steps 1, 2 and 6).
//!
//! Each builder adds tensors, compute sets, and vertices to a [`Graph`]
//! and returns a [`Program`] fragment that performs the operation. The
//! structure is exactly what the hardware demands:
//!
//! - scalar reductions: per-interval partial vertices on the data's own
//!   tiles (none when every interval holds one element) → a single-phase
//!   gather of ≤ `tiles` partials to a collector tile → one final
//!   superstep there (§IV-G notes that a ≤1472-element temporary always
//!   fits one tile): six per-thread chunk folds joined by the tile's
//!   supervisor vertex, or one vertex where the model prices that lower
//!   (a few partials), which can run a caller's [`Finish`] on the result;
//! - column-wise reductions over a row-distributed matrix: per-tile
//!   partial vectors combined along a binary tree of exchange+min stages
//!   (`log2(tiles)` supersteps), then multicast back to every tile.
//!
//! Both take [`TileGroups`], a partition of the tiles into groups, each
//! with a staging tile. One group gives the structures above. With the
//! chips of a multi-IPU device as the groups, a scalar reduction whose
//! static cost rule says so folds each chip's partials on its staging
//! tile before one scalar per chip crosses an IPU-Link, and a column
//! reduction combines each chip's partials on-chip and crosses the links
//! once, between the chips' staging tiles.

use crate::calibration;
use crate::codelet::{cost, Codelet, VertexCtx};
use crate::error::GraphError;
use crate::graph::{Access, ComputeSetId, Graph};
use crate::program::Program;
use crate::tensor::{DType, Tensor, TensorSlice};
use crate::IpuConfig;
use std::num::NonZeroUsize;

/// Associative reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
}

impl ReduceOp {
    fn f32_identity(self) -> f32 {
        match self {
            ReduceOp::Min => f32::INFINITY,
            ReduceOp::Max => f32::NEG_INFINITY,
            ReduceOp::Sum => 0.0,
        }
    }

    fn f32_apply(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Sum => a + b,
        }
    }

    /// Folds a slice with this operator. `Min`/`Max` use the chunked
    /// vectorizable kernels — value-exact to the sequential fold for the
    /// NaN-free data the library reduces — while `Sum` stays strictly
    /// sequential because float addition is not reassociation-safe.
    fn f32_fold(self, xs: &[f32]) -> f32 {
        match self {
            ReduceOp::Min => crate::kernels::min_f32(xs),
            ReduceOp::Max => crate::kernels::max_f32(xs),
            ReduceOp::Sum => xs
                .iter()
                .fold(self.f32_identity(), |a, &b| self.f32_apply(a, b)),
        }
    }

    /// Elementwise `acc[i] = op(acc[i], xs[i])`. Branches on the operator
    /// once so the inner loop vectorizes; per-element fold order is
    /// unchanged, so all three operators (including `Sum`) stay bit-exact.
    fn f32_accumulate(self, acc: &mut [f32], xs: &[f32]) {
        match self {
            ReduceOp::Min => crate::kernels::min_assign(acc, xs),
            ReduceOp::Max => crate::kernels::max_assign(acc, xs),
            ReduceOp::Sum => crate::kernels::add_assign(acc, xs),
        }
    }

    fn i32_identity(self) -> i32 {
        match self {
            ReduceOp::Min => i32::MAX,
            ReduceOp::Max => i32::MIN,
            ReduceOp::Sum => 0,
        }
    }

    fn i32_apply(self, a: i32, b: i32) -> i32 {
        match self {
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Sum => a.saturating_add(b),
        }
    }
}

/// Work fused into the vertex that writes a scalar reduction's result
/// (the last vertex of [`reduce_on_tile`]), on the output tile, so a
/// consumer of the scalar pays no superstep of its own. The vertex sees
/// the values it folds (the per-thread partials, or the whole input when
/// one vertex folds a short one) as field 0 and the result, already
/// written, as field 1; `fields` are connected after them, from field 2
/// on. The codelet returns its own instruction count, which the vertex
/// adds to the fold's.
pub struct Finish {
    /// Extra regions of the final vertex, all on the output tile.
    pub fields: Vec<(TensorSlice, Access)>,
    /// The fused work.
    pub codelet: Box<Codelet>,
}

/// The codelet that folds field 0 with `op` into the single element of
/// field 1 — every stage of the scalar reductions runs it.
fn fold_codelet(op: ReduceOp, dtype: DType) -> impl Fn(&VertexCtx) -> u64 + Copy + 'static {
    move |ctx: &VertexCtx| match dtype {
        DType::F32 => {
            let src = ctx.f32(0);
            ctx.f32_mut(1)[0] = op.f32_fold(&src);
            cost::f32_scan(src.len())
        }
        DType::I32 => {
            let src = ctx.i32(0);
            let acc = src
                .iter()
                .fold(op.i32_identity(), |a, &b| op.i32_apply(a, b));
            ctx.i32_mut(1)[0] = acc;
            cost::i32_scan(src.len())
        }
    }
}

/// The per-interval stage of the scalar reductions: a tensor whose
/// element `i` holds the fold of `input`'s mapping interval `i`, on that
/// interval's tile. By default the folds are worker vertices of a new
/// compute set, returned as a program; when every interval holds one
/// element, `input` already is that tensor and is returned as is, with
/// no compute set (folding one element is the identity for every
/// [`ReduceOp`], so the result is bit-identical). With `fused`, the folds
/// are supervisors of that compute set instead ([`supervised_partials`]).
fn interval_partials(
    g: &mut Graph,
    name: &str,
    input: Tensor,
    op: ReduceOp,
    fused: Option<ComputeSetId>,
) -> Result<(Tensor, Option<Program>), GraphError> {
    let intervals: Vec<(usize, usize, usize)> = g.tensors[input.id].mapping.clone();
    if intervals.is_empty() {
        return Err(GraphError::Unmapped {
            tensor: g.tensors[input.id].name.clone(),
            element: 0,
        });
    }
    // Intervals are disjoint and non-empty, so as many intervals as
    // elements means one element each, interval `i` holding element `i`.
    if fused.is_none() && intervals.len() == input.len() {
        return Ok((input, None));
    }
    let dtype = input.dtype();
    let partials = g.add_tensor(&format!("{name}.partials"), dtype, intervals.len());
    let cs = fused.unwrap_or_else(|| g.add_compute_set(&format!("{name}.partial")));
    for (i, &(s, e, tile)) in intervals.iter().enumerate() {
        g.map_slice(partials.element(i), tile)?;
        let vname = format!("{name}.partial[{i}]");
        let v = match fused {
            Some(_) => g.add_supervisor(cs, tile, &vname, fold_codelet(op, dtype))?,
            None => g.add_vertex(cs, tile, &vname, fold_codelet(op, dtype))?,
        };
        g.connect(v, input.slice(s..e), Access::Read)?;
        g.connect(v, partials.element(i), Access::Write)?;
    }
    Ok((partials, fused.is_none().then(|| Program::execute(cs))))
}

/// The per-interval stage of a scalar reduction, as supervisors
/// ([`Graph::add_supervisor`]) of the compute set `cs` that writes
/// `input`, one per interval, so it costs no superstep of its own. Pass
/// the returned partials to [`reduce_to_scalar`], which then skips its
/// partial stage. `input` needs one interval per tile.
pub fn supervised_partials(
    g: &mut Graph,
    cs: ComputeSetId,
    name: &str,
    input: Tensor,
    op: ReduceOp,
) -> Result<Tensor, GraphError> {
    Ok(interval_partials(g, name, input, op, Some(cs))?.0)
}

/// A partition of a device's tiles into groups of `size` consecutive
/// tiles (the last group may be short), each staged through its last
/// tile: the tile groups that [`reduce_to_scalar`] and
/// [`reduce_columns_mirrored`] fan in through. [`TileGroups::ONE`] is
/// the flat structure. Groups of `tiles_per_ipu` tiles are the chips of
/// a multi-IPU device, whose staging tiles keep each chip's traffic off
/// the IPU-Links until one exchange crosses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGroups {
    size: NonZeroUsize,
}

impl TileGroups {
    /// Every tile in one group.
    pub const ONE: Self = Self {
        size: NonZeroUsize::MAX,
    };

    /// Groups of `size` consecutive tiles.
    pub const fn blocks(size: NonZeroUsize) -> Self {
        Self { size }
    }

    /// The number of groups on a device of `tiles` tiles.
    pub fn count(self, tiles: usize) -> usize {
        tiles.div_ceil(self.size.get())
    }

    /// Group `group`'s staging tile on a device of `tiles` tiles: the
    /// group's last tile.
    pub fn stage(self, group: usize, tiles: usize) -> usize {
        (group + 1).saturating_mul(self.size.get()).min(tiles) - 1
    }

    fn group_of(self, tile: usize) -> usize {
        tile / self.size.get()
    }

    /// The owners of `mapping`'s intervals, split by group: one entry per
    /// group that owns any, in group order.
    fn split(self, tiles: usize, mapping: &[(usize, usize, usize)]) -> Vec<Group> {
        let mut owners = vec![Vec::new(); self.count(tiles)];
        for (i, &(_, _, tile)) in mapping.iter().enumerate() {
            owners[self.group_of(tile)].push((i, tile));
        }
        owners
            .into_iter()
            .enumerate()
            .filter(|(_, owners)| !owners.is_empty())
            .map(|(index, owners)| Group {
                index,
                stage: self.stage(index, tiles),
                owners,
            })
            .collect()
    }
}

/// One group's share of a reduction's owners ([`TileGroups::split`]).
struct Group {
    index: usize,
    stage: usize,
    /// (interval, tile) pairs in interval order.
    owners: Vec<(usize, usize)>,
}

/// Builds a reduction of an arbitrarily-distributed tensor to a 1-element
/// tensor on `out_tile`, with `finish` fused into its last vertex.
/// Returns the output tensor and the program fragment: the per-interval
/// partials (skipped when every interval holds one element), one gather
/// exchange, and the on-tile final stage.
///
/// Where `groups` leaves partials outside `out_tile`'s group and the
/// static rule of `group_level_pays` prices it, the gather takes two
/// levels instead: one exchange gathers each group's partials to its
/// staging tile (every pair inside its group), one superstep folds them
/// there, and one exchange moves a scalar per group to `out_tile`. The
/// grouped fold combines per group, then in group order: the same bits
/// for `Min`, `Max` and the i32 `Sum` away from saturation, while an f32
/// `Sum` may round differently.
pub fn reduce_to_scalar(
    g: &mut Graph,
    name: &str,
    input: Tensor,
    op: ReduceOp,
    groups: TileGroups,
    out_tile: usize,
    finish: Option<Finish>,
) -> Result<(Tensor, Program), GraphError> {
    let (partials, partial_prog) = interval_partials(g, name, input, op, None)?;
    let dtype = input.dtype();
    let mut program: Vec<Program> = partial_prog.into_iter().collect();
    let split = groups.split(g.config().tiles, &g.tensors[partials.id].mapping);
    let root = groups.group_of(out_tile);
    let mut off_group: Vec<usize> = split
        .iter()
        .filter(|s| s.index != root)
        .flat_map(|s| s.owners.iter().map(|&(_, tile)| tile))
        .collect();
    off_group.sort_unstable();
    off_group.dedup();

    // The collector tile gathers one partial per interval, or one folded
    // scalar per group.
    let grouped = group_level_pays(g.config(), off_group.len());
    let mut stages = Vec::new();
    let gathered = if grouped {
        let chipgath = g.add_tensor(&format!("{name}.chipgath"), dtype, partials.len());
        let chipout = g.add_tensor(&format!("{name}.chipout"), dtype, split.len());
        let rootgath = g.add_tensor(&format!("{name}.rootgath"), dtype, split.len());
        g.map_to_tile(rootgath, out_tile)?;
        let cs = g.add_compute_set(&format!("{name}.chipred"));
        let (mut gather, mut cross) = (Vec::new(), Vec::new());
        let mut off = 0;
        for (j, s) in split.iter().enumerate() {
            let block = chipgath.slice(off..off + s.owners.len());
            g.map_slice(block, s.stage)?;
            g.map_slice(chipout.element(j), s.stage)?;
            for (i, &(elem, _)) in s.owners.iter().enumerate() {
                gather.push((partials.element(elem), chipgath.element(off + i)));
            }
            let vname = format!("{name}.chipred[{}]", s.index);
            let v = g.add_vertex(cs, s.stage, &vname, fold_codelet(op, dtype))?;
            g.connect(v, block, Access::Read)?;
            g.connect(v, chipout.element(j), Access::Write)?;
            cross.push((chipout.element(j), rootgath.element(j)));
            off += s.owners.len();
        }
        stages.extend([
            Program::exchange(gather),
            Program::execute(cs),
            Program::exchange(cross),
        ]);
        rootgath
    } else {
        let k = partials.len();
        let gathered = g.add_tensor(&format!("{name}.gathered"), dtype, k);
        g.map_to_tile(gathered, out_tile)?;
        stages.push(Program::exchange(
            (0..k)
                .map(|i| (partials.element(i), gathered.element(i)))
                .collect(),
        ));
        gathered
    };
    let out = g.add_tensor(&format!("{name}.out"), dtype, 1);
    g.map_to_tile(out, out_tile)?;

    // Final stage: reduce the gathered values on the collector tile,
    // using all hardware threads when their count warrants it (a
    // single-thread scan would run at 1/6 of the tile's issue rate).
    stages.push(reduce_on_tile(
        g,
        &format!("{name}.final"),
        gathered,
        out,
        op,
        out_tile,
        finish,
    )?);
    // The two-level stages are one node of the program tree, which the
    // modeled program image counts.
    match grouped {
        true => program.push(Program::seq(stages)),
        false => program.extend(stages),
    }
    Ok((out, Program::seq(program)))
}

/// Whether a scalar reduction's per-group fold pays for itself when
/// `off_group` tiles outside the output tile's group hold partials: the
/// flat gather pushes their `4·off_group` bytes through the output
/// tile's IPU-Link, while the extra level costs one exchange phase and
/// one compute set, each with its sync. Both sides are static per shape,
/// so the structure is fixed at build time: one group never pays, tiny
/// multi-chip shapes keep the flat gather and Mk2-scale ones fold per
/// chip. The link rate prices the one multi-group grouping in use, the
/// chips.
fn group_level_pays(config: &IpuConfig, off_group: usize) -> bool {
    let saved = off_group as f64 * 4.0 / config.inter_ipu_bytes_per_cycle;
    let overhead = 2.0 * (config.sync_cycles + config.exchange_setup_cycles) as f64;
    saved > overhead
}

/// Reduces a tensor that lives entirely on `tile` into a 1-element `out`
/// tensor on the same tile, in one superstep: one worker vertex per
/// hardware thread folds a chunk of the input, and the tile's supervisor
/// ([`Graph::add_supervisor`]) folds their partials into `out` and runs
/// `finish`. An input short enough that one vertex folding it all is
/// priced below the workers, the supervisor and the join
/// ([`calibration::SUPERVISOR_JOIN_CYCLES`]) gets that one vertex, with
/// `finish` fused into it. An f32 `Sum` always keeps the chunked order,
/// since float addition is not reassociation-safe.
pub fn reduce_on_tile(
    g: &mut Graph,
    name: &str,
    input: Tensor,
    out: Tensor,
    op: ReduceOp,
    tile: usize,
    finish: Option<Finish>,
) -> Result<Program, GraphError> {
    let dtype = input.dtype();
    if out.dtype() != dtype || out.len() != 1 {
        return Err(GraphError::BadSlice {
            detail: format!("{name}: output must be a 1-element tensor of the input dtype"),
        });
    }
    let threads = g.config().threads_per_tile;
    let n = input.len();
    let fold = fold_codelet(op, dtype);
    let (fields, then) = match finish {
        Some(Finish { fields, codelet }) => (fields, Some(codelet)),
        None => (Vec::new(), None),
    };
    let last = move |ctx: &VertexCtx| fold(ctx) + then.as_ref().map_or(0, |f| f(ctx));
    let cs = g.add_compute_set(name);
    let (folded, v) = if op_order_free(op, dtype) && one_vertex_is_cheaper(dtype, n, threads) {
        (input, g.add_vertex(cs, tile, name, last)?)
    } else {
        let per = n.div_ceil(threads);
        let parts = g.add_tensor(&format!("{name}.parts"), dtype, threads);
        g.map_to_tile(parts, tile)?;
        for t in 0..threads {
            let chunk = input.slice((t * per).min(n)..((t + 1) * per).min(n));
            let v = g.add_vertex_on_thread(cs, tile, t, &format!("{name}.chunk{t}"), fold)?;
            g.connect(v, chunk, Access::Read)?;
            g.connect(v, parts.element(t), Access::Write)?;
        }
        (parts, g.add_supervisor(cs, tile, name, last)?)
    };
    g.connect(v, folded.whole(), Access::Read)?;
    g.connect(v, out.whole(), Access::Write)?;
    for (slice, access) in fields {
        g.connect(v, slice, access)?;
    }
    Ok(Program::execute(cs))
}

/// Whether folding with `op` in any grouping gives the same bits: true
/// for `Min` and `Max`, and for the i32 `Sum` short of saturation; an
/// f32 `Sum` rounds differently when regrouped.
fn op_order_free(op: ReduceOp, dtype: DType) -> bool {
    op != ReduceOp::Sum || dtype == DType::I32
}

/// Whether one vertex folding all `n` elements of an on-tile reduction
/// costs fewer modeled cycles than `threads` chunk workers followed by
/// the supervisor's fold of their partials and the join. A fused
/// [`Finish`] costs the same either way, at the lone-thread rate.
fn one_vertex_is_cheaper(dtype: DType, n: usize, threads: usize) -> bool {
    let scan = |len: usize| match dtype {
        DType::F32 => cost::f32_scan(len),
        DType::I32 => cost::i32_scan(len),
    };
    let vertex = |len: usize| threads as u64 * (scan(len) + calibration::VERTEX_OVERHEAD);
    let split = vertex(n.div_ceil(threads)) + vertex(threads) + calibration::SUPERVISOR_JOIN_CYCLES;
    vertex(n) < split
}

/// The codelet that folds the `cols`-wide rows of field 0 into the
/// `cols` elements of field 1 with `op`, sweeping rows instead of
/// scanning columns: each column still folds identity-then-rows-
/// ascending (bit-exact for every operator), but the inner loop is
/// elementwise and vectorizes.
fn row_sweep_codelet(op: ReduceOp, cols: usize) -> impl Fn(&VertexCtx) -> u64 + Copy + 'static {
    move |ctx: &VertexCtx| {
        let src = ctx.f32(0);
        let mut out = ctx.f32_mut(1);
        out.fill(op.f32_identity());
        for row in src.chunks_exact(cols) {
            op.f32_accumulate(&mut out, row);
        }
        cost::f32_scan(src.len())
    }
}

/// Builds a column-wise reduction over a row-major `rows x cols` matrix
/// distributed by rows (the 1D decomposition of §IV-A): the result is a
/// `cols`-element vector **mirrored on every row-owning tile** so each
/// tile can use it locally (e.g. Step 1's column-minimum subtraction).
///
/// Each owner folds its rows into a partial vector, and each group's
/// owners combine theirs along a binary tree; every group's pairs stay
/// inside the group and share each stage's exchange phase. With one
/// group in `groups`, the head owner's vector is then broadcast to every
/// owner. With more, every group's head vector goes to every group's
/// staging tile (the only phase between groups), and each staging tile
/// folds them in group order and fans the result out to its own group's
/// owners. Grouping changes the combination order: the same bits for
/// `Min` and `Max`, while an f32 `Sum` may round differently.
///
/// Returns `(mirror, program)` where `mirror` has one `cols`-sized block
/// per owning tile, in owner order.
pub fn reduce_columns_mirrored(
    g: &mut Graph,
    name: &str,
    matrix: Tensor,
    rows: usize,
    cols: usize,
    op: ReduceOp,
    groups: TileGroups,
) -> Result<(Tensor, Program), GraphError> {
    if matrix.len() != rows * cols || matrix.dtype() != DType::F32 {
        return Err(GraphError::BadSlice {
            detail: format!("{name}: matrix must be f32 of {rows}x{cols}"),
        });
    }
    // Owners: tiles holding the matrix, in interval order. With a
    // row-block mapping each owner's interval is a whole number of rows.
    let intervals: Vec<(usize, usize, usize)> = g.tensors[matrix.id].mapping.clone();
    if intervals.is_empty() {
        return Err(GraphError::Unmapped {
            tensor: g.tensors[matrix.id].name.clone(),
            element: 0,
        });
    }
    for &(s, e, _) in &intervals {
        if s % cols != 0 || e % cols != 0 {
            return Err(GraphError::BadSlice {
                detail: format!("{name}: matrix mapping must align to whole rows"),
            });
        }
    }
    let k = intervals.len();
    let tiles = g.config().tiles;
    let split = groups.split(tiles, &intervals);
    let block = move |i: usize| i * cols..(i + 1) * cols;

    // Partial vectors: block i on owner i. Incoming buffers for the
    // trees: only a group's even-positioned owners ever receive.
    let partials = g.add_tensor(&format!("{name}.colpart"), DType::F32, k * cols);
    for (i, &(_, _, tile)) in intervals.iter().enumerate() {
        g.map_slice(partials.slice(block(i)), tile)?;
    }
    let receivers: Vec<usize> = split
        .iter()
        .flat_map(|s| s.owners.iter().step_by(2).map(|&(_, tile)| tile))
        .collect();
    let incoming = g.add_tensor(
        &format!("{name}.colrecv"),
        DType::F32,
        receivers.len() * cols,
    );
    for (b, &tile) in receivers.iter().enumerate() {
        g.map_slice(incoming.slice(block(b)), tile)?;
    }

    // Stage 0: each owner reduces its own rows into its partial vector.
    let cs0 = g.add_compute_set(&format!("{name}.colpartial"));
    for (i, &(s, e, tile)) in intervals.iter().enumerate() {
        let vname = format!("{name}.colpartial[{i}]");
        let v = g.add_vertex(cs0, tile, &vname, row_sweep_codelet(op, cols))?;
        g.connect(v, matrix.slice(s..e), Access::Read)?;
        g.connect(v, partials.slice(block(i)), Access::Write)?;
    }
    let mut steps = vec![Program::execute(cs0)];

    // Binary combining trees: at stage `step`, a group's owner at
    // position `i` (i % 2·step == 0) receives the partial of its owner
    // at `i + step` and folds it in.
    let widest = split.iter().map(|s| s.owners.len()).max().unwrap_or(0);
    let mut step = 1usize;
    while step < widest {
        let mut pairs = Vec::new();
        let cs = g.add_compute_set(&format!("{name}.colcombine[{step}]"));
        let mut base = 0;
        for s in &split {
            for i in (0..s.owners.len().saturating_sub(step)).step_by(2 * step) {
                let ((src, _), (dst, tile)) = (s.owners[i + step], s.owners[i]);
                let recv = incoming.slice(block(base + i / 2));
                pairs.push((partials.slice(block(src)), recv));
                let vname = format!("{name}.colcombine[{step}][{i}]");
                let v = g.add_vertex(cs, tile, &vname, move |ctx| {
                    let inc = ctx.f32(0);
                    let mut acc = ctx.f32_mut(1);
                    op.f32_accumulate(&mut acc, &inc);
                    cost::f32_update(acc.len())
                })?;
                g.connect(v, recv, Access::Read)?;
                g.connect(v, partials.slice(block(dst)), Access::ReadWrite)?;
            }
            base += s.owners.len().div_ceil(2);
        }
        steps.push(Program::exchange(pairs));
        steps.push(Program::execute(cs));
        step *= 2;
    }

    // Between groups: every group's head vector lands on every group's
    // staging tile, each from a distinct head tile, and each staging
    // tile folds them into the group's result.
    let a = split.len();
    let stagevec = if groups.count(tiles) > 1 {
        let allrecv = g.add_tensor(&format!("{name}.allrecv"), DType::F32, a * a * cols);
        let stagevec = g.add_tensor(&format!("{name}.stagevec"), DType::F32, a * cols);
        let mut cross = Vec::with_capacity(a * a);
        for (j, s) in split.iter().enumerate() {
            g.map_slice(allrecv.slice(j * a * cols..(j + 1) * a * cols), s.stage)?;
            g.map_slice(stagevec.slice(block(j)), s.stage)?;
            for (h, head) in split.iter().enumerate() {
                let (owner, _) = head.owners[0];
                cross.push((
                    partials.slice(block(owner)),
                    allrecv.slice(block(j * a + h)),
                ));
            }
        }
        steps.push(Program::exchange(cross));
        let cs_fold = g.add_compute_set(&format!("{name}.chipfold"));
        for (j, s) in split.iter().enumerate() {
            let vname = format!("{name}.chipfold[{}]", s.index);
            let v = g.add_vertex(cs_fold, s.stage, &vname, row_sweep_codelet(op, cols))?;
            g.connect(
                v,
                allrecv.slice(j * a * cols..(j + 1) * a * cols),
                Access::Read,
            )?;
            g.connect(v, stagevec.slice(block(j)), Access::Write)?;
        }
        steps.push(Program::execute(cs_fold));
        Some(stagevec)
    } else {
        None
    };

    // Multicast the result to a per-owner mirror: from the head owner's
    // partial with one group, from each staging tile to its own group's
    // owners with more.
    let mirror = g.add_tensor(&format!("{name}.colmirror"), DType::F32, k * cols);
    for (i, &(_, _, tile)) in intervals.iter().enumerate() {
        g.map_slice(mirror.slice(block(i)), tile)?;
    }
    steps.push(match stagevec {
        None => Program::broadcast(partials.slice(block(0)), mirror.whole()),
        Some(stagevec) => Program::exchange(
            split
                .iter()
                .enumerate()
                .flat_map(|(j, s)| {
                    s.owners.iter().map(move |&(owner, _)| {
                        (stagevec.slice(block(j)), mirror.slice(block(owner)))
                    })
                })
                .collect(),
        ),
    });
    Ok((mirror, Program::seq(steps)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpuConfig;

    fn device(tiles: usize) -> Graph {
        Graph::new(IpuConfig::tiny(tiles))
    }

    #[test]
    fn scalar_min_over_distributed_tensor() {
        let mut g = device(4);
        let t = g.add_tensor("t", DType::F32, 16);
        g.map_evenly(t).unwrap();
        let (out, prog) =
            reduce_to_scalar(&mut g, "min", t, ReduceOp::Min, TileGroups::ONE, 0, None).unwrap();
        let mut e = g.compile(prog).unwrap();
        let data: Vec<f32> = (0..16).map(|i| 100.0 - i as f32).collect();
        e.write_f32(t, &data).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(out), vec![85.0]);
        // Two supersteps (partials + final) and one gather exchange.
        assert_eq!(e.stats().supersteps, 2);
        assert_eq!(e.stats().exchanges, 1);
    }

    #[test]
    fn scalar_sum_i32() {
        let mut g = device(3);
        let t = g.add_tensor("t", DType::I32, 9);
        g.map_evenly(t).unwrap();
        let (out, prog) =
            reduce_to_scalar(&mut g, "sum", t, ReduceOp::Sum, TileGroups::ONE, 2, None).unwrap();
        let mut e = g.compile(prog).unwrap();
        e.write_i32(t, &[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_i32(out), vec![45]);
    }

    #[test]
    fn scalar_max_single_tile() {
        let mut g = device(2);
        let t = g.add_tensor("t", DType::I32, 5);
        g.map_to_tile(t, 1).unwrap();
        let (out, prog) =
            reduce_to_scalar(&mut g, "max", t, ReduceOp::Max, TileGroups::ONE, 0, None).unwrap();
        let mut e = g.compile(prog).unwrap();
        e.write_i32(t, &[-3, 9, 2, 9, 0]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_i32(out), vec![9]);
    }

    #[test]
    fn column_min_mirrored_on_every_owner() {
        // 6x4 matrix over 3 tiles (2 rows each).
        let rows = 6;
        let cols = 4;
        let mut g = device(3);
        let m = g.add_tensor("m", DType::F32, rows * cols);
        g.map_chunks_round_robin(m, 2 * cols, 0, 3).unwrap();
        let (mirror, prog) = reduce_columns_mirrored(
            &mut g,
            "colmin",
            m,
            rows,
            cols,
            ReduceOp::Min,
            TileGroups::ONE,
        )
        .unwrap();
        let mut e = g.compile(prog).unwrap();
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 7 + 3) % 23) as f64 as f32)
            .collect();
        e.write_f32(m, &data).unwrap();
        e.run().unwrap();
        // Expected column minima.
        let mut expect = vec![f32::INFINITY; cols];
        for r in 0..rows {
            for c in 0..cols {
                expect[c] = expect[c].min(data[r * cols + c]);
            }
        }
        let got = e.read_f32(mirror);
        for owner in 0..3 {
            assert_eq!(&got[owner * cols..(owner + 1) * cols], &expect[..]);
        }
    }

    #[test]
    fn column_sum_matches_reference_with_many_owners() {
        // 8 owners exercises a multi-stage combining tree including the
        // odd tail.
        let rows = 8;
        let cols = 3;
        let mut g = device(8);
        let m = g.add_tensor("m", DType::F32, rows * cols);
        g.map_chunks_round_robin(m, cols, 0, 8).unwrap();
        let (mirror, prog) = reduce_columns_mirrored(
            &mut g,
            "colsum",
            m,
            rows,
            cols,
            ReduceOp::Sum,
            TileGroups::ONE,
        )
        .unwrap();
        let mut e = g.compile(prog).unwrap();
        let data: Vec<f32> = (0..rows * cols).map(|i| (i % 5) as f32).collect();
        e.write_f32(m, &data).unwrap();
        e.run().unwrap();
        let mut expect = vec![0.0f32; cols];
        for r in 0..rows {
            for c in 0..cols {
                expect[c] += data[r * cols + c];
            }
        }
        let got = e.read_f32(mirror);
        assert_eq!(&got[0..cols], &expect[..]);
        assert_eq!(&got[7 * cols..8 * cols], &expect[..]);
    }

    /// A 2-chip device of `per_chip` tiles per chip whose IPU-Links are
    /// slow enough that folding per chip pays, and its chips as groups.
    fn slow_link_chips(per_chip: usize) -> (IpuConfig, TileGroups) {
        let config = IpuConfig {
            inter_ipu_bytes_per_cycle: 1e-3,
            ..IpuConfig::tiny_multi(2, per_chip)
        };
        let chips = TileGroups::blocks(NonZeroUsize::new(per_chip).unwrap());
        (config, chips)
    }

    #[test]
    fn hier_scalar_reduce_matches_flat_on_multi_chip() {
        // 2 chips x 4 tiles; data spread over the first 3 tiles of each
        // chip; output on the last tile.
        let (config, chips) = slow_link_chips(4);
        let n = 24;
        let data: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 101 - 50).collect();
        for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Sum] {
            let run = |groups: TileGroups| {
                let mut g = Graph::new(config.clone());
                let t = g.add_tensor("t", DType::I32, n);
                for (i, tile) in [0usize, 1, 2, 4, 5, 6].iter().enumerate() {
                    g.map_slice(t.slice(i * 4..(i + 1) * 4), *tile).unwrap();
                }
                let (out, prog) = reduce_to_scalar(&mut g, "r", t, op, groups, 7, None).unwrap();
                let mut e = g.compile(prog).unwrap();
                e.write_i32(t, &data).unwrap();
                e.run().unwrap();
                (e.read_i32(out)[0], e.stats().clone())
            };
            let (flat_val, flat_stats) = run(TileGroups::ONE);
            let (hier_val, hier_stats) = run(chips);
            assert_eq!(flat_val, hier_val, "{op:?}");
            // The grouped gather crosses the IPU-Link with 2 scalars (one
            // per chip) instead of 3 partials from the remote chip, at the
            // price of one more exchange.
            assert_eq!(hier_stats.exchanges, flat_stats.exchanges + 1, "{op:?}");
        }
    }

    #[test]
    fn hier_scalar_reduce_single_active_chip() {
        // All data on chip 0, output on chip 1: the cross phase carries
        // one scalar.
        let (config, chips) = slow_link_chips(2);
        let mut g = Graph::new(config);
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_slice(t.slice(0..4), 0).unwrap();
        g.map_slice(t.slice(4..8), 1).unwrap();
        let (out, prog) = reduce_to_scalar(&mut g, "r", t, ReduceOp::Min, chips, 3, None).unwrap();
        let mut e = g.compile(prog).unwrap();
        e.write_f32(t, &[5.0, 3.0, 8.0, 9.0, 4.0, 2.5, 7.0, 6.0])
            .unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(out), vec![2.5]);
        let chipred = e
            .stats()
            .per_compute_set
            .iter()
            .find(|s| s.name == "r.chipred");
        assert_eq!(chipred.map(|s| s.executions), Some(1));
    }

    #[test]
    fn hier_column_reduce_matches_flat_for_min() {
        // 6 rows over 2 chips x 4 tiles (3 owners per chip), min per
        // column: order-insensitive, so grouped must equal flat exactly.
        let rows = 6;
        let cols = 5;
        let (config, chips) = slow_link_chips(4);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 13 + 5) % 31) as f32 - 7.0)
            .collect();
        let run = |groups: TileGroups| {
            let mut g = Graph::new(config.clone());
            let m = g.add_tensor("m", DType::F32, rows * cols);
            for (i, tile) in [0usize, 1, 2, 4, 5, 6].iter().enumerate() {
                g.map_slice(m.slice(i * cols..(i + 1) * cols), *tile)
                    .unwrap();
            }
            let (mirror, prog) =
                reduce_columns_mirrored(&mut g, "cm", m, rows, cols, ReduceOp::Min, groups)
                    .unwrap();
            let mut e = g.compile(prog).unwrap();
            e.write_f32(m, &data).unwrap();
            e.run().unwrap();
            e.read_f32(mirror)
        };
        let flat = run(TileGroups::ONE);
        let hier = run(chips);
        assert_eq!(flat, hier);
        // Every owner block holds the true column minima.
        let mut expect = vec![f32::INFINITY; cols];
        for r in 0..rows {
            for c in 0..cols {
                expect[c] = expect[c].min(data[r * cols + c]);
            }
        }
        for owner in 0..rows {
            assert_eq!(&hier[owner * cols..(owner + 1) * cols], &expect[..]);
        }
    }

    /// Runs a scalar reduction of `values` (as `dtype`), laid out in
    /// `chunk`-element intervals round-robin over the data tiles of a
    /// 2-chip device whose IPU-Links are slow enough that folding per
    /// chip pays, with one group or one per chip. Returns the result's
    /// bits and the names of the compute sets that executed.
    fn reduce_run(
        per_chip: bool,
        dtype: DType,
        op: ReduceOp,
        values: &[f32],
        chunk: usize,
    ) -> (u32, Vec<String>) {
        let config = IpuConfig {
            inter_ipu_bytes_per_cycle: 1e-3,
            ..IpuConfig::tiny_multi(2, 4)
        };
        let groups = match per_chip {
            true => TileGroups::blocks(NonZeroUsize::new(4).unwrap()),
            false => TileGroups::ONE,
        };
        let mut g = Graph::new(config);
        let n = values.len();
        let t = g.add_tensor("t", dtype, n);
        for (i, s) in (0..n).step_by(chunk).enumerate() {
            let tile = [0, 1, 2, 4, 5, 6][i % 6];
            g.map_slice(t.slice(s..(s + chunk).min(n)), tile).unwrap();
        }
        let (out, prog) = reduce_to_scalar(&mut g, "r", t, op, groups, 7, None).unwrap();
        let mut e = g.compile(prog).unwrap();
        let bits = match dtype {
            DType::F32 => {
                e.write_f32(t, values).unwrap();
                e.run().unwrap();
                e.read_f32(out)[0].to_bits()
            }
            DType::I32 => {
                let ints: Vec<i32> = values.iter().map(|&v| v as i32).collect();
                e.write_i32(t, &ints).unwrap();
                e.run().unwrap();
                e.read_i32(out)[0] as u32
            }
        };
        let ran = e
            .stats()
            .per_compute_set
            .iter()
            .filter(|s| s.executions > 0)
            .map(|s| s.name.clone())
            .collect();
        (bits, ran)
    }

    /// `reduce_on_tile` as it was built before supervisor vertices: the
    /// per-thread chunk folds in one superstep, their combine in a
    /// second.
    fn two_stage_on_tile(g: &mut Graph, input: Tensor, out: Tensor, op: ReduceOp) -> Program {
        let dtype = input.dtype();
        let (n, threads) = (input.len(), g.config().threads_per_tile);
        let per = n.div_ceil(threads);
        let part6 = g.add_tensor("part6", dtype, threads);
        g.map_to_tile(part6, 0).unwrap();
        let chunks = g.add_compute_set("chunks");
        for t in 0..threads {
            let v = g
                .add_vertex_on_thread(chunks, 0, t, "chunk", fold_codelet(op, dtype))
                .unwrap();
            g.connect(
                v,
                input.slice((t * per).min(n)..((t + 1) * per).min(n)),
                Access::Read,
            )
            .unwrap();
            g.connect(v, part6.element(t), Access::Write).unwrap();
        }
        let combine = g.add_compute_set("combine");
        let v = g
            .add_vertex(combine, 0, "combine", fold_codelet(op, dtype))
            .unwrap();
        g.connect(v, part6.whole(), Access::Read).unwrap();
        g.connect(v, out.whole(), Access::Write).unwrap();
        Program::seq(vec![Program::execute(chunks), Program::execute(combine)])
    }

    #[test]
    fn one_superstep_on_tile_reduce_matches_the_two_stage_one_bit_for_bit() {
        // Mixed signs, signed zeros, infinities and magnitudes far apart,
        // so a reordered f32 sum would round differently.
        let pool = [
            3.0,
            -0.0,
            1e9,
            -2.25,
            f32::INFINITY,
            0.1,
            -1e9,
            7.5,
            f32::NEG_INFINITY,
            0.0,
            1e-3,
            -12.0,
        ];
        for n in [1, 2, 5, 6, 7, 13, 24, 25, 100] {
            for dtype in [DType::F32, DType::I32] {
                for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Sum] {
                    let values: Vec<f32> = (0..n)
                        .map(|i| match (dtype, op) {
                            // Infinities make an f32 sum NaN; keep them
                            // for the order-insensitive operators.
                            (DType::F32, ReduceOp::Sum) => pool[(i * 7) % 12].clamp(-1e9, 1e9),
                            _ => pool[(i * 7) % 12].clamp(-1e6, 1e6),
                        })
                        .collect();
                    let run = |one: bool| {
                        let mut g = device(1);
                        let t = g.add_tensor("t", dtype, n);
                        let out = g.add_tensor("out", dtype, 1);
                        g.map_to_tile(t, 0).unwrap();
                        g.map_to_tile(out, 0).unwrap();
                        let prog = if one {
                            reduce_on_tile(&mut g, "r", t, out, op, 0, None).unwrap()
                        } else {
                            two_stage_on_tile(&mut g, t, out, op)
                        };
                        let mut e = g.compile(prog).unwrap();
                        let bits = match dtype {
                            DType::F32 => {
                                e.write_f32(t, &values).unwrap();
                                e.run().unwrap();
                                e.read_f32(out)[0].to_bits()
                            }
                            DType::I32 => {
                                let ints: Vec<i32> = values.iter().map(|&v| v as i32).collect();
                                e.write_i32(t, &ints).unwrap();
                                e.run().unwrap();
                                e.read_i32(out)[0] as u32
                            }
                        };
                        (bits, e.stats().supersteps)
                    };
                    let (one, one_steps) = run(true);
                    let (two, two_steps) = run(false);
                    assert_eq!(one, two, "n={n} {dtype:?} {op:?}");
                    assert_eq!((one_steps, two_steps), (1, 2));
                }
            }
        }
    }

    #[test]
    fn short_on_tile_reductions_take_one_vertex_where_it_is_cheaper() {
        use crate::calibration::{SUPERVISOR_JOIN_CYCLES as JOIN, VERTEX_OVERHEAD as OH};
        let cycles = |dtype: DType, op: ReduceOp, n: usize| {
            let mut g = device(1);
            let t = g.add_tensor("t", dtype, n);
            let out = g.add_tensor("out", dtype, 1);
            g.map_to_tile(t, 0).unwrap();
            g.map_to_tile(out, 0).unwrap();
            let prog = reduce_on_tile(&mut g, "r", t, out, op, 0, None).unwrap();
            let mut e = g.compile(prog).unwrap();
            e.run().unwrap();
            assert_eq!(e.stats().supersteps, 1);
            e.stats().compute_cycles
        };
        // Six threads: one vertex folds all n at the lone-thread rate;
        // the split pays the widest chunk, the supervisor's fold of six
        // partials and the join.
        let one = |n: u64| 6 * (n + OH);
        let split = |n: u64| 6 * (n.div_ceil(6) + OH) + 6 * (6 + OH) + JOIN;
        // 8 column-segment partials: 108 cycles, not 180.
        assert_eq!(cycles(DType::I32, ReduceOp::Max, 8), one(8));
        assert_eq!((one(8), split(8)), (108, 180));
        // 256 row keys (the arg-max's final stage) keep the split.
        assert_eq!(cycles(DType::I32, ReduceOp::Max, 256), split(256));
        // The build picks the cheaper structure at every length.
        for n in 1..=40u64 {
            let best = one(n).min(split(n));
            assert_eq!(cycles(DType::I32, ReduceOp::Min, n as usize), best, "n={n}");
            assert_eq!(cycles(DType::I32, ReduceOp::Sum, n as usize), best, "n={n}");
        }
        // An f32 sum keeps the chunked order however short it is.
        let f32_split = 6 * (1 + OH) + 6 * (3 + OH) + JOIN;
        assert_eq!(cycles(DType::F32, ReduceOp::Sum, 8), f32_split);
    }

    #[test]
    fn single_element_intervals_skip_the_partial_stage_bit_identically() {
        let extremes = [
            3.0,
            -0.0,
            f32::INFINITY,
            7.5,
            f32::NEG_INFINITY,
            0.0,
            -2.25,
            1e9,
            4.0,
            -1e9,
            0.5,
            12.0,
        ];
        let moderate: Vec<f32> = (0..12).map(|i| ((i * 37) % 101 - 50) as f32).collect();
        let cases = [
            (DType::F32, ReduceOp::Max, &extremes[..]),
            (DType::F32, ReduceOp::Min, &extremes[..]),
            (DType::I32, ReduceOp::Max, &extremes[..]),
            (DType::I32, ReduceOp::Min, &extremes[..]),
            (DType::I32, ReduceOp::Sum, &moderate[..]),
        ];
        for per_chip in [false, true] {
            for (dtype, op, values) in cases {
                let (staged, staged_sets) = reduce_run(per_chip, dtype, op, values, 2);
                let (direct, direct_sets) = reduce_run(per_chip, dtype, op, values, 1);
                let what = format!("{dtype:?} {op:?} per_chip={per_chip}");
                assert_eq!(staged, direct, "{what}");
                assert!(staged_sets.iter().any(|s| s == "r.partial"), "{what}");
                assert!(!direct_sets.iter().any(|s| s == "r.partial"), "{what}");
                let folded = staged_sets.iter().any(|s| s == "r.chipred");
                assert_eq!(folded, per_chip, "{what}");
            }
        }
    }

    #[test]
    fn finish_runs_in_the_vertex_that_writes_the_result() {
        // 8 one-element intervals reach a one-vertex final stage, 60 a
        // threaded one (chunks, then a combine): either way the finish
        // sees the result and costs no superstep of its own.
        for n in [8usize, 60] {
            let run = |with_finish: bool| {
                let mut g = device(2);
                let t = g.add_tensor("t", DType::I32, n);
                for i in 0..n {
                    g.map_slice(t.element(i), 0).unwrap();
                }
                let doubled = g.add_tensor("doubled", DType::I32, 1);
                g.map_to_tile(doubled, 1).unwrap();
                let finish = with_finish.then(|| Finish {
                    fields: vec![(doubled.whole(), Access::Write)],
                    codelet: Box::new(|ctx| {
                        ctx.i32_mut(2)[0] = 2 * ctx.i32(1)[0];
                        cost::scalar(1)
                    }),
                });
                let (out, prog) =
                    reduce_to_scalar(&mut g, "r", t, ReduceOp::Max, TileGroups::ONE, 1, finish)
                        .unwrap();
                let mut e = g.compile(prog).unwrap();
                let data: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 101 - 50).collect();
                e.write_i32(t, &data).unwrap();
                e.run().unwrap();
                (
                    e.read_i32(out)[0],
                    e.read_i32(doubled)[0],
                    e.stats().supersteps,
                )
            };
            let (max, _, plain_steps) = run(false);
            let (same, doubled, steps) = run(true);
            assert_eq!(same, max, "n={n}");
            assert_eq!(doubled, 2 * max, "n={n}");
            assert_eq!(steps, plain_steps, "n={n}");
        }
    }

    #[test]
    fn a_level_per_chip_pays_past_sixteen_off_chip_tiles_at_mk2_link_rates() {
        // 4 bytes per off-chip tile at 0.16 B/cycle against two syncs and
        // two exchange setups: 25 cycles a tile against 400.
        let config = IpuConfig::tiny_multi(2, 24);
        assert!(!group_level_pays(&config, 0));
        assert!(!group_level_pays(&config, 16));
        assert!(group_level_pays(&config, 17));
    }

    #[test]
    fn misaligned_matrix_mapping_rejected() {
        let mut g = device(2);
        let m = g.add_tensor("m", DType::F32, 8);
        // 2x4 matrix split mid-row.
        g.map_slice(m.slice(0..3), 0).unwrap();
        g.map_slice(m.slice(3..8), 1).unwrap();
        let err = reduce_columns_mirrored(&mut g, "bad", m, 2, 4, ReduceOp::Min, TileGroups::ONE)
            .unwrap_err();
        assert!(matches!(err, GraphError::BadSlice { .. }));
    }

    #[test]
    fn reduction_of_unmapped_tensor_rejected() {
        let mut g = device(2);
        let t = g.add_tensor("t", DType::F32, 4);
        let err =
            reduce_to_scalar(&mut g, "r", t, ReduceOp::Min, TileGroups::ONE, 0, None).unwrap_err();
        assert!(matches!(err, GraphError::Unmapped { .. }));
    }

    #[test]
    fn single_row_column_reduce() {
        let mut g = device(1);
        let m = g.add_tensor("m", DType::F32, 4);
        g.map_to_tile(m, 0).unwrap();
        let (mirror, prog) =
            reduce_columns_mirrored(&mut g, "one", m, 1, 4, ReduceOp::Min, TileGroups::ONE)
                .unwrap();
        let mut e = g.compile(prog).unwrap();
        e.write_f32(m, &[4.0, 3.0, 2.0, 1.0]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(mirror), vec![4.0, 3.0, 2.0, 1.0]);
    }
}

//! Pre-resolved leaves of a compiled program.
//!
//! The engine runs every program the same way: one walker (`ExecCtx` in
//! `engine.rs`) descends the lowered [`ExecNode`] tree and owns all
//! control flow. This module resolves, once at [`crate::Graph::compile`],
//! what the walker's two kinds of leaf need:
//!
//! - per-vertex field views resolved to raw pointers ([`PlanField`]) and
//!   each compute set's vertex lists ([`PlanVertex`]), so that in
//!   [`crate::ExecMode::Plan`] executing a vertex is "slice the cell
//!   arena, call the closure" with zero allocation;
//! - each exchange-like node as a static copy list ([`PlanCopy`]), indexed
//!   by the node's `cost_id`, with the modeled cost and byte count
//!   precomputed (the mapping is static, so they never change between
//!   executions). In `Plan` mode the merged `exec_segs` run as direct
//!   `memcpy`-style copies; per-pair overlap was rejected at compile, so
//!   staging through scratch is needed only for a broadcast within one
//!   tensor.
//!
//! [`crate::ExecMode::Interpreted`] walks the same vertex lists and copy
//! lists, but rebuilds each vertex's fields from its `VertexInfo` and
//! stages every copy pair through scratch — the reference the plan's
//! leaves are differentially tested against.

use crate::codelet::FieldBuf;
use crate::engine::{exchange_cost, RawBufs};
use crate::exec::ExecNode;
use crate::graph::Graph;
use crate::tensor::TensorSlice;

/// Dtype + access of one pre-resolved field view.
#[derive(Clone, Copy)]
pub(crate) enum FieldKind {
    F32,
    F32Mut,
    I32,
    I32Mut,
}

/// One vertex field, resolved to a raw base pointer at plan build.
///
/// `tensor`/`start` are kept so the pointer can be re-derived after
/// [`crate::Engine::restore`] rebuilds the raw buffer views.
pub(crate) struct PlanField {
    ptr: *mut u8,
    len: u32,
    kind: FieldKind,
    tensor: u32,
    start: u32,
}

impl PlanField {
    fn new(raw: &RawBufs, slice: &TensorSlice, exclusive: bool) -> Self {
        let (base, len, dtype) = raw.raw_parts(slice.tensor.id);
        debug_assert!(slice.end <= len);
        let kind = match (dtype, exclusive) {
            (crate::tensor::DType::F32, false) => FieldKind::F32,
            (crate::tensor::DType::F32, true) => FieldKind::F32Mut,
            (crate::tensor::DType::I32, false) => FieldKind::I32,
            (crate::tensor::DType::I32, true) => FieldKind::I32Mut,
        };
        // SAFETY: `slice.end <= len` was validated at compile, so the
        // offset stays inside the tensor's allocation.
        let ptr = unsafe { base.add(slice.start * dtype.size_bytes()) };
        Self {
            ptr,
            len: slice.len() as u32,
            kind,
            tensor: slice.tensor.id as u32,
            start: slice.start as u32,
        }
    }

    /// Re-derives the pointer from a rebuilt [`RawBufs`] (after
    /// `Engine::restore`).
    fn rebind(&mut self, raw: &RawBufs) {
        let (base, _, dtype) = raw.raw_parts(self.tensor as usize);
        // SAFETY: same offset that was validated at construction.
        self.ptr = unsafe { base.add(self.start as usize * dtype.size_bytes()) };
    }

    /// The plain-data field view for the cell arena. No reference is
    /// created here — the typed slices are materialized inside the
    /// `VertexCtx` accessors under the engine's aliasing contract — so
    /// an arena of these can be built once per run and reused for every
    /// superstep. The pointer must be current (rebind after `restore`).
    #[inline]
    pub(crate) fn buf(&self) -> FieldBuf {
        let len = self.len;
        match self.kind {
            FieldKind::F32 => FieldBuf::F32 {
                ptr: self.ptr as *const f32,
                len,
            },
            FieldKind::F32Mut => FieldBuf::F32Mut {
                ptr: self.ptr as *mut f32,
                len,
            },
            FieldKind::I32 => FieldBuf::I32 {
                ptr: self.ptr as *const i32,
                len,
            },
            FieldKind::I32Mut => FieldBuf::I32Mut {
                ptr: self.ptr as *mut i32,
                len,
            },
        }
    }
}

/// One vertex of a plan step: everything the hot loop needs, pre-resolved.
pub(crate) struct PlanVertex {
    /// Index into `graph.vertices` (for the codelet closure).
    pub(crate) vid: u32,
    /// `tile * threads_per_tile + thread` — the load-accounting slot —
    /// for a worker; the tile for a supervisor.
    pub(crate) slot: u32,
    /// First field in the field arena (`ExecPlan::fields`).
    pub(crate) field_start: u32,
    /// Number of fields.
    pub(crate) field_count: u32,
}

/// One copy of a flattened exchange phase.
#[derive(Clone)]
pub(crate) struct CopySeg {
    pub(crate) src: TensorSlice,
    pub(crate) dst: TensorSlice,
    /// Repetitions of `src` delivered into `dst` (broadcast replication).
    pub(crate) reps: u32,
    /// Stage through scratch instead of copying directly. Only a
    /// broadcast within one tensor can overlap (every other copy shape
    /// was rejected at compile if its endpoints overlapped), but the flag
    /// is computed generally.
    pub(crate) staged: bool,
}

/// One exchange phase, flattened to a static copy list with its modeled
/// cost and byte count precomputed at build (the mapping is static, so
/// they never change between executions).
pub(crate) struct PlanCopy {
    /// The original per-pair segments. The profiler (per-pair tile
    /// bytes) and fault injection (per-destination draws) iterate these,
    /// which is what keeps profiles and `FaultStats` bit-identical to
    /// the interpreter's per-pair walk.
    pub(crate) segs: Vec<CopySeg>,
    /// Exec-only view with adjacent segments coalesced (see
    /// [`merge_exec_segs`]): a scatter that lands contiguously — the
    /// common case for gather/mirror exchanges — becomes one `memcpy`
    /// instead of hundreds. Writes the same bytes in the same order as
    /// `segs`. Modeled cost/bytes are computed from the original pairs.
    pub(crate) exec_segs: Vec<CopySeg>,
    pub(crate) cost: u64,
    pub(crate) bytes: u64,
}

/// The pre-resolved leaves of a compiled program. Built once at
/// [`crate::Graph::compile`]; read by the walker in `engine.rs`.
pub(crate) struct ExecPlan {
    /// Each exchange-like node's copy list, indexed by its `cost_id`.
    pub(crate) copies: Vec<PlanCopy>,
    /// Field-view arena, indexed by [`PlanVertex::field_start`].
    fields: Vec<PlanField>,
    /// Each compute set's vertices in program order (parallel to
    /// `graph.compute_sets`).
    pub(crate) steps: Vec<Vec<PlanVertex>>,
    /// Each compute set's supervisor vertices (parallel to `steps`), run
    /// after its workers.
    pub(crate) supervisors: Vec<Vec<PlanVertex>>,
}

impl ExecPlan {
    /// Re-derives every field pointer after the raw buffer views were
    /// rebuilt (the `Engine::restore` path).
    pub(crate) fn rebind_fields(&mut self, raw: &RawBufs) {
        for f in &mut self.fields {
            f.rebind(raw);
        }
    }

    /// Builds the per-run cell arena: one `RefCell<FieldBuf>` per plan
    /// field, indexed exactly like the field arena. Executing a vertex is
    /// then just slicing `arena[field_start..field_start + field_count]`
    /// — zero per-vertex setup. The borrow flags always return to
    /// "unborrowed" when a codelet returns or unwinds, so one arena
    /// serves every superstep of a run.
    pub(crate) fn cell_arena(&self) -> Vec<std::cell::RefCell<FieldBuf>> {
        self.fields
            .iter()
            .map(|f| std::cell::RefCell::new(f.buf()))
            .collect()
    }
}

/// Plan vertices per compute set, parallel to `graph.compute_sets`.
type PerComputeSet = Vec<Vec<PlanVertex>>;

/// Resolves every vertex's fields into the arena and each compute set
/// into its lists of worker and supervisor plan vertices.
fn build_steps(
    graph: &Graph,
    vertex_thread: &[usize],
    raw: &RawBufs,
) -> (Vec<PlanField>, PerComputeSet, PerComputeSet) {
    let tpt = graph.config.threads_per_tile;
    let mut fields = Vec::new();
    let mut vert_fields = Vec::with_capacity(graph.vertices.len());
    for v in &graph.vertices {
        let start = fields.len() as u32;
        for (slice, access) in &v.fields {
            fields.push(PlanField::new(raw, slice, access.is_exclusive()));
        }
        vert_fields.push((start, v.fields.len() as u32));
    }
    let plan_vertex = |vid: usize| {
        let v = &graph.vertices[vid];
        PlanVertex {
            vid: vid as u32,
            slot: if v.supervisor {
                v.tile as u32
            } else {
                (v.tile * tpt + vertex_thread[vid]) as u32
            },
            field_start: vert_fields[vid].0,
            field_count: vert_fields[vid].1,
        }
    };
    let steps = graph
        .compute_sets
        .iter()
        .map(|cs| cs.vertices.iter().map(|&vid| plan_vertex(vid)).collect())
        .collect();
    let supervisors = graph
        .compute_sets
        .iter()
        .map(|cs| cs.supervisors.iter().map(|&vid| plan_vertex(vid)).collect())
        .collect();
    (fields, steps, supervisors)
}

fn seg_overlaps(src: &TensorSlice, dst: &TensorSlice) -> bool {
    src.tensor.id == dst.tensor.id && src.start < dst.end && dst.start < src.end
}

/// Coalesces runs of adjacent copy segments into single segments for
/// execution. Two neighbours merge when both are plain one-shot direct
/// copies (`reps == 1`, unstaged), their sources abut in one tensor,
/// their destinations abut in another, and the widened segment would
/// still be overlap-free (two individually disjoint src/dst ranges in
/// the *same* tensor can overlap once widened — those stay split).
/// Merging preserves byte-for-byte the writes and their order.
fn merge_exec_segs(segs: &[CopySeg]) -> Vec<CopySeg> {
    let mut out: Vec<CopySeg> = Vec::with_capacity(segs.len());
    for seg in segs {
        if let Some(last) = out.last_mut() {
            if last.reps == 1
                && seg.reps == 1
                && !last.staged
                && !seg.staged
                && last.src.tensor.id == seg.src.tensor.id
                && last.dst.tensor.id == seg.dst.tensor.id
                && last.src.end == seg.src.start
                && last.dst.end == seg.dst.start
            {
                let src = TensorSlice {
                    end: seg.src.end,
                    ..last.src
                };
                let dst = TensorSlice {
                    end: seg.dst.end,
                    ..last.dst
                };
                if !seg_overlaps(&src, &dst) {
                    last.src = src;
                    last.dst = dst;
                    continue;
                }
            }
        }
        out.push(seg.clone());
    }
    out
}

fn copy_seg(src: TensorSlice, dst: TensorSlice, reps: usize) -> CopySeg {
    CopySeg {
        src,
        dst,
        reps: reps as u32,
        staged: seg_overlaps(&src, &dst),
    }
}

/// Appends the copy list of the exchange-like node numbered `cost_id`,
/// with its modeled cost and byte count.
fn push_copy(graph: &Graph, cost_id: u32, segs: Vec<CopySeg>, copies: &mut Vec<PlanCopy>) {
    assert_eq!(
        cost_id as usize,
        copies.len(),
        "cost ids follow lowering order"
    );
    let pairs: Vec<(TensorSlice, TensorSlice)> = segs.iter().map(|s| (s.src, s.dst)).collect();
    copies.push(PlanCopy {
        exec_segs: merge_exec_segs(&segs),
        segs,
        cost: exchange_cost(graph, &pairs),
        bytes: pairs.iter().map(|(_, dst)| dst.bytes() as u64).sum(),
    });
}

/// Appends the copy list of every exchange-like node under `node` in
/// depth-first order, the order in which `exec::lower` assigned their
/// `cost_id`s, so that `copies[cost_id]` is that node's list.
fn push_copies(graph: &Graph, node: &ExecNode, copies: &mut Vec<PlanCopy>) {
    match node {
        ExecNode::Seq(items) => {
            for p in items {
                push_copies(graph, p, copies);
            }
        }
        ExecNode::Execute(_) => {}
        ExecNode::Copy {
            src,
            dst,
            reps,
            cost_id,
        } => push_copy(graph, *cost_id, vec![copy_seg(*src, *dst, *reps)], copies),
        ExecNode::Exchange { pairs, cost_id } => {
            let segs = pairs.iter().map(|&(s, d)| copy_seg(s, d, 1)).collect();
            push_copy(graph, *cost_id, segs, copies);
        }
        ExecNode::Repeat { body, .. } | ExecNode::While { body, .. } => {
            push_copies(graph, body, copies);
        }
        ExecNode::If {
            then_body,
            else_body,
            ..
        } => {
            push_copies(graph, then_body, copies);
            push_copies(graph, else_body, copies);
        }
    }
}

/// Resolves the leaves of the lowered program tree `root`, which holds
/// `n_copies` exchange-like nodes. Built once per engine at compile.
pub(crate) fn build(
    graph: &Graph,
    root: &ExecNode,
    n_copies: usize,
    vertex_thread: &[usize],
    raw: &RawBufs,
) -> ExecPlan {
    let (fields, steps, supervisors) = build_steps(graph, vertex_thread, raw);
    let mut copies = Vec::with_capacity(n_copies);
    push_copies(graph, root, &mut copies);
    assert_eq!(copies.len(), n_copies, "one copy list per cost id");
    ExecPlan {
        copies,
        fields,
        steps,
        supervisors,
    }
}

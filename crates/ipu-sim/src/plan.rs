//! Pre-resolved execution plans: the straight-line lowering of a compiled
//! program.
//!
//! The interpreted engine (`ExecCtx` in `engine.rs`) walks the
//! [`ExecNode`] tree every run, re-deriving per-vertex field views from
//! `RawBufs` each superstep and exchange costs as it goes. For large
//! instances that interpretive overhead — enum dispatch per node, a `Vec`
//! of field views allocated per vertex per superstep, cost memo lookups
//! per exchange — dominates the host wall-clock. This module flattens the whole program once, at
//! [`crate::Graph::compile`], into:
//!
//! - a flat op list ([`PlanOp`]) executed with an instruction pointer —
//!   loops become `LoopInit`/`LoopBack` over runtime counter slots,
//!   while-loops become `WhileEnter`/`WhileHead`/`Jump`, and maximal
//!   runs of consecutive compute sets become a single [`PlanOp::Run`];
//! - per-vertex field views resolved to raw pointers once ([`PlanField`]),
//!   so executing a vertex is "wrap pointers, call closure" with zero
//!   allocation;
//! - exchange programs flattened to static copy lists ([`PlanCopy`]) with
//!   the modeled cost and byte count precomputed at build time, executed
//!   as direct `memcpy`-style copies (per-pair overlap was rejected at
//!   compile, so staging through scratch is needed only for the one
//!   overlap-capable case: a broadcast within one tensor).
//!
//! The plan executor itself lives in `engine.rs` (it shares `RunState`,
//! the fault hooks, and the profiler epilogue with the interpreter — one
//! epilogue, bit-identical results); this module owns the data layout and
//! the builder.

use crate::codelet::FieldBuf;
use crate::engine::{exchange_cost, RawBufs};
use crate::exec::ExecNode;
use crate::graph::Graph;
use crate::tensor::{Tensor, TensorSlice};

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
    /// `tile * threads_per_tile + thread` — the load-accounting slot.
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

/// One instruction of the flattened program.
pub(crate) enum PlanOp {
    /// Execute `count` consecutive supersteps
    /// (`step_seq[first..first + count]`).
    Run { first: u32, count: u32 },
    /// Execute one exchange phase (index into [`ExecPlan::copies`]).
    Copy(u32),
    /// Enter a counted loop: set counter `slot` to `count`, or jump to
    /// `exit` when `count == 0`.
    LoopInit { slot: u32, count: u64, exit: u32 },
    /// Bottom of a counted loop: decrement counter `slot`, jump to
    /// `target` while nonzero.
    LoopBack { slot: u32, target: u32 },
    /// Entry of a device-predicated loop: the forced-divergence fault
    /// check (drawn **once** per loop entry, preserving the interpreter's
    /// RNG draw order) and the iteration-counter reset.
    WhileEnter { iters: u32, context: u32 },
    /// Top-of-iteration check of a device-predicated loop: charge control
    /// cycles, read the predicate, jump to `exit` when clear, and trip
    /// the divergence watchdog via counter `iters`.
    WhileHead {
        predicate: Tensor,
        exit: u32,
        iters: u32,
        context: u32,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Device-predicated branch: charge control cycles, read the
    /// predicate, fall through when set, jump to `else_target` when
    /// clear.
    IfHead { predicate: Tensor, else_target: u32 },
}

/// A compiled program lowered to straight-line form. Built once at
/// [`crate::Graph::compile`]; executed by `PlanExec` in `engine.rs`.
pub(crate) struct ExecPlan {
    pub(crate) ops: Vec<PlanOp>,
    pub(crate) copies: Vec<PlanCopy>,
    /// Field-view arena, indexed by [`PlanVertex::field_start`].
    fields: Vec<PlanField>,
    /// Each compute set's vertices in program order (parallel to
    /// `graph.compute_sets`).
    pub(crate) steps: Vec<Vec<PlanVertex>>,
    /// Compute-set id of every `Execute` occurrence, in flattened program
    /// order; [`PlanOp::Run`] indexes a contiguous range of this.
    pub(crate) step_seq: Vec<u32>,
    /// Divergence-diagnostic labels, indexed by `WhileEnter`/`WhileHead`.
    pub(crate) contexts: Vec<String>,
    /// Runtime counter slots needed (loop counters + while watchdogs).
    pub(crate) n_slots: usize,
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

/// Resolves every vertex's fields into the arena and each compute set
/// into its list of plan vertices.
fn build_steps(
    graph: &Graph,
    vertex_thread: &[usize],
    raw: &RawBufs,
) -> (Vec<PlanField>, Vec<Vec<PlanVertex>>) {
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
    let steps = graph
        .compute_sets
        .iter()
        .map(|cs| {
            cs.vertices
                .iter()
                .map(|&vid| {
                    let v = &graph.vertices[vid];
                    PlanVertex {
                        vid: vid as u32,
                        slot: (v.tile * tpt + vertex_thread[vid]) as u32,
                        field_start: vert_fields[vid].0,
                        field_count: vert_fields[vid].1,
                    }
                })
                .collect()
        })
        .collect();
    (fields, steps)
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

/// Diagnostic label for a diverging loop: the name of the first compute
/// set executed in its body.
fn loop_context(graph: &Graph, body: &ExecNode) -> String {
    match body.first_compute_set() {
        Some(cs) => graph.compute_sets[cs].name.clone(),
        None => "<empty loop body>".to_string(),
    }
}

struct Builder<'g> {
    graph: &'g Graph,
    ops: Vec<PlanOp>,
    copies: Vec<PlanCopy>,
    step_seq: Vec<u32>,
    contexts: Vec<String>,
    n_slots: u32,
    /// Accumulating run of consecutive `Execute`s: (first, count).
    pending: Option<(u32, u32)>,
}

impl Builder<'_> {
    fn alloc_slot(&mut self) -> u32 {
        let s = self.n_slots;
        self.n_slots += 1;
        s
    }

    /// Terminates the pending run, if any. Called before every non-
    /// `Execute` op so runs never cross a control-flow or exchange
    /// boundary.
    fn flush(&mut self) {
        if let Some((first, count)) = self.pending.take() {
            self.ops.push(PlanOp::Run { first, count });
        }
    }

    fn push_copy(&mut self, segs: Vec<CopySeg>, pairs: &[(TensorSlice, TensorSlice)]) {
        let cost = exchange_cost(self.graph, pairs);
        let bytes: u64 = pairs.iter().map(|(_, dst)| dst.bytes() as u64).sum();
        let exec_segs = merge_exec_segs(&segs);
        let id = self.copies.len() as u32;
        self.copies.push(PlanCopy {
            segs,
            exec_segs,
            cost,
            bytes,
        });
        self.ops.push(PlanOp::Copy(id));
    }

    fn emit(&mut self, node: &ExecNode) {
        match node {
            ExecNode::Seq(items) => {
                for p in items {
                    self.emit(p);
                }
            }
            ExecNode::Execute(cs) => {
                let idx = self.step_seq.len() as u32;
                self.step_seq.push(*cs as u32);
                match &mut self.pending {
                    Some((_, count)) => *count += 1,
                    None => self.pending = Some((idx, 1)),
                }
            }
            ExecNode::Copy { src, dst, reps, .. } => {
                self.flush();
                let segs = vec![CopySeg {
                    src: *src,
                    dst: *dst,
                    reps: *reps as u32,
                    staged: seg_overlaps(src, dst),
                }];
                self.push_copy(segs, &[(*src, *dst)]);
            }
            ExecNode::Exchange { pairs, .. } => {
                self.flush();
                let segs = pairs
                    .iter()
                    .map(|&(src, dst)| CopySeg {
                        src,
                        dst,
                        reps: 1,
                        staged: seg_overlaps(&src, &dst),
                    })
                    .collect();
                self.push_copy(segs, pairs);
            }
            ExecNode::Repeat { count, body } => {
                self.flush();
                let slot = self.alloc_slot();
                let init_at = self.ops.len();
                self.ops.push(PlanOp::LoopInit {
                    slot,
                    count: *count,
                    exit: 0,
                });
                let head = self.ops.len() as u32;
                self.emit(body);
                self.flush();
                self.ops.push(PlanOp::LoopBack { slot, target: head });
                let exit = self.ops.len() as u32;
                if let PlanOp::LoopInit { exit: e, .. } = &mut self.ops[init_at] {
                    *e = exit;
                }
            }
            ExecNode::While { predicate, body } => {
                self.flush();
                let iters = self.alloc_slot();
                let context = self.contexts.len() as u32;
                self.contexts.push(loop_context(self.graph, body));
                self.ops.push(PlanOp::WhileEnter { iters, context });
                let head = self.ops.len() as u32;
                let head_at = self.ops.len();
                self.ops.push(PlanOp::WhileHead {
                    predicate: *predicate,
                    exit: 0,
                    iters,
                    context,
                });
                self.emit(body);
                self.flush();
                self.ops.push(PlanOp::Jump(head));
                let exit = self.ops.len() as u32;
                if let PlanOp::WhileHead { exit: e, .. } = &mut self.ops[head_at] {
                    *e = exit;
                }
            }
            ExecNode::If {
                predicate,
                then_body,
                else_body,
            } => {
                self.flush();
                let if_at = self.ops.len();
                self.ops.push(PlanOp::IfHead {
                    predicate: *predicate,
                    else_target: 0,
                });
                self.emit(then_body);
                self.flush();
                let jump_at = self.ops.len();
                self.ops.push(PlanOp::Jump(0));
                let else_target = self.ops.len() as u32;
                self.emit(else_body);
                self.flush();
                let end = self.ops.len() as u32;
                if let PlanOp::IfHead { else_target: t, .. } = &mut self.ops[if_at] {
                    *t = else_target;
                }
                if let PlanOp::Jump(t) = &mut self.ops[jump_at] {
                    *t = end;
                }
            }
        }
    }
}

/// Lowers the lowered program tree one step further: to the straight-line
/// [`ExecPlan`]. Built once per engine at compile.
pub(crate) fn build(
    graph: &Graph,
    root: &ExecNode,
    vertex_thread: &[usize],
    raw: &RawBufs,
) -> ExecPlan {
    let (fields, steps) = build_steps(graph, vertex_thread, raw);
    let mut b = Builder {
        graph,
        ops: Vec::new(),
        copies: Vec::new(),
        step_seq: Vec::new(),
        contexts: Vec::new(),
        n_slots: 0,
        pending: None,
    };
    b.emit(root);
    b.flush();
    ExecPlan {
        ops: b.ops,
        copies: b.copies,
        fields,
        steps,
        step_seq: b.step_seq,
        contexts: b.contexts,
        n_slots: b.n_slots as usize,
    }
}

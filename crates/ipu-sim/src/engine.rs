//! The execution engine: walks a compiled program against tensor
//! buffers, enforcing BSP semantics and charging the cycle model.
//!
//! One walker (`ExecCtx`) owns all control flow in both [`ExecMode`]s;
//! the mode chooses only how a leaf (a compute set or an exchange) runs.
//! Every superstep executes on the calling thread, one vertex at a time.
//! Per-slot instruction loads are u64 sums and the superstep cost is a
//! max-reduction over them, so the modeled cost does not depend on the
//! order vertices run in.

use crate::calibration::{self, VERTEX_OVERHEAD};
use crate::codelet::{FieldBuf, VertexCtx};
use crate::config::ExecMode;
use crate::error::GraphError;
use crate::exec::{self, ExecNode};
use crate::fault::{FaultPlan, FaultState};
use crate::graph::{Graph, VertexInfo};
use crate::plan::{self, CopySeg, ExecPlan, PlanCopy, PlanVertex};
use crate::profile::{ProfileConfig, ProfileReport, Profiler, TileLoad, BROADCAST_TILE, HOST_TILE};
use crate::program::Program;
use crate::stats::{CycleStats, StepBreakdown};
use crate::tensor::{DType, Tensor, TensorSlice};
use std::cell::RefCell;
use std::collections::HashMap;

/// Typed storage for one tensor.
#[derive(Clone)]
enum Buffer {
    F32(Vec<f32>),
    I32(Vec<i32>),
}

/// A checkpoint of device memory and accounting, taken with
/// [`Engine::snapshot`] and reinstated with [`Engine::restore`].
///
/// Snapshots are opaque and tied to the engine (same graph, same tensor
/// set) that produced them. The fault RNG is deliberately *not* part of a
/// snapshot — see [`crate::FaultPlan`] — so a retry after `restore` draws
/// fresh faults instead of deterministically replaying the ones that
/// forced the rewind.
pub struct EngineSnapshot {
    buffers: Vec<Buffer>,
    stats: CycleStats,
}

/// Raw view of a buffer, used to hand out disjoint slices to vertex
/// fields without re-borrowing the `Vec` per field.
#[derive(Clone, Copy)]
enum RawBuf {
    F32(*mut f32, usize),
    I32(*mut i32, usize),
}

/// Raw base pointers for every tensor buffer, hoisted out of the superstep
/// hot path: built once at [`Engine::new`] and rebuilt only on
/// [`Engine::restore`]. All post-construction buffer mutation (host
/// writes, exchanges, bit flips, vertex fields) goes through this view, so
/// the pointers stay valid for the engine's whole lifetime.
pub(crate) struct RawBufs(Vec<RawBuf>);

impl RawBufs {
    fn of(buffers: &mut [Buffer]) -> Self {
        Self(
            buffers
                .iter_mut()
                .map(|b| match b {
                    Buffer::F32(v) => RawBuf::F32(v.as_mut_ptr(), v.len()),
                    Buffer::I32(v) => RawBuf::I32(v.as_mut_ptr(), v.len()),
                })
                .collect(),
        )
    }

    fn tensor_len(&self, id: usize) -> usize {
        match self.0[id] {
            RawBuf::F32(_, n) | RawBuf::I32(_, n) => n,
        }
    }

    /// Base pointer, element count, and dtype of one tensor buffer — the
    /// execution-plan builder resolves field views against this once at
    /// compile instead of re-deriving them per vertex per superstep.
    pub(crate) fn raw_parts(&self, id: usize) -> (*mut u8, usize, DType) {
        match self.0[id] {
            RawBuf::F32(p, n) => (p.cast(), n, DType::F32),
            RawBuf::I32(p, n) => (p.cast(), n, DType::I32),
        }
    }

    /// # Safety
    /// `id` must be an f32 tensor with `start + len` in bounds, and no
    /// aliasing mutable view of the region may be alive.
    unsafe fn f32(&self, id: usize, start: usize, len: usize) -> &[f32] {
        match self.0[id] {
            RawBuf::F32(p, n) => {
                debug_assert!(start + len <= n);
                std::slice::from_raw_parts(p.add(start), len)
            }
            RawBuf::I32(..) => unreachable!("dtype validated at compile"),
        }
    }

    /// # Safety
    /// As [`RawBufs::f32`], plus: no other view of the region (shared or
    /// mutable) may be alive.
    #[allow(clippy::mut_from_ref)] // raw-pointer view; aliasing is the caller's obligation
    unsafe fn f32_mut(&self, id: usize, start: usize, len: usize) -> &mut [f32] {
        match self.0[id] {
            RawBuf::F32(p, n) => {
                debug_assert!(start + len <= n);
                std::slice::from_raw_parts_mut(p.add(start), len)
            }
            RawBuf::I32(..) => unreachable!("dtype validated at compile"),
        }
    }

    /// # Safety
    /// `id` must be an i32 tensor with `start + len` in bounds, and no
    /// aliasing mutable view of the region may be alive.
    unsafe fn i32(&self, id: usize, start: usize, len: usize) -> &[i32] {
        match self.0[id] {
            RawBuf::I32(p, n) => {
                debug_assert!(start + len <= n);
                std::slice::from_raw_parts(p.add(start), len)
            }
            RawBuf::F32(..) => unreachable!("dtype validated at compile"),
        }
    }

    /// # Safety
    /// As [`RawBufs::i32`], plus: no other view of the region (shared or
    /// mutable) may be alive.
    #[allow(clippy::mut_from_ref)] // raw-pointer view; aliasing is the caller's obligation
    unsafe fn i32_mut(&self, id: usize, start: usize, len: usize) -> &mut [i32] {
        match self.0[id] {
            RawBuf::I32(p, n) => {
                debug_assert!(start + len <= n);
                std::slice::from_raw_parts_mut(p.add(start), len)
            }
            RawBuf::F32(..) => unreachable!("dtype validated at compile"),
        }
    }

    /// # Safety
    /// `element` must be in bounds of tensor `id`, and no view of that
    /// element may be alive.
    unsafe fn flip_bit(&self, id: usize, element: usize, bit: usize) {
        match self.0[id] {
            RawBuf::F32(p, n) => {
                debug_assert!(element < n);
                let q = p.add(element);
                *q = f32::from_bits((*q).to_bits() ^ (1u32 << bit));
            }
            RawBuf::I32(p, n) => {
                debug_assert!(element < n);
                let q = p.add(element);
                *q ^= 1i32 << bit;
            }
        }
    }
}

/// The mutable run state, kept separate from the graph so accounting
/// can be updated while the graph is borrowed.
struct RunState {
    stats: CycleStats,
    /// Scratch: instruction load per (tile, thread) during a superstep.
    thread_load: Vec<u64>,
    /// Scratch: (tile, thread) slots touched in the current superstep —
    /// lets the hot path avoid sweeping all 8832 slots per superstep.
    touched_slots: Vec<u32>,
    /// Scratch: `(tile, instructions)` of each supervisor vertex run in
    /// the current superstep (at most one per tile).
    sup_loads: Vec<(u32, u64)>,
    /// Reused staging buffers for exchanges (copies go through staging,
    /// mirroring the real hardware's send/receive and keeping the
    /// semantics simple when source and destination share a tensor).
    scratch_f32: Vec<f32>,
    scratch_i32: Vec<i32>,
    /// Installed fault-injection state, if any.
    faults: Option<FaultState>,
    /// Installed profiler, if any.
    profiler: Option<Profiler>,
}

/// What the superstep fault hook actually injected (profiler input).
#[derive(Default, Clone, Copy)]
struct InjectedFaults {
    straggler_extra: u64,
    bit_flips: u64,
}

/// A compiled, runnable IPU program with its device state.
///
/// Obtained from [`Graph::compile`]; by then every static property
/// (mapping, memory, locality, race-freedom) has been validated, so
/// `run` can only fail on divergence of `RepeatWhileTrue`.
pub struct Engine {
    graph: Graph,
    buffers: Vec<Buffer>,
    raw: RawBufs,
    program: ExecNode,
    /// The pre-resolved leaves of `program`, built once at compile (see
    /// `plan.rs`).
    plan: ExecPlan,
    st: RunState,
    /// Modeled one-time cost of loading this program onto the device,
    /// fixed at compile time (see [`Engine::program_load_cycles`]).
    program_load_cycles: u64,
    /// Iteration guard for `RepeatWhileTrue`, initialized from
    /// [`crate::IpuConfig::max_while_iterations`] (overridable per engine).
    pub max_while_iterations: u64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tensors", &self.graph.tensors.len())
            .field("compute_sets", &self.graph.compute_sets.len())
            .field("vertices", &self.graph.vertices.len())
            .field("stats", &self.st.stats)
            .finish_non_exhaustive()
    }
}

/// Executes one vertex against the raw buffer views, returning the thread
/// instructions to charge (codelet cost plus dispatch overhead).
///
/// # Safety
/// `Graph::compile` validated that (a) every slice is in bounds of its
/// tensor, and (b) within the vertex's compute set, any region connected
/// with a write access overlaps no other connected region. The derived
/// references are dropped (with `ctx`) before this returns, so the only
/// simultaneous references are the fields of one vertex — disjoint
/// whenever one of them is mutable, shared otherwise. The caller must
/// ensure `raw` is current (no buffer reallocation since it was built)
/// and that no other code holds views of these regions.
unsafe fn exec_vertex(v: &VertexInfo, raw: &RawBufs) -> u64 {
    let mut fields = Vec::with_capacity(v.fields.len());
    for (slice, access) in &v.fields {
        let field = match (raw.0[slice.tensor.id], access.is_exclusive()) {
            (RawBuf::F32(p, len), true) => {
                debug_assert!(slice.end <= len);
                FieldBuf::F32Mut {
                    ptr: p.add(slice.start),
                    len: slice.len() as u32,
                }
            }
            (RawBuf::F32(p, len), false) => {
                debug_assert!(slice.end <= len);
                FieldBuf::F32 {
                    ptr: p.add(slice.start),
                    len: slice.len() as u32,
                }
            }
            (RawBuf::I32(p, len), true) => {
                debug_assert!(slice.end <= len);
                FieldBuf::I32Mut {
                    ptr: p.add(slice.start),
                    len: slice.len() as u32,
                }
            }
            (RawBuf::I32(p, len), false) => {
                debug_assert!(slice.end <= len);
                FieldBuf::I32 {
                    ptr: p.add(slice.start),
                    len: slice.len() as u32,
                }
            }
        };
        fields.push(RefCell::new(field));
    }
    let ctx = VertexCtx::new(&fields);
    (v.codelet)(&ctx) + VERTEX_OVERHEAD
}

/// Executes one plan vertex against its slice of the pre-built cell
/// arena (see `ExecPlan::cell_arena`) — no per-vertex setup at all,
/// just an index into the arena and the codelet call.
///
/// # Safety
/// Same contract as [`exec_vertex`] — the plan's field pointers target
/// the same buffers and were bounds-validated at build — plus: `cells`
/// must have been built (or rebuilt) from the plan's *current* field
/// pointers, i.e. after any `Engine::restore` rebind. The cells hold
/// plain pointer/length data between calls; typed views only exist
/// inside the codelet and are gone when it returns or unwinds (the
/// `Ref`/`RefMut` guards restore the borrow flags either way).
unsafe fn exec_plan_vertex(graph: &Graph, pv: &PlanVertex, cells: &[RefCell<FieldBuf>]) -> u64 {
    let lo = pv.field_start as usize;
    let ctx = VertexCtx::new(&cells[lo..lo + pv.field_count as usize]);
    (graph.vertices[pv.vid as usize].codelet)(&ctx) + VERTEX_OVERHEAD
}

/// Per-run execution context: the one walker over the lowered program
/// tree, with disjoint borrows of the engine's static and mutable
/// halves. It owns all control flow — `Seq`, `Repeat`, `If` and `While`
/// with its watchdog and forced-divergence draw — in both [`ExecMode`]s;
/// the mode chooses only how a leaf runs (see
/// [`ExecCtx::exec_compute_set`] and [`ExecCtx::exec_copy`]).
struct ExecCtx<'a> {
    graph: &'a Graph,
    raw: &'a RawBufs,
    st: &'a mut RunState,
    plan: &'a ExecPlan,
    mode: ExecMode,
    /// The cell arena in [`ExecMode::Plan`], built once per run and
    /// reused by every superstep; empty in [`ExecMode::Interpreted`].
    cells: Vec<RefCell<FieldBuf>>,
    max_while_iterations: u64,
}

impl ExecCtx<'_> {
    fn exec(&mut self, node: &ExecNode) -> Result<(), GraphError> {
        match node {
            ExecNode::Seq(items) => {
                for p in items {
                    self.exec(p)?;
                }
                Ok(())
            }
            ExecNode::Execute(cs) => {
                self.exec_compute_set(*cs);
                Ok(())
            }
            ExecNode::Copy { cost_id, .. } | ExecNode::Exchange { cost_id, .. } => {
                self.exec_copy(*cost_id);
                Ok(())
            }
            ExecNode::Repeat { count, body } => {
                for _ in 0..*count {
                    self.exec(body)?;
                }
                Ok(())
            }
            ExecNode::If {
                predicate,
                then_body,
                else_body,
            } => {
                if self.control("if", predicate) {
                    self.exec(then_body)
                } else {
                    self.exec(else_body)
                }
            }
            ExecNode::While { predicate, body } => {
                // Fault: the loop is declared non-convergent up front,
                // drawn once per loop entry. The watchdog would fire after
                // `max_while_iterations` wasted iterations; model that
                // terminal state directly instead of simulating millions
                // of no-progress supersteps.
                if let Some(fs) = self.st.faults.as_mut() {
                    if fs.plan.diverge_rate > 0.0
                        && fs.armed(self.st.stats.supersteps)
                        && fs.draw() < fs.plan.diverge_rate
                    {
                        self.st.stats.faults.forced_divergences += 1;
                        let cc = self.graph.config.control_cycles;
                        self.st.stats.control_cycles += cc;
                        if let Some(p) = self.st.profiler.as_mut() {
                            p.record_control(cc, "while", true);
                            p.record_fault("forced_divergence", 1);
                        }
                        return Err(self.divergence(body));
                    }
                }
                let mut iterations = 0u64;
                while self.control("while", predicate) {
                    iterations += 1;
                    if iterations > self.max_while_iterations {
                        return Err(self.divergence(body));
                    }
                    self.exec(body)?;
                }
                Ok(())
            }
        }
    }

    /// One control decision: charges the control cycles, reads the
    /// device predicate and records the decision in the profiler.
    fn control(&mut self, kind: &'static str, predicate: &Tensor) -> bool {
        let cc = self.graph.config.control_cycles;
        self.st.stats.control_cycles += cc;
        // SAFETY: a 1-element i32 tensor (validated at compile), and no
        // vertex views are alive between supersteps.
        let taken = unsafe { self.raw.i32(predicate.id, 0, 1)[0] } != 0;
        if let Some(p) = self.st.profiler.as_mut() {
            p.record_control(cc, kind, taken);
        }
        taken
    }

    /// The watchdog's error for a diverging loop, labelled with the name
    /// of the first compute set executed in its body.
    fn divergence(&self, body: &ExecNode) -> GraphError {
        let context = match body.first_compute_set() {
            Some(cs) => self.graph.compute_sets[cs].name.clone(),
            None => "<empty loop body>".to_string(),
        };
        GraphError::Divergence {
            limit: self.max_while_iterations,
            context,
        }
    }

    /// Executes one compute set as a BSP superstep. The field source is
    /// the only difference between the modes; the branch sits outside
    /// the vertex loop.
    fn exec_compute_set(&mut self, cs: usize) {
        let (graph, raw, cells) = (self.graph, self.raw, &self.cells);
        let (workers, supervisors) = (&self.plan.steps[cs], &self.plan.supervisors[cs]);
        // SAFETY (both closures): see `exec_plan_vertex` and
        // `exec_vertex`; vertices run one at a time and no other views
        // are alive. `cells` was built from the plan's current field
        // pointers at the start of this run.
        match self.mode {
            ExecMode::Plan => run_vertices(self.st, workers, supervisors, |pv| unsafe {
                exec_plan_vertex(graph, pv, cells)
            }),
            ExecMode::Interpreted => run_vertices(self.st, workers, supervisors, |pv| unsafe {
                exec_vertex(&graph.vertices[pv.vid as usize], raw)
            }),
        }
        finish_superstep(graph, raw, self.st, cs);
    }

    /// Executes one exchange phase: `Plan` runs the merged copy list
    /// directly, `Interpreted` stages each original pair through scratch.
    fn exec_copy(&mut self, cost_id: u32) {
        let copy = &self.plan.copies[cost_id as usize];
        match self.mode {
            ExecMode::Plan => {
                for seg in &copy.exec_segs {
                    if seg.staged {
                        move_data(self.raw, self.st, seg);
                    } else {
                        // SAFETY: the plan proved source and destination
                        // disjoint for unstaged segments; no vertex views
                        // are alive between supersteps.
                        unsafe { direct_copy(self.raw, seg) };
                    }
                }
            }
            ExecMode::Interpreted => {
                for seg in &copy.segs {
                    move_data(self.raw, self.st, seg);
                }
            }
        }
        finish_exchange(self.graph, self.raw, self.st, copy);
    }
}

/// Runs one compute set's workers, then its supervisors, merging their
/// loads into `st.thread_load`/`st.touched_slots` and `st.sup_loads` for
/// [`finish_superstep`]. `run` executes one vertex and returns the thread
/// instructions to charge.
fn run_vertices(
    st: &mut RunState,
    workers: &[PlanVertex],
    supervisors: &[PlanVertex],
    run: impl Fn(&PlanVertex) -> u64,
) {
    debug_assert!(st.thread_load.iter().all(|&x| x == 0));
    st.touched_slots.clear();
    for pv in workers {
        let load = run(pv);
        let si = pv.slot as usize;
        if st.thread_load[si] == 0 {
            st.touched_slots.push(pv.slot);
        }
        st.thread_load[si] += load;
    }
    // Supervisors run after every worker, so they see their tile's
    // worker outputs.
    st.sup_loads.clear();
    for pv in supervisors {
        st.sup_loads.push((pv.slot, run(pv)));
    }
}

/// The superstep epilogue: converts the merged per-slot loads in
/// `st.thread_load`/`st.touched_slots` into the modeled superstep cost,
/// updates statistics, and runs the fault/profiler hooks. Both modes
/// funnel through here — one epilogue is the easiest bit-identity proof
/// there is.
///
/// When neither a profiler nor faults are installed, the lean fast path
/// skips every recording branch: the hot loop pays for instrumentation
/// only when instrumentation is on.
fn finish_superstep(graph: &Graph, raw: &RawBufs, st: &mut RunState, cs: usize) {
    let tpt = graph.config.threads_per_tile;
    // Tile cost: the barrel scheduler rotates over all `tpt` thread
    // slots, so a tile finishes after `tpt * max_thread(instructions)`
    // cycles; the superstep lasts as long as the slowest tile (C3).
    // The chip-wide max over tiles equals `tpt *` the max over all
    // touched slots, raised by any tile whose supervisor phase
    // (`supervisor_phase`) runs longer.
    let sup_worst = st
        .sup_loads
        .iter()
        .map(|&(tile, load)| {
            tpt as u64 * tile_worker_max(&st.thread_load, tile, tpt) + supervisor_phase(load, tpt)
        })
        .max()
        .unwrap_or(0);
    if st.profiler.is_none() && st.faults.is_none() {
        let mut worst = 0u64;
        for &slot in &st.touched_slots {
            worst = worst.max(st.thread_load[slot as usize]);
            st.thread_load[slot as usize] = 0;
        }
        let superstep = (worst * tpt as u64).max(sup_worst);
        st.stats.compute_cycles += superstep;
        st.stats.sync_cycles += graph.config.sync_cycles;
        st.stats.supersteps += 1;
        let b = &mut st.stats.per_compute_set[cs];
        b.executions += 1;
        b.compute_cycles += superstep;
        return;
    }

    // Profiling first, while loads are still live: per-tile barrel
    // cost (supervisor phase included) and thread occupancy.
    // `touched_slots` arrives in vertex order; sort it so the detail
    // groups each tile's slots together.
    let tile_detail: Option<Vec<TileLoad>> = st.profiler.is_some().then(|| {
        st.touched_slots.sort_unstable();
        let mut detail: Vec<TileLoad> = Vec::new();
        let mut prev_slot = u32::MAX;
        for &slot in &st.touched_slots {
            if slot == prev_slot {
                continue; // zero-load slots can be pushed twice
            }
            prev_slot = slot;
            let tile = slot / tpt as u32;
            let load = st.thread_load[slot as usize];
            match detail.last_mut() {
                Some(d) if d.tile == tile => {
                    d.cycles = d.cycles.max(load);
                    d.threads += 1;
                }
                _ => detail.push(TileLoad {
                    tile,
                    cycles: load,
                    threads: 1,
                    supervisor: 0,
                }),
            }
        }
        for d in &mut detail {
            d.cycles *= tpt as u64;
        }
        for &(tile, load) in &st.sup_loads {
            let phase = supervisor_phase(load, tpt);
            match detail.binary_search_by_key(&tile, |d| d.tile) {
                Ok(i) => {
                    detail[i].cycles += phase;
                    detail[i].supervisor = phase;
                }
                Err(i) => detail.insert(
                    i,
                    TileLoad {
                        tile,
                        cycles: phase,
                        threads: 0,
                        supervisor: phase,
                    },
                ),
            }
        }
        detail
    });

    let mut worst = 0u64;
    for &slot in &st.touched_slots {
        worst = worst.max(st.thread_load[slot as usize]);
        st.thread_load[slot as usize] = 0;
    }
    let superstep = (worst * tpt as u64).max(sup_worst);
    st.stats.compute_cycles += superstep;
    st.stats.sync_cycles += graph.config.sync_cycles;
    st.stats.supersteps += 1;
    let b = &mut st.stats.per_compute_set[cs];
    b.executions += 1;
    b.compute_cycles += superstep;
    let injected = if st.faults.is_some() {
        inject_superstep_faults(raw, st, cs, superstep)
    } else {
        InjectedFaults::default()
    };
    if let Some(detail) = tile_detail {
        let sync = graph.config.sync_cycles;
        let p = st.profiler.as_mut().expect("profiler checked above");
        p.record_superstep(cs, &detail, sync, injected.straggler_extra);
        if injected.straggler_extra > 0 {
            p.record_fault("straggler", injected.straggler_extra);
        }
        if injected.bit_flips > 0 {
            p.record_fault("bit_flip", injected.bit_flips);
        }
    }
}

/// The exchange epilogue: charges one exchange phase's precomputed cost
/// and bytes, then runs the profiler and fault hooks. Both modes funnel
/// through here, as they do through [`finish_superstep`].
fn finish_exchange(graph: &Graph, raw: &RawBufs, st: &mut RunState, copy: &PlanCopy) {
    let sync = graph.config.sync_cycles;
    st.stats.exchange_cycles += copy.cost;
    st.stats.sync_cycles += sync;
    st.stats.exchanges += 1;
    st.stats.exchange_bytes += copy.bytes;
    if let Some(p) = st.profiler.as_mut() {
        let pair_bytes = exchange_pair_bytes(graph, &copy.segs);
        p.record_exchange(copy.cost, sync, copy.bytes, &pair_bytes);
    }
    inject_exchange_fault(raw, st, &copy.segs);
}

/// The largest worker-thread load on `tile` in the current superstep.
fn tile_worker_max(thread_load: &[u64], tile: u32, tpt: usize) -> u64 {
    let lo = tile as usize * tpt;
    thread_load[lo..lo + tpt].iter().copied().max().unwrap_or(0)
}

/// Cycles a supervisor adds to its tile after the workers: its
/// `instructions` at the lone-thread issue rate, plus the tile-local
/// join ([`calibration::SUPERVISOR_JOIN_CYCLES`]).
fn supervisor_phase(instructions: u64, tpt: usize) -> u64 {
    tpt as u64 * instructions + calibration::SUPERVISOR_JOIN_CYCLES
}

/// Fault hook run after each superstep: straggler inflation and SRAM
/// bit flips (see [`FaultPlan`]). Returns what landed, for the profiler.
fn inject_superstep_faults(
    raw: &RawBufs,
    st: &mut RunState,
    cs: usize,
    superstep: u64,
) -> InjectedFaults {
    let mut injected = InjectedFaults::default();
    let Some(fs) = st.faults.as_mut() else {
        return injected;
    };
    if !fs.armed(st.stats.supersteps) {
        return injected;
    }
    if fs.plan.straggler_rate > 0.0 && fs.draw() < fs.plan.straggler_rate {
        // The slowest tile ran `straggler_factor` times slower; under
        // BSP the whole chip waits for it (C3).
        let extra = (superstep as f64 * (fs.plan.straggler_factor - 1.0)).ceil() as u64;
        st.stats.compute_cycles += extra;
        st.stats.per_compute_set[cs].compute_cycles += extra;
        st.stats.faults.stragglers += 1;
        st.stats.faults.straggler_cycles += extra;
        injected.straggler_extra = extra;
    }
    if fs.plan.bit_flip_rate > 0.0
        && !fs.flip_targets.is_empty()
        && fs.draw() < fs.plan.bit_flip_rate
    {
        let target = fs.draw_index(fs.flip_targets.len());
        let tensor = fs.flip_targets[target];
        let element = fs.draw_index(raw.tensor_len(tensor));
        let bit = fs.draw_index(32);
        // SAFETY: element in bounds; no vertex views alive between
        // supersteps.
        unsafe { raw.flip_bit(tensor, element, bit) };
        st.stats.faults.bit_flips += 1;
        injected.bit_flips += 1;
    }
    injected
}

/// Fault hook run after each exchange phase: corrupts one delivered
/// element of one copy's destination slice.
fn inject_exchange_fault(raw: &RawBufs, st: &mut RunState, segs: &[CopySeg]) {
    let Some(fs) = st.faults.as_mut() else {
        return;
    };
    if fs.plan.exchange_rate == 0.0
        || segs.is_empty()
        || !fs.armed(st.stats.supersteps)
        || fs.draw() >= fs.plan.exchange_rate
    {
        return;
    }
    let slice = segs[fs.draw_index(segs.len())].dst;
    if slice.is_empty() {
        return;
    }
    let element = slice.start + fs.draw_index(slice.len());
    let bit = fs.draw_index(32);
    // SAFETY: element in bounds of the destination tensor; no vertex
    // views alive between supersteps.
    unsafe { raw.flip_bit(slice.tensor.id, element, bit) };
    st.stats.faults.exchange_corruptions += 1;
    if let Some(p) = st.profiler.as_mut() {
        p.record_fault("exchange_corruption", 1);
    }
}

/// Moves data for one copy: `dst` receives `reps` repetitions of `src`
/// (1 for plain copies), staged through the run-state scratch buffers
/// (which also handles broadcast replication and source/destination
/// sharing a tensor).
fn move_data(raw: &RawBufs, st: &mut RunState, seg: &CopySeg) {
    let (src, dst, reps) = (&seg.src, &seg.dst, seg.reps as usize);
    match src.tensor.dtype {
        DType::F32 => {
            let tmp = &mut st.scratch_f32;
            tmp.clear();
            // SAFETY: endpoints validated at compile (bounds, dtype,
            // lengths); staging means source and destination views
            // are never alive at once, and no vertex views exist
            // between supersteps.
            unsafe {
                tmp.extend_from_slice(raw.f32(src.tensor.id, src.start, src.len()));
                let out = raw.f32_mut(dst.tensor.id, dst.start, reps * tmp.len());
                for chunk in out.chunks_exact_mut(tmp.len()) {
                    chunk.copy_from_slice(tmp);
                }
            }
        }
        DType::I32 => {
            let tmp = &mut st.scratch_i32;
            tmp.clear();
            // SAFETY: as the F32 arm.
            unsafe {
                tmp.extend_from_slice(raw.i32(src.tensor.id, src.start, src.len()));
                let out = raw.i32_mut(dst.tensor.id, dst.start, reps * tmp.len());
                for chunk in out.chunks_exact_mut(tmp.len()) {
                    chunk.copy_from_slice(tmp);
                }
            }
        }
    }
}

/// Direct (unstaged) execution of one flattened copy segment:
/// `memcpy`-style, no scratch round-trip. Only used when the plan
/// proved source and destination disjoint (every overlapping shape except
/// same-tensor broadcast was rejected at compile; that one case stays on
/// the staged path).
///
/// # Safety
/// No vertex views may be alive (copies run between supersteps), and the
/// segment's endpoints were bounds/dtype-validated at compile.
unsafe fn direct_copy(raw: &RawBufs, seg: &CopySeg) {
    let (src, dst, reps) = (&seg.src, &seg.dst, seg.reps as usize);
    match raw.0[src.tensor.id] {
        RawBuf::F32(sp, sn) => {
            let RawBuf::F32(dp, dn) = raw.0[dst.tensor.id] else {
                unreachable!("dtype validated at compile");
            };
            let sl = src.len();
            debug_assert!(src.end <= sn && dst.start + reps * sl <= dn);
            let s = sp.add(src.start);
            let mut d = dp.add(dst.start);
            for _ in 0..reps {
                std::ptr::copy_nonoverlapping(s, d, sl);
                d = d.add(sl);
            }
        }
        RawBuf::I32(sp, sn) => {
            let RawBuf::I32(dp, dn) = raw.0[dst.tensor.id] else {
                unreachable!("dtype validated at compile");
            };
            let sl = src.len();
            debug_assert!(src.end <= sn && dst.start + reps * sl <= dn);
            let s = sp.add(src.start);
            let mut d = dp.add(dst.start);
            for _ in 0..reps {
                std::ptr::copy_nonoverlapping(s, d, sl);
                d = d.add(sl);
            }
        }
    }
}

/// Models the duration of one exchange phase covering all `pairs`.
///
/// The phase duration is bounded by the busiest tile: bytes it sends
/// plus bytes it receives at the on-chip fabric bandwidth, plus any
/// bytes it moves **across a chip boundary** at the (much slower)
/// IPU-Link bandwidth — multi-IPU systems share one exchange address
/// space (§III) but not one fabric. A broadcast source is charged
/// once per receiving chip — the exchange is a per-tile wire every
/// same-chip destination can listen to (multicast).
pub(crate) fn exchange_cost(graph: &Graph, pairs: &[(TensorSlice, TensorSlice)]) -> u64 {
    let config = &graph.config;
    let tiles = config.tiles;
    let mut local = vec![0u64; tiles];
    let mut remote = vec![0u64; tiles];
    let mut host_bytes = 0u64;
    for (src, dst) in pairs {
        let si = &graph.tensors[src.tensor.id];
        let di = &graph.tensors[dst.tensor.id];
        if si.host || di.host {
            // One endpoint sits behind the PCIe link. The link is a
            // single serial stream shared by every pair in the phase, so
            // its bytes accumulate rather than racing per tile; the
            // device endpoint still lands its bytes on the exchange
            // fabric of the tiles it is mapped to.
            let bytes = (dst.len() * dst.tensor.dtype.size_bytes()) as u64;
            host_bytes += bytes;
            let dev = if si.host { (di, dst) } else { (si, src) };
            dev.0.bytes_per_tile(dev.1.start, dev.1.end, &mut local);
            continue;
        }
        if di.replicated {
            // Every tile receives its replica on-chip; the source
            // pushes one copy across each other chip's links.
            let bytes = (dst.len() * dst.tensor.dtype.size_bytes()) as u64;
            local.iter_mut().for_each(|b| *b += bytes);
            si.bytes_per_tile(src.start, src.end, &mut local);
            if config.ipus > 1 {
                let mut src_only = vec![0u64; tiles];
                si.bytes_per_tile(src.start, src.end, &mut src_only);
                for (t, &b) in src_only.iter().enumerate() {
                    remote[t] += b * (config.ipus as u64 - 1);
                }
            }
            continue;
        }
        // Walk src/dst intervals in lockstep, classifying each
        // overlapped segment as on-chip or chip-crossing.
        let esz = src.tensor.dtype.size_bytes() as u64;
        let mut o = 0usize;
        while o < src.len() {
            let (se, st) = si.interval_at(src.start + o);
            let (de, dt) = di.interval_at(dst.start + o);
            let seg_end = (se - src.start).min(de - dst.start).min(src.len());
            let bytes = (seg_end - o) as u64 * esz;
            if config.ipu_of(st) == config.ipu_of(dt) {
                local[st] += bytes;
                local[dt] += bytes;
            } else {
                remote[st] += bytes;
                remote[dt] += bytes;
            }
            o = seg_end;
        }
    }
    let mut worst = 0.0f64;
    for t in 0..tiles {
        let cycles = local[t] as f64 / config.exchange_bytes_per_cycle
            + remote[t] as f64 / config.inter_ipu_bytes_per_cycle;
        worst = worst.max(cycles);
    }
    // Fabric unloading and the serial PCIe stream overlap; the phase
    // ends when the slower of the two finishes.
    let host = host_bytes as f64 / config.host_io_bytes_per_cycle;
    config.exchange_setup_cycles + worst.max(host).ceil() as u64
}

/// Attributes one exchange phase's delivered bytes to `(src_tile,
/// dst_tile)` pairs for the profiler's heatmap.
///
/// The returned bytes sum to **exactly** what [`finish_exchange`] adds to
/// `CycleStats::exchange_bytes` (`Σ dst.bytes()` over pairs) — the
/// profiler's accounting invariant. A replicated destination (broadcast
/// refresh) is attributed per source segment against
/// [`BROADCAST_TILE`]; a `Copy` with `dst.len() == reps * src.len()`
/// maps destination element `d` to source element `d % src.len()`.
fn exchange_pair_bytes(graph: &Graph, segs: &[CopySeg]) -> Vec<(u32, u32, u64)> {
    let mut acc: std::collections::BTreeMap<(u32, u32), u64> = std::collections::BTreeMap::new();
    for CopySeg { src, dst, .. } in segs {
        if src.is_empty() || dst.is_empty() {
            continue;
        }
        let si = &graph.tensors[src.tensor.id];
        let di = &graph.tensors[dst.tensor.id];
        let esz = dst.tensor.dtype.size_bytes() as u64;
        if si.host || di.host {
            // Attribute the streamed bytes against the device endpoint's
            // tiles, with the host side as the HOST_TILE pseudo-tile.
            let (dev, slice, host_is_src) = if si.host {
                (di, dst, true)
            } else {
                (si, src, false)
            };
            let mut per_tile = vec![0u64; graph.config.tiles];
            dev.bytes_per_tile(slice.start, slice.end, &mut per_tile);
            for (t, &b) in per_tile.iter().enumerate() {
                if b > 0 {
                    let key = if host_is_src {
                        (HOST_TILE, t as u32)
                    } else {
                        (t as u32, HOST_TILE)
                    };
                    *acc.entry(key).or_insert(0) += b;
                }
            }
            continue;
        }
        if di.replicated {
            // Every tile receives a replica; `exchange_bytes` counts one
            // replica's worth, attributed here per source segment.
            debug_assert_eq!(src.len(), dst.len());
            let mut o = 0usize;
            while o < src.len() {
                let (se, stile) = si.interval_at(src.start + o);
                let seg_end = (se - src.start).min(src.len());
                *acc.entry((stile as u32, BROADCAST_TILE)).or_insert(0) +=
                    (seg_end - o) as u64 * esz;
                o = seg_end;
            }
            continue;
        }
        let srclen = src.len();
        let mut o = 0usize;
        while o < dst.len() {
            let (de, dtile) = di.interval_at(dst.start + o);
            let so = o % srclen;
            let (se, stile) = si.interval_at(src.start + so);
            // The segment ends at the first of: dst interval end, src
            // interval end (translated), replication-chunk boundary,
            // slice end.
            let seg_end = (de - dst.start)
                .min(o + (se - src.start - so))
                .min((o / srclen + 1) * srclen)
                .min(dst.len());
            *acc.entry((stile as u32, dtile as u32)).or_insert(0) += (seg_end - o) as u64 * esz;
            o = seg_end;
        }
    }
    acc.into_iter().map(|((s, d), b)| (s, d, b)).collect()
}

impl Engine {
    pub(crate) fn new(graph: Graph, program: Program) -> Self {
        let mut buffers: Vec<Buffer> = graph
            .tensors
            .iter()
            .map(|t| match t.dtype {
                DType::F32 => Buffer::F32(vec![0.0; t.len]),
                DType::I32 => Buffer::I32(vec![0; t.len]),
            })
            .collect();
        let raw = RawBufs::of(&mut buffers);
        // Resolve auto threads round-robin per (compute set, tile).
        let mut counters: HashMap<(usize, usize), usize> = HashMap::new();
        let tpt = graph.config.threads_per_tile;
        let vertex_thread: Vec<usize> = graph
            .vertices
            .iter()
            .map(|v| match v.thread {
                Some(t) => t,
                // A supervisor takes no worker slot.
                None if v.supervisor => 0,
                None => {
                    let c = counters.entry((v.cs, v.tile)).or_insert(0);
                    let t = *c % tpt;
                    *c += 1;
                    t
                }
            })
            .collect();
        let stats = CycleStats {
            per_compute_set: graph
                .compute_sets
                .iter()
                .map(|cs| StepBreakdown {
                    name: cs.name.clone(),
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        };
        let thread_load = vec![0u64; graph.config.tiles * tpt];
        let max_while_iterations = graph.config.max_while_iterations;
        let (program, n_copies) = exec::lower(&program);
        // Modeled program-image size: codelet descriptors + edge tables
        // per vertex, variable descriptors per tensor, and the lowered
        // control/exchange tree. Streamed over host I/O on top of the
        // fixed attach cost — a static property of the compiled engine,
        // deliberately NOT part of `CycleStats` (which accounts runs).
        let image_bytes = graph.vertices.len() as u64 * calibration::IMAGE_BYTES_PER_VERTEX
            + graph.tensors.len() as u64 * calibration::IMAGE_BYTES_PER_TENSOR
            + program.node_count() * calibration::IMAGE_BYTES_PER_NODE;
        let program_load_cycles = graph.config.program_load_base_cycles
            + (image_bytes as f64 / graph.config.host_io_bytes_per_cycle).ceil() as u64;
        let plan = plan::build(&graph, &program, n_copies, &vertex_thread, &raw);
        Self {
            graph,
            buffers,
            raw,
            program,
            plan,
            st: RunState {
                stats,
                thread_load,
                touched_slots: Vec::new(),
                sup_loads: Vec::new(),
                scratch_f32: Vec::new(),
                scratch_i32: Vec::new(),
                faults: None,
                profiler: None,
            },
            program_load_cycles,
            max_while_iterations,
        }
    }

    /// Modeled one-time cost of loading this compiled program onto the
    /// device (attach + streaming the program image over host I/O).
    ///
    /// This is a *static property* of the engine, not part of
    /// [`Engine::stats`]: `CycleStats` accounts what runs execute, and a
    /// loaded program can be run (and re-run via snapshot/restore) any
    /// number of times. Sequential single-instance serving pays this per
    /// solve; batched serving pays it once per program — the gap is the
    /// amortization the batch bench measures.
    pub fn program_load_cycles(&self) -> u64 {
        self.program_load_cycles
    }

    /// [`Engine::program_load_cycles`] converted at the device clock.
    pub fn program_load_seconds(&self) -> f64 {
        self.graph
            .config
            .cycles_to_seconds(self.program_load_cycles)
    }

    /// The accumulated cycle statistics.
    pub fn stats(&self) -> &CycleStats {
        &self.st.stats
    }

    /// Peak SRAM bytes resident on any one tile — the same accounting
    /// `Graph::compile` enforces against the per-tile budget (host DRAM
    /// tensors excluded, replicated tensors charged to every tile).
    /// Out-of-core layouts are judged by this number: it is what must
    /// stay bounded while `n` grows.
    pub fn peak_tile_bytes(&self) -> usize {
        let graph = &self.graph;
        let mut per_tile = vec![0u64; graph.config.tiles];
        for info in &graph.tensors {
            if info.host {
                continue;
            }
            if info.replicated {
                let bytes = (info.len * info.dtype.size_bytes()) as u64;
                per_tile.iter_mut().for_each(|b| *b += bytes);
            } else {
                info.bytes_per_tile(0, info.len, &mut per_tile);
            }
        }
        per_tile.iter().copied().max().unwrap_or(0) as usize
    }

    /// Zeroes the cycle statistics (buffers are untouched).
    pub fn reset_stats(&mut self) {
        self.st.stats.reset();
    }

    /// Modeled device seconds for everything run so far.
    pub fn modeled_seconds(&self) -> f64 {
        self.graph
            .config
            .cycles_to_seconds(self.st.stats.total_cycles())
    }

    /// The device configuration.
    pub fn config(&self) -> &crate::IpuConfig {
        &self.graph.config
    }

    /// Installs a profiler: subsequent execution records a per-superstep
    /// timeline with per-tile detail (see [`Profiler`]). Replaces any
    /// previously installed profiler and its recordings.
    ///
    /// With no profiler installed the engine takes none of the recording
    /// paths — `CycleStats` and solve results are identical either way.
    pub fn enable_profiling(&mut self, config: ProfileConfig) {
        let c = &self.graph.config;
        self.st.profiler = Some(Profiler::new(
            config,
            c.tiles,
            c.threads_per_tile,
            c.ipus,
            c.tiles_per_ipu,
        ));
    }

    /// The installed profiler's recordings so far, if any.
    pub fn profile(&self) -> Option<&Profiler> {
        self.st.profiler.as_ref()
    }

    /// Summary report of the installed profiler, if any.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.st.profiler.as_ref().map(Profiler::report)
    }

    /// Chrome-trace rendering of the installed profiler's timeline, if
    /// any. `pid` is the process lane, `process` its display name in
    /// the viewer (use distinct pids when merging several engines into
    /// one file).
    pub fn chrome_trace(&self, pid: u64, process: &str) -> Option<trace::ChromeTrace> {
        let p = self.st.profiler.as_ref()?;
        let names: Vec<String> = self
            .graph
            .compute_sets
            .iter()
            .map(|cs| cs.name.clone())
            .collect();
        Some(p.chrome_trace(pid, process, self.graph.config.clock_hz, &names))
    }

    /// Installs a fault plan: subsequent execution draws from the plan's
    /// deterministic fault stream (see [`FaultPlan`]). Replaces any
    /// previously installed plan and resets its RNG stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let flip_targets = self
            .graph
            .tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                // Host DRAM is ECC-protected end to end in this model;
                // the injected SEUs target tile SRAM only.
                t.len > 0
                    && !t.host
                    && plan
                        .flip_target
                        .as_deref()
                        .is_none_or(|needle| t.name.contains(needle))
            })
            .map(|(id, _)| id)
            .collect();
        self.st.faults = Some(FaultState::new(plan, flip_targets));
    }

    /// Removes the installed fault plan; execution becomes fault-free.
    pub fn clear_fault_plan(&mut self) {
        self.st.faults = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.st.faults.as_ref().map(|f| &f.plan)
    }

    /// Checkpoints device memory and accounting.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            buffers: self.buffers.clone(),
            stats: self.st.stats.clone(),
        }
    }

    /// Reinstates a checkpoint taken with [`Engine::snapshot`] on this
    /// engine: tensor contents and cycle accounting rewind, and the
    /// partial loads of a superstep that a panicking codelet cut short are
    /// dropped; the fault RNG keeps advancing (see [`EngineSnapshot`]).
    ///
    /// # Panics
    /// Panics if the snapshot came from an engine with a different tensor
    /// set (a static programming error).
    pub fn restore(&mut self, snapshot: &EngineSnapshot) {
        assert_eq!(
            self.buffers.len(),
            snapshot.buffers.len(),
            "snapshot is from a different graph"
        );
        for (dst, src) in self.buffers.iter_mut().zip(&snapshot.buffers) {
            match (dst, src) {
                (Buffer::F32(d), Buffer::F32(s)) => d.clone_from(s),
                (Buffer::I32(d), Buffer::I32(s)) => d.clone_from(s),
                _ => panic!("snapshot is from a different graph"),
            }
        }
        self.st.stats.clone_from(&snapshot.stats);
        // Every nonzero `thread_load` slot was pushed to `touched_slots`.
        for &slot in &self.st.touched_slots {
            self.st.thread_load[slot as usize] = 0;
        }
        self.st.touched_slots.clear();
        self.st.sup_loads.clear();
        // The element-wise clone keeps allocations in place for same-graph
        // snapshots, but rebuild the raw views regardless — this is the
        // only point (besides construction) where they may be refreshed.
        self.raw = RawBufs::of(&mut self.buffers);
        self.plan.rebind_fields(&self.raw);
    }

    /// Host → device write of a whole f32 tensor (not charged to device
    /// time; bytes recorded in `stats.host_bytes`).
    pub fn write_f32(&mut self, tensor: Tensor, data: &[f32]) -> Result<(), GraphError> {
        match self.raw.0[tensor.id] {
            RawBuf::F32(_, len) if len == data.len() => {
                // SAFETY: whole-tensor write, in bounds; no vertex views
                // alive outside `run`. Going through the raw view avoids
                // re-borrowing the Vec, keeping the hoisted pointers valid.
                unsafe { self.raw.f32_mut(tensor.id, 0, len) }.copy_from_slice(data);
                self.st.stats.host_bytes += (data.len() * 4) as u64;
                Ok(())
            }
            RawBuf::F32(_, len) => Err(GraphError::Invalid {
                detail: format!(
                    "write_f32: tensor has {len} elements, data has {}",
                    data.len()
                ),
            }),
            RawBuf::I32(..) => Err(GraphError::Invalid {
                detail: "write_f32 on an i32 tensor".into(),
            }),
        }
    }

    /// Host → device write of a whole i32 tensor.
    pub fn write_i32(&mut self, tensor: Tensor, data: &[i32]) -> Result<(), GraphError> {
        match self.raw.0[tensor.id] {
            RawBuf::I32(_, len) if len == data.len() => {
                // SAFETY: as `write_f32`.
                unsafe { self.raw.i32_mut(tensor.id, 0, len) }.copy_from_slice(data);
                self.st.stats.host_bytes += (data.len() * 4) as u64;
                Ok(())
            }
            RawBuf::I32(_, len) => Err(GraphError::Invalid {
                detail: format!(
                    "write_i32: tensor has {len} elements, data has {}",
                    data.len()
                ),
            }),
            RawBuf::F32(..) => Err(GraphError::Invalid {
                detail: "write_i32 on an f32 tensor".into(),
            }),
        }
    }

    /// Device → host read of a whole f32 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not f32 (a static programming error).
    pub fn read_f32(&mut self, tensor: Tensor) -> Vec<f32> {
        self.st.stats.host_bytes += (tensor.len * 4) as u64;
        match &self.buffers[tensor.id] {
            Buffer::F32(v) => v.clone(),
            _ => panic!("read_f32 on an i32 tensor"),
        }
    }

    /// Device → host read of a whole i32 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not i32 (a static programming error).
    pub fn read_i32(&mut self, tensor: Tensor) -> Vec<i32> {
        self.st.stats.host_bytes += (tensor.len * 4) as u64;
        match &self.buffers[tensor.id] {
            Buffer::I32(v) => v.clone(),
            _ => panic!("read_i32 on an f32 tensor"),
        }
    }

    /// Runs the compiled program once.
    ///
    /// One walker runs the lowered program tree in either [`ExecMode`]
    /// (fixed by [`crate::IpuConfig::exec_mode`] at compile): `Plan`, the
    /// default, runs its leaves from the pre-resolved plan (`plan.rs`);
    /// `Interpreted` re-derives each vertex's fields and stages every
    /// copy. Results are bit-identical across modes.
    ///
    /// # Errors
    /// [`GraphError::Divergence`] if a `RepeatWhileTrue` exceeds
    /// [`Engine::max_while_iterations`].
    pub fn run(&mut self) -> Result<(), GraphError> {
        let mode = self.graph.config.exec_mode;
        let cells = match mode {
            ExecMode::Plan => self.plan.cell_arena(),
            ExecMode::Interpreted => Vec::new(),
        };
        ExecCtx {
            graph: &self.graph,
            raw: &self.raw,
            st: &mut self.st,
            plan: &self.plan,
            mode,
            cells,
            max_while_iterations: self.max_while_iterations,
        }
        .exec(&self.program)
    }

    /// Direct (host-side) peek at an f32 region — intended for tests and
    /// debugging; does not touch accounting.
    pub fn peek_f32(&self, slice: TensorSlice) -> Vec<f32> {
        match &self.buffers[slice.tensor.id] {
            Buffer::F32(v) => v[slice.range()].to_vec(),
            _ => panic!("peek_f32 on an i32 tensor"),
        }
    }

    /// Direct (host-side) peek at an i32 region.
    pub fn peek_i32(&self, slice: TensorSlice) -> Vec<i32> {
        match &self.buffers[slice.tensor.id] {
            Buffer::I32(v) => v[slice.range()].to_vec(),
            _ => panic!("peek_i32 on an f32 tensor"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cost, Access, ComputeSetId, DType, FaultPlan, Graph, IpuConfig, Program};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn simple_compute_runs_and_charges_cycles() {
        let mut g = Graph::new(IpuConfig::tiny(2));
        let x = g.add_tensor("x", DType::F32, 4);
        g.map_to_tile(x, 0).unwrap();
        let cs = g.add_compute_set("inc");
        let v = g
            .add_vertex(cs, 0, "inc", |ctx| {
                let mut x = ctx.f32_mut(0);
                for e in x.iter_mut() {
                    *e += 1.0;
                }
                cost::f32_update(x.len())
            })
            .unwrap();
        g.connect(v, x.whole(), Access::ReadWrite).unwrap();
        let mut e = g.compile(Program::execute(cs)).unwrap();
        e.write_f32(x, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(x), vec![2.0, 3.0, 4.0, 5.0]);
        assert!(e.stats().compute_cycles > 0);
        assert_eq!(e.stats().supersteps, 1);
        assert!(e.modeled_seconds() > 0.0);
    }

    #[test]
    fn program_load_is_static_and_outside_run_stats() {
        let mut g = Graph::new(IpuConfig::tiny(2));
        let cs = g.add_compute_set("w");
        g.add_vertex(cs, 0, "v", |_| 10).unwrap();
        let mut e = g.compile(Program::execute(cs)).unwrap();
        let load = e.program_load_cycles();
        // At least the fixed attach cost, plus a nonzero image charge.
        assert!(load > e.config().program_load_base_cycles);
        assert!(e.program_load_seconds() > 0.0);
        // Static property: unchanged by running, and never charged into
        // the run statistics (which account executed supersteps only).
        assert_eq!(e.stats().total_cycles(), 0);
        e.run().unwrap();
        assert_eq!(e.program_load_cycles(), load);
        let run_cycles = e.stats().total_cycles();
        e.run().unwrap();
        assert_eq!(e.stats().total_cycles(), 2 * run_cycles);
        assert_eq!(e.program_load_cycles(), load);
    }

    #[test]
    fn bigger_programs_cost_more_to_load() {
        let small = {
            let mut g = Graph::new(IpuConfig::tiny(2));
            let cs = g.add_compute_set("w");
            g.add_vertex(cs, 0, "v", |_| 10).unwrap();
            g.compile(Program::execute(cs))
                .unwrap()
                .program_load_cycles()
        };
        let big = {
            let mut g = Graph::new(IpuConfig::tiny(2));
            let cs = g.add_compute_set("w");
            for i in 0..512 {
                g.add_vertex(cs, i % 2, "v", |_| 10).unwrap();
            }
            for i in 0..64 {
                let name = format!("t{i}");
                let t = g.add_tensor(&name, DType::F32, 8);
                g.map_to_tile(t, 0).unwrap();
            }
            g.compile(Program::execute(cs))
                .unwrap()
                .program_load_cycles()
        };
        assert!(big > small);
    }

    #[test]
    fn superstep_cost_is_max_over_tiles_times_thread_slots() {
        let mut g = Graph::new(IpuConfig::tiny(2));
        let cs = g.add_compute_set("work");
        // Tile 0: 100-instruction vertex; tile 1: 10-instruction vertex.
        g.add_vertex(cs, 0, "heavy", |_| 100).unwrap();
        g.add_vertex(cs, 1, "light", |_| 10).unwrap();
        let mut e = g.compile(Program::execute(cs)).unwrap();
        e.run().unwrap();
        // Max thread load on the slowest tile = 100 + overhead, times the
        // 6 barrel slots.
        assert_eq!(e.stats().compute_cycles, (100 + VERTEX_OVERHEAD) * 6);
    }

    #[test]
    fn balanced_threads_beat_single_thread() {
        // 600 instructions on one thread vs 100 on each of six threads:
        // the balanced version is 6x faster (C3: workload balance).
        let single = {
            let mut g = Graph::new(IpuConfig::tiny(1));
            let cs = g.add_compute_set("w");
            g.add_vertex_on_thread(cs, 0, 0, "all", |_| 600).unwrap();
            let mut e = g.compile(Program::execute(cs)).unwrap();
            e.run().unwrap();
            e.stats().compute_cycles
        };
        let balanced = {
            let mut g = Graph::new(IpuConfig::tiny(1));
            let cs = g.add_compute_set("w");
            for t in 0..6 {
                g.add_vertex_on_thread(cs, 0, t, "seg", |_| 100).unwrap();
            }
            let mut e = g.compile(Program::execute(cs)).unwrap();
            e.run().unwrap();
            e.stats().compute_cycles
        };
        assert!(single > 5 * balanced);
    }

    #[test]
    fn copy_moves_data_and_charges_exchange() {
        let mut g = Graph::new(IpuConfig::tiny(2));
        let a = g.add_tensor("a", DType::I32, 4);
        let b = g.add_tensor("b", DType::I32, 4);
        g.map_to_tile(a, 0).unwrap();
        g.map_to_tile(b, 1).unwrap();
        let mut e = g.compile(Program::copy(a.whole(), b.whole())).unwrap();
        e.write_i32(a, &[1, 2, 3, 4]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_i32(b), vec![1, 2, 3, 4]);
        assert!(e.stats().exchange_cycles > 0);
        assert_eq!(e.stats().exchanges, 1);
        assert_eq!(e.stats().exchange_bytes, 16);
    }

    #[test]
    fn host_stream_exchange_charges_serial_pcie() {
        // 8 pairs of 64 f32 each, host -> one tile apiece: every tile
        // unloads 256 B at 4 B/cycle (64 cycles), but the PCIe stream
        // carries all 2048 B serially at 24 B/cycle (85.33 cycles) and
        // bounds the phase.
        let mut g = Graph::new(IpuConfig::tiny(8));
        let h = g.add_host_tensor("host_cost", DType::F32, 512);
        let d = g.add_tensor("work", DType::F32, 512);
        for t in 0..8 {
            g.map_slice(d.slice(t * 64..(t + 1) * 64), t).unwrap();
        }
        let pairs: Vec<_> = (0..8)
            .map(|t| (h.slice(t * 64..(t + 1) * 64), d.slice(t * 64..(t + 1) * 64)))
            .collect();
        let mut e = g.compile(Program::exchange(pairs)).unwrap();
        let data: Vec<f32> = (0..512).map(|i| i as f32).collect();
        e.write_f32(h, &data).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(d), data);
        let cfg = e.config().clone();
        let host_cycles = (2048.0 / cfg.host_io_bytes_per_cycle).ceil() as u64;
        assert_eq!(
            e.stats().exchange_cycles,
            cfg.exchange_setup_cycles + host_cycles
        );
        assert_eq!(e.stats().exchange_bytes, 2048);
    }

    #[test]
    fn device_to_host_copy_streams_back() {
        let mut g = Graph::new(IpuConfig::tiny(2));
        let d = g.add_tensor("acc", DType::I32, 4);
        let h = g.add_host_tensor("spool", DType::I32, 4);
        g.map_to_tile(d, 1).unwrap();
        let mut e = g.compile(Program::copy(d.whole(), h.whole())).unwrap();
        e.write_i32(d, &[9, 8, 7, 6]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_i32(h), vec![9, 8, 7, 6]);
        assert!(e.stats().exchange_cycles > 0);
    }

    #[test]
    fn host_tensor_exempt_from_sram_budget() {
        // 800 KB on any single tile would blow the 624 KiB budget; as
        // host DRAM it compiles (and can round-trip through a resident
        // window).
        let mut g = Graph::new(IpuConfig::tiny(2));
        let h = g.add_host_tensor("big", DType::F32, 200_000);
        let w = g.add_tensor("window", DType::F32, 64);
        g.map_to_tile(w, 0).unwrap();
        let mut e = g
            .compile(Program::copy(h.slice(100_000..100_064), w.whole()))
            .unwrap();
        let mut data = vec![0.0f32; 200_000];
        data[100_001] = 5.0;
        e.write_f32(h, &data).unwrap();
        e.run().unwrap();
        assert_eq!(e.peek_f32(w.slice(1..2)), vec![5.0]);
    }

    #[test]
    fn host_tensor_misuse_rejected() {
        // Mapping a host tensor is a contradiction.
        let mut g = Graph::new(IpuConfig::tiny(2));
        let h = g.add_host_tensor("h", DType::F32, 8);
        assert!(matches!(
            g.map_to_tile(h, 0),
            Err(GraphError::BadSlice { .. })
        ));
        // A vertex can never reach host DRAM directly.
        let cs = g.add_compute_set("cs");
        let v = g.add_vertex(cs, 0, "reader", |_| 1).unwrap();
        g.connect(v, h.slice(0..8), Access::Read).unwrap();
        assert!(matches!(
            g.compile(Program::execute(cs)),
            Err(GraphError::NotOnTile { .. })
        ));
        // Host endpoints are not broadcast sources or destinations.
        let mut g = Graph::new(IpuConfig::tiny(2));
        let h = g.add_host_tensor("h", DType::F32, 8);
        let d = g.add_tensor("d", DType::F32, 8);
        g.map_to_tile(d, 0).unwrap();
        assert!(g.compile(Program::broadcast(h.whole(), d.whole())).is_err());
        // Host-to-host never touches the device.
        let mut g = Graph::new(IpuConfig::tiny(2));
        let a = g.add_host_tensor("a", DType::F32, 8);
        let b = g.add_host_tensor("b", DType::F32, 8);
        assert!(g.compile(Program::copy(a.whole(), b.whole())).is_err());
    }

    #[test]
    fn bit_flips_never_target_host_tensors() {
        // A flip plan aimed at the host tensor's name finds no eligible
        // target, so the armed engine stays fault-free.
        let mut g = Graph::new(IpuConfig::tiny(2));
        let h = g.add_host_tensor("spool", DType::F32, 16);
        let d = g.add_tensor("work", DType::F32, 16);
        g.map_to_tile(d, 0).unwrap();
        let mut e = g.compile(Program::copy(h.whole(), d.whole())).unwrap();
        e.set_fault_plan(FaultPlan::new(7).with_bit_flips(1.0).targeting("spool"));
        let data = vec![3.0f32; 16];
        e.write_f32(h, &data).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(d), data);
        assert_eq!(e.stats().faults.bit_flips, 0);
    }

    #[test]
    fn broadcast_replicates() {
        let mut g = Graph::new(IpuConfig::tiny(4));
        let s = g.add_tensor("s", DType::F32, 1);
        let d = g.add_tensor("d", DType::F32, 4);
        g.map_to_tile(s, 0).unwrap();
        g.map_evenly(d).unwrap();
        let mut e = g.compile(Program::broadcast(s.whole(), d.whole())).unwrap();
        e.write_f32(s, &[7.5]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_f32(d), vec![7.5; 4]);
    }

    const MODES: [ExecMode; 2] = [ExecMode::Interpreted, ExecMode::Plan];

    /// Compiles `g` to run `program` in `mode`.
    fn compile_in(mode: ExecMode, mut g: Graph, program: Program) -> Engine {
        g.config.exec_mode = mode;
        g.compile(program).unwrap()
    }

    /// One tile holding a counter `x` and a predicate `flag`; compute set
    /// `inc` adds one to `x`, `dec` subtracts one.
    fn counter_graph() -> (Graph, Tensor, Tensor, ComputeSetId, ComputeSetId) {
        let mut g = Graph::new(IpuConfig::tiny(1));
        let x = g.add_tensor("x", DType::I32, 1);
        let flag = g.add_tensor("flag", DType::I32, 1);
        g.map_to_tile(x, 0).unwrap();
        g.map_to_tile(flag, 0).unwrap();
        let mut step = |name: &str, by: i32| {
            let cs = g.add_compute_set(name);
            let v = g
                .add_vertex(cs, 0, name, move |ctx| {
                    ctx.i32_mut(0)[0] += by;
                    1
                })
                .unwrap();
            g.connect(v, x.whole(), Access::ReadWrite).unwrap();
            cs
        };
        let (inc, dec) = (step("inc", 1), step("dec", -1));
        (g, x, flag, inc, dec)
    }

    #[test]
    fn repeat_runs_body_n_times() {
        for mode in MODES {
            let (g, x, _, inc, _) = counter_graph();
            let mut e = compile_in(mode, g, Program::repeat(5, Program::execute(inc)));
            e.run().unwrap();
            assert_eq!(e.read_i32(x), vec![5]);
            assert_eq!(e.stats().supersteps, 5);

            // One control decision per iteration, and only the taken
            // branch runs.
            let (g, x, flag, inc, dec) = counter_graph();
            let branch = Program::if_else(flag, Program::execute(inc), Program::execute(dec));
            let mut e = compile_in(mode, g, Program::repeat(3, branch));
            e.write_i32(flag, &[1]).unwrap();
            e.run().unwrap();
            assert_eq!(e.read_i32(x), vec![3], "{mode:?}");
            let s = e.stats();
            assert_eq!(s.control_cycles, 3 * e.config().control_cycles);
            assert_eq!(s.supersteps, 3);
            assert_eq!(s.per_compute_set[inc.0].executions, 3);
            assert_eq!(s.per_compute_set[dec.0].executions, 0);

            // A zero-count loop runs nothing: no superstep, exchange or
            // control decision.
            let (g, x, flag, inc, dec) = counter_graph();
            let body = Program::seq(vec![
                Program::if_else(flag, Program::execute(inc), Program::execute(dec)),
                Program::copy(x.whole(), flag.whole()),
            ]);
            let mut e = compile_in(mode, g, Program::repeat(0, body));
            e.run().unwrap();
            assert_eq!(e.read_i32(x), vec![0], "{mode:?}");
            assert_eq!(e.stats().total_cycles(), 0);
            assert_eq!((e.stats().supersteps, e.stats().exchanges), (0, 0));
        }
    }

    #[test]
    fn while_loop_runs_until_predicate_clears() {
        let mut g = Graph::new(IpuConfig::tiny(1));
        let flag = g.add_tensor("flag", DType::I32, 1);
        let count = g.add_tensor("count", DType::I32, 1);
        g.map_to_tile(flag, 0).unwrap();
        g.map_to_tile(count, 0).unwrap();
        let cs = g.add_compute_set("tick");
        let v = g
            .add_vertex(cs, 0, "tick", |ctx| {
                let mut c = ctx.i32_mut(1);
                c[0] += 1;
                let mut f = ctx.i32_mut(0);
                f[0] = i32::from(c[0] < 7);
                3
            })
            .unwrap();
        g.connect(v, flag.whole(), Access::ReadWrite).unwrap();
        g.connect(v, count.whole(), Access::ReadWrite).unwrap();
        let mut e = g
            .compile(Program::while_true(flag, Program::execute(cs)))
            .unwrap();
        e.write_i32(flag, &[1]).unwrap();
        e.run().unwrap();
        assert_eq!(e.read_i32(count), vec![7]);
        // Seven iterations, each after a taken check, plus the exit check.
        assert_eq!(e.stats().control_cycles, 8 * e.config().control_cycles);
    }

    #[test]
    fn diverging_while_is_caught() {
        let mut g = Graph::new(IpuConfig::tiny(1));
        let flag = g.add_tensor("flag", DType::I32, 1);
        g.map_to_tile(flag, 0).unwrap();
        let mut e = g
            .compile(Program::while_true(flag, Program::seq(vec![])))
            .unwrap();
        e.max_while_iterations = 100;
        e.write_i32(flag, &[1]).unwrap();
        assert!(matches!(
            e.run(),
            Err(GraphError::Divergence { limit: 100, .. })
        ));
    }

    #[test]
    fn divergence_guard_comes_from_config_and_names_the_loop() {
        let mut g = Graph::new(IpuConfig {
            max_while_iterations: 25,
            ..IpuConfig::tiny(1)
        });
        let flag = g.add_tensor("flag", DType::I32, 1);
        g.map_to_tile(flag, 0).unwrap();
        let cs = g.add_compute_set("spin_step");
        let v = g.add_vertex(cs, 0, "noop", |_| 1).unwrap();
        g.connect(v, flag.whole(), Access::Read).unwrap();
        let mut e = g
            .compile(Program::while_true(flag, Program::execute(cs)))
            .unwrap();
        e.write_i32(flag, &[1]).unwrap();
        let err = e.run().unwrap_err();
        match &err {
            GraphError::Divergence { limit, context } => {
                assert_eq!(*limit, 25);
                assert_eq!(context, "spin_step");
            }
            other => panic!("expected Divergence, got {other:?}"),
        }
        assert!(err.to_string().contains("spin_step"));
    }

    #[test]
    fn forced_divergence_draws_once_at_an_armed_while_entry_and_names_the_loop() {
        for mode in MODES {
            // The first loop is entered before any superstep, so the plan
            // is not armed yet: no draw, and it exits on its first check.
            // The second loop is entered armed: one draw, and it diverges.
            let (g, x, flag, inc, dec) = counter_graph();
            let program = Program::seq(vec![
                Program::while_true(flag, Program::execute(inc)),
                Program::execute(inc),
                Program::while_true(flag, Program::execute(dec)),
            ]);
            let mut e = compile_in(mode, g, program);
            let plan = FaultPlan::new(3)
                .with_forced_divergence(1.0)
                .after_supersteps(1);
            e.set_fault_plan(plan.clone());
            match e.run() {
                Err(GraphError::Divergence { context, .. }) => assert_eq!(context, "dec"),
                other => panic!("{mode:?}: expected Divergence, got {other:?}"),
            }
            assert_eq!(e.read_i32(x), vec![1]);
            let s = e.stats();
            assert_eq!(s.faults.forced_divergences, 1);
            assert_eq!(s.supersteps, 1);
            // The first loop's exit check and the diverged entry.
            assert_eq!(s.control_cycles, 2 * e.config().control_cycles);
            // The fault stream advanced by exactly one draw.
            let mut fresh = FaultState::new(plan, Vec::new());
            fresh.draw();
            let live = e.st.faults.as_mut().unwrap();
            assert_eq!(live.draw().to_bits(), fresh.draw().to_bits(), "{mode:?}");
        }
    }

    #[test]
    fn stats_reset_and_rerun() {
        let mut g = Graph::new(IpuConfig::tiny(1));
        let cs = g.add_compute_set("w");
        g.add_vertex(cs, 0, "v", |_| 10).unwrap();
        let mut e = g.compile(Program::execute(cs)).unwrap();
        e.run().unwrap();
        let first = e.stats().total_cycles();
        e.reset_stats();
        assert_eq!(e.stats().total_cycles(), 0);
        e.run().unwrap();
        assert_eq!(e.stats().total_cycles(), first);
        assert_eq!(e.stats().per_compute_set[0].executions, 1);
    }

    #[test]
    fn per_compute_set_breakdown_accumulates() {
        let mut g = Graph::new(IpuConfig::tiny(1));
        let cs1 = g.add_compute_set("first");
        let cs2 = g.add_compute_set("second");
        g.add_vertex(cs1, 0, "a", |_| 5).unwrap();
        g.add_vertex(cs2, 0, "b", |_| 7).unwrap();
        let prog = Program::seq(vec![
            Program::execute(cs1),
            Program::execute(cs2),
            Program::execute(cs1),
        ]);
        let mut e = g.compile(prog).unwrap();
        e.run().unwrap();
        let b = &e.stats().per_compute_set;
        assert_eq!(b[0].name, "first");
        assert_eq!(b[0].executions, 2);
        assert_eq!(b[1].executions, 1);
    }

    #[test]
    fn host_io_validates_shape_and_dtype() {
        let mut g = Graph::new(IpuConfig::tiny(1));
        let x = g.add_tensor("x", DType::F32, 4);
        g.map_to_tile(x, 0).unwrap();
        let mut e = g.compile(Program::seq(vec![])).unwrap();
        assert!(e.write_f32(x, &[0.0; 3]).is_err());
        assert!(e.write_i32(x, &[0; 4]).is_err());
        assert!(e.write_f32(x, &[0.0; 4]).is_ok());
    }

    /// A multi-tile graph: each of `tiles` tiles owns a slice of `x`
    /// updated by `verts_per_tile` vertices.
    fn sharded_increment_graph(tiles: usize, verts_per_tile: usize) -> (Graph, Tensor) {
        let mut g = Graph::new(IpuConfig::tiny(tiles));
        let n = tiles * verts_per_tile;
        let x = g.add_tensor("x", DType::F32, n);
        for t in 0..tiles {
            g.map_slice(x.slice(t * verts_per_tile..(t + 1) * verts_per_tile), t)
                .unwrap();
        }
        let cs = g.add_compute_set("inc");
        for i in 0..n {
            let tile = i / verts_per_tile;
            let v = g
                .add_vertex(cs, tile, "inc", move |ctx| {
                    ctx.f32_mut(0)[0] += (i % 7) as f32 + 1.0;
                    // Uneven loads exercise the max-reduction.
                    5 + (i % 11) as u64
                })
                .unwrap();
            g.connect(v, x.element(i), Access::ReadWrite).unwrap();
        }
        (g, x)
    }

    #[test]
    fn codelet_panic_reaches_the_caller_in_both_exec_modes() {
        for mode in [ExecMode::Interpreted, ExecMode::Plan] {
            let mut g = Graph::new(IpuConfig::tiny(2));
            let cs = g.add_compute_set("boom");
            for t in 0..2 {
                g.add_vertex(cs, t, "v", move |_| {
                    if t == 1 {
                        panic!("codelet exploded");
                    }
                    1
                })
                .unwrap();
            }
            let mut e = compile_in(mode, g, Program::execute(cs));
            let err = catch_unwind(AssertUnwindSafe(|| e.run())).unwrap_err();
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("codelet exploded"),
                "{mode:?}: got panic payload {msg:?}"
            );
        }
    }

    #[test]
    fn restore_rebuilds_raw_views() {
        for mode in [ExecMode::Interpreted, ExecMode::Plan] {
            let (g, x) = sharded_increment_graph(2, 4);
            let mut e = compile_in(mode, g, Program::execute(ComputeSetId(0)));
            e.write_f32(x, &[1.0; 8]).unwrap();
            let snap = e.snapshot();
            e.run().unwrap();
            let after_first = e.read_f32(x);
            e.restore(&snap);
            assert_eq!(e.read_f32(x), vec![1.0; 8]);
            e.run().unwrap();
            assert_eq!(e.read_f32(x), after_first, "{mode:?}");
        }
    }

    #[test]
    fn restore_after_a_codelet_panic_reruns_like_a_fresh_engine() {
        // Tile 0 loads its thread and its supervisor, then tile 1's
        // vertex — a worker, or a supervisor after a loaded worker —
        // panics while `armed` is set, mid-superstep.
        let build = |trap_is_supervisor: bool| {
            let mut g = Graph::new(IpuConfig::tiny(2));
            let armed = g.add_tensor("armed", DType::I32, 1);
            g.map_to_tile(armed, 1).unwrap();
            let cs = g.add_compute_set("boom");
            g.add_vertex(cs, 0, "load", |_| 100).unwrap();
            g.add_supervisor(cs, 0, "fold", |_| 20).unwrap();
            let trap = |ctx: &VertexCtx| {
                assert_eq!(ctx.i32(0)[0], 0, "codelet exploded");
                1
            };
            let v = if trap_is_supervisor {
                g.add_vertex(cs, 1, "load", |_| 50).unwrap();
                g.add_supervisor(cs, 1, "trap", trap).unwrap()
            } else {
                g.add_vertex(cs, 1, "trap", trap).unwrap()
            };
            g.connect(v, armed.whole(), Access::Read).unwrap();
            (g, armed, cs)
        };
        for (mode, trap_is_supervisor) in [
            (ExecMode::Interpreted, false),
            (ExecMode::Plan, false),
            (ExecMode::Interpreted, true),
            (ExecMode::Plan, true),
        ] {
            let build = || build(trap_is_supervisor);
            let (g, _, cs) = build();
            let mut fresh = compile_in(mode, g, Program::execute(cs));
            fresh.run().unwrap();

            let (g, armed, cs) = build();
            let mut e = compile_in(mode, g, Program::execute(cs));
            let snap = e.snapshot();
            e.write_i32(armed, &[1]).unwrap();
            assert!(catch_unwind(AssertUnwindSafe(|| e.run())).is_err());
            e.restore(&snap);
            e.run().unwrap();
            assert_eq!(e.stats(), fresh.stats(), "{mode:?} {trap_is_supervisor}");
        }
    }

    /// Tile 0: two workers write `x[0]` and `x[1]` (loads 30 and 50),
    /// and a supervisor (load 7) sums them into `y`. Tile 1: one worker
    /// of load `tile1`.
    fn supervised_graph(tile1: u64) -> (Graph, Tensor, Tensor, ComputeSetId) {
        let mut g = Graph::new(IpuConfig::tiny(2));
        let x = g.add_tensor("x", DType::F32, 2);
        let y = g.add_tensor("y", DType::F32, 1);
        g.map_to_tile(x, 0).unwrap();
        g.map_to_tile(y, 0).unwrap();
        let cs = g.add_compute_set("join");
        for (i, load) in [(0usize, 30u64), (1, 50)] {
            let v = g
                .add_vertex_on_thread(cs, 0, i, "part", move |ctx| {
                    ctx.f32_mut(0)[0] = (i + 1) as f32;
                    load
                })
                .unwrap();
            g.connect(v, x.element(i), Access::Write).unwrap();
        }
        let sup = g
            .add_supervisor(cs, 0, "sum", |ctx| {
                ctx.f32_mut(1)[0] = ctx.f32(0).iter().sum();
                7
            })
            .unwrap();
        g.connect(sup, x.whole(), Access::Read).unwrap();
        g.connect(sup, y.whole(), Access::Write).unwrap();
        g.add_vertex(cs, 1, "other", move |_| tile1).unwrap();
        (g, x, y, cs)
    }

    #[test]
    fn supervisor_charge_is_max_worker_plus_lone_supervisor_plus_join() {
        let tile0 = 6 * (50 + VERTEX_OVERHEAD)
            + 6 * (7 + VERTEX_OVERHEAD)
            + calibration::SUPERVISOR_JOIN_CYCLES;
        // A light tile 1 leaves tile 0's supervised cost as the chip
        // charge; a heavy one (6 · 90 = 540 > 474) sets it instead.
        for (tile1, chip) in [(5, tile0), (80, 6 * (80 + VERTEX_OVERHEAD))] {
            for mode in [ExecMode::Interpreted, ExecMode::Plan] {
                let (g, _, y, cs) = supervised_graph(tile1);
                let mut e = compile_in(mode, g, Program::execute(cs));
                e.enable_profiling(ProfileConfig::default());
                e.run().unwrap();
                assert_eq!(
                    e.read_f32(y),
                    vec![3.0],
                    "{mode:?}: supervisor reads workers"
                );
                let s = e.stats();
                assert_eq!(s.compute_cycles, chip, "{mode:?} tile1={tile1}");
                assert_eq!(s.supersteps, 1);
                assert_eq!(s.sync_cycles, e.config().sync_cycles);
                let p = e.profile().unwrap();
                assert_eq!(p.compute_cycles, chip);
                assert_eq!(p.tile_compute[0], tile0, "{mode:?}");
                let crate::ProfileEvent::Superstep(ss) = &p.events[0] else {
                    panic!("expected a superstep event");
                };
                assert_eq!(ss.tiles[0].cycles, tile0);
                assert_eq!(ss.tiles[0].threads_used, 2);
                assert_eq!(
                    ss.tiles[0].supervisor_cycles,
                    6 * (7 + VERTEX_OVERHEAD) + calibration::SUPERVISOR_JOIN_CYCLES
                );
            }
        }
    }

    #[test]
    fn compile_rejects_every_other_dependency_on_a_supervisor() {
        let race = |g: Graph, cs: ComputeSetId, case: &str| {
            let err = g.compile(Program::execute(cs)).unwrap_err();
            assert!(
                matches!(err, GraphError::ComputeSetRace { .. }),
                "{case}: {err:?}"
            );
        };
        // A supervisor reading a worker output mapped to another tile.
        let (mut g, x, _, cs) = supervised_graph(5);
        let v = g.add_supervisor(cs, 1, "remote", |_| 1).unwrap();
        g.connect(v, x.whole(), Access::Read).unwrap();
        race(g, cs, "remote read");
        // Two supervisors on one tile in one compute set.
        let (mut g, _, _, cs) = supervised_graph(5);
        g.add_supervisor(cs, 0, "second", |_| 1).unwrap();
        race(g, cs, "two supervisors");
        // A worker reading the supervisor's output.
        let (mut g, _, y, cs) = supervised_graph(5);
        let v = g.add_vertex_on_thread(cs, 0, 2, "late", |_| 1).unwrap();
        g.connect(v, y.whole(), Access::Read).unwrap();
        race(g, cs, "worker reads supervisor");
    }

    /// A program touching every profiled path: uneven compute, a
    /// supervisor, a cross-tile copy, and a repeat.
    fn profiled_program(tiles: usize, verts_per_tile: usize) -> (Graph, Tensor, Program) {
        let (mut g, x) = {
            let (g, x) = sharded_increment_graph(tiles, verts_per_tile);
            (g, x)
        };
        let y = g.add_tensor("y", DType::F32, verts_per_tile);
        g.map_to_tile(y, tiles - 1).unwrap();
        // The last tile's supervisor folds its workers' outputs, long
        // enough to set the superstep's duration.
        let last = tiles - 1;
        let z = g.add_tensor("z", DType::F32, 1);
        g.map_to_tile(z, last).unwrap();
        let sup = g
            .add_supervisor(ComputeSetId(0), last, "fold", |ctx| {
                ctx.f32_mut(1)[0] = ctx.f32(0).iter().sum();
                40
            })
            .unwrap();
        g.connect(
            sup,
            x.slice(last * verts_per_tile..tiles * verts_per_tile),
            Access::Read,
        )
        .unwrap();
        g.connect(sup, z.whole(), Access::Write).unwrap();
        let program = Program::repeat(
            3,
            Program::seq(vec![
                Program::execute(ComputeSetId(0)),
                Program::copy(x.slice(0..verts_per_tile), y.whole()),
            ]),
        );
        (g, x, program)
    }

    #[test]
    fn profiler_reconciles_with_cycle_stats() {
        let (g, x, program) = profiled_program(4, 8);
        let mut e = g.compile(program).unwrap();
        e.enable_profiling(ProfileConfig::default());
        e.write_f32(x, &[0.0; 32]).unwrap();
        e.run().unwrap();
        let p = e.profile().unwrap().clone();
        let s = e.stats().clone();
        assert_eq!(p.compute_cycles, s.compute_cycles);
        assert_eq!(p.sync_cycles, s.sync_cycles);
        assert_eq!(p.exchange_cycles, s.exchange_cycles);
        assert_eq!(p.control_cycles, s.control_cycles);
        assert_eq!(p.supersteps, s.supersteps);
        assert_eq!(p.exchanges, s.exchanges);
        assert_eq!(p.exchange_bytes, s.exchange_bytes);
        assert_eq!(p.total_cycles(), s.total_cycles());
        assert_eq!(p.heatmap.values().sum::<u64>(), s.exchange_bytes);
        assert_eq!(p.occupancy.iter().sum::<u64>(), p.tile_supersteps);
        assert!(p.tile_compute.iter().sum::<u64>() > 0);
        // Per-superstep sum over events: cycles add up to the total.
        let event_compute: u64 = p
            .events
            .iter()
            .filter_map(|ev| match ev {
                crate::ProfileEvent::Superstep(ss) => Some(ss.cycles),
                _ => None,
            })
            .sum();
        assert_eq!(event_compute, s.compute_cycles);
    }

    #[test]
    fn profiling_disabled_changes_nothing() {
        let run = |profile: bool| {
            let (g, x, program) = profiled_program(4, 8);
            let mut e = g.compile(program).unwrap();
            if profile {
                e.enable_profiling(ProfileConfig::default());
            }
            e.write_f32(x, &[0.5; 32]).unwrap();
            e.run().unwrap();
            (e.stats().clone(), e.read_f32(x))
        };
        let (stats_off, buf_off) = run(false);
        let (stats_on, buf_on) = run(true);
        assert_eq!(stats_off, stats_on);
        assert_eq!(buf_off, buf_on);
    }

    #[test]
    fn chrome_trace_from_engine_validates() {
        let (g, x, program) = profiled_program(2, 4);
        let mut e = g.compile(program).unwrap();
        e.enable_profiling(ProfileConfig::default());
        e.write_f32(x, &[0.0; 8]).unwrap();
        e.run().unwrap();
        let json = e.chrome_trace(1, "ipu-sim").unwrap().to_json();
        let summary = trace::ChromeTrace::validate_json(&json).expect("schema-valid trace");
        assert!(summary.complete_events > 0);
        assert!(summary.span_us > 0.0);
    }

    #[test]
    fn broadcast_exchange_lands_in_heatmap_as_broadcast() {
        let mut g = Graph::new(IpuConfig::tiny(4));
        let s = g.add_tensor("s", DType::F32, 2);
        let d = g.add_replicated("d", DType::F32, 2);
        g.map_to_tile(s, 1).unwrap();
        let mut e = g.compile(Program::broadcast(s.whole(), d.whole())).unwrap();
        e.enable_profiling(ProfileConfig::default());
        e.write_f32(s, &[1.0, 2.0]).unwrap();
        e.run().unwrap();
        let p = e.profile().unwrap();
        assert_eq!(p.heatmap.len(), 1);
        assert_eq!(p.heatmap[&(1, BROADCAST_TILE)], 8);
        assert_eq!(p.heatmap.values().sum::<u64>(), e.stats().exchange_bytes);
    }

    #[test]
    fn profiler_ring_drops_oldest_but_keeps_aggregates() {
        let (g, x, program) = profiled_program(2, 4);
        let mut e = g.compile(program).unwrap();
        e.enable_profiling(ProfileConfig {
            max_events: 2,
            ..Default::default()
        });
        e.write_f32(x, &[0.0; 8]).unwrap();
        e.run().unwrap();
        let p = e.profile().unwrap();
        assert_eq!(p.events.len(), 2);
        assert!(p.dropped > 0);
        assert_eq!(p.compute_cycles, e.stats().compute_cycles);
    }
}

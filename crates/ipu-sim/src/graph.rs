//! The static computation graph: tensors, tile mappings, compute sets,
//! vertices, and the compile-time validation that mirrors Poplar's.

use crate::codelet::VertexCtx;
use crate::config::IpuConfig;
use crate::engine::Engine;
use crate::error::GraphError;
use crate::program::Program;
use crate::tensor::{DType, Tensor, TensorSlice};

/// Identifies a compute set within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComputeSetId(pub(crate) usize);

/// Identifies a vertex within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VertexId(pub(crate) usize);

/// How a vertex accesses a connected region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read-only.
    Read,
    /// Write (the previous contents may be read too — modeled as
    /// exclusive, identical to `ReadWrite` for validation).
    Write,
    /// Read and write.
    ReadWrite,
}

impl Access {
    /// `true` if the access requires exclusivity (any kind of write).
    pub fn is_exclusive(self) -> bool {
        !matches!(self, Access::Read)
    }
}

pub(crate) struct TensorInfo {
    pub(crate) name: String,
    pub(crate) len: usize,
    pub(crate) dtype: DType,
    /// Sorted, disjoint `(start, end, tile)` intervals covering `0..len`
    /// once fully mapped.
    pub(crate) mapping: Vec<(usize, usize, usize)>,
    /// A replicated tensor holds one logical copy **per tile** (each tile
    /// pays its SRAM). Any tile may read it; it is written only by
    /// [`crate::Program::Broadcast`], which refreshes every replica in one
    /// multicast exchange. This is how Poplar programs mirror small,
    /// frequently-read state (cover flags, selected indices) to all tiles.
    pub(crate) replicated: bool,
    /// A host tensor lives in host DRAM behind the PCIe link, not in any
    /// tile's SRAM: it has no tile mapping, pays no SRAM budget, and no
    /// vertex may connect to it. Data moves between host tensors and
    /// device tensors only through [`crate::Program::Copy`] /
    /// [`crate::Program::Exchange`], charged at
    /// [`IpuConfig::host_io_bytes_per_cycle`] (the link is serial: one
    /// stream, not per-tile fabric). This models Poplar's host-streamed
    /// `RemoteBuffer`s, which is what lets a program work on cost data
    /// larger than the chip's combined SRAM.
    pub(crate) host: bool,
}

impl TensorInfo {
    /// The tile owning flat element `idx`, if mapped.
    pub(crate) fn tile_of(&self, idx: usize) -> Option<usize> {
        let i = self.mapping.partition_point(|&(_, e, _)| e <= idx);
        self.mapping
            .get(i)
            .filter(|&&(s, _, _)| s <= idx)
            .map(|&(_, _, t)| t)
    }

    /// Binary search: the `(interval_end, tile)` covering `idx`.
    /// Only call on fully-mapped tensors with `idx < len`.
    pub(crate) fn interval_at(&self, idx: usize) -> (usize, usize) {
        let i = self.mapping.partition_point(|&(_, e, _)| e <= idx);
        let (s, e, t) = self.mapping[i];
        debug_assert!(s <= idx && idx < e);
        (e, t)
    }

    /// Whether `start..end` is mapped entirely to `tile`.
    fn fully_on_tile(&self, start: usize, end: usize, tile: usize) -> bool {
        let mut covered = start;
        let first = self.mapping.partition_point(|&(_, e, _)| e <= start);
        for &(s, e, t) in &self.mapping[first..] {
            if s > covered {
                return false; // gap
            }
            if t != tile {
                return false;
            }
            covered = e;
            if covered >= end {
                return true;
            }
        }
        covered >= end
    }

    /// Bytes of `start..end` residing on each tile, accumulated into
    /// `per_tile`. Binary-searches the sorted mapping so the cost is
    /// proportional to the intervals actually touched.
    pub(crate) fn bytes_per_tile(&self, start: usize, end: usize, per_tile: &mut [u64]) {
        let esz = self.dtype.size_bytes() as u64;
        // First interval whose end exceeds `start`.
        let first = self.mapping.partition_point(|&(_, e, _)| e <= start);
        for &(s, e, t) in &self.mapping[first..] {
            if s >= end {
                break;
            }
            let lo = s.max(start);
            let hi = e.min(end);
            if lo < hi {
                per_tile[t] += (hi - lo) as u64 * esz;
            }
        }
    }
}

pub(crate) struct VertexInfo {
    pub(crate) cs: usize,
    pub(crate) tile: usize,
    /// Explicit hardware thread, or `None` for round-robin assignment at
    /// compile time.
    pub(crate) thread: Option<usize>,
    pub(crate) name: String,
    pub(crate) codelet: Box<dyn Fn(&VertexCtx) -> u64>,
    pub(crate) fields: Vec<(TensorSlice, Access)>,
}

pub(crate) struct ComputeSetInfo {
    pub(crate) name: String,
    pub(crate) vertices: Vec<usize>,
}

/// The static computation graph.
///
/// Everything is declared up front — tensors, their tile mappings, compute
/// sets, vertices, field connections — and validated when [`Graph::compile`]
/// turns the graph plus a [`Program`] into an [`Engine`]. This mirrors the
/// IPU's compile-ahead model (§III-A): dynamic structure is impossible by
/// construction.
pub struct Graph {
    pub(crate) config: IpuConfig,
    pub(crate) tensors: Vec<TensorInfo>,
    pub(crate) compute_sets: Vec<ComputeSetInfo>,
    pub(crate) vertices: Vec<VertexInfo>,
}

impl Graph {
    /// Creates an empty graph for the given device.
    pub fn new(config: IpuConfig) -> Self {
        Self {
            config,
            tensors: Vec::new(),
            compute_sets: Vec::new(),
            vertices: Vec::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &IpuConfig {
        &self.config
    }

    /// Declares a tensor of `len` elements. The tensor still needs a tile
    /// mapping before the graph can compile.
    pub fn add_tensor(&mut self, name: &str, dtype: DType, len: usize) -> Tensor {
        let id = self.tensors.len();
        self.tensors.push(TensorInfo {
            name: name.to_string(),
            len,
            dtype,
            mapping: Vec::new(),
            replicated: false,
            host: false,
        });
        Tensor { id, len, dtype }
    }

    /// Declares a **replicated** tensor: every tile holds (and pays SRAM
    /// for) its own read-only copy of all `len` elements, refreshed by
    /// [`Program::broadcast`]. Vertices on any tile may read it; vertex
    /// writes and plain copies are rejected at compile time.
    pub fn add_replicated(&mut self, name: &str, dtype: DType, len: usize) -> Tensor {
        let id = self.tensors.len();
        self.tensors.push(TensorInfo {
            name: name.to_string(),
            len,
            dtype,
            mapping: Vec::new(),
            replicated: true,
            host: false,
        });
        Tensor { id, len, dtype }
    }

    /// Declares a **host** tensor: `len` elements of host DRAM behind the
    /// PCIe link. It needs (and accepts) no tile mapping, pays no tile's
    /// SRAM budget, and cannot be connected to vertices — device code
    /// reaches it only through exchange programs ([`Program::copy`] /
    /// [`Program::exchange`] with exactly one host endpoint), each charged
    /// at the serial host-IO bandwidth. This is how a program streams a
    /// cost matrix bigger than the chip's SRAM through resident working
    /// blocks.
    pub fn add_host_tensor(&mut self, name: &str, dtype: DType, len: usize) -> Tensor {
        let id = self.tensors.len();
        self.tensors.push(TensorInfo {
            name: name.to_string(),
            len,
            dtype,
            mapping: Vec::new(),
            replicated: false,
            host: true,
        });
        Tensor { id, len, dtype }
    }

    /// Maps an entire tensor to one tile.
    pub fn map_to_tile(&mut self, tensor: Tensor, tile: usize) -> Result<(), GraphError> {
        self.map_slice(tensor.whole(), tile)
    }

    /// Maps a contiguous region of a tensor to a tile. Regions of one
    /// tensor must not overlap across calls.
    pub fn map_slice(&mut self, slice: TensorSlice, tile: usize) -> Result<(), GraphError> {
        if tile >= self.config.tiles {
            return Err(GraphError::BadTile {
                tile,
                tiles: self.config.tiles,
            });
        }
        let info = &mut self.tensors[slice.tensor.id];
        if info.replicated {
            return Err(GraphError::BadSlice {
                detail: format!("tensor '{}' is replicated and needs no mapping", info.name),
            });
        }
        if info.host {
            return Err(GraphError::BadSlice {
                detail: format!(
                    "tensor '{}' lives on the host and takes no tile mapping",
                    info.name
                ),
            });
        }
        if slice.end > info.len || slice.start > slice.end {
            return Err(GraphError::BadSlice {
                detail: format!(
                    "mapping {}..{} outside tensor '{}' of length {}",
                    slice.start, slice.end, info.name, info.len
                ),
            });
        }
        if slice.is_empty() {
            return Ok(());
        }
        // Intervals are sorted and disjoint, so only the first one ending
        // after `slice.start` can overlap, and the new one goes before it.
        let at = info.mapping.partition_point(|&(_, e, _)| e <= slice.start);
        if let Some(&(s, _, _)) = info.mapping.get(at) {
            if s < slice.end {
                return Err(GraphError::AlreadyMapped {
                    tensor: info.name.clone(),
                    element: slice.start.max(s),
                });
            }
        }
        info.mapping.insert(at, (slice.start, slice.end, tile));
        Ok(())
    }

    /// Maps a tensor across `tiles` in contiguous chunks of `chunk`
    /// elements: chunk `k` goes to tile `first_tile + (k % tiles)`.
    ///
    /// With `chunk` = one matrix row this is exactly the paper's 1D row
    /// decomposition (§IV-A): consecutive rows round-robin over tiles so
    /// every tile holds (almost) the same number of rows.
    pub fn map_chunks_round_robin(
        &mut self,
        tensor: Tensor,
        chunk: usize,
        first_tile: usize,
        tiles: usize,
    ) -> Result<(), GraphError> {
        if chunk == 0 || tiles == 0 {
            return Err(GraphError::BadSlice {
                detail: "chunk and tile count must be positive".into(),
            });
        }
        let mut start = 0;
        let mut k = 0;
        while start < tensor.len {
            let end = (start + chunk).min(tensor.len);
            self.map_slice(tensor.slice(start..end), first_tile + (k % tiles))?;
            start = end;
            k += 1;
        }
        Ok(())
    }

    /// Maps a tensor evenly across all tiles of the device in contiguous
    /// blocks (block `t` on tile `t`).
    pub fn map_evenly(&mut self, tensor: Tensor) -> Result<(), GraphError> {
        let tiles = self.config.tiles;
        let len = tensor.len;
        let per = len.div_ceil(tiles).max(1);
        let mut start = 0;
        let mut tile = 0;
        while start < len {
            let end = (start + per).min(len);
            self.map_slice(tensor.slice(start..end), tile)?;
            start = end;
            tile += 1;
        }
        Ok(())
    }

    /// The tile holding flat element `idx` of `tensor`, if mapped.
    pub fn tile_of(&self, tensor: Tensor, idx: usize) -> Option<usize> {
        self.tensors[tensor.id].tile_of(idx)
    }

    /// Declares a compute set. Executing it (via [`Program::execute`])
    /// runs all its vertices as one BSP superstep.
    pub fn add_compute_set(&mut self, name: &str) -> ComputeSetId {
        let id = self.compute_sets.len();
        self.compute_sets.push(ComputeSetInfo {
            name: name.to_string(),
            vertices: Vec::new(),
        });
        ComputeSetId(id)
    }

    /// Adds a vertex to `cs`, to run on `tile` (hardware thread chosen
    /// round-robin at compile time).
    pub fn add_vertex(
        &mut self,
        cs: ComputeSetId,
        tile: usize,
        name: &str,
        codelet: impl Fn(&VertexCtx) -> u64 + 'static,
    ) -> Result<VertexId, GraphError> {
        self.add_vertex_inner(cs, tile, None, name, Box::new(codelet))
    }

    /// Adds a vertex pinned to a specific hardware thread of `tile` —
    /// used when the algorithm assigns work to threads explicitly, as the
    /// paper's six per-row segments do (§IV-B).
    pub fn add_vertex_on_thread(
        &mut self,
        cs: ComputeSetId,
        tile: usize,
        thread: usize,
        name: &str,
        codelet: impl Fn(&VertexCtx) -> u64 + 'static,
    ) -> Result<VertexId, GraphError> {
        if thread >= self.config.threads_per_tile {
            return Err(GraphError::Invalid {
                detail: format!(
                    "thread {thread} out of range (device has {} threads per tile)",
                    self.config.threads_per_tile
                ),
            });
        }
        self.add_vertex_inner(cs, tile, Some(thread), name, Box::new(codelet))
    }

    fn add_vertex_inner(
        &mut self,
        cs: ComputeSetId,
        tile: usize,
        thread: Option<usize>,
        name: &str,
        codelet: Box<dyn Fn(&VertexCtx) -> u64>,
    ) -> Result<VertexId, GraphError> {
        if tile >= self.config.tiles {
            return Err(GraphError::BadTile {
                tile,
                tiles: self.config.tiles,
            });
        }
        if cs.0 >= self.compute_sets.len() {
            return Err(GraphError::Invalid {
                detail: format!("compute set {} does not exist", cs.0),
            });
        }
        let id = self.vertices.len();
        self.vertices.push(VertexInfo {
            cs: cs.0,
            tile,
            thread,
            name: name.to_string(),
            codelet,
            fields: Vec::new(),
        });
        self.compute_sets[cs.0].vertices.push(id);
        Ok(VertexId(id))
    }

    /// Connects a tensor region to the next field slot of `vertex`.
    ///
    /// Fields are positional: the codelet sees them in connection order
    /// (`ctx.f32(0)` is the first connected region, and so on).
    pub fn connect(
        &mut self,
        vertex: VertexId,
        slice: TensorSlice,
        access: Access,
    ) -> Result<(), GraphError> {
        let info = &self.tensors[slice.tensor.id];
        if slice.end > info.len || slice.start > slice.end {
            return Err(GraphError::BadSlice {
                detail: format!(
                    "connecting {}..{} outside tensor '{}' of length {}",
                    slice.start, slice.end, info.name, info.len
                ),
            });
        }
        self.vertices[vertex.0].fields.push((slice, access));
        Ok(())
    }

    /// Validates the graph and program, producing a runnable [`Engine`].
    ///
    /// Checks performed (all static, before any data exists):
    /// 1. the device config describes a consistent chip topology
    ///    ([`IpuConfig::validate`]) — an inconsistent one would miscost
    ///    cross-chip traffic rather than fail;
    /// 2. every tensor is fully mapped, exactly once per element;
    /// 3. no tile's mapped bytes exceed its SRAM budget (C2);
    /// 4. every vertex field lies wholly on the vertex's tile (C1/C2);
    /// 5. within each compute set, no write overlaps any other field of
    ///    any vertex — races are impossible (C1);
    /// 6. the program references valid compute sets, copy endpoints have
    ///    matching dtype/length, and `RepeatWhileTrue` predicates are
    ///    single-element i32 tensors.
    pub fn compile(self, program: Program) -> Result<Engine, GraphError> {
        self.config
            .validate()
            .map_err(|detail| GraphError::Invalid { detail })?;
        self.validate_mappings()?;
        self.validate_memory()?;
        self.validate_locality()?;
        self.validate_races()?;
        self.validate_program(&program)?;
        Ok(Engine::new(self, program))
    }

    fn validate_mappings(&self) -> Result<(), GraphError> {
        for info in &self.tensors {
            if info.replicated || info.host {
                continue;
            }
            let mut covered = 0;
            for &(s, e, _) in &info.mapping {
                if s > covered {
                    return Err(GraphError::Unmapped {
                        tensor: info.name.clone(),
                        element: covered,
                    });
                }
                covered = covered.max(e);
            }
            if covered < info.len {
                return Err(GraphError::Unmapped {
                    tensor: info.name.clone(),
                    element: covered,
                });
            }
        }
        Ok(())
    }

    fn validate_memory(&self) -> Result<(), GraphError> {
        let mut per_tile = vec![0u64; self.config.tiles];
        for info in &self.tensors {
            if info.host {
                // Host DRAM, not tile SRAM.
                continue;
            }
            if info.replicated {
                // Every tile pays for its replica.
                let bytes = (info.len * info.dtype.size_bytes()) as u64;
                per_tile.iter_mut().for_each(|b| *b += bytes);
            } else {
                info.bytes_per_tile(0, info.len, &mut per_tile);
            }
        }
        for (tile, &used) in per_tile.iter().enumerate() {
            if used as usize > self.config.tile_memory_bytes {
                return Err(GraphError::TileMemoryExceeded {
                    tile,
                    used: used as usize,
                    budget: self.config.tile_memory_bytes,
                });
            }
        }
        Ok(())
    }

    fn validate_locality(&self) -> Result<(), GraphError> {
        for v in &self.vertices {
            for (slice, access) in &v.fields {
                let info = &self.tensors[slice.tensor.id];
                if info.host {
                    return Err(GraphError::NotOnTile {
                        detail: format!(
                            "vertex '{}' connects host tensor '{}'; host data must be \
                             exchanged into a device tensor first",
                            v.name, info.name
                        ),
                    });
                }
                if info.replicated {
                    // Any tile reads its own replica; writes are only
                    // possible through Broadcast.
                    if access.is_exclusive() {
                        return Err(GraphError::ComputeSetRace {
                            detail: format!(
                                "vertex '{}' writes replicated tensor '{}'; replicas are \
                                 read-only for vertices",
                                v.name, info.name
                            ),
                        });
                    }
                    continue;
                }
                if !slice.is_empty() && !info.fully_on_tile(slice.start, slice.end, v.tile) {
                    return Err(GraphError::NotOnTile {
                        detail: format!(
                            "vertex '{}' on tile {} connects '{}'[{}..{}] which is not \
                             (entirely) on that tile",
                            v.name, v.tile, info.name, slice.start, slice.end
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn validate_races(&self) -> Result<(), GraphError> {
        // Per compute set and per tensor: every exclusive region must be
        // disjoint from every other field region (of any vertex, itself
        // included — a vertex aliasing its own write region through a
        // second field would still be undefined behaviour on real
        // hardware's 64-bit load/store pairs, and in this simulator).
        for (cs_idx, cs) in self.compute_sets.iter().enumerate() {
            // (tensor, start, end, vertex, field_idx, exclusive)
            let mut regions: Vec<(usize, usize, usize, usize, usize, bool)> = Vec::new();
            for &vid in &cs.vertices {
                let v = &self.vertices[vid];
                for (f_idx, (slice, access)) in v.fields.iter().enumerate() {
                    // Replicated tensors are read-only for vertices (checked
                    // in validate_locality) and every tile reads its own
                    // copy, so they cannot race; skipping them avoids a
                    // quadratic sweep over thousands of identical reads.
                    if self.tensors[slice.tensor.id].replicated {
                        continue;
                    }
                    if !slice.is_empty() {
                        regions.push((
                            slice.tensor.id,
                            slice.start,
                            slice.end,
                            vid,
                            f_idx,
                            access.is_exclusive(),
                        ));
                    }
                }
            }
            regions.sort_unstable_by_key(|&(t, s, ..)| (t, s));
            // Sweep: compare each region with the following regions that
            // start before it ends (same tensor).
            for i in 0..regions.len() {
                let (t0, s0, e0, v0, f0, x0) = regions[i];
                for &(t1, s1, e1, v1, f1, x1) in regions[i + 1..].iter() {
                    if t1 != t0 || s1 >= e0 {
                        break;
                    }
                    debug_assert!(s1 < e0 && s0 < e1);
                    if x0 || x1 {
                        let name = &self.compute_sets[cs_idx].name;
                        return Err(GraphError::ComputeSetRace {
                            detail: format!(
                                "in compute set '{name}': vertex '{}' field {f0} \
                                 [{s0}..{e0}) and vertex '{}' field {f1} [{s1}..{e1}) \
                                 overlap on tensor '{}' with a write",
                                self.vertices[v0].name,
                                self.vertices[v1].name,
                                self.tensors[t0].name
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_program(&self, program: &Program) -> Result<(), GraphError> {
        match program {
            Program::Sequence(items) => {
                for p in items {
                    self.validate_program(p)?;
                }
            }
            Program::Execute(cs) => {
                if cs.0 >= self.compute_sets.len() {
                    return Err(GraphError::Invalid {
                        detail: format!("program references unknown compute set {}", cs.0),
                    });
                }
            }
            Program::Exchange(pairs) => {
                // Each pair behaves like a Copy; destinations must also be
                // pairwise disjoint (they land in the same phase).
                for (src, dst) in pairs {
                    self.validate_program(&Program::Copy {
                        src: *src,
                        dst: *dst,
                    })?;
                }
                let mut dsts: Vec<&TensorSlice> = pairs.iter().map(|(_, d)| d).collect();
                dsts.sort_unstable_by_key(|d| (d.tensor.id, d.start));
                for w in dsts.windows(2) {
                    if w[0].overlaps(w[1]) {
                        return Err(GraphError::BadSlice {
                            detail: "exchange destinations overlap".into(),
                        });
                    }
                }
            }
            Program::Copy { src, dst } | Program::Broadcast { src, dst } => {
                let si = &self.tensors[src.tensor.id];
                let di = &self.tensors[dst.tensor.id];
                if si.host && di.host {
                    return Err(GraphError::BadSlice {
                        detail: format!(
                            "copy '{}' -> '{}' never touches the device; host-to-host \
                             moves belong on the host",
                            si.name, di.name
                        ),
                    });
                }
                if (si.host || di.host) && matches!(program, Program::Broadcast { .. }) {
                    return Err(GraphError::BadSlice {
                        detail: format!(
                            "broadcast endpoints must be device tensors ('{}' / '{}')",
                            si.name, di.name
                        ),
                    });
                }
                if si.replicated {
                    return Err(GraphError::BadSlice {
                        detail: format!("'{}' is replicated and cannot be a copy source", si.name),
                    });
                }
                if di.replicated {
                    let whole = dst.start == 0 && dst.end == di.len && src.len() == di.len;
                    let bounds_ok = src.end <= si.len && src.start <= src.end;
                    let dtype_ok = src.tensor.dtype == dst.tensor.dtype;
                    if !(matches!(program, Program::Broadcast { .. })
                        && whole
                        && bounds_ok
                        && dtype_ok)
                    {
                        return Err(GraphError::BadSlice {
                            detail: format!(
                                "replicated tensor '{}' can only be refreshed by a whole-tensor \
                                 Broadcast from an equal-length, same-dtype, in-bounds source",
                                di.name
                            ),
                        });
                    }
                    return Ok(());
                }
                if src.end > si.len || dst.end > di.len {
                    return Err(GraphError::BadSlice {
                        detail: format!(
                            "copy endpoints out of bounds ('{}' / '{}')",
                            si.name, di.name
                        ),
                    });
                }
                if src.tensor.dtype != dst.tensor.dtype {
                    return Err(GraphError::BadSlice {
                        detail: format!("copy dtype mismatch ('{}' / '{}')", si.name, di.name),
                    });
                }
                let ok = if matches!(program, Program::Broadcast { .. }) {
                    !src.is_empty() && dst.len() % src.len() == 0
                } else {
                    src.len() == dst.len()
                };
                if !ok {
                    return Err(GraphError::BadSlice {
                        detail: format!(
                            "copy length mismatch: src {} elements, dst {} elements \
                             ('{}' -> '{}')",
                            src.len(),
                            dst.len(),
                            si.name,
                            di.name
                        ),
                    });
                }
                if matches!(program, Program::Copy { .. }) && src.overlaps(dst) {
                    return Err(GraphError::BadSlice {
                        detail: format!("copy source and destination overlap in '{}'", si.name),
                    });
                }
            }
            Program::Repeat { body, .. } => self.validate_program(body)?,
            Program::RepeatWhileTrue { predicate, body } => {
                if predicate.dtype != DType::I32 || predicate.len != 1 {
                    return Err(GraphError::Invalid {
                        detail: "RepeatWhileTrue predicate must be a 1-element i32 tensor".into(),
                    });
                }
                self.validate_program(body)?;
            }
            Program::If {
                predicate,
                then_body,
                else_body,
            } => {
                if predicate.dtype != DType::I32 || predicate.len != 1 {
                    return Err(GraphError::Invalid {
                        detail: "If predicate must be a 1-element i32 tensor".into(),
                    });
                }
                self.validate_program(then_body)?;
                self.validate_program(else_body)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;

    fn tiny_graph() -> Graph {
        Graph::new(IpuConfig::tiny(4))
    }

    #[test]
    fn unmapped_tensor_rejected_at_compile() {
        let mut g = tiny_graph();
        let _t = g.add_tensor("t", DType::F32, 8);
        let err = g.compile(Program::seq(vec![])).unwrap_err();
        assert!(matches!(err, GraphError::Unmapped { element: 0, .. }));
    }

    #[test]
    fn partially_mapped_tensor_rejected() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_slice(t.slice(0..4), 0).unwrap();
        let err = g.compile(Program::seq(vec![])).unwrap_err();
        assert!(matches!(err, GraphError::Unmapped { element: 4, .. }));
    }

    #[test]
    fn double_mapping_rejected_immediately() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_slice(t.slice(0..6), 0).unwrap();
        let err = g.map_slice(t.slice(4..8), 1).unwrap_err();
        assert!(matches!(err, GraphError::AlreadyMapped { element: 4, .. }));
    }

    #[test]
    fn out_of_order_overlaps_rejected_on_both_sides() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 40);
        g.map_slice(t.slice(30..40), 2).unwrap();
        g.map_slice(t.slice(10..20), 1).unwrap();
        g.map_slice(t.slice(0..5), 0).unwrap();
        // Overlaps the neighbour that starts before it (10..20).
        let err = g.map_slice(t.slice(15..25), 3).unwrap_err();
        assert!(matches!(err, GraphError::AlreadyMapped { element: 15, .. }));
        // Overlaps the neighbour that starts after it (30..40).
        let err = g.map_slice(t.slice(25..35), 3).unwrap_err();
        assert!(matches!(err, GraphError::AlreadyMapped { element: 30, .. }));
        // Swallows a whole interval (10..20).
        let err = g.map_slice(t.slice(5..30), 3).unwrap_err();
        assert!(matches!(err, GraphError::AlreadyMapped { element: 10, .. }));
        // The gaps still fill, in any order, and the tensor compiles.
        g.map_slice(t.slice(20..30), 0).unwrap();
        g.map_slice(t.slice(5..10), 3).unwrap();
        assert_eq!(g.tile_of(t, 4), Some(0));
        assert_eq!(g.tile_of(t, 5), Some(3));
        assert_eq!(g.tile_of(t, 29), Some(0));
        assert_eq!(g.tile_of(t, 39), Some(2));
        assert!(g.compile(Program::seq(vec![])).is_ok());
    }

    #[test]
    fn fully_on_tile_spans_adjacent_intervals() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 12);
        g.map_slice(t.slice(0..4), 1).unwrap();
        g.map_slice(t.slice(4..8), 1).unwrap();
        g.map_slice(t.slice(8..12), 2).unwrap();
        let info = &g.tensors[t.id];
        // 2..6 spans 0..4 and 4..8, both on tile 1.
        assert!(info.fully_on_tile(2, 6, 1));
        // 6..10 spans 4..8 on tile 1 and 8..12 on tile 2.
        assert!(!info.fully_on_tile(6, 10, 1));
        assert!(!info.fully_on_tile(6, 10, 2));
        assert!(info.fully_on_tile(8, 12, 2));
    }

    #[test]
    fn tile_memory_budget_enforced() {
        let mut g = tiny_graph();
        // 624 KiB budget; 200_000 f32 = 800 KB on one tile overflows.
        let t = g.add_tensor("big", DType::F32, 200_000);
        g.map_to_tile(t, 2).unwrap();
        let err = g.compile(Program::seq(vec![])).unwrap_err();
        assert!(matches!(
            err,
            GraphError::TileMemoryExceeded { tile: 2, .. }
        ));
    }

    #[test]
    fn memory_budget_allows_spread_data() {
        let mut g = tiny_graph();
        // The same 800 KB spread over 4 tiles fits comfortably.
        let t = g.add_tensor("big", DType::F32, 200_000);
        g.map_evenly(t).unwrap();
        assert!(g.compile(Program::seq(vec![])).is_ok());
    }

    #[test]
    fn vertex_cannot_touch_remote_tile_data() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_to_tile(t, 1).unwrap();
        let cs = g.add_compute_set("cs");
        let v = g.add_vertex(cs, 0, "reader", |_| 1).unwrap();
        g.connect(v, t.slice(0..8), Access::Read).unwrap();
        let err = g.compile(Program::execute(cs)).unwrap_err();
        assert!(matches!(err, GraphError::NotOnTile { .. }));
    }

    #[test]
    fn straddling_region_rejected_even_if_partially_local() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_slice(t.slice(0..4), 0).unwrap();
        g.map_slice(t.slice(4..8), 1).unwrap();
        let cs = g.add_compute_set("cs");
        let v = g.add_vertex(cs, 0, "reader", |_| 1).unwrap();
        g.connect(v, t.slice(0..8), Access::Read).unwrap();
        let err = g.compile(Program::execute(cs)).unwrap_err();
        assert!(matches!(err, GraphError::NotOnTile { .. }));
    }

    #[test]
    fn write_write_race_rejected() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_to_tile(t, 0).unwrap();
        let cs = g.add_compute_set("cs");
        let a = g.add_vertex(cs, 0, "a", |_| 1).unwrap();
        let b = g.add_vertex(cs, 0, "b", |_| 1).unwrap();
        g.connect(a, t.slice(0..5), Access::Write).unwrap();
        g.connect(b, t.slice(4..8), Access::Write).unwrap();
        let err = g.compile(Program::execute(cs)).unwrap_err();
        assert!(matches!(err, GraphError::ComputeSetRace { .. }));
    }

    #[test]
    fn read_write_race_rejected() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_to_tile(t, 0).unwrap();
        let cs = g.add_compute_set("cs");
        let a = g.add_vertex(cs, 0, "a", |_| 1).unwrap();
        let b = g.add_vertex(cs, 0, "b", |_| 1).unwrap();
        g.connect(a, t.slice(0..8), Access::Read).unwrap();
        g.connect(b, t.slice(7..8), Access::ReadWrite).unwrap();
        let err = g.compile(Program::execute(cs)).unwrap_err();
        assert!(matches!(err, GraphError::ComputeSetRace { .. }));
    }

    #[test]
    fn read_read_overlap_allowed() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_to_tile(t, 0).unwrap();
        let cs = g.add_compute_set("cs");
        let a = g.add_vertex(cs, 0, "a", |_| 1).unwrap();
        let b = g.add_vertex(cs, 0, "b", |_| 1).unwrap();
        g.connect(a, t.slice(0..8), Access::Read).unwrap();
        g.connect(b, t.slice(0..8), Access::Read).unwrap();
        assert!(g.compile(Program::execute(cs)).is_ok());
    }

    #[test]
    fn disjoint_writes_allowed() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_to_tile(t, 0).unwrap();
        let cs = g.add_compute_set("cs");
        let a = g.add_vertex(cs, 0, "a", |_| 1).unwrap();
        let b = g.add_vertex(cs, 0, "b", |_| 1).unwrap();
        g.connect(a, t.slice(0..4), Access::Write).unwrap();
        g.connect(b, t.slice(4..8), Access::Write).unwrap();
        assert!(g.compile(Program::execute(cs)).is_ok());
    }

    #[test]
    fn races_in_different_compute_sets_are_fine() {
        // BSP: compute sets execute in separate supersteps, so the same
        // region may be written by different sets.
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 8);
        g.map_to_tile(t, 0).unwrap();
        let cs1 = g.add_compute_set("cs1");
        let cs2 = g.add_compute_set("cs2");
        let a = g.add_vertex(cs1, 0, "a", |_| 1).unwrap();
        let b = g.add_vertex(cs2, 0, "b", |_| 1).unwrap();
        g.connect(a, t.slice(0..8), Access::Write).unwrap();
        g.connect(b, t.slice(0..8), Access::Write).unwrap();
        assert!(g
            .compile(Program::seq(vec![
                Program::execute(cs1),
                Program::execute(cs2)
            ]))
            .is_ok());
    }

    #[test]
    fn bad_tile_and_thread_rejected() {
        let mut g = tiny_graph();
        let cs = g.add_compute_set("cs");
        assert!(matches!(
            g.add_vertex(cs, 99, "v", |_| 1),
            Err(GraphError::BadTile { tile: 99, tiles: 4 })
        ));
        assert!(g.add_vertex_on_thread(cs, 0, 6, "v", |_| 1).is_err());
    }

    #[test]
    fn copy_validation() {
        let mut g = tiny_graph();
        let a = g.add_tensor("a", DType::F32, 8);
        let b = g.add_tensor("b", DType::F32, 4);
        let c = g.add_tensor("c", DType::I32, 8);
        g.map_to_tile(a, 0).unwrap();
        g.map_to_tile(b, 1).unwrap();
        g.map_to_tile(c, 2).unwrap();
        // Length mismatch.
        let err = g
            .clone_for_test()
            .compile(Program::copy(a.slice(0..8), b.slice(0..4)))
            .unwrap_err();
        assert!(matches!(err, GraphError::BadSlice { .. }));
        // Dtype mismatch.
        let err = g
            .clone_for_test()
            .compile(Program::copy(a.slice(0..8), c.slice(0..8)))
            .unwrap_err();
        assert!(matches!(err, GraphError::BadSlice { .. }));
        // Overlapping self-copy.
        let err = g
            .clone_for_test()
            .compile(Program::copy(a.slice(0..4), a.slice(2..6)))
            .unwrap_err();
        assert!(matches!(err, GraphError::BadSlice { .. }));
        // Valid copy.
        assert!(g
            .compile(Program::copy(a.slice(0..4), b.slice(0..4)))
            .is_ok());
    }

    #[test]
    fn while_predicate_must_be_scalar_i32() {
        let mut g = tiny_graph();
        let p = g.add_tensor("p", DType::F32, 1);
        g.map_to_tile(p, 0).unwrap();
        let err = g
            .compile(Program::while_true(p, Program::seq(vec![])))
            .unwrap_err();
        assert!(matches!(err, GraphError::Invalid { .. }));
    }

    #[test]
    fn round_robin_chunk_mapping() {
        let mut g = tiny_graph();
        let t = g.add_tensor("t", DType::F32, 10);
        // Chunks of 2 over 3 tiles starting at tile 1.
        g.map_chunks_round_robin(t, 2, 1, 3).unwrap();
        assert_eq!(g.tile_of(t, 0), Some(1));
        assert_eq!(g.tile_of(t, 2), Some(2));
        assert_eq!(g.tile_of(t, 4), Some(3));
        assert_eq!(g.tile_of(t, 6), Some(1));
        assert_eq!(g.tile_of(t, 9), Some(2));
    }

    impl Graph {
        /// Test helper: rebuild an identical graph (codelets are not
        /// clonable, so only mapping-level tests use this, with no
        /// vertices present).
        fn clone_for_test(&self) -> Graph {
            assert!(self.vertices.is_empty());
            let mut g = Graph::new(self.config.clone());
            for t in &self.tensors {
                let nt = g.add_tensor(&t.name, t.dtype, t.len);
                for &(s, e, tile) in &t.mapping {
                    g.map_slice(nt.slice(s..e), tile).unwrap();
                }
            }
            g
        }
    }

    #[allow(dead_code)]
    fn cost_module_is_reachable() -> u64 {
        cost::f32_scan(4)
    }
}

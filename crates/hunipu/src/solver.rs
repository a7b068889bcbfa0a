//! The [`HunIpu`] solver and the one path all three device programs take
//! (dense or chip-aware, sparse k-candidate, tiled): route a shape to its
//! program, compile it, launch it (faults, upload, run, infeasibility
//! latch), and read the report back. The dense program serves both cold
//! and seeded launches: a device flag skips Step 1. DESIGN.md §16 maps
//! each request to its program.

use crate::ablation::AblationConfig;
use crate::build::{Builder, Storage, Ts};
use crate::layout::Layout;
use ipu_sim::{FaultPlan, IpuConfig, ProfileConfig};
use lsap::sparse::SparseCost;
use lsap::{
    Assignment, CostMatrix, DualCertificate, LsapError, LsapSolver, SolveReport, SolverStats,
};
use std::cell::Cell;
use std::time::Instant;

/// Relative tolerance for verifying HunIPU results: the device computes
/// in f32 (as the real IPU implementation does), so certificates carry
/// single-precision round-off. Instances with integer costs below 2^24
/// verify exactly.
pub const F32_VERIFY_EPS: f64 = 1e-5;

/// How the solver lays work out across the device's chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMode {
    /// Chip-aware on multi-IPU configs, flat on single-chip (the default).
    #[default]
    Auto,
    /// Force the chip-oblivious round-robin layout everywhere. On
    /// multi-IPU configs this is the seed behavior: column segments and
    /// collector traffic ignore chip boundaries, so most exchange phases
    /// pay IPU-Link bandwidth. Kept for differential tests and as the
    /// baseline the multi-IPU bench compares against.
    Flat,
    /// Force the chip-aware layout: rows block-partitioned per chip,
    /// column segments round-robined within their owning chip, and
    /// reductions/broadcasts restructured as hierarchical exchanges that
    /// cross each IPU-Link once per phase. Requires `config.ipus > 1`
    /// (single-chip chip-aware degenerates to flat by construction).
    ChipAware,
    /// Force the out-of-core tiled layout: the cost matrix stays
    /// host-resident and streams through PCIe block by block, while
    /// duals, matching state, per-row zero lists and one active block
    /// live in SRAM. Breaks the dense SRAM ceiling (per-tile memory
    /// `O(n·block_cols/tiles)` instead of `O(n²/tiles)`) at the price of
    /// streaming the matrix three times in set-up and once per dual
    /// update; the search reads the zero lists. Requires integer costs
    /// below 2^24 (the streamed slack is recomputed in f32 on the fly).
    /// Single-chip structure; [`LayoutMode::Auto`] upgrades to this
    /// automatically when the dense slack cannot fit the per-tile budget.
    Tiled,
}

/// The paper's IPU-optimized Hungarian algorithm, executed on the
/// [`ipu_sim`] machine model.
///
/// Construction is cheap; the static graph is built per `solve` call for
/// the instance's size (the IPU compiles one program per tensor shape —
/// §III-A). Reuse across same-size instances goes through
/// [`HunIpu::warm`], which compiles the same program once.
#[derive(Debug, Clone)]
pub struct HunIpu {
    config: IpuConfig,
    col_seg: usize,
    ablation: AblationConfig,
    fault_plan: Option<FaultPlan>,
    /// Number of solves already launched with faults armed; decorrelates
    /// the fault stream across retries (see [`HunIpu::with_fault_plan`]).
    fault_epoch: Cell<u64>,
    profile: Option<ProfileConfig>,
    layout_mode: LayoutMode,
    tiled_block_cols: usize,
    tiled_zcap: usize,
}

/// Default streamed-block width for [`LayoutMode::Tiled`] (columns per
/// PCIe block; the resident work buffer is `n × TILED_BLOCK_COLS` f32
/// spread over the row owners).
pub const TILED_BLOCK_COLS: usize = 512;

/// Default zero-list capacity per row for [`LayoutMode::Tiled`] — the
/// bounded resident zero lists that seed Step 2 and answer the search.
/// A row with more zeros than fit never costs correctness: it costs a
/// streamed pass whenever no list holds an uncovered zero, where a
/// complete list would have let the iteration skip the stream.
pub const TILED_ZCAP: usize = 8;

impl Default for HunIpu {
    fn default() -> Self {
        Self::new()
    }
}

impl HunIpu {
    /// A solver targeting the paper's Mk2 device.
    pub fn new() -> Self {
        Self {
            config: IpuConfig::mk2(),
            col_seg: crate::COL_SEG_DEFAULT,
            ablation: Default::default(),
            fault_plan: None,
            fault_epoch: Cell::new(0),
            profile: None,
            layout_mode: LayoutMode::Auto,
            tiled_block_cols: TILED_BLOCK_COLS,
            tiled_zcap: TILED_ZCAP,
        }
    }

    /// A solver targeting a custom device (smaller configs are useful in
    /// tests; ablations sweep parameters).
    pub fn with_config(config: IpuConfig) -> Self {
        Self {
            config,
            ..Self::new()
        }
    }

    /// Overrides the column-segment size of §IV-E (default 32) — used by
    /// the segment-size ablation. A size of 0 makes every solve return
    /// [`LsapError::Backend`].
    pub fn with_col_seg(mut self, col_seg: usize) -> Self {
        self.col_seg = col_seg;
        self
    }

    /// Overrides the ablation toggles (compression, dynamic-slice
    /// strategy); the default is the paper's design.
    pub fn with_ablation(mut self, ablation: AblationConfig) -> Self {
        self.ablation = ablation;
        self
    }

    /// Arms a [`FaultPlan`] on every engine this solver builds, simulating
    /// a faulty device.
    ///
    /// The plan's seed is the seed of the *first* solve; each subsequent
    /// solve on the same `HunIpu` derives a fresh seed from it, so a retry
    /// (e.g. driven by [`lsap::ResilientSolver`]) sees a different fault
    /// pattern rather than deterministically replaying the corruption that
    /// just killed it — matching real soft-error behavior while keeping
    /// whole-experiment reproducibility.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.fault_epoch.set(0);
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Arms or disarms the fault plan in place — the serving layer uses
    /// this to start and stop fault storms mid-run without rebuilding the
    /// solver or its pooled engines (the plan is applied per launch, so
    /// already-compiled warm engines pick the change up on their next
    /// solve). Resets the fault epoch: re-arming the same plan replays
    /// the same fault stream.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
        self.fault_epoch.set(0);
    }

    /// Enables the per-tile execution profiler on every engine this
    /// solver builds. The timeline is recovered from the engine returned
    /// by [`HunIpu::solve_with_engine`] (via `profile_report` /
    /// `chrome_trace`); [`lsap::SolverStats::profile_events`] counts the
    /// captured events either way.
    pub fn with_profiling(mut self, config: ProfileConfig) -> Self {
        self.profile = Some(config);
        self
    }

    /// The armed profiler configuration, if any.
    pub fn profile_config(&self) -> Option<&ProfileConfig> {
        self.profile.as_ref()
    }

    /// Overrides the [`LayoutMode`] (default [`LayoutMode::Auto`]) — used
    /// by differential tests and the multi-IPU bench to pin the
    /// chip-oblivious baseline.
    pub fn with_layout_mode(mut self, mode: LayoutMode) -> Self {
        self.layout_mode = mode;
        self
    }

    /// The layout mode this solver compiles with.
    pub fn layout_mode(&self) -> LayoutMode {
        self.layout_mode
    }

    /// Whether the dense program is built with the chip-aware
    /// hierarchical program for this solver's config and layout mode.
    pub fn hierarchical(&self) -> bool {
        match self.layout_mode {
            LayoutMode::Auto => self.config.ipus > 1,
            LayoutMode::Flat => false,
            LayoutMode::ChipAware => true,
            LayoutMode::Tiled => false,
        }
    }

    /// Overrides the tiled streaming parameters (block width and
    /// zero-list capacity; defaults [`TILED_BLOCK_COLS`], [`TILED_ZCAP`]).
    /// Values above `n` clamp to `n`; a 0 makes every solve return
    /// [`LsapError::Backend`].
    pub fn with_tiled_params(mut self, block_cols: usize, zcap: usize) -> Self {
        self.tiled_block_cols = block_cols;
        self.tiled_zcap = zcap;
        self
    }

    /// Whether the dense in-SRAM program plausibly fits the per-tile
    /// memory budget for instance size `n` — the [`LayoutMode::Auto`]
    /// upgrade heuristic. The authoritative gate stays
    /// `Graph::compile`'s per-tile accounting; this estimate counts the
    /// two `O(n²/tiles)` tensors (f32 slack + i32 compress) plus the
    /// replicated n-length mirrors.
    pub fn dense_fits(&self, n: usize) -> bool {
        let tiles = self.config.tiles.min(n.max(1));
        let rows_per_tile = n.div_ceil(tiles);
        let bytes = rows_per_tile * n * 8 + 6 * n * 4;
        bytes <= self.config.tile_memory_bytes
    }

    /// Whether a square instance of size `n` goes through the tiled
    /// out-of-core path: forced by [`LayoutMode::Tiled`], or chosen by
    /// [`LayoutMode::Auto`] when the dense program cannot fit SRAM
    /// (compile would reject it anyway).
    pub fn takes_tiled_path(&self, n: usize) -> bool {
        match self.layout_mode {
            LayoutMode::Tiled => true,
            LayoutMode::Auto => !self.dense_fits(n),
            LayoutMode::Flat | LayoutMode::ChipAware => false,
        }
    }

    /// The device configuration this solver targets.
    pub fn config(&self) -> &IpuConfig {
        &self.config
    }

    /// Builds and runs the device program, returning the report plus the
    /// engine (for cycle-level inspection in benches/ablations). The
    /// program is the one [`LsapSolver::solve`] runs: dense (flat or
    /// chip-aware), or tiled when [`HunIpu::takes_tiled_path`] holds.
    pub fn solve_with_engine(
        &self,
        matrix: &CostMatrix,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        let n = self.validate_size(matrix)?;
        self.solve_once(n, Ask::Cold, Input::Dense(matrix))
    }

    /// Rejects non-square matrices, returning `n`.
    pub(crate) fn validate_size(&self, matrix: &CostMatrix) -> Result<usize, LsapError> {
        if !matrix.is_square() {
            return Err(LsapError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        Ok(matrix.n())
    }

    /// The one routing decision (C4: one compiled program per shape):
    /// the storage, layout and driver an `n`-row request compiles to.
    /// Also the one place that rejects shapes and builder settings no
    /// program can represent.
    fn route(&self, n: usize, ask: Ask) -> Result<Route, LsapError> {
        if n == 0 {
            return Err(LsapError::EmptyMatrix);
        }
        if n >= (1 << 24) {
            return Err(LsapError::Backend {
                detail: format!("instance size {n} exceeds the 2^24 arg-max encoding limit"),
            });
        }
        for (param, value) in [
            ("column-segment size", self.col_seg),
            ("tiled block width", self.tiled_block_cols),
            ("tiled zero-list capacity", self.tiled_zcap),
        ] {
            if value == 0 {
                return Err(LsapError::Backend {
                    detail: format!("the {param} must be at least 1"),
                });
            }
        }
        let tiled = Storage::Tiled {
            block_cols: self.tiled_block_cols.clamp(1, n),
            zcap: self.tiled_zcap.clamp(1, n),
        };
        let storage = match ask {
            Ask::Cold if self.takes_tiled_path(n) => tiled,
            Ask::Cold => Storage::Dense,
            Ask::Sparse { k } => Storage::Sparse { k },
            Ask::Tiled => tiled,
        };
        // Only the dense program has a chip-aware layout; sparse and
        // tiled are single-chip flat by construction.
        let hierarchical = storage == Storage::Dense && self.hierarchical();
        let tiles = if hierarchical {
            self.config.tiles_per_ipu
        } else {
            self.config.tiles
        };
        if tiles < 2 {
            return Err(LsapError::Backend {
                detail: format!(
                    "HunIPU needs at least 2 tiles per layout (one collector); \
                     this device gives it {tiles}"
                ),
            });
        }
        let (c, threads) = (&self.config, self.config.threads_per_tile);
        let layout = if hierarchical {
            Layout::chip_aware(n, threads, self.col_seg, c.ipus, c.tiles_per_ipu)
        } else {
            Layout::with_col_seg(n, c.tiles, threads, self.col_seg)
        };
        let (layout, ablation) = match storage {
            Storage::Dense => (layout, self.ablation),
            // The position-indexed sparse status scan requires the
            // compressed zero lists.
            Storage::Sparse { k } => (
                layout.with_width(k),
                AblationConfig {
                    compression: true,
                    ..self.ablation
                },
            ),
            Storage::Tiled { zcap, .. } => (layout.with_width(zcap), self.ablation),
        };
        Ok(Route {
            storage,
            layout,
            ablation,
        })
    }

    /// Routes and compiles the device program for an `n`-row request
    /// (the expensive, shape-dependent step — C4). The returned engine
    /// is pristine: warm engines snapshot it once and stream instances
    /// through [`HunIpu::launch`].
    pub(crate) fn compile(&self, n: usize, ask: Ask) -> Result<Compiled, LsapError> {
        let route = self.route(n, ask)?;
        let mut builder = Builder::new(
            self.config.clone(),
            route.layout,
            route.ablation,
            route.storage,
        )
        .map_err(backend)?;
        let program = builder.assemble().map_err(backend)?;
        let Builder { g, t, .. } = builder;
        let mut engine = g.compile(program).map_err(backend)?;
        if let Some(cfg) = &self.profile {
            engine.enable_profiling(cfg.clone());
        }
        Ok(Compiled {
            engine,
            t,
            storage: route.storage,
        })
    }

    /// Compiles a program for one input, launches it once, and returns
    /// the report together with the engine.
    fn solve_once(
        &self,
        n: usize,
        ask: Ask,
        input: Input<'_>,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        let start = Instant::now();
        let mut compiled = self.compile(n, ask)?;
        let report = self.launch(&mut compiled, input, start)?;
        Ok((report, compiled.engine))
    }

    /// The fault plan for the next engine run, if faults are armed:
    /// attempt `k` runs under `seed ^ k·φ64` (the first uses the plan's
    /// own seed unchanged), decorrelating retries from the corruption
    /// that killed the previous attempt. Every launch — single solve,
    /// batch instance, or batch retry — draws from the same epoch
    /// counter, which is what makes a batch solve reproduce a sequence
    /// of single solves bit-for-bit.
    pub(crate) fn next_fault_plan(&self) -> Option<ipu_sim::FaultPlan> {
        let plan = self.fault_plan.as_ref()?;
        let epoch = self.fault_epoch.get();
        self.fault_epoch.set(epoch.wrapping_add(1));
        let mut derived = plan.clone();
        derived.seed ^= epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Some(derived)
    }

    /// The one launch path: arms (or clears) the fault plan, uploads the
    /// input with the −1-initialized matching state, runs, checks the
    /// infeasibility latch of the guarded programs, and reads the report
    /// back. The engine must be pristine (fresh from
    /// [`HunIpu::compile`] or restored from a pristine snapshot), so its
    /// cycle statistics read back as exactly this run's.
    ///
    /// Dense input lands in the slack matrix (cast to the device's f32,
    /// as the real implementation does), or in the host-resident cost
    /// tensor of the tiled program. A seeded re-solve uploads the
    /// host-repaired reduced slack and duals `u, v` instead of the raw
    /// costs — the state Step 1 would have produced — and sets the dense
    /// program's `seeded` flag, so the run skips Step 1 and Step 2's
    /// greedy starring rebuilds the matching from there; the tiled
    /// program has no seeded launch and refuses one. Sparse input uploads
    /// the candidate costs and their column ids.
    pub(crate) fn launch(
        &self,
        compiled: &mut Compiled,
        input: Input<'_>,
        start: Instant,
    ) -> Result<SolveReport, LsapError> {
        let (engine, t) = (&mut compiled.engine, &compiled.t);
        match (compiled.storage, input) {
            (Storage::Tiled { .. }, Input::Dense(matrix)) => check_tiled_costs(matrix)?,
            (Storage::Tiled { .. }, Input::Seeded(matrix, _)) => {
                return Err(LsapError::Backend {
                    detail: format!(
                        "n={} routes to the tiled program, which has no seeded \
                         re-solve; solve it cold",
                        matrix.n()
                    ),
                })
            }
            _ => {}
        }
        // Arm (or disarm) faults per launch: a warm engine reused from a
        // pool may still carry the plan from a previous run, so a solver
        // with no plan must actively clear it.
        match self.next_fault_plan() {
            Some(plan) => engine.set_fault_plan(plan),
            None => engine.clear_fault_plan(),
        }

        let f32s = |xs: &[f64]| xs.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let mut write_f32 = |tensor, data: &[f32]| engine.write_f32(tensor, data).map_err(backend);
        match input {
            Input::Dense(matrix) => {
                write_f32(t.host_cost.unwrap_or(t.slack), &f32s(matrix.as_slice()))?;
            }
            Input::Seeded(_, seed) => {
                write_f32(t.slack, &seed.slack)?;
                write_f32(t.u, &seed.u)?;
                write_f32(t.v, &seed.v)?;
                let flag = t.seeded.expect("dense storage has the seeded flag");
                engine.write_i32(flag, &[1]).map_err(backend)?;
            }
            Input::Sparse(sc) => {
                write_f32(t.slack, &f32s(sc.costs_flat()))?;
                let cand: Vec<i32> = sc.cols_flat().iter().map(|&c| c as i32).collect();
                let t_cand = t.cand.expect("sparse storage has cand");
                engine.write_i32(t_cand, &cand).map_err(backend)?;
            }
        }
        let neg1 = vec![-1i32; t.row_star.len()];
        for tensor in [t.row_star, t.col_star, t.row_prime] {
            engine.write_i32(tensor, &neg1).map_err(backend)?;
        }

        engine.run().map_err(backend)?;
        if let Some(latch) = t.infeasible {
            if engine.read_i32(latch)[0] != 0 {
                return Err(match compiled.storage {
                    Storage::Sparse { k } => LsapError::SparseInfeasible { k },
                    _ => LsapError::Backend {
                        detail: "tiled solve latched a non-finite δ on a square dense \
                                 instance; memory corruption suspected"
                            .into(),
                    },
                });
            }
        }
        extract_report(engine, t, input, start)
    }

    /// Solves a k-candidate sparse instance on the device: only the `k`
    /// candidate costs and column ids per row are resident (per-tile
    /// memory `O(n·k/tiles)`), and the Step 1/4/6 fragments operate on
    /// candidate positions with an indirect column map. When the
    /// candidate graph admits no perfect matching the device latches an
    /// infeasibility flag (non-finite δ ⇒ Hall violation) and the call
    /// returns [`LsapError::SparseInfeasible`] — the signal
    /// [`HunIpu::solve_pruned`] uses to escalate `k`.
    ///
    /// The certificate is a valid dual for the *sparse* instance; against
    /// the dense instance it may overshoot on pruned entries, which is
    /// exactly what [`lsap::violated_entries`] screens for.
    pub fn solve_sparse(&self, sc: &SparseCost) -> Result<SolveReport, LsapError> {
        self.solve_sparse_with_engine(sc).map(|(report, _)| report)
    }

    /// [`HunIpu::solve_sparse`], also returning the engine for
    /// cycle-level inspection.
    pub fn solve_sparse_with_engine(
        &self,
        sc: &SparseCost,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        self.solve_once(sc.n(), Ask::Sparse { k: sc.k() }, Input::Sparse(sc))
    }

    /// Solves a dense instance out-of-core via [`LayoutMode::Tiled`]
    /// block streaming, returning the report plus the engine. The cost
    /// matrix lives in a host tensor and streams through PCIe one
    /// `block_cols`-wide block at a time; only duals, matching state,
    /// and the active block are SRAM-resident, so instances whose dense
    /// slack would blow the per-tile budget still compile and solve.
    ///
    /// Costs must be integers with magnitude below 2^24: the streamed
    /// slack `c − u − v` is recomputed in f32 on every stream, and integer
    /// arithmetic is what keeps those recomputations exact (the same
    /// contract `datasets::f32_exact` documents for the dense path,
    /// hardened here into a precondition because zero-detection drives
    /// the search).
    pub fn solve_tiled(
        &self,
        matrix: &CostMatrix,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        let n = self.validate_size(matrix)?;
        self.solve_once(n, Ask::Tiled, Input::Dense(matrix))
    }

    /// Solves `dense` through the sparse k-candidate engine with
    /// certificate repair ([`lsap::solve_pruned_with_repair`]): prune to
    /// `k` candidates per row, solve on-device, verify against the dense
    /// certificate, re-admit violated columns and re-solve on failure,
    /// falling back to the dense device solve only after `max_rounds`.
    pub fn solve_pruned(
        &self,
        dense: &CostMatrix,
        k: usize,
        max_rounds: u32,
    ) -> Result<lsap::RepairReport, LsapError> {
        lsap::solve_pruned_with_repair(
            dense,
            k,
            max_rounds,
            F32_VERIFY_EPS,
            |sc| self.solve_sparse(sc),
            |m| self.solve_with_engine(m).map(|(report, _)| report),
        )
    }
}

/// What a caller asks the device to solve; [`HunIpu::route`] maps it to
/// a program (DESIGN.md §16 has the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ask {
    /// A dense matrix, cold: the dense program (flat or chip-aware), or
    /// the tiled one where [`HunIpu::takes_tiled_path`] holds.
    Cold,
    /// A k-candidate sparse instance.
    Sparse {
        /// Candidate columns stored per row.
        k: usize,
    },
    /// A dense matrix, forced out-of-core.
    Tiled,
}

/// The storage, layout and driver one program is built from.
struct Route {
    storage: Storage,
    layout: Layout,
    ablation: AblationConfig,
}

/// One compiled device program: the engine, its tensor handles, and the
/// route the launch and read-back follow.
pub(crate) struct Compiled {
    pub engine: ipu_sim::Engine,
    t: Ts,
    storage: Storage,
}

/// What the host uploads for one run. The read-back takes the objective
/// from the same place: the dense matrix, or the candidate costs.
#[derive(Clone, Copy)]
pub(crate) enum Input<'a> {
    /// A dense cost matrix (the dense and tiled programs).
    Dense(&'a CostMatrix),
    /// A dense matrix with its host-repaired seed (the dense program,
    /// Step 1 skipped).
    Seeded(&'a CostMatrix, &'a lsap::RepairedSeedF32),
    /// A k-candidate instance (the sparse program).
    Sparse(&'a SparseCost),
}

fn backend(e: ipu_sim::GraphError) -> LsapError {
    LsapError::Backend {
        detail: e.to_string(),
    }
}

/// The tiled program's input contract: integer costs with |c| < 2^24,
/// so the f32 slacks it recomputes on every stream stay exact.
fn check_tiled_costs(matrix: &CostMatrix) -> Result<(), LsapError> {
    match matrix
        .as_slice()
        .iter()
        .find(|c| c.fract() != 0.0 || c.abs() >= (1u64 << 24) as f64)
    {
        Some(&bad) => Err(LsapError::Backend {
            detail: format!(
                "tiled solve requires integer costs with |c| < 2^24 (streamed \
                 slacks are recomputed in f32); found {bad}"
            ),
        }),
        None => Ok(()),
    }
}

/// Reads the finished device state back into a [`SolveReport`]. The
/// objective comes from the dense matrix, or, for sparse input, from the
/// candidate costs, where a matched edge outside the candidate set means
/// memory corruption.
fn extract_report(
    engine: &mut ipu_sim::Engine,
    t: &Ts,
    input: Input<'_>,
    start: Instant,
) -> Result<SolveReport, LsapError> {
    let row_star = engine.read_i32(t.row_star);
    let n = row_star.len();
    let row_to_col = row_star
        .iter()
        .map(|&j| (j >= 0).then_some(j as usize))
        .collect();
    let assignment = Assignment::from_row_to_col(row_to_col);
    let objective = match input {
        Input::Dense(matrix) | Input::Seeded(matrix, _) => assignment.cost(matrix)?,
        Input::Sparse(sc) => {
            let mut objective = 0.0;
            for (i, j) in assignment.pairs() {
                objective += sc.cost_of(i, j).ok_or_else(|| LsapError::Backend {
                    detail: format!(
                        "sparse solve matched row {i} to column {j}, which is not a \
                         candidate; memory corruption suspected"
                    ),
                })?;
            }
            objective
        }
    };
    let u: Vec<f64> = engine.read_f32(t.u).iter().map(|&x| x as f64).collect();
    let v: Vec<f64> = engine.read_f32(t.v).iter().map(|&x| x as f64).collect();
    // Each augmentation grows the matching by one row, so a sane run
    // records at most n; each dual update visits at least one new
    // column between augmentations, bounding the total by n per
    // augmentation. Anything outside these bounds (negative included —
    // a naive `as u64` cast would wrap a corrupted -1 to 2^64-1) means
    // the counter itself was hit by a fault.
    let augmentations = read_counter(engine, t.ctr_aug, "ctr_aug", n as u64)?;
    let dual_updates = read_counter(engine, t.ctr_dual, "ctr_dual", (n as u64).pow(2))?;

    let stats = SolverStats {
        modeled_seconds: Some(engine.modeled_seconds()),
        modeled_cycles: Some(engine.stats().total_cycles()),
        wall_seconds: start.elapsed().as_secs_f64(),
        augmentations,
        dual_updates,
        device_steps: engine.stats().supersteps,
        profile_events: engine
            .profile()
            .map_or(0, |p| p.events.len() as u64 + p.dropped),
        seeded: matches!(input, Input::Seeded(..)),
        ..Default::default()
    };
    Ok(SolveReport {
        assignment,
        objective,
        certificate: DualCertificate::new(u, v),
        stats,
    })
}

/// Reads a device step counter and validates it against its theoretical
/// bound, turning corrupted values into [`LsapError::Backend`] instead of
/// nonsense statistics.
fn read_counter(
    engine: &mut ipu_sim::Engine,
    tensor: ipu_sim::Tensor,
    name: &str,
    max_plausible: u64,
) -> Result<u64, LsapError> {
    let raw = engine.read_i32(tensor)[0];
    if raw < 0 {
        return Err(LsapError::Backend {
            detail: format!(
                "device counter `{name}` read back negative ({raw}); memory corruption suspected"
            ),
        });
    }
    let value = raw as u64;
    if value > max_plausible {
        return Err(LsapError::Backend {
            detail: format!(
                "device counter `{name}` = {value} exceeds its theoretical bound \
                 {max_plausible}; memory corruption suspected"
            ),
        });
    }
    Ok(value)
}

impl LsapSolver for HunIpu {
    fn name(&self) -> &'static str {
        "hunipu"
    }

    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        self.solve_with_engine(matrix).map(|(report, _)| report)
    }
}

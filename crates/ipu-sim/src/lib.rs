//! A Graphcore-IPU machine simulator.
//!
//! The paper's system (HunIPU) targets a Graphcore Mk2 GC200 IPU through
//! the Poplar SDK. Neither is reachable from Rust, so this crate rebuilds
//! the *machine model* the paper programs against — faithfully enough that
//! the algorithmic design decisions of §III–IV are forced on the user of
//! this crate the same way the hardware forces them on the paper:
//!
//! - **Tiles with private SRAM only (C2).** Data lives in tensors, and
//!   every tensor element is explicitly mapped to a tile. A compute vertex
//!   may only touch tensor regions mapped to *its own* tile; violations
//!   are build-time errors. Per-tile memory is budgeted (624 KiB) and
//!   overflows are build-time errors.
//! - **No atomics, no shared memory (C1).** Within a compute set, two
//!   vertices may never write overlapping regions, nor may one read what
//!   another writes; violations are build-time errors (this mirrors
//!   Poplar's data-integrity rule for compute sets).
//! - **BSP execution (C3).** A program is a static tree of compute sets,
//!   exchanges, and loops. Each executed compute set is a superstep: its
//!   modeled duration is the *maximum* over tiles (stragglers stall the
//!   whole chip), followed by a sync charge and, for copies, an exchange
//!   charge based on per-tile bytes moved.
//! - **Static graph (C4).** All tensors, vertices, copies, and control
//!   flow are declared before execution; the only data-dependent control
//!   is `RepeatWhileTrue` on a device scalar, exactly as in Poplar.
//!
//! The modeled device defaults to the paper's Mk2 GC200: 1472 tiles, six
//! hardware threads per tile, 624 KiB SRAM per tile, 1.325 GHz clock (see
//! [`calibration`] for every constant and its rationale).
//!
//! The host executes every superstep on the calling thread. Two paths
//! run a compiled program — a tree-walking interpreter and a lowered
//! straight-line plan (see [`ExecMode`]) — and buffers, cycle statistics,
//! fault behaviour and profiles are bit-identical between them.
//!
//! # Quick example
//!
//! ```
//! use ipu_sim::{Graph, IpuConfig, Program, DType, Access, cost};
//!
//! let mut graph = Graph::new(IpuConfig::mk2());
//! let x = graph.add_tensor("x", DType::F32, 8);
//! graph.map_to_tile(x, 0).unwrap();
//! let cs = graph.add_compute_set("double");
//! let v = graph.add_vertex(cs, 0, "double", |ctx| {
//!     let mut x = ctx.f32_mut(0);
//!     for e in x.iter_mut() { *e *= 2.0; }
//!     ipu_sim::cost::f32_update(x.len())
//! }).unwrap();
//! graph.connect(v, x.slice(0..8), Access::ReadWrite).unwrap();
//! let mut engine = graph.compile(Program::execute(cs)).unwrap();
//! engine.write_f32(x, &[1.0; 8]).unwrap();
//! engine.run().unwrap();
//! assert_eq!(engine.read_f32(x), vec![2.0; 8]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod calibration;
mod codelet;
mod config;
mod engine;
mod error;
mod exec;
mod fault;
mod graph;
pub mod kernels;
mod plan;
pub mod poplib;
pub mod profile;
mod program;
mod stats;
mod tensor;

pub use codelet::{cost, Codelet, VertexCtx};
pub use config::{ExecMode, IpuConfig};
pub use engine::{Engine, EngineSnapshot};
pub use error::GraphError;
pub use fault::{FaultPlan, FaultSpecError};
pub use graph::{Access, ComputeSetId, Graph, VertexId};
pub use profile::{ProfileConfig, ProfileEvent, ProfileReport, Profiler};
pub use program::Program;
pub use stats::{CycleStats, FaultStats, StepBreakdown};
pub use tensor::{DType, Tensor, TensorSlice};

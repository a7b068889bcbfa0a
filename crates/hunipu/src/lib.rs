//! HunIPU — the paper's IPU-optimized Hungarian algorithm (§IV),
//! implemented on the [`ipu_sim`] machine model.
//!
//! The algorithm follows the paper's six-step decomposition exactly:
//!
//! 1. **Initial subtraction** (§IV-C): row minima via six per-row thread
//!    segments, then column minima via a cross-tile reduction tree,
//!    subtracted in parallel ("two floats at a time").
//! 2. **Initial matching** (§IV-D): compress the slack matrix (§IV-B),
//!    reduce the maximum per-row zero count τ, sort the compressed rows
//!    descending, and run τ parallel propose/decide/confirm passes over
//!    the sorted zero columns (Fig. 2).
//! 3. **Completion assessment** (§IV-E): cover starred columns in
//!    32-element segments distributed over tiles; a sum reduction decides
//!    termination.
//! 4. **Alternating-path search** (§IV-F): each row scans only its
//!    compressed zeros and publishes a −1/0/1 state; an arg-max reduction
//!    selects the action.
//! 5. **Path augmentation** (§IV-G): the alternating path is recorded in
//!    the `green_column` stack, with every runtime-index access built as
//!    a partition-and-distribute dynamic slice (Fig. 4); the flip then
//!    runs in parallel on all tiles.
//! 6. **Slack update** (§IV-H): per-thread segment minima, a global min
//!    reduction, a broadcast of Δ, the parallel shift, and re-compression.
//!
//! The machine constraints that shaped the paper's design (no atomics,
//! 624 KiB tiles, BSP synchronization, static graphs — §III-B) are
//! *enforced* by `ipu_sim` at graph-compile time, so this implementation
//! demonstrably respects them.
//!
//! Every solve returns an [`lsap::DualCertificate`]: the device tracks the
//! dual potentials `u, v` alongside the slack matrix (Step 1 initializes
//! them, Step 6 shifts them), so optimality is verifiable without any
//! reference solver.
//!
//! # Example
//!
//! ```
//! use lsap::{CostMatrix, LsapSolver};
//! use ipu_sim::IpuConfig;
//! use hunipu::HunIpu;
//!
//! let m = CostMatrix::from_rows(&[
//!     &[4.0, 1.0, 3.0],
//!     &[2.0, 0.0, 5.0],
//!     &[3.0, 2.0, 2.0],
//! ]).unwrap();
//! // A small simulated device keeps the doc test fast; `HunIpu::new()`
//! // targets the paper's 1472-tile Mk2.
//! let mut solver = HunIpu::with_config(IpuConfig::tiny(8));
//! let report = solver.solve(&m).unwrap();
//! assert_eq!(report.objective, 5.0);
//! report.verify(&m, hunipu::F32_VERIFY_EPS).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
mod batch;
mod build;
#[cfg(test)]
mod fingerprints;
mod layout;
mod solver;
mod steps;
mod streaming;
mod warm;

pub use ablation::{AblationConfig, DynSlice};
pub use batch::BatchHunIpu;
pub use layout::{Layout, COL_SEG};
pub use solver::{HunIpu, LayoutMode, F32_VERIFY_EPS, TILED_BLOCK_COLS, TILED_ZCAP};
pub use streaming::StreamingHunIpu;
pub use warm::WarmEngine;

/// Default column-segment size (§IV-E footnote: "we empirically find
/// that 32 works well regardless of the data and the architecture").
pub const COL_SEG_DEFAULT: usize = 32;

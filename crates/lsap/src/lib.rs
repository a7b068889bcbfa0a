//! Core types for the Linear Sum Assignment Problem (LSAP).
//!
//! The LSAP asks for a one-to-one assignment between `n` agents (rows) and
//! `n` tasks (columns) of a cost matrix `C` that minimizes the summed cost
//! of the chosen entries. This crate provides the problem representation
//! shared by every solver in the workspace:
//!
//! - [`CostMatrix`] — a dense, row-major cost matrix,
//! - [`Assignment`] — a (possibly partial) row→column matching,
//! - [`DualCertificate`] — an LP-duality proof of optimality that lets any
//!   solver's output be verified *without* trusting a reference solver,
//! - [`LsapSolver`] — the trait all solvers (CPU, simulated GPU, simulated
//!   IPU) implement, and [`SolveReport`] with modeled-runtime accounting,
//! - [`BatchLsapSolver`] — the batched counterpart solving `B` instances
//!   through one engine, with amortized accounting in [`BatchStats`],
//! - [`ResilientSolver`] — a certificate-verified retry/fallback chain
//!   over any solvers, under one [`RetryPolicy`],
//! - [`sparse`] — pruned k-candidate instances ([`SparseCost`]) and the
//!   certificate-gated repair loop ([`solve_pruned_with_repair`]) that
//!   keeps pruned solves exactly optimal with respect to the dense
//!   instance.
//!
//! # Example
//!
//! ```
//! use lsap::{CostMatrix, Assignment};
//!
//! let c = CostMatrix::from_rows(&[
//!     &[4.0, 1.0, 3.0],
//!     &[2.0, 0.0, 5.0],
//!     &[3.0, 2.0, 2.0],
//! ]).unwrap();
//! // The optimal assignment picks (0,1), (1,0), (2,2): cost 1 + 2 + 2 = 5.
//! let a = Assignment::from_row_to_col(vec![Some(1), Some(0), Some(2)]);
//! assert_eq!(a.cost(&c).unwrap(), 5.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod assignment;
mod batch;
mod certificate;
mod error;
pub mod incremental;
mod matrix;
pub mod policy;
mod rectangular;
mod resilient;
mod solver;
pub mod sparse;

pub use assignment::Assignment;
pub use batch::{
    solve_instance_verified, BatchLsapSolver, BatchReport, BatchStats, SequentialBatch,
};
pub use certificate::DualCertificate;
pub use error::LsapError;
pub use incremental::{
    repair_duals, repair_duals_f32, DeltaUpdate, IncrementalSolver, RepairedSeed, RepairedSeedF32,
    ResolveStats, SeedSolve, StreamSnapshot, WarmStart,
};
pub use matrix::CostMatrix;
pub use policy::{checked_attempt, classify, Attempt, RetryClass};
pub use rectangular::solve_rectangular;
pub use resilient::{AttemptRecord, ResilientSolver, RetryPolicy};
pub use solver::{LsapSolver, SolveReport, SolverStats};
pub use sparse::{solve_pruned_with_repair, violated_entries, RepairReport, SparseCost};

/// Default absolute tolerance used when comparing floating-point costs.
///
/// Solvers operate on `f64` and only ever add/subtract input entries, so
/// round-off stays small relative to the entries; this tolerance is scaled
/// by the problem magnitude where appropriate.
pub const COST_EPS: f64 = 1e-7;

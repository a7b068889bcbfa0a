//! Optimized CPU implementations of the Hungarian algorithm and friends.
//!
//! These are the "CPU" baseline of the paper (§V, run on an AMD EPYC 7742
//! at 2.25 GHz) plus the ground-truth solver used to verify every other
//! engine in the workspace:
//!
//! - [`Munkres`] — the classical Kuhn–Munkres algorithm, structured as the
//!   same six steps the paper decomposes HunIPU into (initial subtraction,
//!   initial matching, completion assessment, alternating-path search,
//!   path augmentation, slack update). This is the algorithm HunIPU
//!   parallelizes, so its step structure mirrors `crates/hunipu` exactly.
//! - [`JonkerVolgenant`] — shortest-augmenting-path solver (LAPJV),
//!   asymptotically and practically the fastest sequential method; used as
//!   ground truth in tests and benches.
//! - [`Auction`] — Bertsekas' auction algorithm with ε-scaling, included
//!   as an extension/ablation baseline (approximate for real-valued costs
//!   with total error bounded by n times the final ε).
//!
//! All solvers maintain dual potentials and return a
//! [`lsap::DualCertificate`], and all count abstract machine operations so
//! that a *modeled* EPYC runtime can be reported next to wall-clock time
//! (see [`calibration`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod auction;
pub mod batch;
pub mod calibration;
pub mod jv;
pub mod munkres;
pub mod ops;

pub use auction::Auction;
pub use batch::CpuBatch;
pub use jv::JonkerVolgenant;
pub use munkres::{Munkres, ZeroSearch};
pub use ops::OpCounter;

/// Convenience: solve `matrix` with Jonker–Volgenant and return the
/// verified optimal objective. Panics on solver failure — intended for
/// tests and benches where the instance is known to be well-formed.
pub fn ground_truth_objective(matrix: &lsap::CostMatrix) -> f64 {
    let mut solver = JonkerVolgenant::new();
    let report = lsap::LsapSolver::solve(&mut solver, matrix).expect("JV solve failed");
    report
        .verify(matrix, lsap::COST_EPS)
        .expect("JV produced an invalid certificate");
    report.objective
}

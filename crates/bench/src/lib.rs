//! Shared harness code for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary prints the paper's rows/series and writes a JSON record
//! under `target/experiments/` for provenance. Absolute numbers are
//! *modeled* device times (see the `calibration` modules of `ipu-sim`,
//! `gpu-sim`, and `cpu-hungarian`); the reproduction target is the
//! paper's **shape** — who wins, by roughly what factor, and how the
//! factors move with size and value range.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alignment;
pub mod cli;
pub mod gates;
pub mod record;
pub mod runners;
pub mod serve_load;

pub use cli::Args;
pub use gates::{run_gates, write_baseline, GATES};
pub use record::{ExperimentRecord, Measurement};
pub use runners::{fmt_time, run_cpu, run_fastha, run_hunipu, CpuExtrapolator};
pub use serve_load::{calibrate_service_cycles, run_open_loop, LoadSpec, LoadSummary};

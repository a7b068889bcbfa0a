//! FastHA — the state-of-the-art GPU Hungarian algorithm the paper
//! compares against (Lopes, Yadav, Ilic, Patra: "Fast block distributed
//! CUDA implementation of the Hungarian algorithm", JPDC 130, 2019),
//! reimplemented on the [`gpu_sim`] SIMT machine model.
//!
//! The implementation follows the CUDA architecture of the original:
//!
//! - the cost/slack matrix and all matching state live in **global
//!   memory** (no per-core SRAM — every step round-trips through HBM);
//! - each Munkres phase is a **kernel**; one thread owns one matrix row,
//!   so rows with different zero counts diverge inside a warp and the
//!   whole warp pays the longest scan (the weakness §I of the HunIPU
//!   paper calls out);
//! - zeros are kept in per-row compacted lists rebuilt after every dual
//!   update, as in the original's zero-handling;
//! - conflicts during starring/priming are resolved with **atomics**;
//! - **control flow runs on the host**: every loop iteration launches
//!   kernels and synchronously reads back flags over PCIe, paying launch
//!   and sync overheads that HunIPU's on-device control flow avoids.
//!
//! As in the original, only **power-of-two** matrix sizes are supported
//! (§V-C of the HunIPU paper pads similarity matrices accordingly).
//!
//! Each of the eleven kernels is written once, as a per-thread body over
//! device state sized for `b` instances (`kernels`). Two host drivers
//! launch them: [`FastHa`] runs one instance (`b = 1`, `n` threads) and
//! steers with scalar sync reads; [`BatchFastHa`] runs `b` same-size
//! instances in lockstep (`b·n` threads, each instance masked by its
//! phase word) and steers all of them with one vector sync read per
//! round. The two drivers differ only in that steering, which is the
//! cost the batch bench measures.
//!
//! Like every solver in this workspace, FastHA maintains the dual
//! potentials and returns a verifiable [`lsap::DualCertificate`].

#![warn(missing_docs)]
#![warn(clippy::all)]

mod batch;
mod kernels;
mod solver;

pub use batch::BatchFastHa;
pub use solver::{FastHa, F32_VERIFY_EPS};

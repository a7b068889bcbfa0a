//! Minimal dense linear algebra for the graph-alignment use case.
//!
//! GRAMPA (Fan et al. 2019), the alignment algorithm the paper uses in
//! §V-C, needs the full eigendecomposition of two symmetric adjacency
//! matrices plus a handful of dense products. This crate supplies exactly
//! that — a dense matrix type, a symmetric eigensolver, and the
//! products — with no external BLAS.
//!
//! The eigensolver is Householder tridiagonalisation followed by implicit
//! QL (EISPACK's `tred2`/`tql2`). It needs no tolerance or sweep count
//! and is deterministic. Correctness is checked by the decomposition
//! itself: `V·diag(λ)·Vᵀ` must reconstruct the input and `VᵀV` must be
//! the identity.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod eigen;
mod matrix;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use matrix::DenseMatrix;

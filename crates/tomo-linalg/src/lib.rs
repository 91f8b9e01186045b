//! Dense linear-algebra substrate for the network-tomography reproduction.
//!
//! The Congestion Probability Computation algorithm of the paper ("Shifting
//! Network Tomography Toward A Practical Goal", CoNEXT 2011) reduces to
//! assembling a binary system matrix over *path sets* and *correlation
//! subsets*, computing its null space, incrementally updating that null space
//! as new equations are added (Algorithm 2 of the paper), and finally solving
//! a log-linear least-squares problem.
//!
//! This crate implements exactly the numeric machinery those steps need,
//! without pulling in an external BLAS/LAPACK dependency:
//!
//! * [`Matrix`] — a dense, row-major `f64` matrix with the usual arithmetic.
//! * [`Vector`] — a dense `f64` vector.
//! * [`gauss`] — Gaussian elimination: RREF, rank, and exact solving.
//! * [`qr`] — Householder QR decomposition.
//! * [`nullspace`] — null-space basis extraction from the RREF.
//! * [`nullspace_update`] — the paper's Algorithm 2 (incremental null-space
//!   update after appending one row to the system matrix).
//! * [`lstsq`] — least-squares solving (QR-based with a regularized
//!   normal-equation fallback for rank-deficient systems).
//! * [`sparse`] — CSR representation of the 0/1 routing systems, a
//!   conjugate-gradient least-squares solve that touches only the nonzeros,
//!   and identifiability from a sparse echelon form; the dense solvers
//!   above remain the reference oracle.
//! * [`lu`] — partial-pivoting LU factors for factor-once / solve-many
//!   callers (the cached online pseudo-solvers).
//!
//! All routines are deterministic and allocation-honest: they never spawn
//! threads and never touch global state, so they can be used from the
//! experiment harness's parallel sweeps without synchronization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gauss;
pub mod lstsq;
pub mod lu;
pub mod matrix;
pub mod nullspace;
pub mod nullspace_update;
pub mod qr;
pub mod sparse;
pub mod vector;

pub use gauss::{rank, rref, solve_multi, solve_square, RrefResult};
pub use lstsq::{least_squares, LstsqOptions, LstsqSolution};
pub use lu::LuFactors;
pub use matrix::Matrix;
pub use nullspace::nullspace;
pub use nullspace_update::{nullspace_update, NullSpaceUpdate};
pub use qr::{qr_decompose, QrDecomposition};
pub use sparse::{
    should_use_sparse, sparse_least_squares, SparseMatrix, SPARSE_MAX_DENSITY, SPARSE_MIN_COLS,
};
pub use vector::Vector;

/// Default numerical tolerance used throughout the crate to decide whether a
/// floating-point value should be treated as zero (pivot selection, rank
/// decisions, null-space membership).
pub const DEFAULT_TOL: f64 = 1e-9;

//! # parapre-sparse
//!
//! Sparse linear-algebra substrate for the `parapre` workspace.
//!
//! The crate provides the flat, cache-friendly storage formats and kernels
//! that every other crate in the workspace builds on:
//!
//! * [`Csr`] — compressed sparse row storage with sorted column indices,
//!   the workhorse format (assembly output, ILU factors, Schur blocks).
//! * [`Coo`] — triplet builder used during finite-element assembly; duplicate
//!   entries are summed when converting to CSR.
//! * [`Dense`] — small column-major dense matrices (coarse-grid operators,
//!   ARMS diagonal blocks) with LU factorization living in `parapre-krylov`.
//! * Triangular solves, permutations, sub-matrix extraction and norms in
//!   [`ops`] and [`perm`].
//!
//! Hot kernels follow the idioms of the Rust Performance Book: flat `Vec`
//! storage, slice iteration instead of indexing, and 4-lane-chunked
//! autovec-friendly BLAS-1 loops with a fixed reduction order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops mirror the papers' pseudocode in the numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod io;
pub mod ops;
pub mod perm;
pub mod report;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use perm::Permutation;
pub use report::FactorReport;

use std::borrow::Cow;

/// Convenience result alias for fallible sparse operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by sparse-matrix construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Dimensions of operands do not match.
    DimensionMismatch {
        /// Description of the failed operation.
        op: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent found.
        found: usize,
    },
    /// A structurally required entry (e.g. a diagonal pivot) is missing.
    MissingDiagonal(usize),
    /// A pivot was exactly zero (or numerically negligible) during a solve
    /// or factorization.
    ZeroPivot(usize),
    /// A pivot (or its reciprocal) was NaN or infinite — the factorization
    /// produced garbage that must not reach a triangular sweep.
    NonFinitePivot(usize),
    /// Index out of bounds while building a matrix.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Exclusive bound.
        bound: usize,
    },
    /// Malformed structure (non-monotone row pointers, unsorted columns, a
    /// Matrix Market body that does not back its size line…).
    InvalidStructure(Cow<'static, str>),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch {
                op,
                expected,
                found,
            } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected {expected}, found {found}"
                )
            }
            Error::MissingDiagonal(i) => write!(f, "missing diagonal entry in row {i}"),
            Error::ZeroPivot(i) => write!(f, "zero pivot encountered at row {i}"),
            Error::NonFinitePivot(i) => write!(f, "non-finite pivot encountered at row {i}"),
            Error::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds ({bound})")
            }
            Error::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

//! # parapre-core
//!
//! The subject of the reproduced paper (Cai & Sosonkina, *A Numerical Study
//! of Some Parallel Algebraic Preconditioners*, IPPS 2003): four parallel
//! algebraic preconditioners for distributed FGMRES, an additive-Schwarz
//! comparison, and the six PDE test cases of the paper's §5.
//!
//! | paper name | type | here |
//! |------------|------|------|
//! | `Block 1`  | simple block, ILU(0) subdomain sweep | [`block::BlockPrecond::ilu0`] |
//! | `Block 2`  | simple block, ILUT subdomain sweep   | [`block::BlockPrecond::ilut`] |
//! | (§1.1 remark) | one-layer-overlap RAS block, ILUT sweep of the owned rows plus the ghost rows the neighbours send | [`block::BlockPrecond::overlap`] |
//! | `Schur 1`  | Schur-enhanced: distributed GMRES + block-Jacobi on the interface Schur system, local GMRES+ILUT subdomain solves | [`schur::SchurPrecond`] |
//! | `Schur 2`  | expanded-Schur: group-independent sets (ARMS), distributed GMRES + distributed ILU(0) on the expanded Schur system | [`schur::SchurPrecond`] |
//! | additive Schwarz (±CGC) | box subdomains widened by ≈ 5 %, FFT-preconditioned CG step per subdomain, optional 5 × 17 coarse grid; on box-partitioned TC1 | [`schwarz::SchwarzPrecond`] |
//!
//! Each has one constructor, and every subdomain factorization in it goes
//! through the diagonal-shift retry ladder
//! ([`parapre_krylov::factor_with_shifts`]): the plain factorization is the
//! ladder's first rung and wins untouched when its pivots are healthy, so
//! on the paper's cases the ladder is invisible. Each builds from its
//! rank's rows and what its neighbours send; none reads the global matrix.
//! One rung is built by
//! [`runner::try_build_dist_precond`]; the collectively voted descent over
//! rungs is [`runner::build_dist_precond_with_fallback`].
//!
//! `Schur 1`, `Schur 2` and, beyond the paper's four, `SchurML` are one
//! struct, one operator, one apply and one voted build
//! ([`schur::SchurPrecond::build`]); they differ only in the interface set,
//! the two approximations of `B⁻¹` and the local solver of the Schur block.
//! `SchurML`'s local solver is the expanded-Schur splitting recursed into a
//! multilevel hierarchy with per-level low-rank corrections — the
//! algorithmic-scalability rung that keeps interface iteration counts
//! flat(ter) as the subdomain count grows.
//!
//! [`cases`] builds Test Cases 1–6 at any resolution; [`runner`] partitions
//! them and builds a preconditioner on one rank. A table cell — partition,
//! distribute, build, FGMRES(20) to `‖r‖/‖r₀‖ ≤ 10⁻⁶` (paper §4.3) — is a
//! solver session of `parapre-engine` (its `experiment` module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cases;
pub mod runner;
pub mod schur;
pub mod schwarz;
#[cfg(test)]
mod testutil;

pub use block::{BlockPrecond, JacobiDistPrecond};
pub use cases::{build_case, build_case_sized, extent_range, AssembledCase, CaseId, CaseSize};
pub use runner::{
    build_dist_precond_with_fallback, partition_case, refactor_dist_precond,
    try_build_dist_precond, FallbackBuild, PartitionScheme, PrecondKind, PrecondParams,
    RefactorReject,
};
pub use schur::{ExpSchurConfig, SchurPrecond};
pub use schwarz::SchwarzPrecond;

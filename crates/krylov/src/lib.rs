//! # parapre-krylov
//!
//! Sequential Krylov subspace solvers and incomplete factorizations.
//!
//! This crate implements the *building blocks* that the paper's parallel
//! algebraic preconditioners are assembled from (Cai & Sosonkina, IPPS 2003,
//! §2 and §4.4):
//!
//! * [`gmres::Gmres`] / [`gmres::FGmres`] — restarted (flexible) GMRES with
//!   modified Gram–Schmidt and Givens rotations (Saad, *Iterative Methods for
//!   Sparse Linear Systems*, ch. 6). FGMRES(20) is the paper's outer
//!   accelerator; plain GMRES with a handful of iterations is the paper's
//!   *subdomain* and *Schur-system* solver. Both, and `parapre-dist`'s
//!   `DistGmres`, are entries of the one Arnoldi driver [`gmres::arnoldi`]
//!   with one stopping policy, generic over a [`gmres::Context`]: local sums
//!   inside a rank, all-reductions across ranks.
//! * [`lsq::GivensLsq`] — the Givens least-squares recurrence of that driver.
//! * [`ilu::Ilu0`] and [`ilu::Ilut`] — zero-fill and dual-threshold
//!   incomplete LU factorizations (the subdomain solvers of `Block 1` and
//!   `Block 2`, and the factorization from which `Schur 1` extracts its
//!   approximate local Schur complement).
//! * [`arms::Arms`] — the Algebraic Recursive Multilevel Solver with
//!   group-independent-set orderings (Saad & Suchomel), the subdomain engine
//!   of `Schur 2`. [`arms::ArmsLevel::sweep`] is the one block-LU sweep
//!   through a level, its coarse solve passed in by the caller.
//! * [`schurml::SchurMlHierarchy`] — an ARMS factorization
//!   ([`schurml::SchurMlHierarchy::from_arms`]) with per-level low-rank
//!   corrections learned from Arnoldi sweeps on the approximation error
//!   (parGeMSLR / Li–Saad style), the subdomain engine of `SchurML`; at
//!   rank 0 it is plain ARMS, which is how `Schur 2` holds it.
//!
//! Everything here is single-threaded by design: in the paper's SPMD setting
//! each MPI rank runs these kernels on its own subdomain matrix. The
//! distributed algorithms live in `parapre-dist` and `parapre-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops mirror the papers' pseudocode in the numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod arms;
pub mod gmres;
pub mod ilu;
pub mod lsq;
pub mod op;
pub mod precond;
pub mod proj;
pub mod schurml;

pub use arms::{Arms, ArmsConfig};
pub use gmres::{FGmres, Gmres, GmresConfig, OrthMethod};
pub use ilu::{factor_with_shifts, Ilu0, Ilut, IlutConfig, LuFactors, SHIFT_LADDER};
pub use op::LinOp;
pub use precond::{IdentityPrecond, JacobiPrecond, Preconditioner};
pub use schurml::{LowRankCorrection, SchurMlHierarchy, MAX_CORRECTION_RANK};

/// Why a Krylov solve stopped before meeting its tolerance — the typed
/// alternative to silently looping to `max_iters` or, worse, reporting a
/// breakdown as convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownKind {
    /// A basis vector had zero norm but the true residual still misses the
    /// target — a *serious* Arnoldi breakdown. (The
    /// *happy* breakdown, where the residual has converged, is reported as
    /// plain convergence.)
    ZeroNormalization,
    /// An inner product, norm, or Hessenberg entry became NaN or infinite.
    NonFinite,
    /// The residual stopped improving over the sliding stagnation window.
    Stagnation,
    /// The true residual at a cycle boundary grew past the divergence
    /// guard.
    Divergence,
}

impl BreakdownKind {
    /// Stable machine-readable key (JSONL `breakdown_kind` values).
    pub fn key(&self) -> &'static str {
        match self {
            BreakdownKind::ZeroNormalization => "zero_normalization",
            BreakdownKind::NonFinite => "non_finite",
            BreakdownKind::Stagnation => "stagnation",
            BreakdownKind::Divergence => "divergence",
        }
    }

    /// How a solve that ended this way reads in the convergence stream: a
    /// stall if the stagnation guard cut it, a breakdown otherwise.
    pub fn conv_kind(&self) -> parapre_metrics::ConvKind {
        match self {
            BreakdownKind::Stagnation => parapre_metrics::ConvKind::Stall,
            _ => parapre_metrics::ConvKind::Breakdown,
        }
    }
}

impl std::fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A typed solver breakdown: what went wrong, where, and how far the
/// residual had come.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveBreakdown {
    /// Classification of the breakdown.
    pub kind: BreakdownKind,
    /// Iteration at which the breakdown was detected.
    pub iteration: usize,
    /// Relative residual at detection (estimate or true, whichever the
    /// solver had).
    pub relres: f64,
}

/// Outcome of an iterative solve, sequential or distributed (where it is
/// identical on every rank: every field comes from all-reduced quantities).
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Whether the requested tolerance was met.
    pub converged: bool,
    /// Number of iterations performed (matrix-vector products for GMRES).
    pub iterations: usize,
    /// Final relative residual norm `‖b − Ax‖ / ‖b − Ax₀‖`.
    pub final_relres: f64,
    /// Residual norm after every iteration (including the initial one).
    pub residual_history: Vec<f64>,
    /// Typed breakdown when the solve stopped for a numerical reason other
    /// than convergence or iteration exhaustion.
    pub breakdown: Option<SolveBreakdown>,
}

impl Default for SolveReport {
    /// The report of a solve that has done nothing yet.
    fn default() -> Self {
        SolveReport {
            converged: false,
            iterations: 0,
            final_relres: f64::NAN,
            residual_history: Vec::new(),
            breakdown: None,
        }
    }
}

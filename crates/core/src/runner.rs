//! The per-rank pieces of a paper-table cell (§4.3, §5): which
//! preconditioner ([`PrecondKind`], [`PrecondParams`]), how the grid is split
//! ([`PartitionScheme`], [`partition_case`]), and how one rank builds its
//! preconditioner — one rung ([`try_build_dist_precond`]), the voted ladder
//! ([`build_dist_precond_with_fallback`]) or a numeric-only rebuild
//! ([`refactor_dist_precond`]).
//!
//! Nothing here launches ranks. A cell is run by `parapre-engine`'s
//! `experiment` module: one `SolverSession` built from these pieces, one
//! FGMRES(20) solve to a `1e-6` reduction.

use crate::block::BlockPrecond;
use crate::cases::AssembledCase;
use crate::schur::{ExpSchurConfig, SchurPrecond};
use crate::schwarz::SchwarzPrecond;
use parapre_dist::{DistMatrix, DistPrecond};
use parapre_krylov::{ArmsConfig, IlutConfig};
use parapre_partition::{
    balanced_box_layout, partition_boxes_2d, partition_boxes_3d, partition_graph, partition_rcb,
    Partition,
};

/// The four preconditioners of the study (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecondKind {
    /// Simple block preconditioner, ILU(0) subdomain sweep.
    Block1,
    /// Simple block preconditioner, ILUT subdomain sweep.
    Block2,
    /// Schur-complement-enhanced (interface Schur + block Jacobi).
    Schur1,
    /// Expanded-Schur with ARMS and distributed ILU(0).
    Schur2,
    /// Multilevel expanded-Schur with per-level low-rank corrections
    /// (parGeMSLR / Li–Saad style) — the rung above `Schur 2`; not part of
    /// the paper's four. `levels` is the depth of the local hierarchy,
    /// `rank` the Arnoldi vectors per level (≤ 16).
    SchurML {
        /// Elimination levels in the local hierarchy.
        levels: usize,
        /// Low-rank correction vectors per level.
        rank: usize,
    },
    /// One-layer-overlap RAS block preconditioner (ILUT) — the paper's
    /// §1.1 "increased overlap" hypothesis; not part of the paper's four,
    /// used by the ablation benches.
    BlockOverlap,
    /// Point-Jacobi diagonal scaling — the infallible bottom rung of the
    /// numerical-safety fallback ladder, never used by the paper's tables.
    Jacobi,
    /// The paper's §5.2 comparison: overlapping additive Schwarz with FFT
    /// subdomain solves, with or without the 5 × 17 coarse grid. Builds on
    /// box-partitioned Test Case 1 only and is not in
    /// [`PrecondKind::EVERY`], so no job line can ask for it.
    Schwarz {
        /// Whether the coarse-grid correction is added.
        coarse: bool,
    },
}

impl PrecondKind {
    /// All four, in the paper's column order.
    pub const ALL: [PrecondKind; 4] = [
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::Block1,
        PrecondKind::Block2,
    ];

    /// Every kind, one per key, in the order job-line rejections list them.
    pub const EVERY: [PrecondKind; 7] = [
        PrecondKind::Block1,
        PrecondKind::Block2,
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::schurml_default(),
        PrecondKind::BlockOverlap,
        PrecondKind::Jacobi,
    ];

    /// Default hierarchy depth of `"schurml"` when parsed without knobs.
    pub const SCHURML_DEFAULT_LEVELS: usize = 2;
    /// Default correction rank of `"schurml"` when parsed without knobs.
    pub const SCHURML_DEFAULT_RANK: usize = 8;

    /// `SchurML` with its default `levels`/`rank` knobs.
    pub const fn schurml_default() -> PrecondKind {
        PrecondKind::SchurML {
            levels: Self::SCHURML_DEFAULT_LEVELS,
            rank: Self::SCHURML_DEFAULT_RANK,
        }
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            PrecondKind::Block1 => "Block 1",
            PrecondKind::Block2 => "Block 2",
            PrecondKind::Schur1 => "Schur 1",
            PrecondKind::Schur2 => "Schur 2",
            PrecondKind::SchurML { .. } => "SchurML",
            PrecondKind::BlockOverlap => "Block+ovl",
            PrecondKind::Jacobi => "Jacobi",
            PrecondKind::Schwarz { coarse: false } => "Schwarz",
            PrecondKind::Schwarz { coarse: true } => "Schwarz+CGC",
        }
    }

    /// Stable machine-readable key (CLI values, cache keys, JSONL jobs).
    pub fn key(self) -> &'static str {
        match self {
            PrecondKind::Block1 => "block1",
            PrecondKind::Block2 => "block2",
            PrecondKind::Schur1 => "schur1",
            PrecondKind::Schur2 => "schur2",
            PrecondKind::SchurML { .. } => "schurml",
            PrecondKind::BlockOverlap => "overlap",
            PrecondKind::Jacobi => "jacobi",
            PrecondKind::Schwarz { coarse: false } => "schwarz",
            PrecondKind::Schwarz { coarse: true } => "schwarz_cgc",
        }
    }

    /// Cache-key form of the kind: like [`PrecondKind::key`] but carrying
    /// the variant knobs, so sessions built with different `SchurML`
    /// `levels`/`rank` never collide in the session cache.
    pub fn cache_key(self) -> String {
        match self {
            PrecondKind::SchurML { levels, rank } => format!("schurml:l{levels}:r{rank}"),
            other => other.key().to_string(),
        }
    }

    /// Inverse of [`PrecondKind::key`] over [`PrecondKind::EVERY`]
    /// (case-insensitive; `"schurml"` is [`PrecondKind::schurml_default`]).
    pub fn parse(s: &str) -> Option<PrecondKind> {
        PrecondKind::EVERY
            .into_iter()
            .find(|k| k.key().eq_ignore_ascii_case(s))
    }

    /// The next (cheaper, more robust) rung of the fallback ladder, or
    /// `None` from the infallible bottom rung.
    ///
    /// Ladder: `SchurML → Schur 2 → Schur 1 → Block 2 → Block 1 → Jacobi` —
    /// each step trades convergence strength for constructibility, ending
    /// on a preconditioner that cannot fail to build. The overlap and
    /// Schwarz rungs step onto it at `Block 2`.
    pub fn fallback(self) -> Option<PrecondKind> {
        match self {
            PrecondKind::SchurML { .. } => Some(PrecondKind::Schur2),
            PrecondKind::Schur2 => Some(PrecondKind::Schur1),
            PrecondKind::Schur1 => Some(PrecondKind::Block2),
            PrecondKind::BlockOverlap => Some(PrecondKind::Block2),
            PrecondKind::Schwarz { .. } => Some(PrecondKind::Block2),
            PrecondKind::Block2 => Some(PrecondKind::Block1),
            PrecondKind::Block1 => Some(PrecondKind::Jacobi),
            PrecondKind::Jacobi => None,
        }
    }
}

/// How to split the global grid among ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// General graph partitioning (Metis stand-in; the default everywhere
    /// in the paper). Seeded by the machine profile's
    /// [`partition_seed`](parapre_mpisim::MachineModel::partition_seed).
    General,
    /// The paper's §5.1 "simple grid partitioning" into rectangles/boxes
    /// (structured grids only).
    Boxes,
    /// Recursive coordinate bisection (extra geometric baseline).
    Rcb,
}

impl PartitionScheme {
    /// All three schemes.
    pub const ALL: [Self; 3] = [Self::General, Self::Boxes, Self::Rcb];

    /// Stable machine-readable key (CLI values, cache keys, JSONL jobs).
    pub fn key(self) -> &'static str {
        match self {
            PartitionScheme::General => "general",
            PartitionScheme::Boxes => "boxes",
            PartitionScheme::Rcb => "rcb",
        }
    }

    /// Inverse of [`PartitionScheme::key`] (case-insensitive).
    pub fn parse(s: &str) -> Option<PartitionScheme> {
        PartitionScheme::ALL
            .into_iter()
            .find(|p| p.key().eq_ignore_ascii_case(s))
    }
}

/// Preconditioner tuning parameters shared by the benches and the engine's
/// solver sessions — everything [`try_build_dist_precond`] needs
/// beyond the [`PrecondKind`] discriminant.
#[derive(Debug, Clone, Copy)]
pub struct PrecondParams {
    /// ILUT parameters of `Block 2`, the overlap variant and `Schur 1`'s
    /// one subdomain factorization.
    pub ilut: IlutConfig,
    /// `Schur 1`: local GMRES iterations per `B_i` solve ("a few", paper
    /// §4.4).
    pub schur1_b_iters: usize,
    /// `Schur 1`: distributed GMRES iterations on the interface Schur
    /// system.
    pub schur1_iters: usize,
    /// `Schur 2` parameters (two-level ARMS, as in the paper).
    pub schur2: ExpSchurConfig,
    /// `SchurML` parameters; its hierarchy depth and correction rank are
    /// the knobs of [`PrecondKind::SchurML`].
    pub schurml: ExpSchurConfig,
}

impl Default for PrecondParams {
    /// Paper defaults (ILUT(10⁻³, 30), §4.4 Schur settings).
    fn default() -> Self {
        PrecondParams {
            ilut: IlutConfig {
                drop_tol: 1e-3,
                fill: 30,
            },
            schur1_b_iters: 5,
            schur1_iters: 5,
            schur2: ExpSchurConfig {
                arms: ArmsConfig::default(),
                schur_iters: 5,
            },
            // Deeper than `Schur 2`: each application of the corrected
            // hierarchy is a stronger inner preconditioner, so the extra
            // sweeps convert directly into flat outer iteration counts as
            // `P` grows (the E15 bench gates on this).
            schurml: ExpSchurConfig {
                arms: ArmsConfig::default(),
                schur_iters: 10,
            },
        }
    }
}

/// Partitions the case's node graph under `scheme` into `n_ranks` parts
/// (`seed` drives the general graph partitioner only).
pub fn partition_case(
    case: &AssembledCase,
    scheme: PartitionScheme,
    n_ranks: usize,
    seed: u64,
) -> Partition {
    match scheme {
        PartitionScheme::General => partition_graph(&case.node_adjacency, n_ranks, seed),
        PartitionScheme::Rcb => partition_rcb(&case.node_coords, n_ranks),
        PartitionScheme::Boxes => {
            let dims = case
                .structured_dims
                .expect("box partitioning requires a structured grid");
            if dims[2] == 1 {
                let layout = balanced_box_layout(n_ranks, 2);
                partition_boxes_2d(dims[0], dims[1], layout[0], layout[1])
            } else {
                let layout = balanced_box_layout(n_ranks, 3);
                partition_boxes_3d(dims[0], dims[1], dims[2], layout[0], layout[1], layout[2])
            }
        }
    }
}

/// Builds the requested preconditioner for one rank's rows under the
/// `setup.factor`-bearing phases — one rung of the construction path of
/// every distributed preconditioner. Every factorization goes
/// through the diagonal-shift retry ladder, and failures come back as `Err`
/// instead of panicking. Returns the preconditioner plus the number of
/// shift-ladder retries it took to factor (0 on a clean build).
///
/// Collective for the three Schur rungs (each build takes one vote, so the
/// ranks agree on success or failure before returning), so all ranks must
/// call this together. So is the overlap rung, which widens each subdomain
/// by the ghost rows its neighbours send, and so is Schwarz, whose build
/// sums the row counts.
pub fn try_build_dist_precond(
    kind: PrecondKind,
    dm: &DistMatrix,
    comm: &mut parapre_mpisim::Comm,
    params: &PrecondParams,
) -> parapre_sparse::Result<(Box<dyn DistPrecond>, usize)> {
    match kind {
        PrecondKind::Block1 => {
            let m = BlockPrecond::ilu0(dm)?;
            let shifts = m.factors().report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::Block2 => {
            let m = BlockPrecond::ilut(dm, &params.ilut)?;
            let shifts = m.factors().report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::Schur1 | PrecondKind::Schur2 | PrecondKind::SchurML { .. } => {
            let m = SchurPrecond::build(kind, dm, comm, params)?;
            let shifts = m.report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::BlockOverlap => {
            let m = BlockPrecond::overlap(dm, comm, &params.ilut)?;
            let shifts = m.factors().report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::Jacobi => Ok((Box::new(crate::block::JacobiDistPrecond::build(dm)), 0)),
        PrecondKind::Schwarz { coarse } => {
            Ok((Box::new(SchwarzPrecond::build(dm, comm, coarse)?), 0))
        }
    }
}

/// Result of walking the preconditioner fallback ladder.
pub struct FallbackBuild {
    /// The preconditioner that actually got built.
    pub precond: Box<dyn DistPrecond>,
    /// The rung it was built on (equals the request when no fallback fired).
    pub kind_used: PrecondKind,
    /// Ladder rungs descended below the requested kind.
    pub fallbacks: usize,
    /// Diagonal-shift retries spent factoring the winning rung.
    pub pivot_shifts: usize,
}

/// Builds `kind`, descending the [`PrecondKind::fallback`] ladder on
/// factorization failure until a rung builds on **every** rank. Collective:
/// each rung's success is agreed via an all-reduce so all ranks walk the
/// ladder in lockstep (a rank whose local block factors fine still descends
/// when a peer's does not — the preconditioner kind must be uniform).
///
/// Infallible: the ladder ends on [`PrecondKind::Jacobi`], which cannot
/// fail to build. Each descent bumps the `precond.fallback` trace counter.
///
/// Nothing reads `_a_global`: every rung builds from this rank's rows and
/// what its neighbours send. The parameter goes when the benchmark's build
/// replay (`benchmark/layers`), its last caller that passes it, does.
pub fn build_dist_precond_with_fallback(
    kind: PrecondKind,
    dm: &DistMatrix,
    comm: &mut parapre_mpisim::Comm,
    _a_global: &parapre_sparse::Csr,
    params: &PrecondParams,
) -> FallbackBuild {
    let mut rung = kind;
    let mut fallbacks = 0usize;
    loop {
        let local = try_build_dist_precond(rung, dm, comm, params);
        let all_ok = comm.all_land(local.is_ok(), parapre_dist::tags::LADDER_VOTE);
        if all_ok {
            let (precond, pivot_shifts) = local.expect("agreed Ok on all ranks");
            return FallbackBuild {
                precond,
                kind_used: rung,
                fallbacks,
                pivot_shifts,
            };
        }
        let next = rung
            .fallback()
            .expect("Jacobi rung is infallible, ladder cannot run out");
        parapre_metrics::count(parapre_metrics::names::PRECOND_FALLBACK, 1);
        fallbacks += 1;
        rung = next;
    }
}

/// Why [`refactor_dist_precond`] refused a numeric-only rebuild. The
/// decision and the reason are agreed collectively, so every rank returns
/// the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorReject {
    /// Some rank's refactored factors had a zero, negligible or non-finite
    /// pivot (or a singular group block). A frozen pattern is never shifted
    /// or pivot-fixed; the symbolic build and its shift ladder take over.
    Unhealthy,
    /// Some rank's new block does not fit its donor's frozen structure
    /// (another shape or layout), or the donor has nothing to refactor.
    Pattern,
}

/// Typed error unless the two layouts number the same local unknowns the
/// same way — the precondition for reusing anything indexed by them.
pub(crate) fn same_local_shape(
    donor: &parapre_dist::LocalLayout,
    new: &parapre_dist::LocalLayout,
) -> parapre_sparse::Result<()> {
    for (expected, found) in [
        (donor.n_internal, new.n_internal),
        (donor.n_interface, new.n_interface),
        (donor.n_ghost, new.n_ghost),
    ] {
        if expected != found {
            return Err(parapre_sparse::Error::DimensionMismatch {
                op: "refactor layout",
                expected,
                found,
            });
        }
    }
    Ok(())
}

/// Numeric-only rebuild of one rank's preconditioner from `donor`, the
/// preconditioner the same rank holds for a matrix with the **same
/// sparsity pattern** (and therefore the same partition and layout): fill
/// patterns and independent sets are reused, only values
/// are recomputed ([`DistPrecond::refactor`], under a `setup.refactor`
/// span — never `setup.factor`). The new preconditioner is of the donor's
/// kind by construction.
///
/// Collective, and deliberately in two phases: every rank first computes
/// its local result to the end — no early return, so no rank can be left
/// alone in a collective; a rung that exchanges (the overlap rung's ghost
/// rows) does so before any check that can refuse — and then one
/// all-reduce on a fresh tag decides for all. On a reject every rank
/// returns the same [`RefactorReject`] together and the caller runs the
/// ordinary [`build_dist_precond_with_fallback`].
pub fn refactor_dist_precond(
    donor: &dyn DistPrecond,
    dm: &DistMatrix,
    comm: &mut parapre_mpisim::Comm,
) -> Result<Box<dyn DistPrecond>, RefactorReject> {
    use parapre_sparse::Error;
    let local = {
        let _s = parapre_metrics::span(parapre_metrics::names::REFACTOR);
        donor.refactor(comm, dm)
    };
    // [ranks refusing for health, ranks refusing for structure]
    let mut votes = match &local {
        Ok(_) => [0.0, 0.0],
        Err(Error::ZeroPivot(_) | Error::NonFinitePivot(_)) => [1.0, 0.0],
        Err(_) => [0.0, 1.0],
    };
    comm.allreduce_sum_vec(&mut votes, parapre_dist::tags::REFACTOR_VOTE);
    let [unhealthy, structural] = votes;
    if structural > 0.0 {
        Err(RefactorReject::Pattern)
    } else if unhealthy > 0.0 {
        Err(RefactorReject::Unhealthy)
    } else {
        Ok(local.expect("no rank refused, this one included"))
    }
}

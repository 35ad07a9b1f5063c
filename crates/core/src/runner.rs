//! The experiment runner: everything needed to regenerate a row of the
//! paper's tables (§4.3, §5).
//!
//! A run: partition the global grid (general Metis-style scheme seeded by
//! the machine's RNG, the paper's simple box scheme, or RCB), distribute
//! the rows, build the selected parallel preconditioner on every rank, and
//! solve with distributed FGMRES(20) until the residual drops by `1e-6`.
//! Reported: iteration count, converged flag, real wall-clock of the
//! threaded run, and the α–β modeled time under the chosen
//! [`MachineModel`].

use crate::block::BlockPrecond;
use crate::cases::AssembledCase;
use crate::expschur::{ExpSchurConfig, ExpandedSchurPrecond};
use crate::schur::{Schur1Config, Schur1Precond};
use parapre_dist::{scatter_vector, DistGmres, DistGmresConfig, DistMatrix, DistPrecond};
use parapre_krylov::{ArmsConfig, IlutConfig};
use parapre_mpisim::{CommStats, MachineModel, Universe};
use parapre_partition::{
    balanced_box_layout, partition_boxes_2d, partition_boxes_3d, partition_graph, partition_rcb,
    Partition,
};
use std::time::Instant;

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
}

impl PrecondKind {
    /// All four, in the paper's column order.
    pub const ALL: [PrecondKind; 4] = [
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::Block1,
        PrecondKind::Block2,
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

    /// Inverse of [`PrecondKind::key`] (case-insensitive).
    pub fn parse(s: &str) -> Option<PrecondKind> {
        match s.to_ascii_lowercase().as_str() {
            "block1" => Some(PrecondKind::Block1),
            "block2" => Some(PrecondKind::Block2),
            "schur1" => Some(PrecondKind::Schur1),
            "schur2" => Some(PrecondKind::Schur2),
            "schurml" => Some(PrecondKind::schurml_default()),
            "overlap" | "blockoverlap" => Some(PrecondKind::BlockOverlap),
            "jacobi" => Some(PrecondKind::Jacobi),
            _ => None,
        }
    }

    /// The next (cheaper, more robust) rung of the fallback ladder, or
    /// `None` from the infallible bottom rung.
    ///
    /// Ladder: `SchurML → Schur 2 → Schur 1 → Block 2 → Block 1 → Jacobi` —
    /// each step trades convergence strength for constructibility, ending
    /// on a preconditioner that cannot fail to build.
    pub fn fallback(self) -> Option<PrecondKind> {
        match self {
            PrecondKind::SchurML { .. } => Some(PrecondKind::Schur2),
            PrecondKind::Schur2 => Some(PrecondKind::Schur1),
            PrecondKind::Schur1 => Some(PrecondKind::Block2),
            PrecondKind::BlockOverlap => Some(PrecondKind::Block2),
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
    /// in the paper). Seeded by [`MachineModel::partition_seed`].
    General,
    /// The paper's §5.1 "simple grid partitioning" into rectangles/boxes
    /// (structured grids only).
    Boxes,
    /// Recursive coordinate bisection (extra geometric baseline).
    Rcb,
}

impl PartitionScheme {
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
        match s.to_ascii_lowercase().as_str() {
            "general" => Some(PartitionScheme::General),
            "boxes" => Some(PartitionScheme::Boxes),
            "rcb" => Some(PartitionScheme::Rcb),
            _ => None,
        }
    }
}

/// Preconditioner tuning parameters shared by the runner, the benches, and
/// the engine's solver sessions — everything [`try_build_dist_precond`] needs
/// beyond the [`PrecondKind`] discriminant.
#[derive(Debug, Clone, Copy)]
pub struct PrecondParams {
    /// ILUT parameters for `Block 2` / the overlap variant.
    pub ilut: IlutConfig,
    /// `Schur 1` parameters.
    pub schur1: Schur1Config,
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
            schur1: Schur1Config::default(),
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

/// Full description of one table cell.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which preconditioner.
    pub precond: PrecondKind,
    /// Number of ranks `P`.
    pub n_ranks: usize,
    /// Machine profile (network model + partition seed).
    pub machine: MachineModel,
    /// Partitioning scheme.
    pub scheme: PartitionScheme,
    /// Outer FGMRES parameters (paper defaults preloaded).
    pub gmres: DistGmresConfig,
    /// Preconditioner tuning knobs (paper defaults preloaded).
    pub params: PrecondParams,
}

impl RunConfig {
    /// Paper-default configuration for a preconditioner/rank-count pair on
    /// the Linux cluster.
    ///
    /// The outer solver inherits [`DistGmresConfig`]'s default
    /// orthogonalization ([`parapre_dist::OrthMethod::ClassicalBatched`]):
    /// one fused vector allreduce per iteration instead of `k+2` scalar
    /// ones. Iteration counts can therefore differ by a step or two from a
    /// modified-Gram–Schmidt run (set `gmres.orth` to
    /// [`parapre_dist::OrthMethod::Modified`] to reproduce those exactly);
    /// everything else in the solve — SpMV, halo exchange, preconditioner
    /// application — is bitwise independent of the optimization work, so
    /// table rows remain comparable.
    pub fn paper(precond: PrecondKind, n_ranks: usize) -> Self {
        RunConfig {
            precond,
            n_ranks,
            machine: MachineModel::linux_cluster(),
            scheme: PartitionScheme::General,
            gmres: DistGmresConfig {
                restart: 20,
                max_iters: 600,
                rel_tol: 1e-6,
                ..Default::default()
            },
            params: PrecondParams::default(),
        }
    }

    /// Same but on the Origin 3800 profile.
    pub fn on_origin(mut self) -> Self {
        self.machine = MachineModel::origin_3800();
        self
    }
}

/// Result of one run (one table cell).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Preconditioner label.
    pub precond: PrecondKind,
    /// Rank count.
    pub n_ranks: usize,
    /// FGMRES iterations.
    pub iterations: usize,
    /// Whether the 1e-6 reduction was reached.
    pub converged: bool,
    /// Final relative residual.
    pub final_relres: f64,
    /// Max per-rank preconditioner setup time (host seconds).
    pub setup_seconds: f64,
    /// Max per-rank solve wall time (host seconds, threads possibly
    /// oversubscribed).
    pub wall_seconds: f64,
    /// α–β modeled time under the run's machine profile.
    pub modeled_seconds: f64,
    /// Total messages across ranks.
    pub total_msgs: u64,
    /// Total payload bytes across ranks.
    pub total_bytes: u64,
    /// Partition quality: edge cut of the node partition.
    pub edge_cut: usize,
    /// Partition quality: load imbalance (max/mean).
    pub imbalance: f64,
    /// Cross-rank phase/counter summary when the run was traced
    /// ([`run_case_traced`]); `None` for untraced runs.
    pub phases: Option<parapre_metrics::TraceSummary>,
}

/// Partitions the case's node graph under the requested scheme.
pub fn partition_case(case: &AssembledCase, cfg: &RunConfig) -> Partition {
    partition_case_with(case, cfg.scheme, cfg.n_ranks, cfg.machine.partition_seed)
}

/// [`partition_case`] without a full [`RunConfig`] — the entry point for
/// callers (solver sessions) that carry scheme/rank-count/seed directly.
pub fn partition_case_with(
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
/// `setup.factor`-bearing phases — one rung of the construction path shared
/// by the runner and the engine's cached sessions. Every factorization goes
/// through the diagonal-shift retry ladder, and failures come back as `Err`
/// instead of panicking. Returns the preconditioner plus the number of
/// shift-ladder retries it took to factor (0 on a clean build).
///
/// Collective for [`PrecondKind::Schur2`] and [`PrecondKind::SchurML`]
/// (their builds communicate and agree on success/failure across ranks
/// before returning), so all ranks must call this together. `a_global` is
/// only consulted by the overlap variant, which widens each subdomain by
/// one layer.
pub fn try_build_dist_precond(
    kind: PrecondKind,
    dm: &DistMatrix,
    comm: &mut parapre_mpisim::Comm,
    a_global: &parapre_sparse::Csr,
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
        PrecondKind::Schur1 => {
            let m = Schur1Precond::build(dm, params.schur1)?;
            let shifts = m.report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::Schur2 => {
            let m = ExpandedSchurPrecond::schur2(dm, comm, params.schur2)?;
            let shifts = m.report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::SchurML { levels, rank } => {
            // No shift ladder on purpose: SchurML refuses builds that
            // would need shifts or pivot fixes (the corrections would
            // amplify them) and lets the ladder descend to Schur 2.
            let m = ExpandedSchurPrecond::schurml(dm, comm, params.schurml, levels, rank)?;
            Ok((Box::new(m), 0))
        }
        PrecondKind::BlockOverlap => {
            let m = crate::overlap::OverlapBlockPrecond::build(dm, a_global, &params.ilut)?;
            let shifts = m.factors().report().shift_attempts;
            Ok((Box::new(m), shifts))
        }
        PrecondKind::Jacobi => Ok((Box::new(crate::block::JacobiDistPrecond::build(dm)), 0)),
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
pub fn build_dist_precond_with_fallback(
    kind: PrecondKind,
    dm: &DistMatrix,
    comm: &mut parapre_mpisim::Comm,
    a_global: &parapre_sparse::Csr,
    params: &PrecondParams,
) -> FallbackBuild {
    let mut rung = kind;
    let mut fallbacks = 0usize;
    loop {
        let local = try_build_dist_precond(rung, dm, comm, a_global, params);
        let all_ok = comm.all_land(local.is_ok(), parapre_dist::tags::REDUCE + 48);
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
/// alone in a collective — and then one all-reduce on a fresh tag decides
/// for all. On a reject every rank returns the same [`RefactorReject`]
/// together and the caller runs the ordinary
/// [`build_dist_precond_with_fallback`].
pub fn refactor_dist_precond(
    donor: &dyn DistPrecond,
    dm: &DistMatrix,
    comm: &mut parapre_mpisim::Comm,
    a_global: &parapre_sparse::Csr,
) -> Result<Box<dyn DistPrecond>, RefactorReject> {
    use parapre_sparse::Error;
    let local = {
        let _s = parapre_metrics::span(parapre_metrics::names::REFACTOR);
        donor.refactor(dm, a_global)
    };
    // [ranks refusing for health, ranks refusing for structure]
    let mut votes = match &local {
        Ok(_) => [0.0, 0.0],
        Err(Error::ZeroPivot(_) | Error::NonFinitePivot(_)) => [1.0, 0.0],
        Err(_) => [0.0, 1.0],
    };
    comm.allreduce_sum_vec(&mut votes, parapre_dist::tags::REDUCE + 50);
    let [unhealthy, structural] = votes;
    if structural > 0.0 {
        Err(RefactorReject::Pattern)
    } else if unhealthy > 0.0 {
        Err(RefactorReject::Unhealthy)
    } else {
        Ok(local.expect("no rank refused, this one included"))
    }
}

/// Runs one experiment cell: partition, distribute, precondition, solve.
///
/// # Panics
///
/// When the cell's preconditioner needed the numerical safety net — a
/// ladder descent or a diagonal-shift retry on any rank: a table must not
/// print iteration counts of a preconditioner other than the one in its
/// column header. The panic is raised on the calling thread after every
/// rank has been joined, and names the case, the preconditioner and `P`.
pub fn run_case(case: &AssembledCase, cfg: &RunConfig) -> RunResult {
    run_case_traced(case, cfg, false).0
}

/// Like [`run_case`], but with `trace = true` each rank records a
/// structured [`parapre_metrics`] event stream (phase spans, comm events,
/// per-iteration residuals). The traces come back alongside the result and
/// the merged phase summary is folded into [`RunResult::phases`]. With
/// `trace = false` the recorder is never installed and the run behaves
/// exactly like [`run_case`].
pub fn run_case_traced(
    case: &AssembledCase,
    cfg: &RunConfig,
    trace: bool,
) -> (RunResult, Vec<parapre_metrics::RankTrace>) {
    let node_part = partition_case(case, cfg);
    let owner = case.dof_owner(&node_part.owner);
    let p = cfg.n_ranks;
    let a = &case.sys.a;
    let b = &case.sys.b;
    let x0 = &case.x0;
    let owner_ref = &owner;
    let cfg_ref = cfg;

    struct RankOut {
        iterations: usize,
        converged: bool,
        final_relres: f64,
        setup: f64,
        solve: f64,
        stats: CommStats,
        fallbacks: usize,
        pivot_shifts: usize,
    }

    // The recorder wraps the whole rank body, installed before any
    // communication, so the trace's comm totals equal the rank's full
    // CommStats for the run.
    let (outs, traces): (Vec<RankOut>, Vec<_>) = Universe::run(p, move |comm| {
        parapre_metrics::recorded(comm.rank(), trace, || {
            let dm = DistMatrix::from_global(a, owner_ref, comm.rank(), p);
            let t0 = Instant::now();
            let built = {
                let _setup = parapre_metrics::span(parapre_metrics::names::SETUP);
                build_dist_precond_with_fallback(cfg_ref.precond, &dm, comm, a, &cfg_ref.params)
            };
            let setup = t0.elapsed().as_secs_f64();
            let b_loc = scatter_vector(&dm.layout, b);
            let mut x = scatter_vector(&dm.layout, x0);
            let stats_before = comm.stats();
            let t1 = Instant::now();
            let rep =
                DistGmres::new(cfg_ref.gmres).solve(comm, &dm, &built.precond, &b_loc, &mut x);
            let solve = t1.elapsed().as_secs_f64();
            let stats_after = comm.stats();
            RankOut {
                iterations: rep.iterations,
                converged: rep.converged,
                final_relres: rep.final_relres,
                setup,
                solve,
                stats: CommStats::delta(&stats_after, &stats_before),
                fallbacks: built.fallbacks,
                pivot_shifts: built.pivot_shifts,
            }
        })
    })
    .into_iter()
    .unzip();
    let traces: Vec<parapre_metrics::RankTrace> = traces.into_iter().flatten().collect();

    // Judged here, after the join, and never inside a rank: a one-rank
    // panic would strand its peers in the solve's collectives.
    let fallbacks = outs[0].fallbacks; // rank-identical (voted)
    let pivot_shifts: usize = outs.iter().map(|o| o.pivot_shifts).sum();
    assert!(
        fallbacks == 0 && pivot_shifts == 0,
        "{} / {} / P={p}: the build needed the numerical safety net \
         ({fallbacks} ladder fallbacks, {pivot_shifts} pivot shifts); \
         its numbers would not be this preconditioner's",
        case.id.name(),
        cfg.precond.label(),
    );

    let wall = outs.iter().map(|o| o.solve).fold(0.0, f64::max);
    let setup = outs.iter().map(|o| o.setup).fold(0.0, f64::max);
    // Modeled time: each rank's host compute time divided by the machine's
    // relative speed, plus its modeled message costs; the slowest rank sets
    // the pace, and the background-load factor scales the total. Host solve
    // time includes waiting, so use the mean as the compute estimate.
    let mean_solve = outs.iter().map(|o| o.solve).sum::<f64>() / p as f64;
    let modeled = outs
        .iter()
        .map(|o| cfg.machine.modeled_total(mean_solve, &o.stats))
        .fold(0.0, f64::max);
    let phases = if traces.is_empty() {
        None
    } else {
        let per_rank: Vec<parapre_metrics::TraceSummary> = traces
            .iter()
            .map(parapre_metrics::RankTrace::summary)
            .collect();
        Some(parapre_metrics::TraceSummary::merge(&per_rank))
    };
    let result = RunResult {
        precond: cfg.precond,
        n_ranks: p,
        iterations: outs[0].iterations,
        converged: outs[0].converged,
        final_relres: outs[0].final_relres,
        setup_seconds: setup,
        wall_seconds: wall,
        modeled_seconds: modeled,
        total_msgs: outs.iter().map(|o| o.stats.msgs_sent).sum(),
        total_bytes: outs.iter().map(|o| o.stats.bytes_sent).sum(),
        edge_cut: node_part.edge_cut(&case.node_adjacency),
        imbalance: node_part.imbalance(),
        phases,
    };
    (result, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{build_case, CaseId, CaseSize};

    #[test]
    fn all_preconditioners_solve_tiny_tc1() {
        let case = build_case(CaseId::Tc1, CaseSize::Tiny);
        for kind in PrecondKind::ALL {
            let cfg = RunConfig::paper(kind, 3);
            let res = run_case(&case, &cfg);
            assert!(
                res.converged,
                "{} failed: relres {}",
                kind.label(),
                res.final_relres
            );
            assert!(res.iterations > 0);
            assert_eq!(res.n_ranks, 3);
        }
    }

    #[test]
    fn schur_beats_blocks_on_tiny_tc5() {
        let case = build_case(CaseId::Tc5, CaseSize::Tiny);
        let it = |kind| {
            let res = run_case(&case, &RunConfig::paper(kind, 4));
            assert!(res.converged, "{:?}", kind);
            res.iterations
        };
        let s1 = it(PrecondKind::Schur1);
        let b1 = it(PrecondKind::Block1);
        assert!(s1 <= b1, "Schur1 {s1} vs Block1 {b1}");
    }

    #[test]
    fn origin_profile_changes_partition_and_model() {
        let case = build_case(CaseId::Tc1, CaseSize::Tiny);
        let cl = run_case(&case, &RunConfig::paper(PrecondKind::Block2, 4));
        let or = run_case(&case, &RunConfig::paper(PrecondKind::Block2, 4).on_origin());
        assert!(cl.converged && or.converged);
        // Different machine seed ⇒ (almost surely) different partition ⇒
        // the paper's different-iteration-counts effect; at minimum the
        // modeled network differs.
        assert!(
            cl.edge_cut != or.edge_cut
                || cl.iterations != or.iterations
                || cl.modeled_seconds != or.modeled_seconds
        );
    }

    #[test]
    fn box_partitioning_works_on_structured_cases() {
        let case = build_case(CaseId::Tc2, CaseSize::Tiny);
        let mut cfg = RunConfig::paper(PrecondKind::Block1, 4);
        cfg.scheme = PartitionScheme::Boxes;
        let res = run_case(&case, &cfg);
        assert!(res.converged);
        // Tiny 7³ grids quantize coarsely into boxes; just bound the skew.
        assert!(res.imbalance < 1.6, "imbalance {}", res.imbalance);
    }

    #[test]
    fn overlap_variant_runs_and_beats_block2() {
        let case = build_case(CaseId::Tc1, CaseSize::Tiny);
        let plain = run_case(&case, &RunConfig::paper(PrecondKind::Block2, 6));
        let over = run_case(&case, &RunConfig::paper(PrecondKind::BlockOverlap, 6));
        assert!(plain.converged && over.converged);
        assert!(
            over.iterations <= plain.iterations,
            "overlap {} vs block2 {}",
            over.iterations,
            plain.iterations
        );
    }

    #[test]
    fn elasticity_runs_distributed_with_schur1() {
        let case = build_case(CaseId::Tc6, CaseSize::Tiny);
        let res = run_case(&case, &RunConfig::paper(PrecondKind::Schur1, 3));
        assert!(res.converged, "relres {}", res.final_relres);
    }
}

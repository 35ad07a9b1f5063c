//! One paper-table cell (§4.3, §5) as a client of the session pipeline:
//! partition the case, [`SolverSession`] build, one [`SolverSession::run`]
//! from the case's initial guess. The answer ledger runs the same two
//! calls, so a table cell and its ledger line are one computation.

use crate::session::{MatrixId, SessionConfig, SolveRequest, SolverSession};
use crate::EngineError;
use parapre_core::{partition_case, AssembledCase, PrecondKind};
use parapre_metrics::{LoadReport, RankTrace, TraceSummary};
use parapre_mpisim::{CommStats, MachineModel};
use std::sync::Arc;

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
    /// Wall time of the session build (host seconds).
    pub setup_seconds: f64,
    /// Wall time of the solve (host seconds, threads possibly
    /// oversubscribed).
    pub wall_seconds: f64,
    /// Total messages across ranks: the solve, its true-residual check and
    /// the gather of the solution.
    pub total_msgs: u64,
    /// Total payload bytes across ranks, same window.
    pub total_bytes: u64,
    /// Partition quality: edge cut of the node partition.
    pub edge_cut: usize,
    /// Partition quality: load imbalance (max/mean).
    pub imbalance: f64,
    /// Per-rank busy time and traffic of the solve.
    pub load: LoadReport,
    /// Cross-rank phase/counter summary when the run was traced
    /// ([`run_case_traced`]); `None` for untraced runs.
    pub phases: Option<TraceSummary>,
}

impl RunResult {
    /// α–β modeled time of the solve on `machine`: each rank's host time
    /// scaled by the machine's relative speed plus its modeled message
    /// costs, times the background-load factor; the slowest rank sets the
    /// pace. Host time includes waiting, so the mean over ranks stands in
    /// for every rank's compute.
    pub fn modeled_seconds(&self, machine: &MachineModel) -> f64 {
        let ranks = &self.load.ranks;
        let mean_busy = ranks.iter().map(|r| r.busy_s).sum::<f64>() / ranks.len() as f64;
        ranks
            .iter()
            .map(|r| {
                let sent = CommStats {
                    msgs_sent: r.msgs_sent,
                    bytes_sent: r.bytes_sent,
                    ..CommStats::default()
                };
                machine.modeled_total(mean_busy, &sent)
            })
            .fold(0.0, f64::max)
    }
}

/// Runs one experiment cell: partition, build, solve.
///
/// # Panics
///
/// When the cell's preconditioner needed the numerical safety net — a
/// ladder descent or a diagonal-shift retry on any rank: a table must not
/// print iteration counts of a preconditioner other than the one in its
/// column header. The panic is raised on the calling thread after every
/// rank has been joined, and names the case, the preconditioner and `P`.
pub fn run_case(case: &AssembledCase, cfg: &SessionConfig) -> RunResult {
    run_case_traced(case, cfg, false).0
}

/// Like [`run_case`], but with `trace = true` each rank records a
/// structured [`parapre_metrics`] event stream of its build followed by its
/// solve (phase spans, comm events, per-iteration residuals). The traces
/// come back alongside the result and the merged phase summary is folded
/// into [`RunResult::phases`]. With `trace = false` no recorder is
/// installed and the run behaves exactly like [`run_case`].
pub fn run_case_traced(
    case: &AssembledCase,
    cfg: &SessionConfig,
    trace: bool,
) -> (RunResult, Vec<RankTrace>) {
    let node_part = partition_case(case, cfg.scheme, cfg.n_ranks, cfg.partition_seed);
    let owner = case.dof_owner(&node_part.owner);
    let id = MatrixId::of(&case.sys.a);
    let (session, mut traces) =
        SolverSession::build_identified(&Arc::new(case.sys.a.clone()), &owner, cfg, id, trace)
            .unwrap_or_else(|e| panic!("{e}"));
    let (fallbacks, pivot_shifts) = (session.build_fallbacks(), session.pivot_shifts());
    assert!(
        fallbacks == 0 && pivot_shifts == 0,
        "{} / {} / P={}: the build needed the numerical safety net \
         ({fallbacks} ladder fallbacks, {pivot_shifts} pivot shifts); \
         its numbers would not be this preconditioner's",
        case.id.name(),
        cfg.precond.label(),
        cfg.n_ranks,
    );
    let mut out = session
        .run(SolveRequest {
            x0: Some(&case.x0),
            trace,
            ..SolveRequest::new(&case.sys.b)
        })
        .unwrap_or_else(|fails| panic!("{}", EngineError::from(fails)));
    for (built, solved) in traces.iter_mut().zip(out.traces.drain(..)) {
        built.append(solved);
    }
    let rep = out.single();
    let phases = (!traces.is_empty()).then(|| {
        let per_rank: Vec<TraceSummary> = traces.iter().map(RankTrace::summary).collect();
        TraceSummary::merge(&per_rank)
    });
    let result = RunResult {
        precond: cfg.precond,
        n_ranks: cfg.n_ranks,
        iterations: rep.iterations,
        converged: rep.converged,
        final_relres: rep.final_relres,
        setup_seconds: session.setup_seconds(),
        wall_seconds: rep.solve_seconds,
        total_msgs: rep.load.ranks.iter().map(|r| r.msgs_sent).sum(),
        total_bytes: rep.load.ranks.iter().map(|r| r.bytes_sent).sum(),
        edge_cut: node_part.edge_cut(&case.node_adjacency),
        imbalance: node_part.imbalance(),
        load: rep.load,
        phases,
    };
    (result, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_core::{build_case, CaseId, CaseSize, PartitionScheme};

    #[test]
    fn all_preconditioners_solve_tiny_tc1() {
        let case = build_case(CaseId::Tc1, CaseSize::Tiny);
        for kind in PrecondKind::ALL {
            let cfg = SessionConfig::paper(kind, 3);
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
            let res = run_case(&case, &SessionConfig::paper(kind, 4));
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
        let (cluster, origin) = (MachineModel::linux_cluster(), MachineModel::origin_3800());
        let cfg = SessionConfig::paper(PrecondKind::Block2, 4);
        let cl = run_case(&case, &cfg);
        let or = run_case(
            &case,
            &SessionConfig {
                partition_seed: origin.partition_seed,
                ..cfg
            },
        );
        assert!(cl.converged && or.converged);
        // Different machine seed ⇒ (almost surely) different partition ⇒
        // the paper's different-iteration-counts effect; at minimum the
        // modeled network differs.
        assert!(
            cl.edge_cut != or.edge_cut
                || cl.iterations != or.iterations
                || cl.modeled_seconds(&cluster) != or.modeled_seconds(&origin)
        );
    }

    #[test]
    fn box_partitioning_works_on_structured_cases() {
        let case = build_case(CaseId::Tc2, CaseSize::Tiny);
        let mut cfg = SessionConfig::paper(PrecondKind::Block1, 4);
        cfg.scheme = PartitionScheme::Boxes;
        let res = run_case(&case, &cfg);
        assert!(res.converged);
        // Tiny 7³ grids quantize coarsely into boxes; just bound the skew.
        assert!(res.imbalance < 1.6, "imbalance {}", res.imbalance);
    }

    #[test]
    fn overlap_variant_runs_and_beats_block2() {
        let case = build_case(CaseId::Tc1, CaseSize::Tiny);
        let plain = run_case(&case, &SessionConfig::paper(PrecondKind::Block2, 6));
        let over = run_case(&case, &SessionConfig::paper(PrecondKind::BlockOverlap, 6));
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
        let res = run_case(&case, &SessionConfig::paper(PrecondKind::Schur1, 3));
        assert!(res.converged, "relres {}", res.final_relres);
    }
}

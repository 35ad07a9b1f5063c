//! Time-stepping driver: march TC4's heat equation `N` implicit steps
//! against **one** symbolic factorization.
//!
//! With a constant Δt the system matrix `M + Δt·K` of the implicit Euler
//! step never changes, so the session factors it once and every step only
//! rebuilds the right-hand side `M uˡ⁻¹` (with the Dirichlet sweep) and
//! solves — the setup/solve separation the paper's single-step TC4
//! experiment implies but never exercises. When Δt changes between steps
//! (adaptive stepping), the matrix gets **new values on the same pattern**:
//! the session is then refactored numerically from its predecessor
//! ([`SolverSession::refactor`]) instead of being rebuilt — the partition,
//! layouts and fill patterns of the first build serve the whole march.
//! Per-step iteration counts are reported; solves are seeded with the
//! previous state (paper §4.3 seeds with `u⁰`).

use crate::session::{MatrixId, SessionConfig, SolveRequest, SolverSession};
use crate::EngineError;
use parapre_fem::heat::{assemble_mass_stiffness, HeatMarch};
use parapre_grid::structured::unit_cube;
use parapre_grid::Adjacency;
use parapre_partition::partition_graph;
use std::sync::Arc;

/// Parameters of a marching run.
#[derive(Debug, Clone)]
pub struct TimestepConfig {
    /// Grid extent per direction (the mesh is `n × n × n`).
    pub extent: usize,
    /// The time step Δt of every implicit step, in order; the march takes
    /// `dts.len()` steps. A constant sequence marches against one
    /// factorization; each change of Δt refactors it numerically.
    pub dts: Vec<f64>,
    /// Solver session configuration.
    pub session: SessionConfig,
    /// Trace every solve and refactorization and count `setup.factor` /
    /// `setup.refactor` spans (the zero-factorization assertion); adds
    /// recorder overhead per step.
    pub trace: bool,
}

/// One marched step's outcome.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// 1-based step number.
    pub step: usize,
    /// The step's Δt.
    pub dt: f64,
    /// Outer FGMRES iterations.
    pub iterations: usize,
    /// Final recursive relative residual.
    pub final_relres: f64,
    /// True relative residual of the step's solve.
    pub true_relres: f64,
    /// Solve wall time.
    pub solve_seconds: f64,
    /// Wall time of the session rebuild this step's Δt change caused
    /// (0 when Δt did not change).
    pub rebuild_seconds: f64,
    /// Refactorizations since the symbolic build behind this step's
    /// session ([`SolverSession::pattern_age`]).
    pub pattern_age: usize,
    /// `max |u|` after the step (diffusion must decay it).
    pub amplitude: f64,
}

/// The whole march.
#[derive(Debug, Clone)]
pub struct TimestepReport {
    /// Global unknowns.
    pub n_unknowns: usize,
    /// One-off setup wall time (partition + distribute + factor).
    pub setup_seconds: f64,
    /// Per-step outcomes, in order.
    pub steps: Vec<StepReport>,
    /// Total `setup.factor` spans observed during the marched solves and
    /// refactorizations — **must be 0**: all symbolic factorization work
    /// happened in setup. Only counted when [`TimestepConfig::trace`] is
    /// set.
    pub factor_spans_during_steps: u64,
    /// `setup.refactor` spans **per rank** over the march (every rank
    /// records one per refactorization) — equals the number of Δt changes
    /// when every one of them was refactored. Only counted when
    /// [`TimestepConfig::trace`] is set.
    pub refactor_spans_during_steps: u64,
    /// Δt changes served by a numeric-only refactorization.
    pub refactors: usize,
    /// Δt changes whose refactorization was refused and that were rebuilt
    /// cold (outside the traced region).
    pub cold_rebuilds: usize,
}

fn phase_calls(traces: &[parapre_metrics::RankTrace], phase: &str) -> u64 {
    traces
        .iter()
        .filter_map(|tr| tr.summary().phase(phase).map(|p| p.calls))
        .sum()
}

/// Marches the heat equation. Fails (rather than panicking) if any step's
/// distributed solve dies.
pub fn march_heat(cfg: &TimestepConfig) -> Result<TimestepReport, EngineError> {
    let mesh = unit_cube(cfg.extent, cfg.extent, cfg.extent);
    let (mass, stiffness) = assemble_mass_stiffness(&mesh);
    let first_dt = cfg.dts.first().copied().unwrap_or(parapre_fem::heat::DT);
    let mut march = HeatMarch::from_mass_stiffness(&mesh, mass.clone(), &stiffness, first_dt);
    let adjacency = Adjacency::from_elements(mesh.n_nodes(), mesh.tets.iter().map(|t| t.to_vec()));
    let part = partition_graph(&adjacency, cfg.session.n_ranks, cfg.session.partition_seed);
    let mut session = SolverSession::build(&march.a, &part.owner, &cfg.session)?;
    let setup_seconds = session.setup_seconds();

    let mut u = HeatMarch::initial_state(&mesh);
    let mut steps = Vec::with_capacity(cfg.dts.len());
    let mut factor_spans = 0u64;
    let mut refactor_spans = 0u64;
    let mut refactors = 0usize;
    let mut cold_rebuilds = 0usize;
    for (k, &dt) in cfg.dts.iter().enumerate() {
        let mut rebuild_seconds = 0.0;
        if dt != march.dt {
            // Same mesh, same pattern, new values: numeric-only rebuild.
            march = HeatMarch::from_mass_stiffness(&mesh, mass.clone(), &stiffness, dt);
            let id = MatrixId::of(&march.a);
            let a = Arc::new(march.a.clone());
            session = match SolverSession::refactor_identified(&session, &a, id, cfg.trace) {
                Ok((next, traces)) => {
                    refactors += 1;
                    factor_spans += phase_calls(&traces, parapre_metrics::names::FACTOR);
                    refactor_spans += phase_calls(&traces, parapre_metrics::names::REFACTOR);
                    next
                }
                Err(_) => {
                    cold_rebuilds += 1;
                    SolverSession::build_identified(&a, &part.owner, &cfg.session, id, false)?.0
                }
            };
            rebuild_seconds = session.setup_seconds();
        }
        let b = march.rhs(&u);
        let out = session.run(SolveRequest {
            x0: Some(&u),
            trace: cfg.trace,
            ..SolveRequest::new(&b)
        })?;
        factor_spans += phase_calls(&out.traces, parapre_metrics::names::FACTOR);
        refactor_spans += phase_calls(&out.traces, parapre_metrics::names::REFACTOR);
        let rep = out.single();
        u = rep.x.clone();
        let amplitude = u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        steps.push(StepReport {
            step: k + 1,
            dt,
            iterations: rep.iterations,
            final_relres: rep.final_relres,
            true_relres: rep.true_relres,
            solve_seconds: rep.solve_seconds,
            rebuild_seconds,
            pattern_age: session.pattern_age(),
            amplitude,
        });
    }
    Ok(TimestepReport {
        n_unknowns: session.n_unknowns(),
        setup_seconds,
        steps,
        factor_spans_during_steps: factor_spans,
        refactor_spans_during_steps: refactor_spans / cfg.session.n_ranks.max(1) as u64,
        refactors,
        cold_rebuilds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_core::PrecondKind;

    fn check_steps(report: &TimestepReport) {
        for w in report.steps.windows(2) {
            assert!(
                w[1].amplitude < w[0].amplitude,
                "diffusion must decay the mode: {} -> {}",
                w[0].amplitude,
                w[1].amplitude
            );
        }
        for s in &report.steps {
            assert!(s.iterations > 0);
            assert!(s.true_relres <= 1e-5, "step {}: {}", s.step, s.true_relres);
        }
    }

    #[test]
    fn marching_reuses_one_factorization_and_decays() {
        let cfg = TimestepConfig {
            extent: 5,
            dts: vec![0.05; 4],
            session: SessionConfig::paper(PrecondKind::Schur1, 2),
            trace: true,
        };
        let report = march_heat(&cfg).expect("march");
        assert_eq!(report.steps.len(), 4);
        assert_eq!(
            report.factor_spans_during_steps, 0,
            "steps after setup must not refactor"
        );
        assert_eq!(report.refactor_spans_during_steps, 0);
        assert_eq!((report.refactors, report.cold_rebuilds), (0, 0));
        assert!(report.steps.iter().all(|s| s.pattern_age == 0));
        check_steps(&report);
    }

    #[test]
    fn varying_dt_refactors_once_per_change_and_never_factors() {
        // Δt changes before steps 3, 4 and 6: three refactorizations, each
        // one `setup.refactor` span per rank, no `setup.factor` span ever.
        let dts = vec![0.05, 0.05, 0.04, 0.02, 0.02, 0.03];
        for kind in [
            PrecondKind::Block2,
            PrecondKind::Schur1,
            PrecondKind::Schur2,
        ] {
            let cfg = TimestepConfig {
                extent: 6,
                dts: dts.clone(),
                session: SessionConfig::paper(kind, 2),
                trace: true,
            };
            let report = march_heat(&cfg).expect("march");
            assert_eq!(report.factor_spans_during_steps, 0, "{kind:?}");
            assert_eq!(report.refactor_spans_during_steps, 3, "{kind:?}");
            assert_eq!((report.refactors, report.cold_rebuilds), (3, 0), "{kind:?}");
            let ages: Vec<usize> = report.steps.iter().map(|s| s.pattern_age).collect();
            assert_eq!(ages, [0, 0, 1, 2, 2, 3], "{kind:?}");
            for s in &report.steps {
                assert_eq!(s.rebuild_seconds > 0.0, [3, 4, 6].contains(&s.step));
            }
            check_steps(&report);
        }
    }
}

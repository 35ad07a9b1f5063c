//! The engine's one solve path, pinned from the root package so the tier-1
//! command exercises it: `SolverSession::run` with `k = 1` *is* `solve`, a
//! cold batch *is* its sequential solves, and tracing and guesses change
//! what they say they change and nothing else.

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::engine::{batch_rhs, SessionConfig, SolveRequest, SolverSession};

/// TC1 Tiny sessions over {Block 2, Schur 2} × P ∈ {2, 4} at the paper's
/// settings adjusted by `tune`, with the case's right-hand side.
fn sessions_with(tune: impl Fn(&mut SessionConfig)) -> Vec<(String, SolverSession, Vec<f64>)> {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let mut out = Vec::new();
    for kind in [PrecondKind::Block2, PrecondKind::Schur2] {
        for p in [2, 4] {
            let mut cfg = SessionConfig::paper(kind, p);
            tune(&mut cfg);
            let session = SolverSession::from_case(&case, &cfg).expect("session builds");
            out.push((format!("{} P={p}", kind.key()), session, case.sys.b.clone()));
        }
    }
    out
}

fn sessions() -> Vec<(String, SolverSession, Vec<f64>)> {
    sessions_with(|_| {})
}

#[test]
fn run_with_one_rhs_is_solve_bit_for_bit() {
    for (what, session, b) in sessions() {
        let plain = session.solve(&b).expect("solve");
        let out = session.run(SolveRequest::new(&b)).expect("run");
        assert!(out.traces.is_empty(), "{what}: untraced request");
        let rep = out.single();
        assert!(plain.converged, "{what}");
        assert_eq!(rep.iterations, plain.iterations, "{what}");
        assert_eq!(rep.x, plain.x, "{what}: run(k=1) drifted from solve");
    }
}

#[test]
fn cold_batch_is_its_sequential_solves_bit_for_bit() {
    for (what, session, b) in sessions() {
        let rhss = batch_rhs(&b, 4);
        let batch = session.run(SolveRequest::batch(&rhss)).expect("batch");
        assert_eq!(batch.reports.len(), 4, "{what}");
        for (j, (rhs, bat)) in rhss.iter().zip(&batch.reports).enumerate() {
            let seq = session.solve(rhs).expect("sequential solve");
            assert_eq!(bat.iterations, seq.iterations, "{what} rhs {j}");
            assert_eq!(bat.x, seq.x, "{what} rhs {j}: batch drifted from solve");
        }
    }
}

#[test]
fn tracing_observes_without_changing_the_answer() {
    for (what, session, b) in sessions() {
        let plain = session.solve(&b).expect("solve");
        let out = session
            .run(SolveRequest {
                trace: true,
                ..SolveRequest::new(&b)
            })
            .expect("traced run");
        assert_eq!(
            out.traces.len(),
            session.config().n_ranks,
            "{what}: one trace per rank"
        );
        let summaries: Vec<_> = out.traces.iter().map(|t| t.summary()).collect();
        let merged = parapre_metrics::TraceSummary::merge(&summaries);
        assert!(
            merged.phase(parapre_metrics::names::FACTOR).is_none(),
            "{what}: a solve on a built session must not factor"
        );
        assert_eq!(out.single().x, plain.x, "{what}: tracing changed the bits");
    }
}

#[test]
fn exact_guess_converges_in_zero_iterations() {
    // The relative target is measured from the initial residual, so "already
    // solved" needs the absolute floor: the guess solves `A x = A·guess` to
    // rounding, far below it.
    for (what, session, b) in sessions_with(|cfg| cfg.gmres.abs_tol = 1e-10) {
        let x = session.solve(&b).expect("solve").x;
        let mut ax = vec![0.0; x.len()];
        session.matrix().spmv(&x, &mut ax);
        let rep = session
            .run(SolveRequest {
                x0: Some(&x),
                ..SolveRequest::new(&ax)
            })
            .expect("run")
            .single();
        assert!(rep.converged, "{what}");
        assert_eq!(rep.iterations, 0, "{what}: an exact guess needs no step");
    }
}

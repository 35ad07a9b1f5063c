//! Regression guard for the fused-allreduce classical Gram–Schmidt (delayed
//! re-orthogonalization, DCGS2): on the paper's test cases the default
//! orthogonalization must converge within a couple of iterations of the
//! modified-Gram–Schmidt reference — the latency optimization may not
//! degrade convergence. `Block 1` on TC1–TC6 exercises the outer FGMRES;
//! `Schur 2` also runs the delayed step in its inner Schur solve whatever
//! the outer orthogonalization.

use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_dist::OrthMethod;
use parapre_engine::{run_case, SessionConfig};

#[test]
fn batched_cgs_within_two_iterations_of_mgs_on_tc1_to_tc6() {
    for id in CaseId::ALL {
        let case = build_case(id, CaseSize::Tiny);
        for kind in [PrecondKind::Block1, PrecondKind::Schur2] {
            let mut cfg = SessionConfig::paper(kind, 4);

            cfg.gmres.orth = OrthMethod::Modified;
            let mgs = run_case(&case, &cfg);
            assert!(mgs.converged, "{id:?} {kind:?}: MGS run did not converge");

            cfg.gmres.orth = OrthMethod::ClassicalBatched;
            let cgs = run_case(&case, &cfg);
            assert!(cgs.converged, "{id:?} {kind:?}: CGS run did not converge");

            assert!(
                cgs.iterations.abs_diff(mgs.iterations) <= 2,
                "{id:?} {kind:?}: CGS {} vs MGS {} iterations",
                cgs.iterations,
                mgs.iterations
            );
        }
    }
}

//! Regression guard for the fused-allreduce classical Gram–Schmidt: on the
//! paper's test cases the default orthogonalization must converge within a
//! couple of iterations of the modified-Gram–Schmidt reference — the
//! latency optimization may not degrade convergence.

use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_dist::OrthMethod;
use parapre_engine::{run_case, SessionConfig};

#[test]
fn batched_cgs_within_two_iterations_of_mgs_on_tc1_to_tc4() {
    for id in [CaseId::Tc1, CaseId::Tc2, CaseId::Tc3, CaseId::Tc4] {
        let case = build_case(id, CaseSize::Tiny);
        let mut cfg = SessionConfig::paper(PrecondKind::Block1, 4);

        cfg.gmres.orth = OrthMethod::Modified;
        let mgs = run_case(&case, &cfg);
        assert!(mgs.converged, "{id:?}: MGS run did not converge");

        cfg.gmres.orth = OrthMethod::ClassicalBatched;
        let cgs = run_case(&case, &cfg);
        assert!(cgs.converged, "{id:?}: CGS run did not converge");

        assert!(
            cgs.iterations.abs_diff(mgs.iterations) <= 2,
            "{id:?}: CGS {} vs MGS {} iterations",
            cgs.iterations,
            mgs.iterations
        );
    }
}

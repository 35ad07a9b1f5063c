//! An answer checked against something other than the code's own earlier
//! output: the distributed solves of all seven rungs must
//! meet the paper's residual target, and — pushed to a tight tolerance —
//! land on the solution a sequential GMRES + ILUT solve of the undistributed
//! system finds. The two paths share the sweep kernel and nothing else: no
//! partition, no halo exchange, no block or Schur structure on the
//! sequential side.

use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::engine::{SessionConfig, SolverSession};
use parapre::krylov::{Gmres, GmresConfig, Ilut, IlutConfig};

fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

#[test]
fn ilu_rungs_agree_with_a_sequential_solve_of_the_global_system() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let (a, b) = (&case.sys.a, &case.sys.b);

    let factors = Ilut::factor(a, &IlutConfig::default()).expect("ILUT of the global matrix");
    let mut x_ref = vec![0.0; case.n_unknowns()];
    let reference = Gmres::new(GmresConfig {
        rel_tol: 1e-10,
        max_iters: 2000,
        ..Default::default()
    })
    .solve(a, &factors, b, &mut x_ref);
    assert!(reference.converged, "sequential reference did not converge");

    for kind in [
        PrecondKind::Block1,
        PrecondKind::Block2,
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::schurml_default(),
        PrecondKind::BlockOverlap,
        PrecondKind::Jacobi,
    ] {
        for p in [1, 2, 4, 8] {
            let what = format!("{} P={p}", kind.key());
            let paper = SessionConfig::paper(kind, p);
            let rep = SolverSession::from_case(&case, &paper)
                .expect("session builds")
                .solve(b)
                .expect("solve");
            assert!(rep.converged, "{what}");
            assert!(rep.true_relres <= 1e-6, "{what}: {}", rep.true_relres);

            let mut tight = paper;
            tight.gmres.rel_tol = 1e-10;
            let rep = SolverSession::from_case(&case, &tight)
                .expect("session builds")
                .solve(b)
                .expect("solve");
            assert!(rep.converged, "{what} at 1e-10");
            let diff: Vec<f64> = rep.x.iter().zip(&x_ref).map(|(u, v)| u - v).collect();
            let err = norm_inf(&diff) / norm_inf(&x_ref);
            assert!(err <= 1e-6, "{what}: {err:e} away from the reference");
        }
    }
}

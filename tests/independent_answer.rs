//! An answer checked against something other than the code's own earlier
//! output: the distributed solves of all seven rungs must meet the paper's
//! residual target, and — pushed to a tight tolerance — land on the solution
//! a dense LU factorization with partial pivoting of the undistributed system
//! finds. The two paths share no kernel: no Krylov iteration, no incomplete
//! factorization, no partition, halo exchange, block or Schur structure on
//! the dense side. A session rebuilt by numeric-only refactorization on new
//! values of the same pattern is held to the dense answer of the new matrix.

use parapre::core::cases::perturbed;
use parapre::core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre::engine::{SessionConfig, SolverSession};
use parapre::sparse::dense::{Dense, DenseLu};
use parapre::sparse::Csr;

fn kinds() -> [PrecondKind; 7] {
    [
        PrecondKind::Block1,
        PrecondKind::Block2,
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::schurml_default(),
        PrecondKind::BlockOverlap,
        PrecondKind::Jacobi,
    ]
}

fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `A⁻¹ b` by dense LU.
fn dense_solve(a: &Csr, b: &[f64]) -> Vec<f64> {
    let lu = DenseLu::factor(Dense::from_rows(&a.to_dense())).expect("a regular matrix");
    lu.solve(b)
}

/// `‖x − x_ref‖∞ / ‖x_ref‖∞`.
fn rel_err(x: &[f64], x_ref: &[f64]) -> f64 {
    let diff: Vec<f64> = x.iter().zip(x_ref).map(|(u, v)| u - v).collect();
    norm_inf(&diff) / norm_inf(x_ref)
}

#[test]
fn ilu_rungs_agree_with_a_sequential_solve_of_the_global_system() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let (a, b) = (&case.sys.a, &case.sys.b);
    let x_ref = dense_solve(a, b);

    for kind in kinds() {
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
            let err = rel_err(&rep.x, &x_ref);
            assert!(err <= 1e-6, "{what}: {err:e} away from the reference");
        }
    }
}

#[test]
fn refactored_sessions_agree_with_a_dense_solve_of_the_new_matrix() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let b = &case.sys.b;
    let a2 = perturbed(&case.sys.a);
    let x_ref = dense_solve(&a2, b);
    assert!(rel_err(&dense_solve(&case.sys.a, b), &x_ref) > 1e-3);

    for kind in kinds() {
        for p in [2, 4] {
            let what = format!("{} P={p}", kind.key());
            let mut tight = SessionConfig::paper(kind, p);
            tight.gmres.rel_tol = 1e-10;
            let donor = SolverSession::from_case(&case, &tight).expect("session builds");
            let hot = SolverSession::refactor(&donor, &a2)
                .unwrap_or_else(|why| panic!("{what}: refused as {}", why.key()));
            assert_eq!(hot.pattern_age(), 1, "{what}");
            let rep = hot.solve(b).expect("solve");
            assert!(rep.converged, "{what} at 1e-10");
            let err = rel_err(&rep.x, &x_ref);
            assert!(err <= 1e-6, "{what}: {err:e} away from the reference");
        }
    }
}

//! A request of `k` right-hand sides is one lock-step block solve, and each
//! of its columns is bit for bit the single solve of its right-hand side:
//! `x`, `iterations`, `final_relres` and `converged`. Pinned for every
//! preconditioner on TC1 and TC6 (tiny) at `P ∈ {1, 2, 4}` and
//! `k ∈ {1, 3, 8}`, including columns that stop at different rounds: a zero
//! right-hand side, an exact guess under the absolute floor, and a column
//! still restarting after the others have finished. And the point of it:
//! the columns share their messages.

use parapre::core::{build_case, AssembledCase, CaseId, CaseSize, PrecondKind};
use parapre::engine::{batch_rhs, SessionConfig, SessionSolveReport, SolveRequest, SolverSession};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The single solve of every right-hand side from `x0`, then requests of the
/// first `k ∈ {1, 3, 8}` of them: each column must be its single solve.
fn columns_are_single_solves(
    what: &str,
    session: &SolverSession,
    rhs: &[Vec<f64>],
    x0: Option<&[f64]>,
) -> Vec<SessionSolveReport> {
    let singles: Vec<SessionSolveReport> = rhs
        .iter()
        .map(|b| {
            let req = SolveRequest {
                x0,
                ..SolveRequest::new(b)
            };
            session.run(req).expect("single solve").single()
        })
        .collect();
    for k in [1, 3, 8] {
        let req = SolveRequest {
            x0,
            ..SolveRequest::batch(&rhs[..k])
        };
        let out = session.run(req).expect("block solve");
        assert_eq!(out.reports.len(), k, "{what} k={k}");
        for (j, (col, single)) in out.reports.iter().zip(&singles).enumerate() {
            let at = format!("{what} k={k} column {j}");
            assert_eq!(col.iterations, single.iterations, "{at}: iterations");
            assert_eq!(col.converged, single.converged, "{at}: converged");
            assert_eq!(
                col.final_relres.to_bits(),
                single.final_relres.to_bits(),
                "{at}: final_relres {} vs {}",
                col.final_relres,
                single.final_relres
            );
            assert!(bits(&col.x) == bits(&single.x), "{at}: x bits differ");
        }
    }
    singles
}

/// `kinds` on TC1 and TC6 at every `P`. Returns how many sessions saw a
/// column restart after every other column of its request had finished.
fn sweep(kinds: &[PrecondKind]) -> usize {
    let mut staggered = 0;
    for (id, kind) in [CaseId::Tc1, CaseId::Tc6]
        .into_iter()
        .flat_map(|id| kinds.iter().map(move |&kind| (id, kind)))
    {
        let case: AssembledCase = build_case(id, CaseSize::Tiny);
        let b = &case.sys.b;
        let n = b.len();
        let variants = batch_rhs(b, 8);
        for p in [1, 2, 4] {
            let what = format!("{} {} P={p}", id.key(), kind.key());
            let mut cfg = SessionConfig::paper(kind, p);
            cfg.gmres.abs_tol = 1e-10;
            let restart = cfg.gmres.restart;
            let session = SolverSession::from_case(&case, &cfg).expect("session builds");

            // From a zero guess; column 1's right-hand side is zero and
            // needs no step while the others iterate.
            let mut rhs = variants.clone();
            rhs[1].fill(0.0);
            let singles = columns_are_single_solves(&format!("{what} zero"), &session, &rhs, None);
            assert!(singles[1].converged && singles[1].iterations == 0, "{what}");

            // From the solution of `b`: column 0 is solved by the guess
            // exactly (no step, under the absolute floor), columns 2.. sit
            // just above the floor and stop within a few steps, column 1 is
            // another right-hand side and needs the whole reduction.
            let guess = singles[0].x.clone();
            let mut a_guess = vec![0.0; n];
            session.matrix().spmv(&guess, &mut a_guess);
            let smooth: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let scale = 1e-9 / smooth.iter().map(|v| v * v).sum::<f64>().sqrt();
            let mut rhs = vec![a_guess.clone(), variants[2].clone()];
            for j in 1..=6 {
                let near = a_guess.iter().zip(&smooth);
                rhs.push(near.map(|(a, s)| a + j as f64 * scale * s).collect());
            }
            let singles =
                columns_are_single_solves(&format!("{what} guess"), &session, &rhs, Some(&guess));
            assert!(singles[0].converged && singles[0].iterations == 0, "{what}");
            let others = singles.iter().enumerate().filter(|&(j, _)| j != 1);
            if singles[1].iterations > restart
                && others.map(|(_, s)| s.iterations).max() <= Some(restart)
            {
                staggered += 1;
            }
        }
    }
    staggered
}

#[test]
fn schur_rung_columns_are_their_single_solves() {
    sweep(&[
        PrecondKind::Schur1,
        PrecondKind::Schur2,
        PrecondKind::schurml_default(),
    ]);
}

#[test]
fn block_rung_columns_are_their_single_solves() {
    let staggered = sweep(&[PrecondKind::Block1, PrecondKind::Block2]);
    assert!(staggered > 0, "no session restarted a lone column");
}

#[test]
fn overlap_and_jacobi_columns_are_their_single_solves() {
    let staggered = sweep(&[PrecondKind::BlockOverlap, PrecondKind::Jacobi]);
    assert!(staggered > 0, "no session restarted a lone column");
}

#[test]
fn a_batch_of_eight_sends_at_most_a_quarter_of_the_messages() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Block2, 2);
    let session = SolverSession::from_case(&case, &cfg).expect("session builds");
    let rhs = batch_rhs(&case.sys.b, 8);
    let sent = |rep: &SessionSolveReport| rep.load.ranks.iter().map(|r| r.msgs_sent).sum::<u64>();
    let singles: u64 = rhs
        .iter()
        .map(|b| sent(&session.solve(b).expect("single solve")))
        .sum();
    let out = session.run(SolveRequest::batch(&rhs)).expect("block solve");
    // Every column carries the whole request's load.
    let batch = sent(&out.reports[0]);
    assert!(out.reports.iter().all(|r| sent(r) == batch));
    assert!(
        4 * batch <= singles,
        "batch:8 sent {batch} messages, eight single solves {singles}"
    );
}

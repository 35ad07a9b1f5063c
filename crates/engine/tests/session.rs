//! Session correctness: cached-factor solves must be bit-for-bit the same
//! iteration trajectories as fresh one-shot solves, and the hot path must
//! perform zero factorization work.

use parapre_core::{
    build_case, build_dist_precond_with_fallback, partition_case, CaseId, CaseSize, PrecondKind,
};
use parapre_dist::{scatter_vector, DistGmres, DistMatrix};
use parapre_engine::{SessionCache, SessionConfig, SessionKey, SolveRequest, SolverSession};
use parapre_mpisim::Universe;
use std::sync::Arc;

const P: usize = 4;

fn tc1_session(precond: PrecondKind) -> (parapre_core::AssembledCase, SolverSession) {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(precond, P);
    let session = SolverSession::from_case(&case, &cfg).expect("session builds");
    (case, session)
}

/// A one-shot reference solve that rebuilds everything from scratch, the way
/// the experiment runner does: fresh universe, fresh distribution, fresh
/// factorization. Returns the outer iteration count.
fn one_shot_iterations(case: &parapre_core::AssembledCase, cfg: &SessionConfig) -> usize {
    let node_part = partition_case(case, cfg.scheme, cfg.n_ranks, cfg.partition_seed);
    let owner = case.dof_owner(&node_part.owner);
    let a = &case.sys.a;
    let b = &case.sys.b;
    let x0 = &case.x0;
    let outs = Universe::run(cfg.n_ranks, |comm| {
        let dm = DistMatrix::from_global(a, &owner, comm.rank(), cfg.n_ranks);
        let precond =
            build_dist_precond_with_fallback(cfg.precond, &dm, comm, a, &cfg.params).precond;
        let b_loc = scatter_vector(&dm.layout, b);
        let mut x = scatter_vector(&dm.layout, x0);
        DistGmres::new(cfg.gmres).solve(comm, &dm, &precond, &b_loc, &mut x)
    });
    outs[0].iterations
}

#[test]
fn session_solves_match_fresh_one_shots_for_every_preconditioner() {
    for precond in [
        PrecondKind::Block1,
        PrecondKind::Block2,
        PrecondKind::Schur1,
        PrecondKind::Schur2,
    ] {
        let (case, session) = tc1_session(precond);
        let reference = one_shot_iterations(&case, session.config());
        // Several solves of the same system against the cached factors:
        // every one must retrace the reference trajectory exactly.
        for repeat in 0..3 {
            let rep = session
                .run(SolveRequest {
                    x0: Some(&case.x0),
                    ..SolveRequest::new(&case.sys.b)
                })
                .expect("solve")
                .single();
            assert!(rep.converged, "{precond:?} repeat {repeat} must converge");
            assert_eq!(
                rep.iterations, reference,
                "{precond:?} repeat {repeat}: cached-session iterations drifted"
            );
            assert!(
                rep.true_relres <= 1e-5,
                "{precond:?} true residual too large: {}",
                rep.true_relres
            );
        }
    }
}

#[test]
fn hot_path_records_no_factorization_spans() {
    let (case, session) = tc1_session(PrecondKind::Schur1);
    let (rep, traces) = session
        .solve_traced(&case.sys.b, Some(&case.x0))
        .expect("traced solve");
    assert!(rep.converged);
    assert_eq!(traces.len(), P, "one trace per rank");
    let summaries: Vec<_> = traces.iter().map(|t| t.summary()).collect();
    let merged = parapre_metrics::TraceSummary::merge(&summaries);
    assert!(
        merged.phase(parapre_metrics::names::FACTOR).is_none(),
        "a solve on a cached session must not factor"
    );
    assert!(
        merged.phase(parapre_metrics::names::SETUP).is_none(),
        "a solve on a cached session must not re-run setup"
    );
    let apply = merged
        .phase(parapre_metrics::names::PRECOND_APPLY)
        .expect("preconditioner applications are traced");
    assert!(apply.calls > 0);
}

#[test]
fn multiple_right_hand_sides_reuse_one_factorization() {
    let (case, session) = tc1_session(PrecondKind::Block2);
    let n = session.n_unknowns();
    // Natural rhs, all-ones, and a row-sum rhs (exact solution x = 1).
    let ones = vec![1.0; n];
    let rowsum = case.sys.a.mul_vec(&ones);
    for b in [case.sys.b.clone(), ones.clone(), rowsum] {
        let rep = session.solve(&b).expect("solve");
        assert!(rep.converged);
        assert!(rep.true_relres <= 1e-5);
    }
    let rep = session.solve(&case.sys.a.mul_vec(&ones)).expect("solve");
    let err = rep
        .x
        .iter()
        .map(|xi| (xi - 1.0).abs())
        .fold(0.0f64, f64::max);
    assert!(err < 1e-4, "row-sum rhs must recover x = 1, err {err}");
}

#[test]
fn matrix_sessions_solve_general_systems() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Block1, 2);
    let session = SolverSession::from_matrix(&case.sys.a, &cfg).expect("session builds");
    let b = case.sys.a.mul_vec(&vec![1.0; session.n_unknowns()]);
    let rep = session.solve(&b).expect("solve");
    assert!(rep.converged);
    assert!(rep.true_relres <= 1e-5);
}

#[test]
fn cache_hits_share_sessions_and_count() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, P);
    let fp = case.sys.a.fingerprint();
    let cache = SessionCache::new(2);

    let build = || SolverSession::from_case(&case, &cfg);
    let (first, hit1) = cache
        .get_or_build(SessionKey::new(fp, &cfg), build)
        .unwrap();
    let (second, hit2) = cache
        .get_or_build(SessionKey::new(fp, &cfg), build)
        .unwrap();
    assert!(!hit1 && hit2);
    assert!(Arc::ptr_eq(&first, &second), "hits must share the session");

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
    assert_eq!(stats.len, 1);
}

#[test]
fn cache_evicts_least_recently_used() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let fp = case.sys.a.fingerprint();
    let cache = SessionCache::new(2);
    let cfg_of = |p: PrecondKind| SessionConfig::paper(p, 2);

    for p in [PrecondKind::Block1, PrecondKind::Block2] {
        let cfg = cfg_of(p);
        cache
            .get_or_build(SessionKey::new(fp, &cfg), || {
                SolverSession::from_case(&case, &cfg)
            })
            .unwrap();
    }
    // Touch block1 so block2 is the LRU victim when schur1 arrives.
    let cfg1 = cfg_of(PrecondKind::Block1);
    let (_, hit) = cache
        .get_or_build(SessionKey::new(fp, &cfg1), || {
            SolverSession::from_case(&case, &cfg1)
        })
        .unwrap();
    assert!(hit);
    let cfg3 = cfg_of(PrecondKind::Schur1);
    cache
        .get_or_build(SessionKey::new(fp, &cfg3), || {
            SolverSession::from_case(&case, &cfg3)
        })
        .unwrap();

    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.len, 2);
    // block1 survived (hit), block2 was evicted (miss on re-request).
    let (_, hit1) = cache
        .get_or_build(SessionKey::new(fp, &cfg1), || {
            SolverSession::from_case(&case, &cfg1)
        })
        .unwrap();
    assert!(hit1, "recently used entry must survive eviction");
    let cfg2 = cfg_of(PrecondKind::Block2);
    let (_, hit2) = cache
        .get_or_build(SessionKey::new(fp, &cfg2), || {
            SolverSession::from_case(&case, &cfg2)
        })
        .unwrap();
    assert!(!hit2, "LRU entry must have been evicted");
}

#[test]
fn different_matrices_key_differently() {
    let small = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Block1, 2);
    let key_a = SessionKey::new(small.sys.a.fingerprint(), &cfg);
    let mut other = SessionConfig::paper(PrecondKind::Block1, 2);
    other.gmres.rel_tol = 1e-8;
    let key_b = SessionKey::new(small.sys.a.fingerprint(), &other);
    assert_ne!(key_a, key_b, "solver tolerance is part of the cache key");
}

//! Numeric-only refactorization, end to end: `SolverSession::refactor`
//! against cold builds for every preconditioner, the collective
//! accept/reject vote, and the service's donor lookup, fall-back rules and
//! stale-pattern safety net.

use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
use parapre_engine::{
    parse_job_line, JobResult, MatrixId, RefactorFallback, ServiceConfig, SessionConfig,
    SolveRequest, SolveService, SolverSession,
};
use parapre_metrics::names;
use parapre_sparse::{Coo, Csr};
use std::sync::Arc;
use std::time::Duration;

const KINDS: [PrecondKind; 7] = [
    PrecondKind::Block1,
    PrecondKind::Block2,
    PrecondKind::Schur1,
    PrecondKind::Schur2,
    PrecondKind::schurml_default(),
    PrecondKind::BlockOverlap,
    PrecondKind::Jacobi,
];

/// Uniform samples in `[0, 1)` from a seeded LCG.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `a` with the same pattern and seeded new values: every entry moves by a
/// relative amount up to `eps / 10`, every diagonal entry additionally
/// grows by a relative `eps / 2 … eps`.
fn jittered(a: &Csr, seed: u64, eps: f64) -> Csr {
    let mut next = uniform(seed);
    map_values(a, |i, j, v| {
        let mut factor = 1.0 + eps * 0.1 * (next() - 0.5);
        if i == j {
            factor *= 1.0 + eps * (0.5 + 0.5 * next());
        }
        v * factor
    })
}

/// `a` with every stored entry `(row, col, value)` replaced by `f` of it —
/// same pattern, new values.
fn map_values(a: &Csr, mut f: impl FnMut(usize, usize, f64) -> f64) -> Csr {
    let mut out = a.clone();
    for (slot, (i, j, v)) in out.vals_mut().iter_mut().zip(a.iter()) {
        *slot = f(i, j, v);
    }
    out
}

/// 2-D five-point Laplacian `shift·I + scale·L` on an `nx × nx` grid.
fn laplacian(nx: usize, shift: f64, scale: f64) -> Csr {
    let n = nx * nx;
    let mut coo = Coo::new(n, n);
    for iy in 0..nx {
        for ix in 0..nx {
            let i = iy * nx + ix;
            coo.push(i, i, shift + 4.0 * scale);
            if ix > 0 {
                coo.push(i, i - 1, -scale);
            }
            if ix + 1 < nx {
                coo.push(i, i + 1, -scale);
            }
            if iy > 0 {
                coo.push(i, i - nx, -scale);
            }
            if iy + 1 < nx {
                coo.push(i, i + nx, -scale);
            }
        }
    }
    coo.to_csr()
}

fn service(cache_capacity: usize) -> SolveService {
    SolveService::start(ServiceConfig {
        pool_size: 2,
        queue_capacity: 8,
        cache_capacity,
    })
    .expect("valid config")
}

/// Registers `a` and solves it once with `extra` job keys.
fn put_and_solve(svc: &SolveService, id: &str, a: &Csr, extra: &str) -> JobResult {
    let (fp, _) = svc.matrix_store().put(a.clone());
    solve_fp(svc, id, fp, extra)
}

fn solve_fp(svc: &SolveService, id: &str, fp: u64, extra: &str) -> JobResult {
    let line = format!(r#"{{"id":"{id}","fp":"{fp:016x}","rhs":"rowsum","ranks":2{extra}}}"#);
    let job = parse_job_line(&line, 0).expect("job parses");
    let r = svc.submit_solve(job).expect("accepted").wait();
    assert!(r.ok, "{id}: {:?}", r.error);
    r
}

#[test]
fn refactored_sessions_match_cold_builds_for_every_kind() {
    let cases = [
        CaseId::Tc1,
        CaseId::Tc2,
        CaseId::Tc3,
        CaseId::Tc4,
        CaseId::Tc5,
        CaseId::Tc6,
    ];
    let eps_cycle = [1e-3, 1e-2, 1e-1];
    let mut combo = 0u64;
    for id in cases {
        let case = build_case(id, CaseSize::Tiny);
        for kind in KINDS {
            for p in [1usize, 2, 4, 8] {
                combo += 1;
                let eps = eps_cycle[combo as usize % eps_cycle.len()];
                let what = format!("{id:?} {} P={p} eps={eps}", kind.key());
                let cfg = SessionConfig::paper(kind, p);
                let donor = SolverSession::from_case(&case, &cfg)
                    .unwrap_or_else(|e| panic!("{what}: donor build failed: {e}"));
                let a2 = jittered(&case.sys.a, combo, eps);
                let hot = SolverSession::refactor(&donor, &a2)
                    .unwrap_or_else(|why| panic!("{what}: refused as {}", why.key()));
                let cold = SolverSession::build(&a2, donor.owner(), &cfg).expect("cold builds");
                assert_eq!(hot.pattern_age(), 1, "{what}");
                assert_eq!(hot.fingerprint(), cold.fingerprint(), "{what}");
                assert_eq!(hot.pattern_fingerprint(), donor.pattern_fingerprint());
                assert_ne!(hot.fingerprint(), donor.fingerprint(), "{what}");
                assert_eq!(hot.active_precond(), cold.active_precond(), "{what}");
                assert_eq!(hot.owner(), donor.owner());
                let req = SolveRequest {
                    x0: Some(&case.x0),
                    ..SolveRequest::new(&case.sys.b)
                };
                let r_hot = hot.run(req.clone()).expect("solve").single();
                let r_cold = cold.run(req).expect("solve").single();
                assert!(r_hot.converged && r_cold.converged, "{what}");
                assert!(r_hot.true_relres <= 1e-5, "{what}: {}", r_hot.true_relres);
                // Within two iterations of the cold build, or a tenth of its
                // count where that is more (either way round: a frozen
                // pattern is sometimes the luckier one).
                let drift = r_hot.iterations.abs_diff(r_cold.iterations);
                assert!(
                    drift <= 2.max(r_cold.iterations / 10),
                    "{what}: refactored {} vs cold {} iterations",
                    r_hot.iterations,
                    r_cold.iterations
                );
            }
        }
    }
}

#[test]
fn a_chain_of_refactorizations_ages_the_pattern() {
    let case = build_case(CaseId::Tc2, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur2, 4);
    let mut session = SolverSession::from_case(&case, &cfg).expect("build");
    let mut a = case.sys.a.clone();
    for age in 1..=4 {
        a = jittered(&a, age, 0.02);
        session = SolverSession::refactor(&session, &a).expect("refactor");
        assert_eq!(session.pattern_age(), age as usize);
        let rep = session.solve(&case.sys.b).expect("solve");
        assert!(rep.converged && rep.true_relres <= 1e-5);
    }
}

#[test]
fn a_traced_refactorization_records_one_refactor_span_per_rank_and_no_factor_span() {
    let case = build_case(CaseId::Tc4, CaseSize::Tiny);
    let a2 = Arc::new(jittered(&case.sys.a, 3, 0.05));
    for kind in KINDS {
        for p in [1usize, 2, 4] {
            let what = format!("{} P={p}", kind.key());
            let donor = SolverSession::from_case(&case, &SessionConfig::paper(kind, p))
                .unwrap_or_else(|e| panic!("{what}: donor build failed: {e}"));
            let (_, traces) =
                SolverSession::refactor_identified(&donor, &a2, MatrixId::of(&a2), true)
                    .unwrap_or_else(|why| panic!("{what}: refused as {}", why.key()));
            assert_eq!(traces.len(), p, "{what}: one stream per rank");
            for trace in &traces {
                let summary = trace.summary();
                let calls = |phase: &str| summary.phase(phase).map_or(0, |s| s.calls);
                assert_eq!(calls(names::REFACTOR), 1, "{what}");
                assert_eq!(calls(names::FACTOR), 0, "{what}");
            }
        }
    }
}

/// One subdomain's diagonal zeroed: that rank's refactored factors hit a
/// zero pivot, every other rank's are fine. All ranks must leave the vote
/// together (a lone early return would park the others in the collective
/// until `recv_timeout`), and the cold build must still work.
#[test]
fn hostile_update_is_voted_down_on_all_ranks_in_lockstep() {
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    for p in [2usize, 4, 8] {
        for kind in KINDS {
            if kind == PrecondKind::Jacobi {
                continue; // infallible by construction: nothing to vote down
            }
            let what = format!("{} P={p}", kind.key());
            let mut cfg = SessionConfig::paper(kind, p);
            cfg.recv_timeout = Duration::from_secs(10);
            let donor = SolverSession::from_case(&case, &cfg).expect("donor builds");
            let a2 = map_values(&jittered(&case.sys.a, 5, 0.01), |i, j, v| {
                if i == j && donor.owner()[i] == 1 {
                    0.0
                } else {
                    v
                }
            });
            let t0 = std::time::Instant::now();
            match SolverSession::refactor(&donor, &a2) {
                Err(RefactorFallback::Unhealthy) => {}
                Err(other) => panic!("{what}: refused as {}", other.key()),
                Ok(_) => panic!("{what}: a zero diagonal block was accepted"),
            }
            assert!(
                t0.elapsed() < cfg.recv_timeout,
                "{what}: the vote waited for the deadlock tripwire"
            );
            // The ordinary build absorbs it (shifts or a ladder descent).
            let cold = SolverSession::build(&a2, donor.owner(), &cfg).expect("cold build");
            assert!(
                cold.pivot_shifts() > 0 || cold.build_fallbacks() > 0,
                "{what}"
            );
            assert_eq!(cold.pattern_age(), 0);
        }
    }
}

#[test]
fn refactor_refuses_other_patterns_and_dirty_donors() {
    let a = laplacian(12, 0.0, 1.0);
    let cfg = SessionConfig::paper(PrecondKind::Block2, 2);
    let donor = SolverSession::from_matrix(&a, &cfg).expect("build");
    // Another shape and another pattern of the same shape.
    for other in [laplacian(11, 0.0, 1.0), {
        let mut coo = Coo::new(144, 144);
        for (i, j, v) in a.iter() {
            coo.push(i, j, v);
        }
        coo.push(0, 143, 1e-6);
        coo.push(143, 0, 1e-6);
        coo.to_csr()
    }] {
        assert_eq!(
            SolverSession::refactor(&donor, &other).err(),
            Some(RefactorFallback::Pattern)
        );
    }
    // A donor whose build needed the safety net donates nothing.
    let holed = map_values(&a, |i, j, v| if (i, j) == (0, 0) { 0.0 } else { v });
    let dirty = SolverSession::from_matrix(&holed, &cfg).expect("safety net builds");
    assert!(dirty.pivot_shifts() > 0 || dirty.build_fallbacks() > 0);
    assert_eq!(
        SolverSession::refactor(&dirty, &jittered(&holed, 1, 0.01)).err(),
        Some(RefactorFallback::DonorDirty)
    );
}

#[test]
fn service_refactors_same_pattern_and_cold_builds_new_patterns() {
    let svc = service(8);
    let a = laplacian(20, 0.0, 1.0);
    let extra = r#","precond":"block2""#;

    let first = put_and_solve(&svc, "a", &a, extra);
    assert!(!first.cache_hit && !first.refactored && first.pattern_age == 0);
    assert_eq!(svc.refactor_stats(), (0, 0));

    // Identical values: the same fingerprint, a plain cache hit.
    let again = put_and_solve(&svc, "a-again", &a, extra);
    assert!(again.cache_hit && !again.refactored);
    assert_eq!(svc.refactor_stats(), (0, 0));

    // Same pattern, new values: refactored from the resident session. The
    // first solve still reports a miss; `build_ms` is the refactor time.
    let a1 = jittered(&a, 1, 0.01);
    let hot = put_and_solve(&svc, "a1", &a1, extra);
    assert!(!hot.cache_hit && hot.refactored && hot.pattern_age == 1);
    assert!(hot.converged && hot.true_relres <= 1e-5 && hot.build_ms > 0.0);
    assert!((hot.iterations[0] as i64 - first.iterations[0] as i64).abs() <= 2);
    assert_eq!(svc.refactor_stats(), (1, 0));
    let json = hot.to_json();
    assert!(
        json.contains(r#""refactored":true,"pattern_age":1"#),
        "{json}"
    );
    assert!(json.contains(r#""cache_hit":false"#), "{json}");

    // The refactored session is the next donor: the chain survives.
    let a2 = jittered(&a1, 2, 0.01);
    let hot2 = put_and_solve(&svc, "a2", &a2, extra);
    assert!(hot2.refactored && hot2.pattern_age == 2);
    // ... and a hit on it says how the session came to be.
    let (fp2, known) = svc.matrix_store().put(a2.clone());
    assert!(known);
    let hit2 = solve_fp(&svc, "a2-hit", fp2, extra);
    assert!(hit2.cache_hit && hit2.refactored && hit2.pattern_age == 2);
    assert_eq!(svc.refactor_stats(), (2, 0));

    // Another configuration of the same matrix is not a donor.
    let other_cfg = put_and_solve(&svc, "a3", &jittered(&a, 3, 0.01), r#","precond":"block1""#);
    assert!(!other_cfg.refactored);

    // One added coupling: a new pattern, the cold path, no rejection counted.
    let mut coo = Coo::new(a.n_rows(), a.n_cols());
    for (i, j, v) in a.iter() {
        coo.push(i, j, v);
    }
    coo.push(3, 250, -1e-6);
    coo.push(250, 3, -1e-6);
    let cold = put_and_solve(&svc, "a-newpat", &coo.to_csr(), extra);
    assert!(!cold.cache_hit && !cold.refactored && cold.pattern_age == 0);
    assert_eq!(svc.refactor_stats(), (2, 0));

    let stats = svc.stats_json();
    assert!(
        stats.contains(r#""refactors":2,"refactor_fallbacks":0"#),
        "{stats}"
    );
}

#[test]
fn an_evicted_session_is_never_a_donor() {
    let svc = service(1);
    let extra = r#","precond":"block2""#;
    let a = laplacian(14, 0.0, 1.0);
    put_and_solve(&svc, "a", &a, extra);
    // Another pattern takes the only cache slot.
    put_and_solve(&svc, "b", &laplacian(15, 0.0, 1.0), extra);
    assert_eq!(svc.cache_stats().evictions, 1);
    let r = put_and_solve(&svc, "a1", &jittered(&a, 1, 0.01), extra);
    assert!(!r.cache_hit && !r.refactored);
    assert_eq!(svc.refactor_stats(), (0, 0));
}

#[test]
fn a_dirty_donor_is_counted_and_bypassed() {
    let svc = service(4);
    let extra = r#","precond":"block1","maxit":40"#;
    let a = map_values(&laplacian(12, 0.0, 1.0), |i, j, v| {
        if (i, j) == (0, 0) {
            0.0
        } else {
            v
        }
    });
    let first = put_and_solve(&svc, "dirty", &a, extra);
    assert!(first.pivot_shifts > 0 || first.fallbacks > 0);
    let second = put_and_solve(&svc, "dirty1", &jittered(&a, 1, 0.01), extra);
    assert!(!second.cache_hit && !second.refactored && second.pattern_age == 0);
    assert_eq!(svc.refactor_stats(), (0, 1));
    let reason = parapre_metrics::names::refactor_fallback(RefactorFallback::DonorDirty.key());
    assert!(parapre_metrics::snapshot().counter(&reason) >= 1);
}

#[test]
fn an_unhealthy_refactorization_is_counted_and_built_cold() {
    let svc = service(4);
    let extra = r#","precond":"block2","maxit":40"#;
    let a = laplacian(12, 0.0, 1.0);
    put_and_solve(&svc, "a", &a, extra);
    // Same pattern, but the whole diagonal is zeroed: every rank's frozen
    // factors break down, the vote rejects, the ladder builds something.
    let holed = map_values(&a, |i, j, v| if i == j { 0.0 } else { v });
    let r = put_and_solve(&svc, "holed", &holed, extra);
    assert!(!r.refactored && r.pattern_age == 0);
    assert!(r.pivot_shifts > 0 || r.fallbacks > 0);
    assert_eq!(svc.refactor_stats(), (0, 1));
}

#[test]
fn concurrent_jobs_on_one_new_fingerprint_refactor_once() {
    let svc = service(4);
    let extra = r#","precond":"schur1""#;
    let a = laplacian(40, 0.0, 1.0);
    put_and_solve(&svc, "a", &a, extra);
    let (fp, _) = svc.matrix_store().put(jittered(&a, 1, 0.01));
    // Resolve the problem first, so that both jobs below reach the session
    // cache together instead of racing through assembly.
    let jobs: Vec<_> = (0..2)
        .map(|k| {
            let line =
                format!(r#"{{"id":"twin{k}","fp":"{fp:016x}","rhs":"rowsum","ranks":2{extra}}}"#);
            parse_job_line(&line, 0).expect("job parses")
        })
        .collect();
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|j| svc.submit_solve(j).expect("accepted"))
        .collect();
    let results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait()).collect();
    assert!(results.iter().all(|r| r.ok && r.refactored && r.converged));
    // One of them built (a refactorization), the other waited or hit.
    assert_eq!(results.iter().filter(|r| !r.cache_hit).count(), 1);
    assert_eq!(svc.refactor_stats(), (1, 0));
    let stats = svc.cache_stats();
    assert_eq!(stats.misses, 2, "one cold build, one refactorization");
    assert!(stats.waits <= 1);
}

/// The same at the cache, with the race removed: the second caller is
/// known to be parked behind the in-flight refactorization (`waits == 1`)
/// before the first one finishes it.
#[test]
fn single_flight_covers_refactorizations() {
    use parapre_engine::{SessionCache, SessionKey};
    use std::sync::Arc;
    let a = laplacian(12, 0.0, 1.0);
    let cfg = SessionConfig::paper(PrecondKind::Block2, 2);
    let donor = SolverSession::from_matrix(&a, &cfg).expect("build");
    let a1 = parapre_engine::session::partition_matrix(&jittered(&a, 1, 0.01), 2, 0).0;
    let cache = SessionCache::new(4);
    cache.insert(SessionKey::new(donor.fingerprint(), &cfg), Arc::new(donor));
    let key = SessionKey::new(a1.fingerprint(), &cfg);
    let (building_tx, building_rx) = std::sync::mpsc::channel();
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(|| {
            cache.get_or_build(key.clone(), || {
                building_tx.send(()).expect("test alive");
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while cache.stats().waits == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let donor = cache
                    .donor(&key.config, a1.pattern_fingerprint())
                    .expect("resident donor");
                SolverSession::refactor(&donor, &a1)
                    .map_err(|why| parapre_engine::EngineError::Setup(why.key().into()))
            })
        });
        building_rx.recv().expect("first caller is building");
        let second = scope.spawn(|| {
            cache.get_or_build(key.clone(), || {
                unreachable!("single-flight: one build per key")
            })
        });
        (
            first.join().expect("no panic").expect("refactored"),
            second.join().expect("no panic").expect("served"),
        )
    });
    assert!(!first.1, "the builder missed");
    assert!(second.1, "the waiter was served the finished session");
    assert!(Arc::ptr_eq(&first.0, &second.0));
    assert_eq!(first.0.pattern_age(), 1);
    let stats = cache.stats();
    assert_eq!((stats.waits, stats.misses, stats.hits), (1, 1, 1));
}

/// The frozen pattern of a nearly diagonal matrix is the diagonal; values
/// that turn the same pattern into a Laplacian make the refactored factors
/// a (healthy) Jacobi sweep that cannot converge in the iteration budget a
/// real ILUT needs. The first solve notices, the session is discarded, the
/// same rung is built cold once, and the job ends converged on that rung —
/// without the preconditioner ladder or the recovery policy firing.
#[test]
fn a_stale_pattern_is_rebuilt_cold_once_on_the_same_rung() {
    let svc = service(4);
    let extra = r#","precond":"block2","maxit":25"#;
    let nx = 40;
    let nearly_diagonal = laplacian(nx, 1000.0, 1e-3);
    let first = put_and_solve(&svc, "diag", &nearly_diagonal, extra);
    assert!(first.converged && !first.refactored);

    let (fp, _) = svc.matrix_store().put(laplacian(nx, 0.01, 1.0));
    let r = solve_fp(&svc, "stale", fp, extra);
    assert!(
        r.converged,
        "cold rebuild must converge: {:?}",
        r.iterations
    );
    assert!(!r.cache_hit && !r.refactored && r.pattern_age == 0);
    assert_eq!(r.precond_used.as_deref(), Some("block2"));
    assert_eq!(r.fallbacks, 0);
    assert_eq!(
        r.iterations.len(),
        1,
        "the discarded attempt is not a repeat"
    );
    // The refactorization happened, then was found stale — exactly once.
    assert_eq!(svc.refactor_stats(), (1, 1));
    let reason = parapre_metrics::names::refactor_fallback(RefactorFallback::Stale.key());
    assert!(parapre_metrics::snapshot().counter(&reason) >= 1);
    // The cold session replaced the stale one under the same key.
    let hit = solve_fp(&svc, "stale-hit", fp, extra);
    assert!(hit.cache_hit && !hit.refactored && hit.converged);
    assert_eq!(hit.iterations, r.iterations);
    assert_eq!(svc.refactor_stats(), (1, 1));
}

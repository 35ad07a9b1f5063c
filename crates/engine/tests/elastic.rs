//! Elastic-topology robustness: migrated sessions must key differently in
//! the cache (no stale-factor resurrection across P→P′→P round trips),
//! mid-migration rank kills must leave the old topology serving bitwise
//! identical answers, and migrated factors must be indistinguishable from
//! a cold rebuild on the same partition.

use parapre_core::{build_case_sized, CaseId, PrecondKind};
use parapre_engine::elastic::plan_migration;
use parapre_engine::{
    parse_job_line, ServiceConfig, SessionCache, SessionConfig, SessionKey, SolveRequest,
    SolveService, SolverSession,
};
use parapre_mpisim::{FaultConfig, FaultPlan};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const P: usize = 4;

/// A small TC1 session plus its right-hand side, partitioned by the
/// session's own scheme so `owner()` is the seed-derived map.
fn skewable_session() -> (SolverSession, Vec<f64>) {
    let case = build_case_sized(CaseId::Tc1, 8);
    let cfg = SessionConfig::paper(PrecondKind::Block1, P);
    let session = SolverSession::from_case(&case, &cfg).expect("session builds");
    (session, case.sys.b.clone())
}

/// A refined owner map: shifts a slice of rank 1's rows onto rank 0,
/// leaving every rank non-empty. Mirrors what online refinement does.
fn refined_owner(owner: &[u32]) -> Vec<u32> {
    let mut new_owner = owner.to_vec();
    let of_one: Vec<usize> = (0..owner.len()).filter(|&i| owner[i] == 1).collect();
    assert!(of_one.len() >= 4, "rank 1 too small to refine");
    for &i in &of_one[..of_one.len() / 2] {
        new_owner[i] = 0;
    }
    new_owner
}

#[test]
fn topology_round_trip_never_resurrects_stale_cache_entries() {
    let (session, b) = skewable_session();
    let a = session.matrix().clone();
    let original_owner = session.owner().to_vec();
    let x_original = session.solve(&b).expect("solve").x;

    // P → P′: refine, migrate, and key both generations.
    let new_owner = refined_owner(&original_owner);
    let plan = plan_migration(&a, &original_owner, P, &new_owner, P).expect("plan");
    let (migrated, rep) = session.migrate(&plan, None, None).expect("migration lands");
    assert!(rep.reused_ranks >= 1, "local refinement must reuse ranks");
    assert!(rep.moved_rows > 0);

    let key_old = SessionKey::new(session.fingerprint(), session.config());
    let key_new = SessionKey::new(migrated.fingerprint(), migrated.config());
    assert!(
        migrated.config().partition_tag.is_some(),
        "migrated sessions must carry a topology tag"
    );
    assert_ne!(
        key_old, key_new,
        "a migrated topology must never shadow the seed-derived entry"
    );

    // P′ → P: migrate back to the original map. The key must differ from
    // *both* earlier generations — the round-trip session has a bespoke
    // owner map (tagged), the original had a seed-derived one (untagged).
    let plan_back = plan_migration(&a, migrated.owner(), P, &original_owner, P).expect("plan back");
    let (back, _) = migrated
        .migrate(&plan_back, None, None)
        .expect("migration back lands");
    let key_back = SessionKey::new(back.fingerprint(), back.config());
    assert_ne!(key_back, key_new, "P′ and round-trip P key identically");
    assert_ne!(
        key_back, key_old,
        "tagged round-trip topology must not collide with the untagged original"
    );

    // Same matrix, same partition, same config ⇒ the round-trip session
    // must retrace the original answer bitwise.
    assert_eq!(back.owner(), &original_owner[..]);
    let x_back = back.solve(&b).expect("solve").x;
    assert_eq!(x_original, x_back, "round-trip answers drifted");

    // Cache swap protocol: after a rebalance replaces the entry, a lookup
    // under the *old* key must rebuild, never serve the retired factors.
    let cache = SessionCache::new(4);
    let builds = AtomicUsize::new(0);
    let (first, hit) = cache
        .get_or_build(key_old.clone(), || {
            builds.fetch_add(1, Ordering::SeqCst);
            let cfg = session.config().clone();
            SolverSession::build(&a, &original_owner, &cfg)
        })
        .expect("builds");
    assert!(!hit);
    assert_eq!(first.owner(), &original_owner[..]);
    cache.insert(key_new.clone(), Arc::new(migrated));
    assert!(cache.remove(&key_old), "old entry evicted by the swap");
    let (_, hit) = cache
        .get_or_build(key_old.clone(), || {
            builds.fetch_add(1, Ordering::SeqCst);
            let cfg = session.config().clone();
            SolverSession::build(&a, &original_owner, &cfg)
        })
        .expect("rebuilds");
    assert!(!hit, "stale topology resurrected from the cache");
    assert_eq!(builds.load(Ordering::SeqCst), 2);
}

#[test]
fn identity_plan_reuses_every_rank_and_is_bitwise_stable() {
    let (session, b) = skewable_session();
    let owner = session.owner().to_vec();
    let plan = plan_migration(session.matrix(), &owner, P, &owner, P).expect("plan");
    assert!(plan.is_identity());
    let (migrated, rep) = session
        .migrate(&plan, None, None)
        .expect("identity migration lands");
    assert_eq!(rep.reused_ranks, P, "identity plan must reuse every rank");
    assert_eq!(rep.rebuilt_ranks, 0);
    assert_eq!(rep.moved_rows, 0);
    let x_old = session.solve(&b).expect("solve").x;
    let x_new = migrated.solve(&b).expect("solve").x;
    assert_eq!(x_old, x_new, "identity migration changed answers");
}

#[test]
fn rank_kill_mid_migration_aborts_and_old_topology_keeps_serving() {
    let (session, b) = skewable_session();
    let owner = session.owner().to_vec();
    let new_owner = refined_owner(&owner);
    let plan = plan_migration(session.matrix(), &owner, P, &new_owner, P).expect("plan");

    let before = session.solve(&b).expect("solve").x;
    // Rank 1 dies at its very first send inside the migration universe
    // (the topology-digest vote): the whole migration must abort.
    let hook: Arc<dyn parapre_mpisim::FaultHook> =
        Arc::new(FaultPlan::new(FaultConfig::kill_once(1, 0)));
    let err = session.migrate(&plan, None, Some(Arc::clone(&hook)));
    assert!(err.is_err(), "a killed rank must abort the migration");

    // The old topology was never touched: it keeps serving the exact same
    // bits, and a same-seed rerun of the chaos aborts again.
    let after = session.solve(&b).expect("old topology serves").x;
    assert_eq!(before, after, "abort corrupted the serving session");
    let hook2: Arc<dyn parapre_mpisim::FaultHook> =
        Arc::new(FaultPlan::new(FaultConfig::kill_once(1, 0)));
    assert!(session.migrate(&plan, None, Some(hook2)).is_err());

    // And the same plan still lands once the fault is gone.
    let (migrated, _) = session
        .migrate(&plan, None, None)
        .expect("clean retry lands");
    assert_eq!(migrated.owner(), &new_owner[..]);
}

#[test]
fn migrated_factors_match_cold_rebuild_and_carry_warm_start() {
    let (session, b) = skewable_session();
    let owner = session.owner().to_vec();
    let new_owner = refined_owner(&owner);
    let plan = plan_migration(session.matrix(), &owner, P, &new_owner, P).expect("plan");

    let x_prev = session.solve(&b).expect("solve").x;
    let (migrated, rep) = session
        .migrate(&plan, Some(&x_prev), None)
        .expect("migration lands");
    assert_eq!(migrated.warm_start(), Some(&x_prev[..]));
    assert!(
        rep.probe_relerr <= 1e-10,
        "probe relerr {}",
        rep.probe_relerr
    );

    // Migration must be invisible numerically: the migrated session and a
    // cold rebuild on the same partition retrace each other bitwise.
    let cold =
        SolverSession::build(session.matrix(), &new_owner, session.config()).expect("cold rebuild");
    let zeros = vec![0.0; b.len()];
    let req = SolveRequest {
        x0: Some(&zeros),
        ..SolveRequest::new(&b)
    };
    let mig_rep = migrated.run(req.clone()).expect("solve").single();
    let cold_rep = cold.run(req).expect("solve").single();
    assert_eq!(mig_rep.iterations, cold_rep.iterations);
    assert_eq!(
        mig_rep.x, cold_rep.x,
        "migrated factors drifted from cold rebuild"
    );

    // The carried warm start (the previous solution) seeds guess-less
    // solves: convergence from it can only be faster than from zero.
    let warm = migrated.solve(&b).expect("warm solve");
    assert!(warm.converged);
    assert!(
        warm.iterations <= cold_rep.iterations,
        "warm start ({} it) slower than cold start ({} it)",
        warm.iterations,
        cold_rep.iterations
    );
}

#[test]
fn deadline_ms_parses_strictly_and_rides_the_job() {
    let job = parse_job_line(r#"{"case":"tc1","deadline_ms":250}"#, 0).expect("parses");
    assert_eq!(job.deadline_ms, Some(250));
    let job = parse_job_line(r#"{"case":"tc1"}"#, 0).expect("parses");
    assert_eq!(job.deadline_ms, None);
    for bad in [
        r#"{"case":"tc1","deadline_ms":0}"#,
        r#"{"case":"tc1","deadline_ms":-5}"#,
        r#"{"case":"tc1","deadline_ms":"soon"}"#,
        r#"{"case":"tc1","deadline_ms":null}"#,
    ] {
        let err = parse_job_line(bad, 0).unwrap_err().to_string();
        assert!(err.contains("deadline_ms"), "line {bad}: {err}");
    }
}

#[test]
fn queued_past_deadline_jobs_reject_with_structured_timeout() {
    // One worker, so the deadline job sits in the queue behind a slow
    // multi-repeat job and expires before a worker ever picks it up.
    let service = SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 4,
        cache_capacity: 2,
    })
    .expect("valid config");
    let slow = parse_job_line(r#"{"id":"slow","case":"tc1","ranks":2,"repeat":5}"#, 0).unwrap();
    let doomed = parse_job_line(
        r#"{"id":"doomed","case":"tc1","ranks":2,"deadline_ms":1}"#,
        0,
    )
    .unwrap();
    let t_slow = service.submit_solve(slow).expect("queued");
    let t_doomed = service.submit_solve(doomed).expect("queued");

    let slow_result = t_slow.wait();
    assert!(slow_result.ok, "undeadlined job must land: {slow_result:?}");
    let doomed_result = t_doomed.wait();
    assert!(!doomed_result.ok, "expired job must not run");
    assert_eq!(doomed_result.error_kind.as_deref(), Some("timeout"));
    let msg = doomed_result.error.as_deref().unwrap_or("");
    assert!(msg.contains("deadline exceeded"), "got {msg:?}");

    // The structured kind survives the wire format.
    let line = doomed_result.to_json();
    let fields = parapre_metrics::flatjson::parse_flat_object(&line).expect("result parses");
    assert_eq!(
        fields.get("error_kind").and_then(|v| v.as_str()),
        Some("timeout"),
        "line {line}"
    );
    service.shutdown();
}

//! End-to-end numerical-safety tests: hostile systems through
//! `SolverSession`, its ladder descent, and the JSONL job layer.

use parapre_core::cases::{block_owner, hostile};
use parapre_core::PrecondKind;
use parapre_engine::{parse_job_line, JobResult, SessionConfig, SolverSession};
use parapre_sparse::Coo;

/// A session builds on a matrix plain ILU(0) cannot factor, reports its
/// diagnostics, and solves without a panic or a non-finite answer.
#[test]
fn session_builds_and_solves_hostile_system() {
    let n = 64;
    let a = hostile(n, 7);
    let owner = block_owner(n, 4);
    let mut cfg = SessionConfig::paper(PrecondKind::Block1, 4);
    cfg.gmres.max_iters = 120;
    let session = SolverSession::build(&a, &owner, &cfg).expect("safety net absorbs bad pivots");
    assert!(
        session.pivot_shifts() > 0 || session.build_fallbacks() > 0,
        "hostile diagonal must be visible in the build diagnostics"
    );
    let b = vec![1.0; n];
    let rep = session.solve(&b).expect("solve completes");
    if rep.converged {
        assert!(rep.x.iter().all(|v| v.is_finite()));
        assert!(rep.true_relres.is_finite());
    } else {
        assert!(rep.breakdown.is_some() || rep.x.iter().all(|v| v.is_finite()));
    }
}

/// `solve_with_fallback` carries the numerical diagnostics in its outcome.
#[test]
fn resilient_outcome_reports_numerical_recovery() {
    let n = 64;
    let a = hostile(n, 11);
    let owner = block_owner(n, 2);
    let mut cfg = SessionConfig::paper(PrecondKind::Block1, 2);
    cfg.gmres.max_iters = 120;
    let session = SolverSession::build(&a, &owner, &cfg).expect("build");
    let b = vec![1.0; n];
    let (rep, out) = session
        .solve_with_fallback(&b, None)
        .expect("ladder bottom is infallible");
    assert!(
        out.pivot_shifts > 0 || out.fallbacks > 0 || rep.converged,
        "either the solve was clean or the outcome says what it cost"
    );
    if !rep.converged {
        assert!(rep.breakdown.is_some() || rep.x.iter().all(|v| v.is_finite()));
    }
}

/// `Descent::fallbacks` is the ladder distance from the requested kind
/// to the kind that answered — build-time rungs of *every* session the
/// descent went through, not only the last one's.
#[test]
fn resilient_fallbacks_count_the_first_sessions_build_rungs() {
    let n = 64;
    let mut coo = Coo::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i + 1, -1.0);
        coo.push(i + 1, i, 1.0);
    }
    for i in 0..n {
        coo.push(i, i, if i % 2 == 0 { 0.0 } else { 1e-14 });
    }
    let a = coo.to_csr();
    let requested = PrecondKind::schurml_default();
    let cfg = SessionConfig::paper(requested, 8);
    let session = SolverSession::build(&a, &block_owner(n, 8), &cfg).expect("ladder builds");
    assert_eq!(
        session.build_fallbacks(),
        1,
        "the case needs a build that already left the requested rung"
    );
    let b = vec![1.0; n];
    let (_, out) = session
        .solve_with_fallback(&b, None)
        .expect("ladder bottom is infallible");
    assert!(
        out.fallbacks > session.build_fallbacks(),
        "the case needs a solve-time descent too"
    );
    // Built at Schur 2, then Schur 2 → Schur 1 → Block 2 → Block 1 at solve
    // time: Block 1 answers.
    let distance = std::iter::successors(Some(requested), |k| k.fallback())
        .position(|k| k == PrecondKind::Block1)
        .expect("Block 1 is on the ladder");
    assert_eq!(out.fallbacks, distance);
}

/// The clean path stays free: a well-posed Poisson session reports zero
/// shifts, zero fallbacks, and its configured preconditioner.
#[test]
fn clean_session_has_zero_safety_cost() {
    use parapre_core::{build_case, CaseId, CaseSize};
    let case = build_case(CaseId::Tc1, CaseSize::Tiny);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, 4);
    let session = SolverSession::from_case(&case, &cfg).expect("clean build");
    assert_eq!(session.active_precond(), PrecondKind::Schur1);
    assert_eq!(session.build_fallbacks(), 0);
    assert_eq!(session.pivot_shifts(), 0);
    let rep = session.solve(&case.sys.b).expect("solve");
    assert!(rep.converged);
    assert!(rep.breakdown.is_none());
}

/// JSONL validation: unknown preconditioners and malformed lines are
/// structured `BadJob` errors, and the `fallback` key arms and disarms the
/// solve-time rung descent.
#[test]
fn job_lines_are_validated() {
    assert!(parse_job_line(r#"{"case":"tc1","precond":"nonsense"}"#, 0).is_err());
    assert!(parse_job_line(r#"{"case":"tc1","ranks":0}"#, 0).is_err());
    assert!(parse_job_line("not json at all", 0).is_err());
    let job = parse_job_line(r#"{"case":"tc1","fallback":false}"#, 0).expect("valid");
    assert!(!job.fallback);
    let job = parse_job_line(r#"{"case":"tc1"}"#, 1).expect("valid");
    assert!(job.fallback, "safety net defaults on");
}

/// A right-hand side containing NaN is rejected up front with a structured
/// `BadJob` error instead of poisoning the solve.
#[test]
fn non_finite_rhs_is_rejected() {
    use parapre_core::{build_case, CaseId, CaseSize};
    use parapre_engine::resolve_problem;
    let n = build_case(CaseId::Tc1, CaseSize::Tiny).sys.b.len();
    let dir = std::env::temp_dir();
    let path = dir.join("parapre_robustness_nan_rhs.txt");
    let mut body = String::new();
    for i in 0..n {
        body.push_str(if i == 3 { "nan\n" } else { "1.0\n" });
    }
    std::fs::write(&path, &body).expect("write temp rhs");
    let line = format!(r#"{{"case":"tc1","rhs":"{}"}}"#, path.display());
    let job = parse_job_line(&line, 0).expect("job parses");
    let err = match resolve_problem(&job) {
        Err(e) => e,
        Ok(_) => panic!("rhs must be rejected"),
    };
    assert!(
        err.to_string().contains("not finite"),
        "unexpected rejection: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Result lines carry the new diagnostics keys exactly when they are
/// meaningful.
#[test]
fn result_json_carries_safety_keys() {
    let mut r = JobResult::failed("j", "boom");
    r.ok = true;
    r.error = None;
    let json = r.to_json();
    assert!(!json.contains("pivot_shifts"));
    assert!(!json.contains("fallbacks"));
    assert!(!json.contains("breakdown_kind"));
    r.pivot_shifts = 3;
    r.fallbacks = 1;
    r.breakdown_kind = Some("stagnation".into());
    let json = r.to_json();
    assert!(json.contains("\"pivot_shifts\":3"));
    assert!(json.contains("\"fallbacks\":1"));
    assert!(json.contains("\"breakdown_kind\":\"stagnation\""));
}

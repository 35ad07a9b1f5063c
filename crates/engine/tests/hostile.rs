//! Hostile-input behavior of the job parser, LRU ordering of the session
//! cache under capacity pressure, and batched-solve correctness against
//! sequential solves. Every malformed line must come back as a structured
//! `Err`, never a panic.

use parapre_core::{build_case_sized, CaseId, PrecondKind};
use parapre_engine::{
    batch_rhs, parse_job_line, resolve_problem, ServiceConfig, SessionCache, SessionConfig,
    SessionKey, SolveRequest, SolveService, SolverSession, JOB_KEYS, MAX_JOB_LINE_BYTES,
};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn hostile_job_lines_reject_without_panic() {
    // A control frame is not a job: no problem key, structured rejection.
    let err = parse_job_line(r#"{"cmd":"frobnicate"}"#, 0).unwrap_err();
    assert!(err.to_string().contains("case"), "got {err}");

    // Mutually exclusive problem keys.
    assert!(parse_job_line(r#"{"case":"tc1","fp":"00ff"}"#, 0).is_err());
    assert!(parse_job_line(r#"{"mtx":"a.mtx","fp":"00ff"}"#, 0).is_err());

    // Unparseable fingerprints.
    assert!(parse_job_line(r#"{"fp":"xyzzy"}"#, 0).is_err());
    assert!(parse_job_line(r#"{"fp":""}"#, 0).is_err());

    // A job line cannot ask for fault injection: `kill_rank` is no key.
    assert!(parse_job_line(r#"{"case":"tc1","batch":4,"kill_rank":1}"#, 0).is_err());

    // A restart length the solver would have to allocate a basis for.
    for restart in ["0", "1001", "4000000000"] {
        let line = format!(r#"{{"case":"tc1","restart":{restart}}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        assert!(err.contains("restart"), "got {err}");
    }
    let job = parse_job_line(r#"{"case":"tc1","restart":1000}"#, 0).expect("parses");
    assert_eq!(job.session.gmres.restart, 1000);

    // A rank count whose `P x P` channel matrix the launch would allocate.
    for ranks in ["0", "129", "5000"] {
        let line = format!(r#"{{"case":"tc1","n":3,"ranks":{ranks}}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        assert!(err.contains("ranks"), "got {err}");
    }
    let job = parse_job_line(r#"{"case":"tc1","ranks":128}"#, 0).expect("parses");
    assert_eq!(job.session.n_ranks, 128);

    // A grid extent outside what the case's generator can mesh (TC3 needs
    // 32 nodes for its hole) or above its paper-scale preset.
    for (case, n) in [
        ("tc1", 0),
        ("tc5", 1),
        ("tc3", 31),
        ("tc1", 1002),
        ("tc3", 521_186),
    ] {
        let line = format!(r#"{{"case":"{case}","n":{n}}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        assert!(
            err.contains("n must be in") && err.contains(case),
            "got {err}"
        );
    }
    for (case, n) in [("tc1", 2), ("tc3", 32), ("tc6", 241)] {
        let line = format!(r#"{{"case":"{case}","n":{n}}}"#);
        assert!(parse_job_line(&line, 0).is_ok(), "rejected {line}");
    }

    // More right-hand sides than the service will materialize for one job.
    let err = parse_job_line(r#"{"case":"tc1","batch":65}"#, 0).unwrap_err();
    assert!(err.to_string().contains("batch"), "got {err}");
    assert_eq!(
        parse_job_line(r#"{"case":"tc1","batch":64}"#, 0)
            .unwrap()
            .batch,
        64
    );

    // Box partitioning of the one unstructured case: the line is well
    // formed, resolving it is the rejection (it used to be a panic).
    let job = parse_job_line(r#"{"case":"tc3","size":"tiny","scheme":"boxes"}"#, 0).unwrap();
    let err = resolve_problem(&job).err().expect("rejected").to_string();
    assert!(err.contains("tc3") && err.contains("boxes"), "got {err}");

    // Structural garbage: truncated objects, bare values, empty input.
    for line in ["{", "{\"case\":", "", "42", "[1,2,3]", "{\"case\":\"tc1\""] {
        assert!(parse_job_line(line, 0).is_err(), "accepted {line:?}");
    }
}

#[test]
fn files_that_are_not_regular_are_rejected_naming_the_path() {
    // Reading `/dev/zero` to its end once grew one line until the process
    // aborted; a FIFO would block a pool worker forever. Both are refused
    // before they are opened, as is a directory.
    let dir = std::env::temp_dir().display().to_string();
    let mut paths = vec![dir];
    if std::path::Path::new("/dev/zero").exists() {
        paths.push("/dev/zero".into());
    }
    let service = SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 4,
        cache_capacity: 2,
    })
    .expect("valid config");
    let (fp, _) = service
        .matrix_store()
        .put(build_case_sized(CaseId::Tc1, 4).sys.a);
    for path in &paths {
        let named = format!("{path} is not a regular file");
        for line in [
            format!(r#"{{"mtx":"{path}","ranks":2}}"#),
            format!(r#"{{"case":"tc1","n":4,"rhs":"{path}","ranks":2}}"#),
            format!(r#"{{"fp":"{fp:016x}","rhs":"{path}","ranks":2}}"#),
        ] {
            let job = parse_job_line(&line, 0).expect("well-formed line");
            if !line.contains("\"fp\"") {
                let err = resolve_problem(&job).err().expect("rejected").to_string();
                assert!(err.contains(&named), "{line}: {err}");
            }
            let result = service.submit_solve(job).expect("queued").wait();
            assert!(!result.ok, "{line}");
            assert_eq!(result.error_kind.as_deref(), Some("rejected"), "{line}");
            let err = result.error.unwrap_or_default();
            assert!(err.contains(&named), "{line}: {err}");
        }
    }
    service.shutdown();
}

#[test]
fn unknown_precond_rejection_names_the_valid_set() {
    // An unrecognized rung must come back as a structured rejection that
    // echoes the offender and lists every accepted name, so a client can
    // fix the job without reading the source. `auto` (the deleted
    // autotuner's rung) is one more unknown name.
    // `blockoverlap` was an undocumented second spelling of `overlap`.
    for bad in [
        "schur3",
        "ILU",
        "schurml2",
        "block",
        "auto",
        "AUTO",
        "blockoverlap",
    ] {
        let line = format!(r#"{{"case":"tc1","precond":"{bad}"}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        assert!(err.contains(&format!("{bad:?}")), "missing offender: {err}");
        for valid in [
            "block1", "block2", "schur1", "schur2", "schurml", "overlap", "jacobi",
        ] {
            assert!(err.contains(valid), "valid set missing {valid}: {err}");
        }
    }
    // So do the other enum keys.
    for (line, message) in [
        (
            r#"{"case":"tc9"}"#,
            r#"unknown case "tc9"; valid: tc1, tc2, tc3, tc4, tc5, tc6"#,
        ),
        (
            r#"{"case":"tc1","size":"huge"}"#,
            r#"unknown size "huge"; valid: tiny, default, full"#,
        ),
        (
            r#"{"case":"tc1","scheme":"metis"}"#,
            r#"unknown scheme "metis"; valid: general, boxes, rcb"#,
        ),
    ] {
        let err = parse_job_line(line, 0).unwrap_err().to_string();
        assert_eq!(err, format!("bad job: {message}"), "{line}");
    }
}

#[test]
fn schurml_jobs_honour_levels_and_rank_keys() {
    // Bare "schurml" takes the documented defaults…
    let job = parse_job_line(r#"{"case":"tc1","precond":"schurml"}"#, 0).expect("parses");
    assert_eq!(job.session.precond, PrecondKind::schurml_default());

    // …and explicit knobs override them.
    let job = parse_job_line(
        r#"{"case":"tc1","precond":"schurml","levels":3,"rank":4}"#,
        0,
    )
    .expect("parses");
    assert_eq!(
        job.session.precond,
        PrecondKind::SchurML { levels: 3, rank: 4 }
    );

    // The knobs are inert on other rungs.
    let job = parse_job_line(
        r#"{"case":"tc1","precond":"schur2","levels":3,"rank":4}"#,
        0,
    )
    .expect("parses");
    assert_eq!(job.session.precond, PrecondKind::Schur2);
}

#[test]
fn duplicate_keys_resolve_deterministically() {
    // The flat parser is last-wins on duplicates; a client repeating a key
    // gets a deterministic job, not a panic or an ambiguous one.
    let job = parse_job_line(r#"{"case":"tc1","ranks":2,"ranks":3}"#, 0).expect("parses");
    assert_eq!(job.session.n_ranks, 3);
    let job = parse_job_line(r#"{"id":"a","id":"b","case":"tc1"}"#, 0).expect("parses");
    assert_eq!(job.id, "b");
}

#[test]
fn oversized_lines_reject_before_parsing() {
    let huge = format!(
        r#"{{"case":"tc1","id":"{}"}}"#,
        "x".repeat(MAX_JOB_LINE_BYTES)
    );
    let err = parse_job_line(&huge, 0).unwrap_err();
    assert!(err.to_string().contains("byte limit"), "got {err}");

    // At the limit exactly the guard stays out of the way.
    let body = r#"{"case":"tc1","id":"PAD"}"#;
    let at_limit = body.replace("PAD", &"y".repeat(MAX_JOB_LINE_BYTES - body.len() + 3));
    assert_eq!(at_limit.len(), MAX_JOB_LINE_BYTES);
    assert!(parse_job_line(&at_limit, 0).is_ok());
}

#[test]
fn non_utf8_and_control_bytes_never_panic() {
    // The wire layer lossy-decodes raw bytes before parsing, so the parser
    // sees replacement characters and stray control bytes. Either outcome
    // (structured error or a parsed job) is fine; a panic is not.
    let lossy = String::from_utf8_lossy(b"{\"id\":\"\xff\xfe\",\"case\":\"tc1\"}").into_owned();
    let _ = parse_job_line(&lossy, 0);
    let _ = parse_job_line("{\"id\":\"\u{fffd}\u{1}\",\"case\":\"tc1\"}", 0);
    let _ = parse_job_line("{\"\u{0}\":1,\"case\":\"tc1\"}", 0);

    // A value of the wrong kind is a rejection naming the key; it used to
    // run the job with the key's default (`"ranks":"two"` ran 4 ranks).
    let err = parse_job_line(r#"{"case":"tc1","ranks":"two"}"#, 0).unwrap_err();
    assert!(err.to_string().contains("ranks"), "got {err}");

    // Each of these once ran a job other than the one sent (the default, a
    // truncation, `job-0` for the id), except `n`, whose rejection echoed
    // the saturated `u64` instead of the value sent.
    let preconds = "block1, block2, schur1, schur2, schurml, overlap, jacobi";
    for (key, value, message) in [
        (
            "ranks",
            r#""two""#,
            r#"ranks must be an integer in 1..=128, got "two""#,
        ),
        ("ranks", "-3", "ranks must be in 1..=128, got -3"),
        (
            "ranks",
            "null",
            "ranks must be an integer in 1..=128, got null",
        ),
        (
            "ranks",
            "2.5",
            "ranks must be an integer in 1..=128, got 2.5",
        ),
        (
            "seed",
            "1.9",
            "seed must be an integer in 0..=u64::MAX, got 1.9",
        ),
        (
            "maxit",
            "10000.9",
            "maxit must be an integer in 0..=10000, got 10000.9",
        ),
        (
            "precond",
            "7",
            &format!("precond must be one of {preconds}, got 7"),
        ),
        (
            "fallback",
            r#""yes""#,
            r#"fallback must be true or false, got "yes""#,
        ),
        ("id", "5", "id must be a string, got 5"),
        (
            "tol",
            r#""1e-8""#,
            r#"tol must be a number in (0, 1), got "1e-8""#,
        ),
        ("n", "1e30", "n must be in 0..=u64::MAX, got 1e30"),
        (
            "seed",
            "18446744073709551616",
            "seed must be in 0..=u64::MAX, got 18446744073709552000",
        ),
    ] {
        let line = format!(r#"{{"case":"tc1","{key}":{value}}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        assert_eq!(err, format!("bad job: {message}"), "{line}");
    }
}

#[test]
fn bounded_keys_reject_just_past_their_range_naming_key_range_and_value() {
    // One row per bound: the key, a value just inside its range, and a
    // value just outside it.
    let rows: [(&str, &str, &str, &str); 8] = [
        ("tol", "0.999", "1", "(0, 1)"),
        ("tol", "1e-300", "0", "(0, 1)"),
        ("tol", "1e-6", "-1", "(0, 1)"),
        ("tol", "0.5", "1e300", "(0, 1)"),
        ("levels", "8", "9", "0..=8"),
        ("rank", "16", "17", "0..=16"),
        ("repeat", "64", "65", "0..=64"),
        ("maxit", "10000", "10001", "0..=10000"),
    ];
    for (key, inside, outside, range) in rows {
        let line = |v: &str| format!(r#"{{"case":"tc1","ranks":2,"{key}":{v}}}"#);
        parse_job_line(&line(inside), 0)
            .unwrap_or_else(|e| panic!("{key}: {inside} rejected: {e}"));
        let err = parse_job_line(&line(outside), 0).unwrap_err().to_string();
        let named = format!("{key} must be in {range}, got ");
        assert!(err.contains(&named), "{key}: {outside}: {err}");
    }
}

#[test]
fn unknown_keys_are_rejected_naming_the_nearest_valid_key() {
    // A misspelled key used to be ignored: `precnd` ran the default rung.
    for (key, nearest) in [
        ("precnd", "precond"),
        ("maxiter", "maxit"),
        ("dealine_ms", "deadline_ms"),
        ("Ranks", "ranks"),
    ] {
        let line = format!(r#"{{"case":"tc1","{key}":"schur2"}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        let named = format!("unknown key {key:?}; nearest valid key: {nearest:?}");
        assert!(err.contains(&named), "{key}: {err}");
    }
    // Every other rejection comes first, so its message is what it was.
    let err = parse_job_line(r#"{"case":"tc1","precnd":"x","repeat":65}"#, 0)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("repeat must be in 0..=64, got 65"),
        "got {err}"
    );
    // Every listed key is accepted.
    for key in JOB_KEYS.iter().map(|spec| spec.name) {
        let line = format!(r#"{{"case":"tc1","{key}":null}}"#);
        if let Err(e) = parse_job_line(&line, 0) {
            assert!(!e.to_string().contains("unknown key"), "{key}: {e}");
        }
    }
}

#[test]
fn the_recovery_keys_are_unknown_and_name_a_key_of_the_table() {
    // Process-level recovery and fault injection left the table; a line
    // that still asks for them is rejected, never run without them.
    for key in [
        "retries",
        "backoff_ms",
        "degrade",
        "checkpoint",
        "drop_prob",
        "delay_prob",
        "delay_us",
        "kill_rank",
        "fault_seed",
        "kill_op",
    ] {
        assert!(JOB_KEYS.iter().all(|spec| spec.name != key), "{key}");
        let line = format!(r#"{{"case":"tc1","ranks":2,"{key}":1}}"#);
        let err = parse_job_line(&line, 0).unwrap_err().to_string();
        let prefix = format!("bad job: unknown key {key:?}; nearest valid key: ");
        let nearest = err
            .strip_prefix(&prefix)
            .unwrap_or_else(|| panic!("{key}: {err}"));
        let nearest = nearest.trim_matches('"');
        assert!(
            JOB_KEYS.iter().any(|spec| spec.name == nearest),
            "{key}: {nearest}"
        );
    }
}

#[test]
fn cache_evicts_least_recently_used_under_pressure() {
    let case = build_case_sized(CaseId::Tc1, 4);
    let cfg = SessionConfig::paper(PrecondKind::Block1, 2);
    let builds = AtomicUsize::new(0);
    let build = || {
        builds.fetch_add(1, Ordering::SeqCst);
        SolverSession::from_case(&case, &cfg)
    };
    let key = |fp: u64| SessionKey::new(fp, &cfg);

    let cache = SessionCache::new(2);
    // Fill: A then B, then touch A so B is the least recently used.
    assert!(!cache.get_or_build(key(0xa), build).expect("build a").1);
    assert!(!cache.get_or_build(key(0xb), build).expect("build b").1);
    assert!(cache.get_or_build(key(0xa), build).expect("touch a").1);

    // C overflows the capacity: B (not A) must be the one evicted.
    assert!(!cache.get_or_build(key(0xc), build).expect("build c").1);
    assert_eq!(cache.stats().evictions, 1);
    assert!(
        cache.get_or_build(key(0xa), build).expect("a again").1,
        "A was touched after B and must have survived the eviction"
    );
    assert!(
        !cache.get_or_build(key(0xb), build).expect("b again").1,
        "B was the LRU entry and must have been evicted"
    );

    // Rebuilding B overflowed again; the LRU victim this time is C.
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.len),
        (2, 4, 2, 2)
    );
    assert_eq!(builds.load(Ordering::SeqCst) as u64, stats.misses);
    assert!(cache.get_or_build(key(0xa), build).expect("a resident").1);
    assert!(cache.get_or_build(key(0xb), build).expect("b resident").1);
    assert!(!cache.get_or_build(key(0xc), build).expect("c evicted").1);
}

#[test]
fn batch_solve_matches_sequential_solves() {
    let case = build_case_sized(CaseId::Tc1, 8);
    let cfg = SessionConfig::paper(PrecondKind::Schur1, 2);
    let session = SolverSession::from_case(&case, &cfg).expect("session builds");
    let rhss = batch_rhs(&case.sys.b, 4);

    let sequential: Vec<_> = rhss
        .iter()
        .map(|b| session.solve(b).expect("sequential solve"))
        .collect();
    let batch = session
        .run(SolveRequest::batch(&rhss))
        .expect("batch solve");
    assert_eq!(batch.reports.len(), rhss.len());

    // Cold-started batch solves are the sequential solves bit for bit: one
    // code path, same factors, same zero guess, same arithmetic order.
    for (j, (seq, bat)) in sequential.iter().zip(&batch.reports).enumerate() {
        assert!(seq.converged && bat.converged, "rhs {j} must converge");
        assert_eq!(seq.iterations, bat.iterations, "rhs {j} iteration drift");
        assert_eq!(seq.x, bat.x, "rhs {j}: batch solution bits differ");
        assert_eq!(
            seq.final_relres.to_bits(),
            bat.final_relres.to_bits(),
            "rhs {j}: sequential relres {} vs batch {}",
            seq.final_relres,
            bat.final_relres
        );
        assert!(
            bat.true_relres < 1e-4,
            "rhs {j} true relres {}",
            bat.true_relres
        );
    }
}

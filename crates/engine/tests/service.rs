//! Scheduler behavior: bounded concurrency, deterministic backpressure,
//! panic containment, and cache reuse across jobs.

use parapre_core::PrecondKind;
use parapre_engine::{parse_job_line, Job, JobResult, ServiceConfig, SolveService, SubmitError};
use parapre_metrics::names;
use parapre_sparse::Coo;
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};

fn blocking_job(
    id: &str,
) -> (
    Job,
    std::sync::mpsc::Receiver<()>,
    std::sync::mpsc::Sender<()>,
) {
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let job = Job::Custom {
        id: id.to_string(),
        run: Box::new(move || {
            started_tx.send(()).expect("test alive");
            // Hold the worker slot until the test releases it.
            let _ = release_rx.recv();
            Ok(())
        }),
    };
    (job, started_rx, release_tx)
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let service = SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 1,
        cache_capacity: 1,
    })
    .expect("valid config");

    // Occupy the single worker, deterministically.
    let (job1, started, release) = blocking_job("blocker");
    let t1 = service.submit(job1).expect("first job accepted");
    started.recv().expect("blocker is running");

    // Worker busy, queue empty: second job queues.
    let (job2, _started2, release2) = blocking_job("queued");
    let t2 = service.submit(job2).expect("second job queues");

    // Queue full: third job must be rejected, not buffered.
    let (job3, _s3, _r3) = blocking_job("rejected");
    match service.submit(job3) {
        Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected QueueFull, got {:?}", other.map(|t| t.id).err()),
    }

    release.send(()).expect("release blocker");
    release2.send(()).expect("release queued job");
    assert!(t1.wait().ok);
    assert!(t2.wait().ok);

    // With the pool drained, submissions are accepted again.
    let (job4, started4, release4) = blocking_job("after");
    let t4 = service.submit(job4).expect("accepted after drain");
    started4.recv().expect("runs");
    release4.send(()).expect("release");
    assert!(t4.wait().ok);
}

#[test]
fn pool_runs_jobs_concurrently_and_bounded() {
    let pool = 4;
    let service = SolveService::start(ServiceConfig {
        pool_size: pool,
        queue_capacity: 16,
        cache_capacity: 1,
    })
    .expect("valid config");
    // All `pool` jobs rendezvous at one barrier: passing it proves they ran
    // simultaneously, so peak concurrency is exactly the pool size.
    let barrier = Arc::new(Barrier::new(pool));
    let tickets: Vec<_> = (0..pool)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            service
                .submit(Job::Custom {
                    id: format!("sync-{i}"),
                    run: Box::new(move || {
                        barrier.wait();
                        Ok(())
                    }),
                })
                .expect("submit")
        })
        .collect();
    for t in tickets {
        assert!(t.wait().ok);
    }
    assert_eq!(service.peak_concurrency(), pool);

    // Twice as many jobs as workers never exceed the pool bound.
    let tickets: Vec<_> = (0..2 * pool)
        .map(|i| {
            service
                .submit(Job::Custom {
                    id: format!("burst-{i}"),
                    run: Box::new(|| Ok(())),
                })
                .expect("submit")
        })
        .collect();
    for t in tickets {
        assert!(t.wait().ok);
    }
    assert!(service.peak_concurrency() <= pool);
}

#[test]
fn panicking_job_fails_without_poisoning_the_worker() {
    let service = SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 4,
        cache_capacity: 1,
    })
    .expect("valid config");
    let bad = service
        .submit(Job::Custom {
            id: "bad".into(),
            run: Box::new(|| panic!("intentional test panic")),
        })
        .expect("submit");
    let result = bad.wait();
    assert!(!result.ok);
    assert!(
        result
            .error
            .as_deref()
            .unwrap_or("")
            .contains("intentional"),
        "panic message surfaces in the result: {:?}",
        result.error
    );

    // The same (sole) worker keeps serving.
    let good = service
        .submit(Job::Custom {
            id: "good".into(),
            run: Box::new(|| Ok(())),
        })
        .expect("submit");
    assert!(good.wait().ok);
}

#[test]
fn failing_solve_job_reports_instead_of_crashing() {
    let service = SolveService::start(ServiceConfig::default()).expect("valid config");
    let job = parse_job_line(r#"{"id":"ghost","mtx":"/nonexistent/a.mtx","ranks":2}"#, 0)
        .expect("parses");
    let result = service.submit_solve(job).expect("submit").wait();
    assert!(!result.ok);
    assert!(result.error.is_some());
}

#[test]
fn concurrent_solve_jobs_converge_and_share_the_cache() {
    let service = SolveService::start(ServiceConfig {
        pool_size: 4,
        queue_capacity: 16,
        cache_capacity: 4,
    })
    .expect("valid config");
    // Four identical jobs in flight at once: single-flight building means
    // exactly one factorization; everyone else hits.
    let line = r#"{"id":"j","case":"tc1","size":"tiny","precond":"schur1","ranks":2}"#;
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            let mut job = parse_job_line(line, i).expect("parses");
            job.id = format!("j{i}");
            service.submit_solve(job).expect("submit")
        })
        .collect();
    for t in tickets {
        let r = t.wait();
        assert!(r.ok, "{:?}", r.error);
        assert!(r.converged, "job {} did not converge", r.id);
        assert!(r.true_relres <= 1e-5);
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "single-flight: one build for four jobs");
    assert_eq!(stats.hits, 3);
    assert!(service.peak_concurrency() <= 4);

    // A repeat-solve job on the warm cache: hit, zero setup attributed.
    let mut job = parse_job_line(line, 9).expect("parses");
    job.repeat = 3;
    let r = service.submit_solve(job).expect("submit").wait();
    assert!(r.ok && r.converged && r.cache_hit);
    assert_eq!(r.iterations.len(), 3);
    assert_eq!(r.setup_seconds, 0.0);
    assert_eq!(
        r.iterations[0], r.iterations[2],
        "repeats against cached factors are deterministic"
    );
}

#[test]
fn shutdown_drains_queued_jobs() {
    let service = SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 8,
        cache_capacity: 1,
    })
    .expect("valid config");
    let tickets: Vec<_> = (0..5)
        .map(|i| {
            service
                .submit(Job::Custom {
                    id: format!("drain-{i}"),
                    run: Box::new(|| Ok(())),
                })
                .expect("submit")
        })
        .collect();
    service.shutdown();
    for t in tickets {
        assert!(t.wait().ok, "queued jobs complete before shutdown");
    }
}

#[test]
fn wait_timeout_returns_ticket_while_running_and_result_after() {
    use std::time::Duration;
    let service = SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 4,
        cache_capacity: 1,
    })
    .expect("valid config");
    let (job, started, release) = blocking_job("slow");
    let ticket = service.submit(job).expect("accepted");
    started.recv().expect("job running");

    // Still running: the timeout elapses and the ticket comes back alive.
    let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
        Err(t) => t,
        Ok(r) => panic!("job should still be running, got result ok={}", r.ok),
    };
    assert_eq!(ticket.id, "slow");

    // Released: the same ticket now redeems normally.
    release.send(()).expect("release");
    let result = ticket
        .wait_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("finishes well within the timeout"));
    assert!(result.ok);
    assert_eq!(result.id, "slow");
}

/// A batch job reports its session's build diagnostics exactly as a
/// single-RHS job does.
#[test]
fn batch_jobs_report_build_fallbacks_like_single_jobs() {
    // Alternating exactly-zero / near-zero diagonal: SchurML's strict build
    // refuses it on every rank and the ladder lands on a lower rung.
    let n = 64;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, if i % 2 == 0 { 0.0 } else { 1e-14 });
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
    }
    let service = SolveService::start(ServiceConfig::default()).expect("valid config");
    let (fp, _) = service.matrix_store().put(coo.to_csr());
    let solve = |batch: usize| -> JobResult {
        let line = format!(
            r#"{{"id":"b{batch}","fp":"{fp:016x}","precond":"schurml","ranks":2,"batch":{batch}}}"#
        );
        let job = parse_job_line(&line, 0).expect("job parses");
        let r = service.submit_solve(job).expect("accepted").wait();
        assert!(r.ok, "batch {batch}: {:?}", r.error);
        r
    };

    let batched = solve(4);
    assert!(
        batched.fallbacks > 0,
        "the batch job hid its session's ladder descent"
    );
    let schurml = PrecondKind::schurml_default();
    assert_ne!(batched.precond_used.as_deref(), Some(schurml.key()));

    let single = solve(1);
    assert_eq!(single.fallbacks, batched.fallbacks);
    assert_eq!(single.precond_used, batched.precond_used);
}

/// Metric families a scrape must expose after one service solve.
const MANDATORY: [&str; 12] = [
    names::JOBS_TOTAL,
    names::SOLVES_TOTAL,
    names::CACHE_MISSES_TOTAL,
    names::QUEUE_WAIT_US,
    names::BUILD_US,
    names::SOLVE_US,
    names::E2E_US,
    names::SOLVE_ITERS,
    names::LOAD_IMBALANCE,
    names::LOAD_COMM_FRACTION,
    names::LOAD_SLOWEST_RANK,
    "parapre_solve_us{fp=",
];

#[test]
fn one_service_solve_exposes_every_mandatory_metric_family() {
    let service = SolveService::start(ServiceConfig::default()).expect("valid config");
    let job = parse_job_line(
        r#"{"id":"smoke","case":"tc2","size":"tiny","precond":"schur1","ranks":4}"#,
        0,
    )
    .expect("smoke job parses");
    let result = service.submit_solve(job).expect("submit").wait();
    assert!(result.ok, "smoke job failed: {:?}", result.error);
    assert!(result.converged, "smoke job did not converge");
    assert!(result.solve_ms > 0.0, "no solve_ms stamp on the result");
    service.shutdown();
    let text = parapre_metrics::metrics_text();
    let missing: Vec<&str> = MANDATORY
        .iter()
        .copied()
        .filter(|name| !text.contains(name))
        .collect();
    assert!(missing.is_empty(), "scrape is missing {missing:?}:\n{text}");
}

/// `^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$` — one sample line of the
/// text exposition (no regex crate offline).
fn is_exposition_sample(line: &str) -> bool {
    let Some((name, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let family = match name.split_once('{') {
        Some((family, labels)) => {
            if !labels.ends_with('}') || labels[..labels.len() - 1].contains('}') {
                return false;
            }
            family
        }
        None => name,
    };
    let mut chars = family.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !value.is_empty()
        && !value.contains(char::is_whitespace)
}

#[test]
fn every_exposition_line_is_well_formed_after_a_schurml_solve() {
    assert!(is_exposition_sample("a_total 1"));
    assert!(is_exposition_sample(r#"a_us{fp="00ab",quantile="0.5"} 12"#));
    assert!(!is_exposition_sample("schurml.level_count 2e0"));
    assert!(!is_exposition_sample("no_value"));

    let service = SolveService::start(ServiceConfig::default()).expect("valid config");
    let job = parse_job_line(
        r#"{"id":"ml","case":"tc2","size":"tiny","precond":"schurml","ranks":4}"#,
        0,
    )
    .expect("job parses");
    let result = service.submit_solve(job).expect("submit").wait();
    assert!(result.ok, "SchurML job failed: {:?}", result.error);
    assert_eq!(
        result.precond_used.as_deref(),
        Some("schurml"),
        "no ladder descent"
    );
    service.shutdown();
    let text = parapre_metrics::metrics_text();
    let malformed: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !is_exposition_sample(l))
        .collect();
    assert!(
        malformed.is_empty(),
        "malformed exposition lines: {malformed:?}"
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

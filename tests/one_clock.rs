//! One clock: every latency a result line reports is the reading of the
//! span that fed its registry histogram, so a scrape and the result lines
//! of the same jobs agree to the microsecond. One `#[test]` in its own
//! binary, so the registry deltas are exact.

use parapre::engine::{parse_job_line, JobResult, ServiceConfig, SolveService};
use parapre::metrics::{names, snapshot, MetricsSnapshot};

/// `(count, sum)` of a histogram, zero while it has no reading.
fn hist(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.hist(name).map_or((0, 0), |h| (h.count, h.sum))
}

/// `(count, sum)` that `name` gained from `before` to `after`.
fn gained(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let (b, a) = (hist(before, name), hist(after, name));
    (a.0 - b.0, a.1 - b.1)
}

/// Asserts one reading of `us` µs that is `ms` to within 1 µs.
fn one_reading_of(what: &str, (count, us): (u64, u64), ms: f64) {
    assert_eq!(count, 1, "{what}: one reading");
    assert!(
        (us as f64 - ms * 1e3).abs() <= 1.0,
        "{what}: reading {us} us, result line {ms} ms"
    );
}

fn solve(service: &SolveService, line: &str) -> JobResult {
    let job = parse_job_line(line, 0).expect("job parses");
    let r = service.submit_solve(job).expect("accepted").wait();
    assert!(r.ok && r.converged, "{line}: {:?}", r.error);
    r
}

#[test]
fn result_line_latencies_are_their_span_readings() {
    let service = SolveService::start(ServiceConfig::default()).expect("valid config");

    // One single-right-hand-side job that misses the cache.
    let before = snapshot();
    let r = solve(
        &service,
        r#"{"id":"one","case":"tc1","size":"tiny","precond":"block2","ranks":2}"#,
    );
    let after = snapshot();
    assert!(!r.cache_hit, "the first job builds");
    one_reading_of(
        "queue wait",
        gained(&before, &after, names::QUEUE_WAIT_US),
        r.queue_ms,
    );
    one_reading_of(
        "build",
        gained(&before, &after, names::BUILD_US),
        r.build_ms,
    );
    one_reading_of(
        "solve",
        gained(&before, &after, names::SOLVE_US),
        r.solve_ms,
    );
    let keyed: Vec<&String> = after
        .hists
        .keys()
        .filter(|k| k.starts_with("parapre_solve_us{fp="))
        .collect();
    assert_eq!(keyed.len(), 1, "one keyed solve family: {keyed:?}");
    one_reading_of("keyed solve", gained(&before, &after, keyed[0]), r.solve_ms);
    let (count, e2e_us) = gained(&before, &after, names::E2E_US);
    assert_eq!(count, 1, "end to end: one reading");
    let parts_us = (r.queue_ms + r.build_ms + r.solve_ms) * 1e3;
    assert!(
        e2e_us as f64 + 3.0 >= parts_us,
        "end to end {e2e_us} us < queue + build + solve {parts_us} us"
    );

    // A batch of four on the cached session: one batch reading, no
    // single-solve reading, and per-column tallies.
    let before = snapshot();
    let r = solve(
        &service,
        r#"{"id":"four","case":"tc1","size":"tiny","precond":"block2","ranks":2,"batch":4}"#,
    );
    let after = snapshot();
    assert!(r.cache_hit, "the batch reuses the session");
    assert_eq!(r.iterations.len(), 4);
    assert_eq!(
        gained(&before, &after, names::SOLVE_US).0,
        0,
        "no solve reading"
    );
    assert_eq!(gained(&before, &after, keyed[0]).0, 0, "no keyed reading");
    one_reading_of(
        "batch solve",
        gained(&before, &after, names::BATCH_SOLVE_US),
        r.solve_ms,
    );
    assert_eq!(
        gained(&before, &after, names::BUILD_US).0,
        0,
        "a hit builds nothing"
    );
    assert_eq!(gained(&before, &after, names::SOLVE_ITERS).0, 4);
    assert_eq!(
        after.counter(names::SOLVES_TOTAL) - before.counter(names::SOLVES_TOTAL),
        4
    );
    service.shutdown();
}

//! The matrix store is bounded by the service's `cache_capacity`: a `put`
//! keeps that many most recently used matrices, where a `put` and every job
//! naming a fingerprint are uses, and of the older ones only those a cached
//! session still holds. A job naming an evicted fingerprint is rejected,
//! naming it.

use parapre_engine::{parse_job_line, JobResult, ServiceConfig, SolveService};
use parapre_sparse::{Coo, Csr};

const CAPACITY: usize = 2;

fn service() -> SolveService {
    SolveService::start(ServiceConfig {
        pool_size: 1,
        queue_capacity: 4,
        cache_capacity: CAPACITY,
    })
    .expect("valid config")
}

/// A diagonally dominant tridiagonal matrix, its values set by `shift`.
/// With `unpaired` one entry has no transpose, so a job solves the
/// pattern's symmetrization and nothing but the store holds the upload.
fn matrix(shift: f64, unpaired: bool) -> Csr {
    let n = 24;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + shift);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
    }
    if unpaired {
        coo.push(0, n - 1, 0.5);
    }
    coo.to_csr()
}

fn solve(svc: &SolveService, fp: u64) -> JobResult {
    let line = format!(r#"{{"id":"s","fp":"{fp:016x}","precond":"block1","ranks":1}}"#);
    let job = parse_job_line(&line, 0).expect("job parses");
    svc.submit_solve(job).expect("accepted").wait()
}

/// Puts `count` matrices no job names, valued apart from every other.
fn put_fresh(svc: &SolveService, from: usize, count: usize) {
    for k in from..from + count {
        svc.matrix_store().put(matrix(1.0 + k as f64, false));
    }
}

#[test]
fn a_hot_fingerprint_outlives_fresh_puts() {
    let svc = service();
    let (hot, _) = svc.matrix_store().put(matrix(0.0, true));
    for k in 0..3 * CAPACITY {
        put_fresh(&svc, k, 1);
        let r = solve(&svc, hot);
        assert!(r.ok && r.converged, "put {k}: {:?}", r.error);
    }
    let stats = svc.matrix_store().stats();
    assert_eq!(stats.len, CAPACITY);
    assert_eq!(stats.evictions, 3 * CAPACITY as u64 + 1 - CAPACITY as u64);
}

#[test]
fn an_evicted_fingerprint_is_rejected_by_name() {
    let svc = service();
    let (gone, _) = svc.matrix_store().put(matrix(0.0, false));
    put_fresh(&svc, 0, CAPACITY);
    let r = solve(&svc, gone);
    assert!(!r.ok);
    assert_eq!(r.error_kind.as_deref(), Some("rejected"));
    let msg = r.error.unwrap_or_default();
    assert!(msg.contains(&format!("{gone:016x}")), "{msg}");
    assert!(msg.contains("put it again"), "{msg}");
}

#[test]
fn a_matrix_a_cached_session_holds_is_not_dropped() {
    let svc = service();
    let (held, _) = svc.matrix_store().put(matrix(0.0, false));
    let first = solve(&svc, held);
    assert!(first.ok && !first.cache_hit, "{:?}", first.error);
    put_fresh(&svc, 0, 3 * CAPACITY);
    let again = solve(&svc, held);
    assert!(again.ok && again.cache_hit, "{:?}", again.error);
}

#[test]
fn a_dedup_put_refreshes_recency() {
    let svc = service();
    let store = svc.matrix_store();
    let (a, _) = store.put(matrix(0.0, false));
    let (b, _) = store.put(matrix(1.0, false));
    assert_eq!(store.put(matrix(0.0, false)), (a, true));
    put_fresh(&svc, 10, 1);
    assert!(store.get(b).is_none(), "b was the least recently used");
    assert!(store.get(a).is_some(), "the re-put kept a");
}

#[test]
fn every_eviction_is_counted() {
    let svc = service();
    put_fresh(&svc, 0, 5);
    let stats = svc.matrix_store().stats();
    assert_eq!((stats.len, stats.puts, stats.evictions), (CAPACITY, 5, 3));
    assert!(svc.stats_json().contains(r#""store_evictions":3,"#));
}

#[test]
fn a_fresh_put_outlives_the_next_one_while_the_caches_are_full() {
    // Two connections each put a matrix and then solve it. Held matrices
    // take no place from fresh ones, so the second put does not drop the
    // first while the session cache holds `CAPACITY` matrices.
    let svc = service();
    for k in 0..CAPACITY {
        let (fp, _) = svc.matrix_store().put(matrix(k as f64, false));
        assert!(solve(&svc, fp).ok);
    }
    let (first, _) = svc.matrix_store().put(matrix(10.0, false));
    let (second, _) = svc.matrix_store().put(matrix(11.0, false));
    for fp in [first, second] {
        let r = solve(&svc, fp);
        assert!(r.ok && r.converged, "{:?}", r.error);
    }
}

//! End-to-end protocol behavior against a live server: concurrent
//! clients, admission control, fingerprint ingest, graceful drain, and
//! hostile frames.

use parapre_engine::ServiceConfig;
use parapre_metrics::flatjson::{parse_flat_object, JsonValue};
use parapre_net::{NetClient, NetConfig, NetServer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn start_tcp(cfg: NetConfig) -> NetServer {
    NetServer::start(cfg, Some("127.0.0.1:0"), None).expect("server starts")
}

fn connect(server: &NetServer) -> NetClient {
    NetClient::connect_tcp(server.tcp_addr().expect("tcp bound")).expect("connects")
}

fn fields_of(line: &str) -> BTreeMap<String, JsonValue> {
    parse_flat_object(line).unwrap_or_else(|e| panic!("unparsable response {line:?}: {e}"))
}

fn str_field(line: &str, key: &str) -> Option<String> {
    fields_of(line)
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

fn bool_field(line: &str, key: &str) -> Option<bool> {
    fields_of(line).get(key).and_then(JsonValue::as_bool)
}

/// A small SPD tridiagonal system in Matrix Market text.
fn tridiag_mtx(n: usize) -> String {
    tridiag_mtx_with_diagonal(n, 2.5)
}

/// [`tridiag_mtx`] with a chosen diagonal value: same pattern, new values.
fn tridiag_mtx_with_diagonal(n: usize, diag: f64) -> String {
    let mut entries = Vec::new();
    for i in 1..=n {
        entries.push(format!("{i} {i} {diag}"));
        if i < n {
            entries.push(format!("{i} {} -1.0", i + 1));
            entries.push(format!("{} {i} -1.0", i + 1));
        }
    }
    format!(
        "%%MatrixMarket matrix coordinate real general\n{n} {n} {}\n{}\n",
        entries.len(),
        entries.join("\n")
    )
}

#[test]
fn two_concurrent_clients_interleave_results_keyed_by_id() {
    let server = start_tcp(NetConfig {
        service: ServiceConfig {
            pool_size: 2,
            queue_capacity: 8,
            cache_capacity: 4,
        },
        ..NetConfig::default()
    });
    let addr = server.tcp_addr().expect("tcp bound");
    let drive = move |prefix: &'static str| {
        let mut client = NetClient::connect_tcp(addr).expect("connects");
        for i in 0..3 {
            client
                .send_line(&format!(
                    "{{\"id\":\"{prefix}{i}\",\"case\":\"tc1\",\"size\":\"tiny\",\
                     \"precond\":\"schur1\",\"ranks\":2}}"
                ))
                .expect("send");
        }
        // Results may arrive in any completion order; collect all three.
        let mut seen = Vec::new();
        for _ in 0..3 {
            let line = client.recv_line().expect("recv").expect("open");
            assert_eq!(bool_field(&line, "ok"), Some(true), "failed: {line}");
            seen.push(str_field(&line, "id").expect("id"));
        }
        seen.sort();
        assert_eq!(
            seen,
            (0..3).map(|i| format!("{prefix}{i}")).collect::<Vec<_>>()
        );
    };
    let a = std::thread::spawn(move || drive("a"));
    let b = std::thread::spawn(move || drive("b"));
    a.join().expect("client a");
    b.join().expect("client b");
}

#[test]
fn admission_limit_rejects_with_structured_frame() {
    let server = start_tcp(NetConfig {
        service: ServiceConfig {
            pool_size: 1,
            queue_capacity: 4,
            cache_capacity: 2,
        },
        max_inflight: 1,
        ..NetConfig::default()
    });
    let mut client = connect(&server);
    // A slow job holds the single in-flight slot while the second frame
    // arrives — the second must bounce off admission control, not queue.
    client
        .send_line(
            "{\"id\":\"slow\",\"case\":\"tc1\",\"size\":\"tiny\",\
             \"precond\":\"schur1\",\"ranks\":2,\"repeat\":60}",
        )
        .expect("send");
    client
        .send_line(
            "{\"id\":\"bounced\",\"case\":\"tc1\",\"size\":\"tiny\",\
             \"precond\":\"schur1\",\"ranks\":2}",
        )
        .expect("send");
    let mut rejected = None;
    let mut slow_ok = None;
    for _ in 0..2 {
        let line = client.recv_line().expect("recv").expect("open");
        match str_field(&line, "id").as_deref() {
            Some("bounced") => rejected = Some(line),
            Some("slow") => slow_ok = Some(line),
            other => panic!("unexpected id {other:?} in {line}"),
        }
    }
    let rejected = rejected.expect("admission rejection arrived");
    assert_eq!(bool_field(&rejected, "ok"), Some(false));
    assert_eq!(
        str_field(&rejected, "error_kind").as_deref(),
        Some("admission"),
        "line: {rejected}"
    );
    let fields = fields_of(&rejected);
    assert_eq!(fields.get("allowed").and_then(JsonValue::as_u64), Some(1));
    let slow_ok = slow_ok.expect("slow job completed");
    assert_eq!(bool_field(&slow_ok, "ok"), Some(true));
}

#[test]
fn fingerprint_put_and_resubmission_hit_store_and_cache() {
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    let mtx = tridiag_mtx(24);

    client.put_mtx(&mtx).expect("put");
    let ack = client.recv_line().expect("recv").expect("open");
    assert_eq!(bool_field(&ack, "put"), Some(true), "line: {ack}");
    assert_eq!(bool_field(&ack, "known"), Some(false));
    let fp = str_field(&ack, "fp").expect("fingerprint");

    // Re-uploading identical bytes dedups by content.
    client.put_mtx(&mtx).expect("put again");
    let again = client.recv_line().expect("recv").expect("open");
    assert_eq!(bool_field(&again, "known"), Some(true), "line: {again}");
    assert_eq!(str_field(&again, "fp").as_deref(), Some(fp.as_str()));

    // Fingerprint-only jobs solve without re-sending the matrix; the
    // second one hits the warm session cache.
    for (id, expect_hit) in [("f1", false), ("f2", true)] {
        let line = client
            .request(&format!(
                "{{\"id\":\"{id}\",\"fp\":\"{fp}\",\"precond\":\"block1\",\
                 \"ranks\":2,\"rhs\":\"ones\"}}"
            ))
            .expect("request")
            .expect("open");
        assert_eq!(bool_field(&line, "ok"), Some(true), "line: {line}");
        assert_eq!(bool_field(&line, "converged"), Some(true));
        assert_eq!(bool_field(&line, "cache_hit"), Some(expect_hit));
    }
    let store = server.service().matrix_store().stats();
    assert_eq!(store.puts, 1);
    assert_eq!(store.dedups, 1);
    assert!(store.hits >= 1, "fp lookups hit the store: {store:?}");

    // An unregistered fingerprint is a structured rejection, not a hang.
    let line = client
        .request("{\"id\":\"ghost\",\"fp\":\"deadbeefdeadbeef\",\"ranks\":2}")
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&line, "ok"), Some(false));
    assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
}

/// A re-sent matrix with the same pattern and new values is refactored
/// from the resident session. No protocol change: the first solve after
/// the `put` is still a miss, the result line says how it was built.
#[test]
fn same_pattern_put_is_refactored_over_the_wire() {
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    let mut solve_after_put = |mtx: &str, id: &str| -> String {
        client.put_mtx(mtx).expect("put");
        let ack = client.recv_line().expect("recv").expect("open");
        assert_eq!(bool_field(&ack, "known"), Some(false), "line: {ack}");
        let fp = str_field(&ack, "fp").expect("fingerprint");
        let line = client
            .request(&format!(
                "{{\"id\":\"{id}\",\"fp\":\"{fp}\",\"precond\":\"block2\",\
                 \"ranks\":2,\"rhs\":\"ones\"}}"
            ))
            .expect("request")
            .expect("open");
        assert_eq!(bool_field(&line, "ok"), Some(true), "line: {line}");
        assert_eq!(bool_field(&line, "converged"), Some(true), "line: {line}");
        assert_eq!(bool_field(&line, "cache_hit"), Some(false), "line: {line}");
        line
    };
    let age = |line: &str| {
        fields_of(line)
            .get("pattern_age")
            .and_then(JsonValue::as_u64)
    };

    let cold = solve_after_put(&tridiag_mtx(40), "cold");
    assert_eq!(bool_field(&cold, "refactored"), Some(false), "line: {cold}");
    assert_eq!(age(&cold), Some(0));

    let hot = solve_after_put(&tridiag_mtx_with_diagonal(40, 2.6), "hot");
    assert_eq!(bool_field(&hot, "refactored"), Some(true), "line: {hot}");
    assert_eq!(age(&hot), Some(1));
    let build_ms = fields_of(&hot).get("build_ms").and_then(JsonValue::as_f64);
    assert!(build_ms.is_some_and(|ms| ms > 0.0), "line: {hot}");

    // Another size is another pattern: cold again.
    let other = solve_after_put(&tridiag_mtx(41), "other");
    assert_eq!(
        bool_field(&other, "refactored"),
        Some(false),
        "line: {other}"
    );

    let stats = client
        .request("{\"cmd\":\"stats\"}")
        .expect("request")
        .expect("open");
    let fields = fields_of(&stats);
    assert_eq!(fields.get("refactors").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        fields.get("refactor_fallbacks").and_then(JsonValue::as_u64),
        Some(0)
    );
}

#[test]
fn graceful_drain_mid_stream_completes_inflight_jobs() {
    let server = start_tcp(NetConfig {
        service: ServiceConfig {
            pool_size: 2,
            queue_capacity: 8,
            cache_capacity: 2,
        },
        ..NetConfig::default()
    });
    let mut client = connect(&server);
    for i in 0..4 {
        client
            .send_line(&format!(
                "{{\"id\":\"d{i}\",\"case\":\"tc1\",\"size\":\"tiny\",\
                 \"precond\":\"schur1\",\"ranks\":2,\"repeat\":4}}"
            ))
            .expect("send");
    }
    client.send_line("{\"cmd\":\"shutdown\"}").expect("send");
    // Every in-flight result still streams out, plus the shutdown ack;
    // then the server closes the stream.
    let mut results = Vec::new();
    let mut acked = false;
    while let Some(line) = client.recv_line().expect("recv") {
        if bool_field(&line, "shutdown") == Some(true) {
            acked = true;
        } else if let Some(id) = str_field(&line, "id") {
            assert_eq!(bool_field(&line, "ok"), Some(true), "line: {line}");
            results.push(id);
        }
    }
    assert!(acked, "shutdown was acknowledged");
    results.sort();
    assert_eq!(results, vec!["d0", "d1", "d2", "d3"]);
    // The server comes down on its own after the drain.
    server.wait();

    // New connections are refused (or reset) once draining.
    assert!(
        NetClient::connect_tcp(server.tcp_addr().expect("addr"))
            .and_then(|mut c| c.request("{\"cmd\":\"ping\"}"))
            .map(|r| r.is_none())
            .unwrap_or(true),
        "drained server accepts no new work"
    );
}

#[test]
fn malformed_frames_get_structured_errors() {
    let server = start_tcp(NetConfig::default());

    // A garbage header: structured bad_frame error, then close.
    let mut raw = TcpStream::connect(server.tcp_addr().expect("addr")).expect("connect");
    raw.write_all(b"xyzzy\n").expect("write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert_eq!(
        str_field(line.trim(), "error_kind").as_deref(),
        Some("bad_frame"),
        "line: {line}"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("server closes");
    assert!(rest.is_empty(), "nothing after the error: {rest:?}");

    // Unknown cmd and non-UTF8 payloads are rejected on a connection that
    // stays usable.
    let mut client = connect(&server);
    let line = client
        .request("{\"cmd\":\"frobnicate\"}")
        .expect("request")
        .expect("open");
    assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
    client
        .send_frame(&[0xff, 0xfe, 0x01, 0x02])
        .expect("send non-utf8");
    let line = client.recv_line().expect("recv").expect("open");
    assert_eq!(bool_field(&line, "ok"), Some(false), "line: {line}");
    assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
    // So are a rank count no launch should allocate for, a partition
    // scheme the case has no grid for, a grid extent the case's generator
    // cannot mesh or above its paper-scale preset, a batch above the
    // ceiling (once a kill, worker panics, and an unbounded allocation),
    // a misspelled key (once ignored: the job ran the default rung) and
    // values of the wrong kind (once read as absent: 4 ranks).
    for (job, names) in [
        (
            "{\"case\":\"tc1\",\"n\":3,\"precond\":\"block1\",\"ranks\":5000}",
            "ranks",
        ),
        ("{\"case\":\"tc3\",\"n\":31,\"ranks\":2}", "n must be in"),
        (
            "{\"case\":\"tc1\",\"n\":100000,\"ranks\":2}",
            "n must be in",
        ),
        ("{\"case\":\"tc1\",\"n\":3,\"batch\":100000}", "batch"),
        (
            "{\"case\":\"tc3\",\"size\":\"tiny\",\"scheme\":\"boxes\",\"ranks\":2}",
            "boxes",
        ),
        (
            "{\"id\":\"typo\",\"case\":\"tc1\",\"precnd\":\"schur2\",\"ranks\":2}",
            "unknown key \"precnd\"; nearest valid key: \"precond\"",
        ),
        // Values of the wrong kind, and a misspelled verb.
        (
            "{\"id\":\"typed\",\"case\":\"tc1\",\"ranks\":\"two\"}",
            "ranks must be an integer in 1..=128, got \"two\"",
        ),
        (
            "{\"id\":\"frac\",\"case\":\"tc1\",\"ranks\":2.5}",
            "ranks must be an integer in 1..=128, got 2.5",
        ),
        (
            "{\"cmd\":\"stast\"}",
            "unknown cmd stast; nearest valid cmd: \"stats\"",
        ),
    ] {
        let line = client.request(job).expect("request").expect("open");
        assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
        let err = str_field(&line, "error").unwrap_or_default();
        assert!(err.contains(names), "line: {line}");
    }
    let line = client
        .request("{\"cmd\":\"ping\"}")
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&line, "pong"), Some(true));
}

#[test]
fn a_put_whose_body_cannot_back_its_size_line_is_rejected() {
    // Each used to size an allocation from the size line — 8·10¹⁴ bytes, or
    // 32 GB of row pointers — and abort netd for every client.
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    for (size, names) in [
        ("2 2 100000000000000", "declares 100000000000000 entries"),
        (
            "100000000000000 100000000000000 2",
            "100000000000000 x 100000000000000",
        ),
        ("4000000000 4000000000 2", "4000000000 x 4000000000"),
    ] {
        let mtx =
            format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n2 2 1.0\n");
        client.put_mtx(&mtx).expect("put");
        let line = client.recv_line().expect("recv").expect("open");
        assert_eq!(bool_field(&line, "ok"), Some(false), "line: {line}");
        assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
        let err = str_field(&line, "error").unwrap_or_default();
        assert!(err.contains(names), "line: {line}");
        // The same connection still answers.
        let pong = client
            .request("{\"cmd\":\"ping\"}")
            .expect("request")
            .expect("open");
        assert_eq!(bool_field(&pong, "pong"), Some(true), "after {size}");
    }
}

#[test]
fn non_regular_files_and_non_finite_entries_are_rejected() {
    // A job naming `/dev/zero` once aborted netd for every client, and a
    // put with a NaN entry was registered and then broke down in its solve.
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    client.put_mtx(&tridiag_mtx(6)).expect("put");
    let ack = client.recv_line().expect("recv").expect("open");
    let fp = str_field(&ack, "fp").expect("fingerprint");
    let dir = std::env::temp_dir().display().to_string();
    let mut paths = vec![dir];
    if std::path::Path::new("/dev/zero").exists() {
        paths.push("/dev/zero".into());
    }
    for path in &paths {
        for job in [
            format!(r#"{{"id":"r","fp":"{fp}","rhs":"{path}","ranks":2}}"#),
            format!(r#"{{"id":"m","mtx":"{path}","ranks":2}}"#),
        ] {
            let line = client.request(&job).expect("request").expect("open");
            assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
            let err = str_field(&line, "error").unwrap_or_default();
            assert!(err.contains("is not a regular file"), "line: {line}");
        }
    }
    for value in ["NaN", "1e999"] {
        let mtx = tridiag_mtx(6).replace("\n3 3 2.5\n", &format!("\n3 3 {value}\n"));
        client.put_mtx(&mtx).expect("put");
        let line = client.recv_line().expect("recv").expect("open");
        assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
        let err = str_field(&line, "error").unwrap_or_default();
        assert!(err.contains("entry (3, 3) is not finite"), "line: {line}");
    }
    let pong = client
        .request("{\"cmd\":\"ping\"}")
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&pong, "pong"), Some(true));
}

#[test]
fn schurml_jobs_run_over_the_wire() {
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    // The multilevel rung is reachable from the wire, knobs included.
    let line = client
        .request(
            "{\"id\":\"ml\",\"case\":\"tc1\",\"size\":\"tiny\",\
             \"precond\":\"schurml\",\"levels\":2,\"rank\":4,\"ranks\":2}",
        )
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&line, "ok"), Some(true), "line: {line}");
    assert_eq!(bool_field(&line, "converged"), Some(true), "line: {line}");
    assert_eq!(str_field(&line, "precond").as_deref(), Some("schurml"));

    // An unknown rung bounces with a rejection naming the valid set.
    let line = client
        .request("{\"id\":\"bad\",\"case\":\"tc1\",\"precond\":\"schur9\"}")
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&line, "ok"), Some(false), "line: {line}");
    assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
    let err = str_field(&line, "error").unwrap_or_default();
    assert!(err.contains("schurml"), "valid set missing: {line}");
}

#[test]
fn stats_answer_while_auto_jobs_and_the_rebalance_verb_are_rejected() {
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    // `auto` is no rung: the rejection names the valid set.
    let line = client
        .request(
            "{\"id\":\"auto1\",\"case\":\"tc1\",\"size\":\"tiny\",\
             \"precond\":\"auto\",\"ranks\":2}",
        )
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&line, "ok"), Some(false), "line: {line}");
    assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
    let err = str_field(&line, "error").unwrap_or_default();
    assert!(err.contains("block1"), "valid set missing: {line}");

    // `rebalance` is no verb.
    let line = client
        .request("{\"cmd\":\"rebalance\"}")
        .expect("request")
        .expect("open");
    assert_eq!(str_field(&line, "error_kind").as_deref(), Some("rejected"));
    let err = str_field(&line, "error").unwrap_or_default();
    assert!(err.contains("unknown cmd rebalance"), "line: {line}");

    let line = client
        .request(
            "{\"id\":\"plain\",\"case\":\"tc1\",\"size\":\"tiny\",\
             \"precond\":\"block1\",\"ranks\":2}",
        )
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&line, "ok"), Some(true), "line: {line}");
    let stats = client
        .request("{\"cmd\":\"stats\"}")
        .expect("request")
        .expect("open");
    let fields = fields_of(&stats);
    assert_eq!(fields.get("stats").and_then(JsonValue::as_bool), Some(true));
    assert!(
        fields.get("jobs").and_then(JsonValue::as_u64) >= Some(1),
        "the plain job was counted: {stats}"
    );
}

#[test]
fn a_job_that_could_hold_the_only_worker_is_rejected_and_the_next_is_answered() {
    // One worker. The first job asks for a 10⁸ ms backoff between retries
    // (and `deadline_ms` is only checked between repeats); there are no
    // retries, so it must bounce at parse time on its unknown keys, leaving
    // the worker to the plain job behind it.
    let server = start_tcp(NetConfig {
        service: ServiceConfig {
            pool_size: 1,
            queue_capacity: 4,
            cache_capacity: 2,
        },
        ..NetConfig::default()
    });
    let addr = server.tcp_addr().expect("tcp bound");
    let (tx, rx) = std::sync::mpsc::channel();
    let requests = std::thread::spawn(move || {
        let mut client = NetClient::connect_tcp(addr).expect("connects");
        for job in [
            "{\"id\":\"hog\",\"case\":\"tc1\",\"size\":\"tiny\",\"precond\":\"block1\",\
             \"ranks\":2,\"kill_rank\":0,\"backoff_ms\":100000000,\"deadline_ms\":500}",
            "{\"id\":\"plain\",\"case\":\"tc1\",\"size\":\"tiny\",\"precond\":\"block1\",\
             \"ranks\":2,\"deadline_ms\":3000}",
        ] {
            let line = client.request(job).expect("request").expect("open");
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    let wait = std::time::Duration::from_secs(60);
    let hog = rx.recv_timeout(wait).expect("the hog is answered");
    assert_eq!(str_field(&hog, "id").as_deref(), Some("hog"));
    assert_eq!(str_field(&hog, "error_kind").as_deref(), Some("rejected"));
    let err = str_field(&hog, "error").unwrap_or_default();
    assert!(
        err.contains("unknown key \"backoff_ms\"; nearest valid key: \""),
        "line: {hog}"
    );
    let plain = rx.recv_timeout(wait).expect("the plain job is answered");
    assert_eq!(str_field(&plain, "id").as_deref(), Some("plain"));
    assert_eq!(bool_field(&plain, "ok"), Some(true), "line: {plain}");
    requests.join().expect("request thread");
}

#[test]
fn a_three_job_stream_converges() {
    let server = start_tcp(NetConfig {
        service: ServiceConfig {
            pool_size: 2,
            queue_capacity: 8,
            cache_capacity: 4,
        },
        ..NetConfig::default()
    });
    let mut client = connect(&server);
    for job in [
        r#"{"id":"a","case":"tc1","size":"tiny","precond":"schur1","ranks":4}"#,
        r#"{"id":"b","case":"tc2","size":"tiny","precond":"block2","ranks":2,"repeat":2}"#,
        r#"{"id":"c","case":"tc1","size":"tiny","precond":"schur1","ranks":4,"rhs":"rowsum"}"#,
    ] {
        client.send_line(job).expect("send");
    }
    let mut ids = Vec::new();
    for _ in 0..3 {
        let line = client.recv_line().expect("recv").expect("open");
        assert_eq!(bool_field(&line, "converged"), Some(true), "line: {line}");
        ids.push(str_field(&line, "id").expect("id"));
    }
    ids.sort();
    assert_eq!(ids, ["a", "b", "c"]);
}

/// Whether `line` is one sample of the text exposition:
/// `name[{labels}] value`, the name in `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_sample(line: &str) -> bool {
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let name = match series.split_once('{') {
        Some((name, labels)) => {
            if !labels.ends_with('}') || labels[..labels.len() - 1].contains('}') {
                return false;
            }
            name
        }
        None => series,
    };
    let head = |c: char| c.is_ascii_alphabetic() || c == '_' || c == ':';
    name.starts_with(head)
        && name.chars().all(|c| head(c) || c.is_ascii_digit())
        && !value.is_empty()
}

#[test]
fn stats_watch_and_metrics_answer_over_the_wire() {
    let server = start_tcp(NetConfig::default());
    let mut client = connect(&server);
    for precond in ["schur1", "schurml"] {
        let line = client
            .request(&format!(
                r#"{{"id":"{precond}","case":"tc2","size":"tiny","precond":"{precond}","ranks":4}}"#
            ))
            .expect("request")
            .expect("open");
        assert_eq!(bool_field(&line, "ok"), Some(true), "line: {line}");
    }
    let stats = client
        .request(r#"{"cmd":"stats"}"#)
        .expect("request")
        .expect("open");
    assert_eq!(bool_field(&stats, "stats"), Some(true), "line: {stats}");

    // `watch`: the convergence events since the last watch, then its end.
    client.send_line(r#"{"cmd":"watch"}"#).expect("send");
    loop {
        let line = client.recv_line().expect("recv").expect("open");
        if fields_of(&line).contains_key("watch_end") {
            assert!(line.starts_with(r#"{"watch_end":"#), "line: {line}");
            break;
        }
    }

    // `metrics`: every line up to `# EOF` is a comment or a sample.
    client.send_line(r#"{"cmd":"metrics"}"#).expect("send");
    let mut samples = Vec::new();
    loop {
        let line = client.recv_line().expect("recv").expect("open");
        if line == "# EOF" {
            break;
        }
        if !line.starts_with('#') {
            assert!(is_sample(&line), "malformed exposition line: {line:?}");
            samples.push(line);
        }
    }
    assert!(
        samples
            .iter()
            .any(|l| l.starts_with("parapre_solve_us_count")),
        "no solve histogram in {samples:?}"
    );
}

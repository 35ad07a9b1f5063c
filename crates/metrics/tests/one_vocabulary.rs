//! The two scopes are one vocabulary: what a process-scope verb tells the
//! registry it also tells the calling thread's stream, a latency span's
//! close is both its histogram reading and its stream exit, and the
//! stream's JSON Lines form is pinned byte for byte.

use parapre_metrics::{CommDir, ConvKind, Event, EventKind, RankTrace};

#[test]
fn process_scope_verbs_land_in_the_recording_threads_stream() {
    // Names no other test touches, so the registry deltas are exact.
    const C: &str = "one_vocabulary_total";
    const G: &str = "one_vocabulary_gauge";
    const H: &str = "one_vocabulary_us";
    let before = parapre_metrics::snapshot().counter(C);
    let h =
        |snap: &parapre_metrics::MetricsSnapshot| snap.hist(H).map_or((0, 0), |h| (h.count, h.sum));
    let h_before = h(&parapre_metrics::snapshot());
    let (closed, stream) = parapre_metrics::recorded(0, true, || {
        parapre_metrics::inc(C, 3);
        parapre_metrics::inc(C, 4);
        parapre_metrics::gauge_set(G, 1.5);
        parapre_metrics::timed(H).close()
    });
    let snap = parapre_metrics::snapshot();
    assert_eq!(snap.counter(C) - before, 7, "the registry moved");
    assert_eq!(snap.gauge(G), 1.5);
    let h_after = h(&snap);
    assert_eq!(h_after.0 - h_before.0, 1, "one close, one reading");
    assert_eq!(
        h_after.1 - h_before.1,
        closed.as_micros() as u64,
        "the reading is the close"
    );

    let stream = stream.expect("recorded");
    let summary = stream.summary();
    assert_eq!(summary.counters[C], 7, "same name, same amount");
    assert_eq!(summary.gauges[G].last, 1.5);
    let span_events: Vec<&EventKind> = stream
        .events
        .iter()
        .map(|e| &e.kind)
        .filter(|k| matches!(k, EventKind::SpanEnter { .. } | EventKind::SpanExit { .. }))
        .collect();
    assert_eq!(
        span_events,
        [
            &EventKind::SpanEnter { name: H.into() },
            &EventKind::SpanExit { name: H.into() },
        ],
        "the span's enter and exit are in the stream"
    );

    // Off a recording thread the same call is registry-only.
    parapre_metrics::inc(C, 1);
    assert_eq!(parapre_metrics::snapshot().counter(C) - before, 8);
    assert!(parapre_metrics::take().is_none());
}

#[test]
fn convergence_feeds_both_scopes_from_one_call() {
    let ring_before = parapre_metrics::conv_total();
    let ((), stream) = parapre_metrics::recorded(1, true, || {
        // A rank that does not speak records, and stays out of the ring.
        parapre_metrics::convergence("test", false, 1, 0.5, ConvKind::Iter, "");
        parapre_metrics::convergence("test", false, 1, 0.5, ConvKind::Stall, "stagnation");
        assert_eq!(parapre_metrics::conv_total(), ring_before);
        parapre_metrics::convergence("test", true, 2, 0.25, ConvKind::Iter, "");
        parapre_metrics::convergence("test", true, 2, 0.25, ConvKind::Converged, "");
    });
    let pushed = parapre_metrics::conv_since(ring_before);
    let kinds: Vec<ConvKind> = pushed
        .iter()
        .filter(|e| e.source == "test")
        .map(|e| e.kind)
        .collect();
    assert_eq!(kinds, vec![ConvKind::Iter, ConvKind::Converged]);

    let summary = stream.expect("recorded").summary();
    assert_eq!(summary.iterations, 2, "both Iter calls are in the stream");
    assert_eq!(summary.final_relres, 0.25);
    assert_eq!(summary.counters[parapre_metrics::names::SOLVE_BREAKDOWN], 1);
}

/// One event of each kind, written by hand: the JSONL schema readers of
/// `--trace <dir>` files depend on.
#[test]
fn jsonl_schema_golden() {
    let event = |t_us, kind| Event { t_us, kind };
    let trace = RankTrace {
        rank: 2,
        events: vec![
            event(
                12,
                EventKind::SpanEnter {
                    name: "solve".into(),
                },
            ),
            event(
                15,
                EventKind::Counter {
                    name: "factor.fill_nnz".into(),
                    delta: 1234,
                },
            ),
            event(
                16,
                EventKind::Gauge {
                    name: "arms.levels".into(),
                    value: 2.0,
                },
            ),
            event(
                20,
                EventKind::Iter {
                    iter: 1,
                    relres: 1.5e-3,
                },
            ),
            event(
                25,
                EventKind::Comm {
                    dir: CommDir::Send,
                    peer: 3,
                    tag: 256,
                    bytes: 80,
                },
            ),
            event(
                26,
                EventKind::Comm {
                    dir: CommDir::Recv,
                    peer: 3,
                    tag: 256,
                    bytes: 80,
                },
            ),
            event(
                90,
                EventKind::SpanExit {
                    name: "solve".into(),
                },
            ),
        ],
    };
    let golden = r#"{"kind":"meta","rank":2,"version":1}
{"kind":"span_enter","t_us":12,"name":"solve"}
{"kind":"counter","t_us":15,"name":"factor.fill_nnz","delta":1234}
{"kind":"gauge","t_us":16,"name":"arms.levels","value":2e0}
{"kind":"iter","t_us":20,"iter":1,"relres":1.5e-3}
{"kind":"comm","t_us":25,"dir":"send","peer":3,"tag":256,"bytes":80}
{"kind":"comm","t_us":26,"dir":"recv","peer":3,"tag":256,"bytes":80}
{"kind":"span_exit","t_us":90,"name":"solve"}
"#;
    assert_eq!(trace.to_jsonl(), golden);
    assert_eq!(RankTrace::from_jsonl(golden).expect("parses"), trace);
}

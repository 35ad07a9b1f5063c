//! Unit suite for the trace recorder: span nesting, counter aggregation,
//! JSONL round-trips, and cross-rank merging.

use parapre_metrics::{
    install, names, span, take, CommDir, ConvKind, Event, EventKind, PhaseStat, RankTrace,
    TraceSummary,
};

/// Builds a trace from (t_us, kind) pairs without going through a recorder.
fn trace_of(rank: usize, events: Vec<(u64, EventKind)>) -> RankTrace {
    RankTrace {
        rank,
        events: events
            .into_iter()
            .map(|(t_us, kind)| Event { t_us, kind })
            .collect(),
    }
}

fn enter(name: &str) -> EventKind {
    EventKind::SpanEnter {
        name: name.to_string(),
    }
}

fn exit(name: &str) -> EventKind {
    EventKind::SpanExit {
        name: name.to_string(),
    }
}

#[test]
fn nested_spans_split_inclusive_and_exclusive_time() {
    // solve [0, 100] containing spmv [10, 30] and spmv [50, 90].
    let tr = trace_of(
        0,
        vec![
            (0, enter(names::SOLVE)),
            (10, enter(names::SPMV)),
            (30, exit(names::SPMV)),
            (50, enter(names::SPMV)),
            (90, exit(names::SPMV)),
            (100, exit(names::SOLVE)),
        ],
    );
    let s = tr.summary();
    let solve = s.phase(names::SOLVE).unwrap();
    assert_eq!(
        *solve,
        PhaseStat {
            calls: 1,
            incl_us: 100,
            excl_us: 40
        }
    );
    let spmv = s.phase(names::SPMV).unwrap();
    assert_eq!(
        *spmv,
        PhaseStat {
            calls: 2,
            incl_us: 60,
            excl_us: 60
        }
    );
}

#[test]
fn recursive_spans_count_inclusive_time_once() {
    // solve [0, 100] containing an inner solve [20, 60] of the same name.
    let tr = trace_of(
        0,
        vec![
            (0, enter(names::SOLVE)),
            (20, enter(names::SOLVE)),
            (60, exit(names::SOLVE)),
            (100, exit(names::SOLVE)),
        ],
    );
    let s = tr.summary();
    let solve = s.phase(names::SOLVE).unwrap();
    assert_eq!(solve.calls, 2);
    // Inclusive counts only the outermost instance; exclusive sums both
    // self-times (40 inner + 60 outer-minus-child).
    assert_eq!(solve.incl_us, 100);
    assert_eq!(solve.excl_us, 100);
}

#[test]
fn appended_stream_keeps_timestamps_non_decreasing() {
    // A build stream ending at 70 µs, then a solve stream on a fresh epoch.
    let mut tr = trace_of(1, vec![(0, enter(names::SETUP)), (70, exit(names::SETUP))]);
    tr.append(trace_of(
        1,
        vec![(5, enter(names::SOLVE)), (40, exit(names::SOLVE))],
    ));
    let times: Vec<u64> = tr.events.iter().map(|e| e.t_us).collect();
    assert_eq!(times, [0, 70, 75, 110]);
    let s = tr.summary();
    assert_eq!(s.phase(names::SETUP).unwrap().incl_us, 70);
    assert_eq!(s.phase(names::SOLVE).unwrap().incl_us, 35);
}

#[test]
fn unclosed_spans_are_closed_by_the_enclosing_exit() {
    let tr = trace_of(
        0,
        vec![
            (0, enter(names::SOLVE)),
            (10, enter(names::SPMV)), // exit lost
            (50, exit(names::SOLVE)),
        ],
    );
    let s = tr.summary();
    assert_eq!(s.phase(names::SPMV).unwrap().incl_us, 40);
    assert_eq!(s.phase(names::SOLVE).unwrap().incl_us, 50);
}

#[test]
fn counters_and_gauges_aggregate() {
    let tr = trace_of(
        2,
        vec![
            (
                1,
                EventKind::Counter {
                    name: "gmres.iters".into(),
                    delta: 5,
                },
            ),
            (
                2,
                EventKind::Counter {
                    name: "gmres.iters".into(),
                    delta: 7,
                },
            ),
            (
                3,
                EventKind::Gauge {
                    name: "arms.levels".into(),
                    value: 1.0,
                },
            ),
            (
                4,
                EventKind::Gauge {
                    name: "arms.levels".into(),
                    value: 2.0,
                },
            ),
            (
                5,
                EventKind::Iter {
                    iter: 1,
                    relres: 0.5,
                },
            ),
            (
                6,
                EventKind::Iter {
                    iter: 2,
                    relres: 0.25,
                },
            ),
        ],
    );
    let s = tr.summary();
    assert_eq!(s.counters["gmres.iters"], 12);
    assert_eq!(s.gauges["arms.levels"].last, 2.0); // last write wins
    assert_eq!(s.gauges["arms.levels"].max, 2.0);
    assert_eq!(s.iterations, 2);
    assert_eq!(s.final_relres, 0.25);
}

#[test]
fn gauges_track_last_and_max_and_show_in_table() {
    let gauge = |v: f64| EventKind::Gauge {
        name: "queue.depth".into(),
        value: v,
    };
    let tr = trace_of(0, vec![(1, gauge(3.0)), (2, gauge(9.0)), (3, gauge(4.0))]);
    let s = tr.summary();
    assert_eq!(s.gauges["queue.depth"].last, 4.0);
    assert_eq!(s.gauges["queue.depth"].max, 9.0);
    let table = s.table();
    assert!(table.contains("gauge"), "table lists gauges:\n{table}");
    assert!(table.contains("queue.depth"));
    assert!(table.contains("9.000"), "max column rendered:\n{table}");
}

#[test]
fn comm_events_fold_into_totals_and_per_peer() {
    let tr = trace_of(
        1,
        vec![
            (
                1,
                EventKind::Comm {
                    dir: CommDir::Send,
                    peer: 0,
                    tag: 0x100,
                    bytes: 80,
                },
            ),
            (
                2,
                EventKind::Comm {
                    dir: CommDir::Send,
                    peer: 2,
                    tag: 0x100,
                    bytes: 40,
                },
            ),
            (
                3,
                EventKind::Comm {
                    dir: CommDir::Recv,
                    peer: 0,
                    tag: 0x100,
                    bytes: 80,
                },
            ),
        ],
    );
    let s = tr.summary();
    assert_eq!(s.comm.all.msgs_sent, 2);
    assert_eq!(s.comm.all.bytes_sent, 120);
    assert_eq!(s.comm.all.msgs_recv, 1);
    assert_eq!(s.comm.all.bytes_recv, 80);
    assert_eq!(s.comm.per_peer[&0].bytes_sent, 80);
    assert_eq!(s.comm.per_peer[&0].bytes_recv, 80);
    assert_eq!(s.comm.per_peer[&2].bytes_sent, 40);
}

#[test]
fn jsonl_round_trip_preserves_every_event_kind() {
    let tr = trace_of(
        7,
        vec![
            (0, enter("solve")),
            (
                3,
                EventKind::Counter {
                    name: "c\"quoted\"".into(),
                    delta: 9,
                },
            ),
            (
                4,
                EventKind::Gauge {
                    name: "g".into(),
                    value: -1.25e-3,
                },
            ),
            (
                5,
                EventKind::Gauge {
                    name: "nan".into(),
                    value: f64::NAN,
                },
            ),
            (
                6,
                EventKind::Iter {
                    iter: 3,
                    relres: 2.5e-7,
                },
            ),
            (
                7,
                EventKind::Comm {
                    dir: CommDir::Recv,
                    peer: 4,
                    tag: 0x200,
                    bytes: 16,
                },
            ),
            (9, exit("solve")),
        ],
    );
    let text = tr.to_jsonl();
    assert!(text.lines().next().unwrap().contains("\"kind\":\"meta\""));
    let back = RankTrace::from_jsonl(&text).expect("parse back");
    assert_eq!(back.rank, 7);
    assert_eq!(back.events.len(), tr.events.len());
    // NaN gauge serializes as null and comes back NaN; compare the rest
    // exactly.
    for (a, b) in back.events.iter().zip(&tr.events) {
        match (&a.kind, &b.kind) {
            (
                EventKind::Gauge {
                    name: na,
                    value: va,
                },
                EventKind::Gauge {
                    name: nb,
                    value: vb,
                },
            ) if vb.is_nan() => {
                assert_eq!(na, nb);
                assert!(va.is_nan());
            }
            _ => assert_eq!(a, b),
        }
    }
}

#[test]
fn live_recorder_round_trips_through_jsonl() {
    install(5);
    {
        let _outer = span(names::SETUP);
        let _inner = span(names::FACTOR);
        parapre_metrics::count(names::FILL_NNZ, 123);
    }
    parapre_metrics::convergence("test", false, 1, 0.125, ConvKind::Iter, "");
    let tr = take().expect("recorder installed");
    assert!(take().is_none(), "take() must uninstall");
    let back = RankTrace::from_jsonl(&tr.to_jsonl()).unwrap();
    assert_eq!(back, tr);
    let s = back.summary();
    assert_eq!(s.phase(names::SETUP).unwrap().calls, 1);
    assert_eq!(s.counters["factor.fill_nnz"], 123);
}

#[test]
fn merge_takes_max_times_and_sums_counts() {
    let a = trace_of(
        0,
        vec![
            (0, enter(names::SOLVE)),
            (80, exit(names::SOLVE)),
            (
                81,
                EventKind::Counter {
                    name: "c".into(),
                    delta: 1,
                },
            ),
            (
                82,
                EventKind::Comm {
                    dir: CommDir::Send,
                    peer: 1,
                    tag: 1,
                    bytes: 10,
                },
            ),
        ],
    )
    .summary();
    let b = trace_of(
        1,
        vec![
            (0, enter(names::SOLVE)),
            (100, exit(names::SOLVE)),
            (
                101,
                EventKind::Counter {
                    name: "c".into(),
                    delta: 2,
                },
            ),
            (
                102,
                EventKind::Comm {
                    dir: CommDir::Send,
                    peer: 0,
                    tag: 1,
                    bytes: 30,
                },
            ),
        ],
    )
    .summary();
    let m = TraceSummary::merge(&[a, b]);
    assert_eq!(m.rank, usize::MAX);
    let solve = m.phase(names::SOLVE).unwrap();
    assert_eq!(solve.calls, 2);
    assert_eq!(solve.incl_us, 100); // max, not sum
    assert_eq!(m.counters["c"], 3); // summed
    assert_eq!(m.comm.all.bytes_sent, 40); // summed
    assert!(m.table().contains("solve"));
}

#[test]
fn merge_of_empty_slice_is_the_zero_summary() {
    let m = TraceSummary::merge(&[]);
    assert_eq!(m.rank, usize::MAX);
    assert!(m.phases.is_empty());
    assert!(m.counters.is_empty());
    assert!(m.gauges.is_empty());
    assert_eq!(m.comm.all.msgs_sent + m.comm.all.msgs_recv, 0);
    assert_eq!(m.iterations, 0);
    assert!(m.final_relres.is_nan());
    // The zero summary still renders.
    assert!(m.table().contains("phase summary"));
}

#[test]
fn merge_preserves_disjoint_phase_sets_and_gauges() {
    let a = trace_of(
        0,
        vec![
            (0, enter(names::SETUP)),
            (40, exit(names::SETUP)),
            (
                41,
                EventKind::Gauge {
                    name: "arms.levels".into(),
                    value: 3.0,
                },
            ),
        ],
    )
    .summary();
    let b = trace_of(
        1,
        vec![
            (0, enter(names::SOLVE)),
            (90, exit(names::SOLVE)),
            (
                91,
                EventKind::Gauge {
                    name: "arms.levels".into(),
                    value: 2.0,
                },
            ),
            (
                92,
                EventKind::Gauge {
                    name: "only.b".into(),
                    value: 7.0,
                },
            ),
        ],
    )
    .summary();
    let m = TraceSummary::merge(&[a, b]);
    // Neither phase is dropped even though no rank has both.
    assert_eq!(m.phase(names::SETUP).unwrap().incl_us, 40);
    assert_eq!(m.phase(names::SOLVE).unwrap().incl_us, 90);
    // Gauges: max of per-rank maxima, last from the final rank.
    assert_eq!(m.gauges["arms.levels"].max, 3.0);
    assert_eq!(m.gauges["arms.levels"].last, 2.0);
    assert_eq!(m.gauges["only.b"].max, 7.0);
}

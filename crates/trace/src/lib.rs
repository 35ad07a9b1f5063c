//! # parapre-trace
//!
//! Per-rank structured tracing for the distributed solver stack: phase
//! timers, counters/gauges, a per-iteration convergence stream, and
//! communication events, exported as JSON Lines plus per-rank/phase
//! summary tables.
//!
//! ## Model
//!
//! Each rank (thread) owns one [`Recorder`], installed with [`install`]
//! and collected with [`take`]. Recording is **lock-free**: events go into
//! a plain per-thread `Vec` with timestamps from a monotonic per-rank
//! epoch. When no recorder is installed every recording call is a no-op
//! behind a single thread-local boolean load, so the instrumented hot
//! paths cost nothing in benchmark runs (verified by
//! `noop_sink_changes_nothing` in the core crate's integration tests).
//!
//! ```
//! parapre_trace::install(0);
//! {
//!     let _s = parapre_trace::span(parapre_trace::phase::SPMV);
//!     parapre_trace::counter("rows_touched", 100);
//! }
//! let trace = parapre_trace::take().unwrap();
//! let summary = trace.summary();
//! assert_eq!(summary.phase("spmv").unwrap().calls, 1);
//! ```
//!
//! ## JSONL schema
//!
//! One flat JSON object per line; the first line is a `meta` record.
//! `t_us` is microseconds since the rank's recorder was installed.
//!
//! ```json
//! {"kind":"meta","rank":0,"version":1}
//! {"kind":"span_enter","t_us":12,"name":"solve"}
//! {"kind":"span_exit","t_us":90,"name":"solve"}
//! {"kind":"counter","t_us":15,"name":"ilut.fill_nnz","delta":1234}
//! {"kind":"gauge","t_us":15,"name":"arms.levels","value":2e0}
//! {"kind":"iter","t_us":20,"iter":1,"relres":1.5e-3}
//! {"kind":"comm","t_us":25,"dir":"send","peer":2,"tag":256,"bytes":80}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Canonical phase names used across the workspace, so summaries from
/// different layers line up.
pub mod phase {
    /// Whole preconditioner construction.
    pub const SETUP: &str = "setup";
    /// Incomplete factorization inside setup.
    pub const FACTOR: &str = "setup.factor";
    /// Numeric-only refactorization inside setup: a same-pattern matrix
    /// reusing a resident session's symbolic work. Distinct from
    /// [`FACTOR`], which a refactorization never opens.
    pub const REFACTOR: &str = "setup.refactor";
    /// Schur-complement extraction inside setup.
    pub const SCHUR_EXTRACT: &str = "setup.schur_extract";
    /// Interface/block assembly inside setup.
    pub const INTERFACE_ASSEMBLY: &str = "setup.interface_assembly";
    /// Whole outer Krylov solve.
    pub const SOLVE: &str = "solve";
    /// Inner (preconditioner-internal) Krylov solve.
    pub const INNER_SOLVE: &str = "inner_solve";
    /// Distributed sparse matrix-vector product.
    pub const SPMV: &str = "spmv";
    /// Ghost/halo value exchange.
    pub const HALO: &str = "halo_exchange";
    /// Interface-only exchange inside Schur iterations.
    pub const INTERFACE_EXCHANGE: &str = "interface_exchange";
    /// Gram-Schmidt orthogonalization (including its reductions).
    pub const ORTH: &str = "orthogonalization";
    /// Preconditioner application.
    pub const PRECOND_APPLY: &str = "precond_apply";
}

/// Canonical counter names for the comm/compute-overlap and buffer-reuse
/// instrumentation, so producers (mpisim, dist) and consumers (benches,
/// summaries) agree on spelling.
pub mod counters {
    /// A pooled send buffer was reused instead of allocating a fresh one.
    pub const POOL_REUSE: &str = "comm.pool_reuse";
    /// A send had to allocate because the pool was empty.
    pub const POOL_ALLOC: &str = "comm.pool_alloc";
    /// A blocking receive polled its channel before parking the rank thread
    /// (it does so only while every live rank thread can have a core).
    pub const RECV_POLL: &str = "comm.recv_poll";
    /// Halo messages that had already arrived when the overlapped SpMV
    /// finished its interior rows — each count is communication fully
    /// hidden behind computation.
    pub const HALO_READY: &str = "halo.ready_after_interior";
    /// Halo messages the overlapped SpMV still had to block on after the
    /// interior rows were done.
    pub const HALO_WAIT: &str = "halo.wait_after_interior";
    /// Fused (batched) orthogonalization reductions issued by distributed
    /// GMRES — one per iteration under classical Gram–Schmidt.
    pub const GMRES_FUSED_ALLREDUCE: &str = "gmres.fused_allreduce";
    /// Reorthogonalization passes triggered by the cancellation test in
    /// classical Gram–Schmidt (each costs one extra fused reduction).
    pub const GMRES_REORTH: &str = "gmres.reorth";
    /// A message was dropped by the installed fault plan.
    pub const FAULT_DROP: &str = "fault.msg_dropped";
    /// A message delivery was delayed by the installed fault plan.
    pub const FAULT_DELAY: &str = "fault.msg_delayed";
    /// This rank was killed by the installed fault plan.
    pub const FAULT_KILL: &str = "fault.rank_killed";
    /// This rank was hung (stalled past the deadlock tripwire) by the
    /// installed fault plan.
    pub const FAULT_HANG: &str = "fault.rank_hung";
    /// A restart-cycle checkpoint was saved by a distributed solver.
    pub const CKPT_SAVED: &str = "ckpt.saved";
    /// A failed solve attempt was retried by the resilience layer.
    pub const SOLVE_RETRY: &str = "solve.retry";
    /// A solve fell back to the degraded (survivors-only) path.
    pub const SOLVE_DEGRADED: &str = "solve.degraded";
    /// A factorization retried with a diagonal shift (one rung climbed on
    /// the pivot-shift ladder).
    pub const PIVOT_SHIFT: &str = "factor.pivot_shift";
    /// A preconditioner build or solve fell back one rung on the
    /// preconditioner ladder (Schur 2 → Schur 1 → Block 2 → Block 1 → Jacobi).
    pub const PRECOND_FALLBACK: &str = "precond.fallback";
    /// A Krylov solve terminated with a typed breakdown (zero
    /// normalization, non-finite values, stagnation, divergence).
    pub const SOLVE_BREAKDOWN: &str = "solve.breakdown";
    /// An inner GMRES cycle was cut short by the stagnation guard.
    pub const GMRES_STALL_CUT: &str = "gmres.stall_cut";
}

/// Direction of a communication event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommDir {
    /// Message sent by this rank.
    Send,
    /// Message received by this rank.
    Recv,
}

impl CommDir {
    fn as_str(self) -> &'static str {
        match self {
            CommDir::Send => "send",
            CommDir::Recv => "recv",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder's epoch.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A phase span opened.
    SpanEnter {
        /// Phase name.
        name: String,
    },
    /// A phase span closed.
    SpanExit {
        /// Phase name.
        name: String,
    },
    /// A monotone counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// A point-in-time measurement.
    Gauge {
        /// Gauge name.
        name: String,
        /// Value.
        value: f64,
    },
    /// One outer-iteration convergence sample.
    Iter {
        /// Outer iteration number (1-based).
        iter: u64,
        /// Relative residual estimate at that iteration.
        relres: f64,
    },
    /// A point-to-point message.
    Comm {
        /// Send or receive.
        dir: CommDir,
        /// Peer rank.
        peer: u64,
        /// Message tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
}

/// The per-rank event recorder.
#[derive(Debug)]
pub struct Recorder {
    rank: usize,
    epoch: Instant,
    events: Vec<Event>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on the current thread (rank). Any previously
/// installed recorder is dropped.
pub fn install(rank: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            epoch: Instant::now(),
            events: Vec::with_capacity(1024),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Removes the current thread's recorder and returns its trace, if one was
/// installed.
pub fn take() -> Option<RankTrace> {
    ENABLED.with(|e| e.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| RankTrace {
            rank: rec.rank,
            events: rec.events,
        })
}

/// True when the current thread has a recorder installed. This is the
/// whole cost of a disabled recording call: one thread-local load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

#[inline]
fn record(kind: impl FnOnce() -> EventKind) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let t_us = rec.epoch.elapsed().as_micros() as u64;
            rec.events.push(Event { t_us, kind: kind() });
        }
    });
}

/// RAII guard for a phase span; records the exit on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    name: &'static str,
    active: bool,
}

/// Opens a phase span. No-op (and allocation-free) when tracing is
/// disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    let active = enabled();
    if active {
        record(|| EventKind::SpanEnter {
            name: name.to_string(),
        });
    }
    Span { name, active }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            record(|| EventKind::SpanExit {
                name: self.name.to_string(),
            });
        }
    }
}

/// Increments a named counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    record(|| EventKind::Counter {
        name: name.to_string(),
        delta,
    });
}

/// Records a point-in-time gauge value.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    record(|| EventKind::Gauge {
        name: name.to_string(),
        value,
    });
}

/// Records one outer-iteration convergence sample.
#[inline]
pub fn iteration(iter: usize, relres: f64) {
    record(|| EventKind::Iter {
        iter: iter as u64,
        relres,
    });
}

/// Records a point-to-point communication event.
#[inline]
pub fn comm(dir: CommDir, peer: usize, tag: u64, bytes: u64) {
    record(|| EventKind::Comm {
        dir,
        peer: peer as u64,
        tag,
        bytes,
    });
}

// --------------------------------------------------------------------------
// Collected traces
// --------------------------------------------------------------------------

/// The completed event stream of one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// The rank that recorded the events.
    pub rank: usize,
    /// Events in record order (timestamps non-decreasing).
    pub events: Vec<Event>,
}

impl RankTrace {
    /// Serializes the trace as JSON Lines (see the crate docs for the
    /// schema). The first line is a `meta` record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 * (self.events.len() + 1));
        let _ = writeln!(
            out,
            "{{\"kind\":\"meta\",\"rank\":{},\"version\":1}}",
            self.rank
        );
        for ev in &self.events {
            let t = ev.t_us;
            match &ev.kind {
                EventKind::SpanEnter { name } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"span_enter\",\"t_us\":{t},\"name\":\"{}\"}}",
                        escape(name)
                    );
                }
                EventKind::SpanExit { name } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"span_exit\",\"t_us\":{t},\"name\":\"{}\"}}",
                        escape(name)
                    );
                }
                EventKind::Counter { name, delta } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"counter\",\"t_us\":{t},\"name\":\"{}\",\"delta\":{delta}}}",
                        escape(name)
                    );
                }
                EventKind::Gauge { name, value } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"gauge\",\"t_us\":{t},\"name\":\"{}\",\"value\":{}}}",
                        escape(name),
                        json_f64(*value)
                    );
                }
                EventKind::Iter { iter, relres } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"iter\",\"t_us\":{t},\"iter\":{iter},\"relres\":{}}}",
                        json_f64(*relres)
                    );
                }
                EventKind::Comm {
                    dir,
                    peer,
                    tag,
                    bytes,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"comm\",\"t_us\":{t},\"dir\":\"{}\",\"peer\":{peer},\"tag\":{tag},\"bytes\":{bytes}}}",
                        dir.as_str()
                    );
                }
            }
        }
        out
    }

    /// Writes the JSONL serialization to `w`.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }

    /// Parses a trace back from its JSONL serialization (round-trip of
    /// [`RankTrace::to_jsonl`]).
    pub fn from_jsonl(text: &str) -> Result<RankTrace, String> {
        let mut rank = 0usize;
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields =
                parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = fields
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing kind", lineno + 1))?;
            let t_us = fields.get("t_us").and_then(JsonValue::as_u64).unwrap_or(0);
            let name = || -> Result<String, String> {
                fields
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: missing name", lineno + 1))
            };
            match kind {
                "meta" => {
                    rank = fields.get("rank").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                }
                "span_enter" => events.push(Event {
                    t_us,
                    kind: EventKind::SpanEnter { name: name()? },
                }),
                "span_exit" => events.push(Event {
                    t_us,
                    kind: EventKind::SpanExit { name: name()? },
                }),
                "counter" => events.push(Event {
                    t_us,
                    kind: EventKind::Counter {
                        name: name()?,
                        delta: fields.get("delta").and_then(JsonValue::as_u64).unwrap_or(0),
                    },
                }),
                "gauge" => events.push(Event {
                    t_us,
                    kind: EventKind::Gauge {
                        name: name()?,
                        value: fields
                            .get("value")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(f64::NAN),
                    },
                }),
                "iter" => events.push(Event {
                    t_us,
                    kind: EventKind::Iter {
                        iter: fields.get("iter").and_then(JsonValue::as_u64).unwrap_or(0),
                        relres: fields
                            .get("relres")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(f64::NAN),
                    },
                }),
                "comm" => {
                    let dir = match fields.get("dir").and_then(JsonValue::as_str) {
                        Some("send") => CommDir::Send,
                        Some("recv") => CommDir::Recv,
                        other => {
                            return Err(format!("line {}: bad dir {other:?}", lineno + 1));
                        }
                    };
                    events.push(Event {
                        t_us,
                        kind: EventKind::Comm {
                            dir,
                            peer: fields.get("peer").and_then(JsonValue::as_u64).unwrap_or(0),
                            tag: fields.get("tag").and_then(JsonValue::as_u64).unwrap_or(0),
                            bytes: fields.get("bytes").and_then(JsonValue::as_u64).unwrap_or(0),
                        },
                    });
                }
                other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
            }
        }
        Ok(RankTrace { rank, events })
    }

    /// Aggregates the event stream into a per-phase/counter summary.
    pub fn summary(&self) -> TraceSummary {
        let mut phases: BTreeMap<String, PhaseStat> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, GaugeStat> = BTreeMap::new();
        let mut comm = CommTotals::default();
        let mut iterations = 0u64;
        let mut final_relres = f64::NAN;
        // Stack of open frames: (name, enter_t, child_time_us).
        let mut stack: Vec<(String, u64, u64)> = Vec::new();
        for ev in &self.events {
            match &ev.kind {
                EventKind::SpanEnter { name } => {
                    stack.push((name.clone(), ev.t_us, 0));
                }
                EventKind::SpanExit { name } => {
                    // Pop to the matching frame; unmatched exits are skipped.
                    let Some(pos) = stack.iter().rposition(|(n, _, _)| n == name) else {
                        continue;
                    };
                    // Close any nested frames that were never exited first.
                    while stack.len() > pos {
                        let (n, t0, child) = stack.pop().expect("nonempty");
                        let recursive = self_on_stack(&stack, &n);
                        close_frame(&mut phases, &mut stack, &n, t0, child, ev.t_us, recursive);
                    }
                }
                EventKind::Counter { name, delta } => {
                    *counters.entry(name.clone()).or_insert(0) += delta;
                }
                EventKind::Gauge { name, value } => {
                    let g = gauges.entry(name.clone()).or_insert(GaugeStat {
                        last: *value,
                        max: *value,
                    });
                    g.last = *value;
                    g.max = g.max.max(*value);
                }
                EventKind::Iter { iter, relres } => {
                    iterations = iterations.max(*iter);
                    final_relres = *relres;
                }
                EventKind::Comm {
                    dir, peer, bytes, ..
                } => {
                    let per = comm.per_peer.entry(*peer as usize).or_default();
                    match dir {
                        CommDir::Send => {
                            comm.msgs_sent += 1;
                            comm.bytes_sent += bytes;
                            per.msgs_sent += 1;
                            per.bytes_sent += bytes;
                        }
                        CommDir::Recv => {
                            comm.msgs_recv += 1;
                            comm.bytes_recv += bytes;
                            per.msgs_recv += 1;
                            per.bytes_recv += bytes;
                        }
                    }
                }
            }
        }
        TraceSummary {
            rank: self.rank,
            phases,
            counters,
            gauges,
            comm,
            iterations,
            final_relres,
        }
    }
}

fn self_on_stack(stack: &[(String, u64, u64)], name: &str) -> bool {
    stack.iter().any(|(n, _, _)| n == name)
}

fn close_frame(
    phases: &mut BTreeMap<String, PhaseStat>,
    stack: &mut [(String, u64, u64)],
    name: &str,
    t0: u64,
    child_us: u64,
    t1: u64,
    recursive: bool,
) {
    let dur = t1.saturating_sub(t0);
    let stat = phases.entry(name.to_string()).or_default();
    stat.calls += 1;
    // Inclusive time only counts the outermost instance of a recursive
    // phase; exclusive (self) time always accumulates.
    if !recursive {
        stat.incl_us += dur;
    }
    stat.excl_us += dur.saturating_sub(child_us);
    if let Some(parent) = stack.last_mut() {
        parent.2 += dur;
    }
}

/// Aggregate timing of one phase on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of span entries.
    pub calls: u64,
    /// Inclusive wall time (children included), microseconds. Recursive
    /// re-entries of the same phase are not double-counted.
    pub incl_us: u64,
    /// Exclusive (self) wall time, microseconds.
    pub excl_us: u64,
}

/// Communication totals derived from comm events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommTotals {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Per-peer breakdown.
    pub per_peer: BTreeMap<usize, PeerTotals>,
}

/// Per-peer message/byte totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTotals {
    /// Messages sent to this peer.
    pub msgs_sent: u64,
    /// Bytes sent to this peer.
    pub bytes_sent: u64,
    /// Messages received from this peer.
    pub msgs_recv: u64,
    /// Bytes received from this peer.
    pub bytes_recv: u64,
}

/// Last and largest recorded values of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Most recent recorded value (in a merge: the last rank's value).
    pub last: f64,
    /// Largest recorded value (NaN records are ignored).
    pub max: f64,
}

/// The folded per-rank summary of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Source rank (or `usize::MAX` for a cross-rank merge).
    pub rank: usize,
    /// Per-phase timing, keyed by phase name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last + max value of each gauge.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Communication totals.
    pub comm: CommTotals,
    /// Highest outer iteration seen in the convergence stream.
    pub iterations: u64,
    /// Last relative residual in the convergence stream.
    pub final_relres: f64,
}

impl TraceSummary {
    /// Looks up one phase.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.get(name)
    }

    /// Inclusive seconds of a phase (0 when absent).
    pub fn phase_seconds(&self, name: &str) -> f64 {
        self.phases
            .get(name)
            .map_or(0.0, |p| p.incl_us as f64 * 1e-6)
    }

    /// Merges per-rank summaries into a run-level view: phase times take
    /// the **max** across ranks (the pace-setting rank), calls, counters
    /// and communication totals are **summed**; gauges keep the max of
    /// the per-rank maxima while `last` takes the final rank's value.
    ///
    /// Edge cases are well-defined: an empty slice yields the zero
    /// summary (no phases/counters/gauges, zero comm, `final_relres`
    /// NaN), and ranks with disjoint phase sets contribute every phase —
    /// a phase missing on some ranks is merged as if those ranks spent
    /// zero time in it.
    pub fn merge(per_rank: &[TraceSummary]) -> TraceSummary {
        let mut out = TraceSummary {
            rank: usize::MAX,
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            comm: CommTotals::default(),
            iterations: 0,
            final_relres: f64::NAN,
        };
        for s in per_rank {
            for (name, p) in &s.phases {
                let m = out.phases.entry(name.clone()).or_default();
                m.calls += p.calls;
                m.incl_us = m.incl_us.max(p.incl_us);
                m.excl_us = m.excl_us.max(p.excl_us);
            }
            for (name, v) in &s.counters {
                *out.counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, v) in &s.gauges {
                let g = out.gauges.entry(name.clone()).or_insert(*v);
                g.max = g.max.max(v.max);
                g.last = v.last;
            }
            out.comm.msgs_sent += s.comm.msgs_sent;
            out.comm.bytes_sent += s.comm.bytes_sent;
            out.comm.msgs_recv += s.comm.msgs_recv;
            out.comm.bytes_recv += s.comm.bytes_recv;
            for (&peer, pt) in &s.comm.per_peer {
                let m = out.comm.per_peer.entry(peer).or_default();
                m.msgs_sent += pt.msgs_sent;
                m.bytes_sent += pt.bytes_sent;
                m.msgs_recv += pt.msgs_recv;
                m.bytes_recv += pt.bytes_recv;
            }
            out.iterations = out.iterations.max(s.iterations);
            if !s.final_relres.is_nan() {
                out.final_relres = s.final_relres;
            }
        }
        out
    }

    /// Renders a human-readable phase table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let who = if self.rank == usize::MAX {
            "all ranks (phase times: max over ranks)".to_string()
        } else {
            format!("rank {}", self.rank)
        };
        let _ = writeln!(out, "phase summary [{who}]");
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>12} {:>12}",
            "phase", "calls", "incl(ms)", "self(ms)"
        );
        for (name, p) in &self.phases {
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>12.3} {:>12.3}",
                name,
                p.calls,
                p.incl_us as f64 / 1e3,
                p.excl_us as f64 / 1e3
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<26} {:>20}", "counter", "total");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{:<26} {:>20}", name, v);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<26} {:>12} {:>12}", "gauge", "last", "max");
            for (name, g) in &self.gauges {
                let _ = writeln!(out, "{:<26} {:>12.3} {:>12.3}", name, g.last, g.max);
            }
        }
        let c = &self.comm;
        let _ = writeln!(
            out,
            "comm: sent {} msgs / {} B, recv {} msgs / {} B, {} peers",
            c.msgs_sent,
            c.bytes_sent,
            c.msgs_recv,
            c.bytes_recv,
            c.per_peer.len()
        );
        if self.iterations > 0 {
            let _ = writeln!(
                out,
                "convergence: {} outer iterations, final relres {:.3e}",
                self.iterations, self.final_relres
            );
        }
        out
    }
}

use flatjson::{escape, json_f64, parse_flat_object, JsonValue};

/// Minimal flat (non-nested) JSON helpers — no external crates are
/// available offline, so the trace JSONL reader and the engine's job-stream
/// protocol share this one hand-rolled parser/printer.
pub mod flatjson {
    use std::collections::BTreeMap;

    /// Escapes a string for embedding in a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    /// Prints a float as a JSON number (`null` for non-finite values).
    pub fn json_f64(v: f64) -> String {
        if v.is_finite() {
            // `{:e}` produces e.g. `1.5e-3`, a valid JSON number.
            format!("{v:e}")
        } else {
            "null".to_string()
        }
    }

    /// A value of a flat JSON object: a scalar, or an array of scalars
    /// (the one level of nesting result lines use, e.g. `iterations`).
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// A string.
        Str(String),
        /// Any JSON number (parsed as `f64`).
        Num(f64),
        /// `true` / `false`.
        Bool(bool),
        /// `null`.
        Null,
        /// An array of scalars (arrays of arrays are not supported).
        Arr(Vec<JsonValue>),
    }

    impl JsonValue {
        /// The string contents, if a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }
        /// The number truncated to `u64`, if a non-negative number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
                _ => None,
            }
        }
        /// The number (`NaN` for `null`), if a number or `null`.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(n) => Some(*n),
                JsonValue::Null => Some(f64::NAN),
                _ => None,
            }
        }
        /// The boolean, if a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }
        /// The elements, if an array.
        pub fn as_arr(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parses one flat (non-nested) JSON object into key → value.
    pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("not an object")?;
        let mut map = BTreeMap::new();
        let chars: Vec<char> = inner.chars().collect();
        let mut i = 0usize;
        let n = chars.len();
        let skip_ws = |i: &mut usize| {
            while *i < n && chars[*i].is_whitespace() {
                *i += 1;
            }
        };
        let parse_string = |i: &mut usize| -> Result<String, String> {
            if chars.get(*i) != Some(&'"') {
                return Err(format!("expected string at {i:?}"));
            }
            *i += 1;
            let mut s = String::new();
            while *i < n {
                match chars[*i] {
                    '\\' => {
                        *i += 1;
                        match chars.get(*i) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *i += 1;
                    }
                    '"' => {
                        *i += 1;
                        return Ok(s);
                    }
                    c => {
                        s.push(c);
                        *i += 1;
                    }
                }
            }
            Err("unterminated string".into())
        };
        loop {
            skip_ws(&mut i);
            if i >= n {
                break;
            }
            let key = parse_string(&mut i)?;
            skip_ws(&mut i);
            if chars.get(i) != Some(&':') {
                return Err(format!("expected ':' after key {key}"));
            }
            i += 1;
            skip_ws(&mut i);
            let parse_token = |tok: &str| -> Result<JsonValue, String> {
                match tok {
                    "null" => Ok(JsonValue::Null),
                    "true" => Ok(JsonValue::Bool(true)),
                    "false" => Ok(JsonValue::Bool(false)),
                    _ => Ok(JsonValue::Num(
                        tok.parse::<f64>()
                            .map_err(|e| format!("bad number {tok:?}: {e}"))?,
                    )),
                }
            };
            let value = if chars.get(i) == Some(&'"') {
                JsonValue::Str(parse_string(&mut i)?)
            } else if chars.get(i) == Some(&'[') {
                i += 1;
                let mut items = Vec::new();
                loop {
                    skip_ws(&mut i);
                    match chars.get(i) {
                        None => return Err("unterminated array".into()),
                        Some(']') => {
                            i += 1;
                            break;
                        }
                        Some('"') => items.push(JsonValue::Str(parse_string(&mut i)?)),
                        Some(_) => {
                            let start = i;
                            while i < n && chars[i] != ',' && chars[i] != ']' {
                                i += 1;
                            }
                            let tok: String = chars[start..i].iter().collect();
                            items.push(parse_token(tok.trim())?);
                        }
                    }
                    skip_ws(&mut i);
                    if chars.get(i) == Some(&',') {
                        i += 1;
                    }
                }
                JsonValue::Arr(items)
            } else {
                let start = i;
                while i < n && chars[i] != ',' {
                    i += 1;
                }
                let tok: String = chars[start..i].iter().collect();
                parse_token(tok.trim())?
            };
            map.insert(key, value);
            skip_ws(&mut i);
            if chars.get(i) == Some(&',') {
                i += 1;
            }
        }
        Ok(map)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_all_scalar_kinds() {
            let m = parse_flat_object(r#"{"s":"a\"b","n":-1.5e3,"t":true,"f":false,"z":null}"#)
                .unwrap();
            assert_eq!(m["s"].as_str(), Some("a\"b"));
            assert_eq!(m["n"].as_f64(), Some(-1500.0));
            assert_eq!(m["t"].as_bool(), Some(true));
            assert_eq!(m["f"].as_bool(), Some(false));
            assert!(m["z"].as_f64().unwrap().is_nan());
            assert!(parse_flat_object("not json").is_err());
        }

        #[test]
        fn parses_scalar_arrays() {
            let m =
                parse_flat_object(r#"{"it":[3, 4,5],"empty":[],"mix":["a",true,null]}"#).unwrap();
            let it: Vec<u64> = m["it"]
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(JsonValue::as_u64)
                .collect();
            assert_eq!(it, vec![3, 4, 5]);
            assert_eq!(m["empty"].as_arr(), Some(&[][..]));
            let mix = m["mix"].as_arr().unwrap();
            assert_eq!(mix[0].as_str(), Some("a"));
            assert_eq!(mix[1].as_bool(), Some(true));
            assert!(parse_flat_object(r#"{"bad":[1,"#).is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        assert!(!enabled());
        let _s = span("anything");
        counter("c", 1);
        iteration(1, 0.5);
        assert!(take().is_none());
    }

    #[test]
    fn span_guard_records_enter_and_exit() {
        install(3);
        {
            let _s = span("outer");
            let _t = span("inner");
        }
        let tr = take().unwrap();
        assert_eq!(tr.rank, 3);
        let kinds: Vec<_> = tr
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::SpanEnter { name } => format!("+{name}"),
                EventKind::SpanExit { name } => format!("-{name}"),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(kinds, vec!["+outer", "+inner", "-inner", "-outer"]);
    }
}

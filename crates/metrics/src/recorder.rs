//! The rank scope: one event recorder per rank thread, its JSON Lines
//! form, and the per-phase / counter / comm summary folded from it.
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
//! {"kind":"counter","t_us":15,"name":"factor.fill_nnz","delta":1234}
//! {"kind":"gauge","t_us":15,"name":"arms.levels","value":2e0}
//! {"kind":"iter","t_us":20,"iter":1,"relres":1.5e-3}
//! {"kind":"comm","t_us":25,"dir":"send","peer":2,"tag":256,"bytes":80}
//! ```

use crate::flatjson::{escape, json_f64, parse_flat_object, JsonValue};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

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
struct Recorder {
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
/// whole cost of a rank-scope verb on a thread that records nothing: one
/// thread-local load.
#[inline]
pub fn recording() -> bool {
    ENABLED.with(|e| e.get())
}

/// Appends one event to the thread's recorder; `kind` is only built when
/// one is installed.
#[inline]
pub(crate) fn record(kind: impl FnOnce() -> EventKind) {
    if !recording() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let t_us = rec.epoch.elapsed().as_micros() as u64;
            rec.events.push(Event { t_us, kind: kind() });
        }
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
    /// Appends `later`, a stream the same rank recorded after this one
    /// ended (under a fresh epoch), shifting its timestamps past this
    /// stream's last so the result stays non-decreasing.
    pub fn append(&mut self, later: RankTrace) {
        let offset = self.events.last().map_or(0, |e| e.t_us);
        self.events.extend(later.events.into_iter().map(|e| Event {
            t_us: e.t_us + offset,
            ..e
        }));
    }

    /// Serializes the trace as JSON Lines (see the module docs for the
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
            let int = |key: &str| fields.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            let num = |key: &str| {
                fields
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let name = || -> Result<String, String> {
                fields
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: missing name", lineno + 1))
            };
            let kind = match kind {
                "meta" => {
                    rank = int("rank") as usize;
                    continue;
                }
                "span_enter" => EventKind::SpanEnter { name: name()? },
                "span_exit" => EventKind::SpanExit { name: name()? },
                "counter" => EventKind::Counter {
                    name: name()?,
                    delta: int("delta"),
                },
                "gauge" => EventKind::Gauge {
                    name: name()?,
                    value: num("value"),
                },
                "iter" => EventKind::Iter {
                    iter: int("iter"),
                    relres: num("relres"),
                },
                "comm" => EventKind::Comm {
                    dir: match fields.get("dir").and_then(JsonValue::as_str) {
                        Some("send") => CommDir::Send,
                        Some("recv") => CommDir::Recv,
                        other => return Err(format!("line {}: bad dir {other:?}", lineno + 1)),
                    },
                    peer: int("peer"),
                    tag: int("tag"),
                    bytes: int("bytes"),
                },
                other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
            };
            events.push(Event {
                t_us: int("t_us"),
                kind,
            });
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
                    comm.all.message(*dir, *bytes);
                    comm.per_peer
                        .entry(*peer as usize)
                        .or_default()
                        .message(*dir, *bytes);
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

/// Message and payload-byte totals, both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
}

impl Traffic {
    fn message(&mut self, dir: CommDir, bytes: u64) {
        match dir {
            CommDir::Send => {
                self.msgs_sent += 1;
                self.bytes_sent += bytes;
            }
            CommDir::Recv => {
                self.msgs_recv += 1;
                self.bytes_recv += bytes;
            }
        }
    }

    fn add(&mut self, other: &Traffic) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
    }
}

/// Communication totals derived from comm events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommTotals {
    /// Every peer together.
    pub all: Traffic,
    /// Per-peer breakdown.
    pub per_peer: BTreeMap<usize, Traffic>,
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
            out.comm.all.add(&s.comm.all);
            for (&peer, pt) in &s.comm.per_peer {
                out.comm.per_peer.entry(peer).or_default().add(pt);
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
        let c = &self.comm.all;
        let _ = writeln!(
            out,
            "comm: sent {} msgs / {} B, recv {} msgs / {} B, {} peers",
            c.msgs_sent,
            c.bytes_sent,
            c.msgs_recv,
            c.bytes_recv,
            self.comm.per_peer.len()
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

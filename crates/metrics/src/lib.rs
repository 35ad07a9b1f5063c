//! # parapre-metrics
//!
//! The instrumentation of the parapre stack: one vocabulary, two scopes.
//!
//! **Rank scope** — what one rank thread did, in order. [`span`],
//! [`count`], [`gauge`] and [`comm`] append to the thread's recorder
//! ([`install`] / [`take`], or [`recorded`] around a rank body). Recording
//! is lock-free: events go into a plain per-thread `Vec` with timestamps
//! from a monotonic per-rank epoch. On a thread with no recorder every
//! verb is a single thread-local load ([`recording`]), so the instrumented
//! hot paths cost nothing in benchmark runs (`noop_sink_changes_nothing` in
//! `crates/engine/tests/trace_integration.rs`). The stream serializes as
//! JSON Lines ([`RankTrace::to_jsonl`]) and folds into per-phase, counter
//! and comm totals ([`TraceSummary`]).
//!
//! **Process scope** — what the process is doing now. [`inc`],
//! [`gauge_set`] and [`observe`] update an always-on registry of atomic
//! counters, last-write-wins gauges and log-bucketed histograms (~12.5 %
//! relative bucket width, exact count/sum/min/max), rendered by
//! [`metrics_text`] as a Prometheus-style exposition and switched off as a
//! whole by [`set_enabled`]. Each of them **also calls the rank-scope verb
//! of the same name** (`inc` → `count`, `gauge_set` and `observe` →
//! `gauge`), so a recording thread's stream is a superset of what a scrape
//! sees. The layering is one-way: rank-scope verbs never touch the
//! registry, so no per-message or per-iteration call takes a lock.
//!
//! **One clock.** A [`TimedSpan`] ([`timed`]) owns its start instant and
//! [`TimedSpan::close`] returns how long it was open; one named by a latency
//! family (`…_us`) also records that reading into the histogram of its name.
//!
//! [`convergence`] reports one step of a Krylov solve to both scopes at
//! once; [`LoadReport`] quantifies per-rank busy / comm-wait skew; every
//! name either scope uses is a constant in [`names`].
//!
//! ```
//! use parapre_metrics::names;
//! parapre_metrics::install(0);
//! {
//!     let _s = parapre_metrics::span(names::SPMV);
//!     parapre_metrics::count(names::FILL_NNZ, 100);
//! }
//! let trace = parapre_metrics::take().unwrap();
//! let summary = trace.summary();
//! assert_eq!(summary.phase("spmv").unwrap().calls, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flatjson;
mod load;
mod recorder;
mod registry;

pub use load::{LoadReport, RankLoad};
pub use recorder::{
    install, recording, take, CommDir, CommTotals, Event, EventKind, GaugeStat, PhaseStat,
    RankTrace, TraceSummary, Traffic,
};
pub use registry::{AtomicHistogram, ConvEvent, ConvKind, HistogramSnapshot, MetricsSnapshot};

use recorder::record;
use registry::Registry;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Rank scope
// ---------------------------------------------------------------------------

/// A phase of the thread's stream: on a recording thread its enter and
/// exit are in it.
#[must_use = "dropping the guard immediately ends the span"]
pub struct Span {
    name: &'static str,
    active: bool,
}

/// Opens a phase span. On a thread that is not recording it is one
/// thread-local load, with no clock read and no allocation.
#[inline]
pub fn span(name: &'static str) -> Span {
    let active = recording();
    if active {
        record(|| EventKind::SpanEnter {
            name: name.to_string(),
        });
    }
    Span { name, active }
}

/// A span that owns its start instant: [`TimedSpan::close`] returns how
/// long it was open. Dropping it without `close` gives no reading: an
/// interval cut short by an error is not a latency.
#[must_use = "dropping the guard immediately ends the span"]
pub struct TimedSpan {
    span: Span,
    start: Instant,
}

/// Opens a timed span now.
pub fn timed(name: &'static str) -> TimedSpan {
    timed_since(name, Instant::now())
}

/// Opens a timed span that started at `start` (a submission stamp); its
/// enter is written to the stream now.
pub fn timed_since(name: &'static str, start: Instant) -> TimedSpan {
    let span = span(name);
    TimedSpan { span, start }
}

impl TimedSpan {
    /// Closes the span and returns how long it was open; a latency family
    /// (a name ending in `_us`) also records it, in whole µs, while the
    /// registry is on.
    pub fn close(self) -> Duration {
        let d = self.start.elapsed();
        if self.span.name.ends_with("_us") {
            global().observe(self.span.name, d.as_micros() as u64);
        }
        d
    }
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

/// Adds `delta` to a named count in the thread's stream.
#[inline]
pub fn count(name: &str, delta: u64) {
    record(|| EventKind::Counter {
        name: name.to_string(),
        delta,
    });
}

/// Records a point-in-time value in the thread's stream.
#[inline]
pub fn gauge(name: &str, value: f64) {
    record(|| EventKind::Gauge {
        name: name.to_string(),
        value,
    });
}

/// Records a point-to-point message in the thread's stream.
#[inline]
pub fn comm(dir: CommDir, peer: usize, tag: u64, bytes: u64) {
    record(|| EventKind::Comm {
        dir,
        peer: peer as u64,
        tag,
        bytes,
    });
}

/// Runs one rank's `body`, under a fresh recorder when `on`, and hands back
/// what it recorded. With `on == false` nothing is installed and the stream
/// is `None`.
pub fn recorded<T>(rank: usize, on: bool, body: impl FnOnce() -> T) -> (T, Option<RankTrace>) {
    if on {
        install(rank);
    }
    let out = body();
    (out, if on { take() } else { None })
}

// ---------------------------------------------------------------------------
// Process scope
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether the registry records (default: yes). Callers check this before
/// doing any work to build metric values.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Turns the registry on or off. The rank scope is not affected: a thread
/// with a recorder keeps recording.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Adds `delta` to a registry counter, and [`count`]s it on this thread.
pub fn inc(name: &str, delta: u64) {
    global().inc(name, delta);
    count(name, delta);
}

/// Sets a registry gauge, and [`gauge`]s it on this thread.
pub fn gauge_set(name: &str, v: f64) {
    global().gauge_set(name, v);
    gauge(name, v);
}

/// Records `v` into a registry histogram, and [`gauge`]s it on this
/// thread: a count, or a span's reading again under a keyed name.
pub fn observe(name: &str, v: u64) {
    global().observe(name, v);
    gauge(name, v as f64);
}

/// Snapshot of the registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Prometheus-style text exposition of the registry.
pub fn metrics_text() -> String {
    global().metrics_text()
}

// ---------------------------------------------------------------------------
// Convergence: one call, both scopes
// ---------------------------------------------------------------------------

/// Reports one convergence fact of a Krylov solve.
///
/// On **every** rank that calls it: an [`ConvKind::Iter`] becomes the
/// stream's `iter` event, a terminal [`ConvKind::Stall`] or
/// [`ConvKind::Breakdown`] one [`names::SOLVE_BREAKDOWN`] count.
///
/// On the rank that `speaks` for the run, while the registry is enabled,
/// the event also enters the bounded ring `watch` drains. Exactly one
/// caller per solve may speak: rank 0 of an outer distributed solve
/// (`comm.rank() == 0`; inner fixed-effort solves are silent), or a
/// sequential solver, which has no peers.
pub fn convergence(
    source: &'static str,
    speaks: bool,
    iter: usize,
    relres: f64,
    kind: ConvKind,
    detail: &str,
) {
    match kind {
        ConvKind::Iter => record(|| EventKind::Iter {
            iter: iter as u64,
            relres,
        }),
        ConvKind::Stall | ConvKind::Breakdown => count(names::SOLVE_BREAKDOWN, 1),
        ConvKind::Converged => {}
    }
    if speaks && enabled() {
        // The stream form of this tally is the event itself.
        let g = global();
        g.inc(names::CONV_EVENTS_TOTAL, 1);
        g.ring.push(source, iter as u64, relres, kind, detail);
    }
}

/// Ring events with `seq > since`, oldest first.
pub fn conv_since(since: u64) -> Vec<ConvEvent> {
    global().ring.since(since)
}

/// Convergence events ever pushed into the ring (the latest sequence
/// number).
pub fn conv_total() -> u64 {
    global().ring.total()
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

/// Every name the stack records under: phase spans, rank-scope counts and
/// gauges, and the registry's metric families.
pub mod names {
    // -- Phase spans, so summaries from different layers line up. --------

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
    /// One rank's share of a `SolverSession::run` (scatter, solve, true
    /// residuals, gather); its close is the rank's busy time.
    pub const RUN: &str = "run";
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

    // -- Rank-scope counts and gauges. -----------------------------------

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
    /// Fused (batched) orthogonalization reductions issued by GMRES — one
    /// per iteration under delayed classical Gram–Schmidt.
    pub const GMRES_FUSED_ALLREDUCE: &str = "gmres.fused_allreduce";
    /// Sums that complete a Hessenberg column without a next step under
    /// delayed classical Gram–Schmidt: the last step of a cycle, or a step
    /// whose estimate met the target.
    pub const GMRES_COMPLETION: &str = "gmres.completion";
    /// A Krylov solve terminated with a typed breakdown (zero
    /// normalization, non-finite values, stagnation, divergence).
    pub const SOLVE_BREAKDOWN: &str = "solve.breakdown";
    /// Stored entries of a finished incomplete factorization.
    pub const FILL_NNZ: &str = "factor.fill_nnz";
    /// A factorization retried with a diagonal shift (one rung climbed on
    /// the pivot-shift ladder).
    pub const PIVOT_SHIFT: &str = "factor.pivot_shift";
    /// A preconditioner build or solve fell back one rung on the
    /// preconditioner ladder (Schur 2 → Schur 1 → Block 2 → Block 1 → Jacobi).
    pub const PRECOND_FALLBACK: &str = "precond.fallback";
    /// Gauge: levels of a finished ARMS factorization.
    pub const ARMS_LEVELS: &str = "arms.levels";
    /// Gauge: rows of the last (coarsest) ARMS level.
    pub const ARMS_LAST_N: &str = "arms.last_n";
    /// Gauge: elimination levels of this rank's SchurML hierarchy.
    pub const SCHURML_LEVEL_COUNT: &str = "schurml.level_count";
    /// Gauge: largest low-rank correction rank over this rank's SchurML
    /// levels.
    pub const SCHURML_CORRECTION_RANK: &str = "schurml.correction_rank";

    /// Gauge name of the interface size of level `d` of this rank's
    /// SchurML hierarchy.
    pub fn schurml_level_interface(d: usize) -> String {
        format!("schurml.level{d}.interface")
    }

    // -- Registry families; a `…_us` one is fed by the timed span of its name.
    // The keyed `parapre_solve_us{fp="…",precond="…"}` (fingerprint in
    // lowercase hex, rung label) gets each [`SOLVE_US`] reading too. -----

    /// Counter: jobs accepted by the solve service.
    pub const JOBS_TOTAL: &str = "parapre_jobs_total";
    /// Counter: jobs that errored (setup/solve failure, bad job line).
    pub const JOBS_FAILED_TOTAL: &str = "parapre_jobs_failed_total";
    /// Counter: right-hand sides solved (a `batch:k` run counts k).
    pub const SOLVES_TOTAL: &str = "parapre_solves_total";
    /// Counter: session-cache hits.
    pub const CACHE_HITS_TOTAL: &str = "parapre_cache_hits_total";
    /// Counter: session-cache misses.
    pub const CACHE_MISSES_TOTAL: &str = "parapre_cache_misses_total";
    /// Counter: session-cache evictions.
    pub const CACHE_EVICTIONS_TOTAL: &str = "parapre_cache_evictions_total";
    /// Counter: convergence events pushed into the ring.
    pub const CONV_EVENTS_TOTAL: &str = "parapre_conv_events_total";
    /// Histogram (µs), the worker's queue span: submission → dequeued.
    pub const QUEUE_WAIT_US: &str = "parapre_queue_wait_us";
    /// Histogram (µs), a solve job's build span, read on a cache miss:
    /// problem resolution + cache lookup + cold or refactored build (which
    /// also feeds [`REFACTOR_US`]). A stale probe adds a second reading:
    /// the discarded attempt + the cold rebuild.
    pub const BUILD_US: &str = "parapre_build_us";
    /// Histogram (µs), the span of a one-right-hand-side
    /// `SolverSession::run`: universe launch → join.
    pub const SOLVE_US: &str = "parapre_solve_us";
    /// Histogram (µs), the worker's end-to-end span: submission → result.
    pub const E2E_US: &str = "parapre_e2e_us";
    /// Histogram: outer iterations per session solve.
    pub const SOLVE_ITERS: &str = "parapre_solve_iters";
    /// Gauge: imbalance ratio (max/mean rank busy) of the last solve.
    pub const LOAD_IMBALANCE: &str = "parapre_load_imbalance";
    /// Gauge: comm-wait fraction of the last solve.
    pub const LOAD_COMM_FRACTION: &str = "parapre_load_comm_fraction";
    /// Gauge: pace-setting rank of the last solve.
    pub const LOAD_SLOWEST_RANK: &str = "parapre_load_slowest_rank";
    /// Histogram (µs), the span of a `SolverSession::run` of k > 1
    /// right-hand sides: one reading per batch.
    pub const BATCH_SOLVE_US: &str = "parapre_batch_solve_us";
    /// Counter: client connections accepted by `parapre-netd`.
    pub const NET_CONNECTIONS_TOTAL: &str = "parapre_net_connections_total";
    /// Gauge: currently connected `parapre-netd` clients.
    pub const NET_ACTIVE_CONNECTIONS: &str = "parapre_net_active_connections";
    /// Counter: protocol frames received by `parapre-netd`.
    pub const NET_FRAMES_TOTAL: &str = "parapre_net_frames_total";
    /// Counter: malformed / oversized frames answered with a structured
    /// error instead of work.
    pub const NET_FRAMES_REJECTED_TOTAL: &str = "parapre_net_frames_rejected_total";
    /// Counter: submissions refused by per-client admission control.
    pub const NET_ADMISSION_REJECTS_TOTAL: &str = "parapre_net_admission_rejects_total";
    /// Counter: matrices ingested by fingerprint (first-time puts).
    pub const NET_MATRIX_PUTS_TOTAL: &str = "parapre_net_matrix_puts_total";
    /// Counter: repeat-matrix puts deduplicated by fingerprint (the bytes
    /// were parsed but no new session state was created).
    pub const NET_MATRIX_DEDUP_TOTAL: &str = "parapre_net_matrix_dedup_total";

    /// Counter: sessions produced by numeric-only refactorization of a
    /// resident same-pattern session.
    pub const REFACTOR_TOTAL: &str = "parapre_refactor_total";
    /// Counter family: same-pattern misses with a resident donor that were
    /// built cold anyway, labelled by reason ([`refactor_fallback`]).
    pub const REFACTOR_FALLBACK_TOTAL: &str = "parapre_refactor_fallback_total";
    /// Histogram (µs), the span of an accepted `SolverSession::refactor`.
    pub const REFACTOR_US: &str = "parapre_refactor_us";

    /// Builds the labelled refactor-fallback counter name for one reason
    /// (`unhealthy`, `pattern`, `donor_dirty`, `stale`).
    pub fn refactor_fallback(reason: &str) -> String {
        format!("{REFACTOR_FALLBACK_TOTAL}{{reason=\"{reason}\"}}")
    }

    /// Builds the keyed solve-latency histogram name for one
    /// (fingerprint, preconditioner rung) pair.
    pub fn keyed_solve(fingerprint: u64, precond: &str) -> String {
        format!("{SOLVE_US}{{fp=\"{fingerprint:016x}\",precond=\"{precond}\"}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        assert!(!recording());
        let _s = span("anything");
        count("c", 1);
        convergence("test", false, 1, 0.5, ConvKind::Iter, "");
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

    #[test]
    fn keyed_name_builder_formats_fingerprint() {
        let n = names::keyed_solve(0xabc, "ilu0");
        assert_eq!(
            n,
            "parapre_solve_us{fp=\"0000000000000abc\",precond=\"ilu0\"}"
        );
    }
}

//! Always-on live metrics for the parapre stack.
//!
//! The trace layer ([`parapre_trace`]) answers questions *after* a run by
//! post-processing JSONL; this crate answers them *while the process is
//! serving*: how long do solves take right now, which preconditioner rung
//! is active, which rank is pacing the run, is the current solve
//! converging. It is the data substrate for fingerprint-keyed autotuning
//! and skew-triggered repartitioning (ROADMAP items 3 and 5).
//!
//! Three kinds of instruments live in a process-global [`Registry`]:
//!
//! - **counters** — monotonically increasing [`AtomicU64`]s
//!   (`parapre_jobs_total`, cache hits, …);
//! - **gauges** — last-write-wins `f64` values stored as atomic bit
//!   patterns (`parapre_load_imbalance`, …);
//! - **histograms** — [`AtomicHistogram`]: log-bucketed counts with
//!   ~12.5% relative bucket width, plus exact count/sum/min/max.
//!   Snapshots merge associatively across ranks and threads, so
//!   per-rank histograms fold into run-level quantiles without locks.
//!
//! Recording is wait-free once a handle is resolved: every update is a
//! relaxed atomic RMW on pre-sized storage. Name→handle resolution takes a
//! short [`RwLock`]; hot loops should resolve once via
//! [`Registry::counter`] / [`Registry::histogram`] and hold the [`Arc`].
//! The whole layer can be switched off with [`set_enabled`] — the traced
//! benchmark's `metrics.overhead_pct` is the clean-path cost measured that
//! way.
//!
//! Two more pieces ride along:
//!
//! - [`ConvRing`] — a bounded ring buffer of structured convergence
//!   events (iteration, relres, stall/breakdown) streamed by the Krylov
//!   solvers and drained by `parapre-serve`'s `{"cmd":"watch"}`;
//! - [`LoadReport`] — per-rank busy/comm-wait attribution quantifying
//!   load imbalance (max/mean busy ratio, comm fraction, slowest rank).
//!
//! [`metrics_text`] renders everything as a Prometheus-style text
//! exposition for scraping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parapre_trace::flatjson::{escape, json_f64};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Values `0..EXACT` get one bucket each (exact small-value resolution).
const EXACT: usize = 16;
/// Sub-buckets per octave above the exact range: 3 significant bits.
const SUB: usize = 8;
/// Highest bit index covered before clamping into the top bucket.
/// `2^39 µs` ≈ 6.4 days — far beyond any latency this stack produces.
const MAX_MSB: usize = 39;
/// Total bucket count.
pub const N_BUCKETS: usize = EXACT + (MAX_MSB - 4 + 1) * SUB;

/// Maps a value to its bucket index. Total order preserving.
fn bucket_index(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4 here
    let sub = ((v >> (msb - 3)) & (SUB as u64 - 1)) as usize;
    (EXACT + (msb - 4) * SUB + sub).min(N_BUCKETS - 1)
}

/// Lower bound of bucket `idx` (the smallest value that maps into it).
fn bucket_floor(idx: usize) -> u64 {
    if idx < EXACT {
        return idx as u64;
    }
    let o = idx - EXACT;
    let msb = 4 + o / SUB;
    let sub = (o % SUB) as u64;
    (SUB as u64 + sub) << (msb - 3)
}

/// A lock-free histogram: fixed log-bucketed atomic counts plus exact
/// count/sum/min/max. Buckets below 16 are exact; above, each octave is
/// split into 8 sub-buckets (≤12.5% relative width), so quantiles are
/// accurate to within one bucket. Values are unit-agnostic; the stack
/// records latencies in microseconds.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free (relaxed atomic RMWs only).
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`Duration`] in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Takes a point-in-time copy suitable for merging and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of an [`AtomicHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (length [`N_BUCKETS`]).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self`. Associative and commutative, so
    /// per-rank or per-thread snapshots can merge in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the lower bound of the bucket containing the
    /// `q`-th ranked observation, clamped to the exact observed
    /// `[min, max]`. Accurate to within one bucket (≤12.5% relative
    /// error above the exact range). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50 / p90 / p99 / max, the exposition quartet.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max,
        )
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A point-in-time copy of every instrument in a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (`NaN` when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Histogram snapshot by exact name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.get(name)
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// All updates are relaxed atomics on pre-sized storage; the maps are
/// only locked to resolve a name to a handle (or to snapshot). The
/// process-global instance is reached through the free functions
/// ([`inc`], [`observe_us`], …) or [`global`].
pub struct Registry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    hists: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
    ring: ConvRing,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(true),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            hists: RwLock::new(BTreeMap::new()),
            ring: ConvRing::new(DEFAULT_RING_CAP),
        }
    }

    /// Whether recording is on. Callers on hot paths should check this
    /// before doing any work to build metric values.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (used by the overhead bench's A/B).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Resolves (creating on first use) a counter handle.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        resolve(&self.counters, name, || Arc::new(AtomicU64::new(0)))
    }

    /// Resolves (creating on first use) a gauge handle. The value is the
    /// `f64` bit pattern.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        resolve(&self.gauges, name, || {
            Arc::new(AtomicU64::new(0f64.to_bits()))
        })
    }

    /// Resolves (creating on first use) a histogram handle.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        resolve(&self.hists, name, || Arc::new(AtomicHistogram::new()))
    }

    /// Adds `delta` to a counter (no-op while disabled).
    pub fn inc(&self, name: &str, delta: u64) {
        if self.is_enabled() {
            self.counter(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets a gauge (no-op while disabled).
    pub fn gauge_set(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.gauge(name).store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Records a histogram observation (no-op while disabled).
    pub fn observe(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.histogram(name).record(v);
        }
    }

    /// Records a [`Duration`] into a histogram in microseconds.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        if self.is_enabled() {
            self.histogram(name).record_duration(d);
        }
    }

    /// The registry's convergence-event ring.
    pub fn ring(&self) -> &ConvRing {
        &self.ring
    }

    /// Copies every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let hists = self
            .hists
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            hists,
        }
    }

    /// Drops every instrument and clears the ring (bench/test hygiene).
    /// Handles resolved before the reset keep updating their detached
    /// instruments; re-resolve after resetting.
    pub fn reset(&self) {
        self.counters.write().expect("metrics lock").clear();
        self.gauges.write().expect("metrics lock").clear();
        self.hists.write().expect("metrics lock").clear();
        self.ring.clear();
    }

    /// Renders a Prometheus-style text exposition: `# TYPE` comment per
    /// metric family, one `name value` line per counter/gauge, and
    /// `{quantile=…}` plus `_sum`/`_count`/`_min`/`_max` lines per
    /// histogram. Labeled names (`name{k="v"}`) keep their labels.
    pub fn metrics_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let family = base_name(name).to_string();
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family;
            }
        };
        for (name, v) in &snap.counters {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &snap.gauges {
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {}", json_f64(*v));
        }
        for (name, h) in &snap.hists {
            type_line(&mut out, name, "summary");
            let (p50, p90, p99, max) = h.summary();
            for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
                let _ = writeln!(out, "{} {v}", with_label(name, "quantile", q));
            }
            let _ = writeln!(out, "{} {}", suffixed(name, "_sum"), h.sum);
            let _ = writeln!(out, "{} {}", suffixed(name, "_count"), h.count);
            let min = if h.count == 0 { 0 } else { h.min };
            let _ = writeln!(out, "{} {min}", suffixed(name, "_min"));
            let _ = writeln!(out, "{} {max}", suffixed(name, "_max"));
        }
        out
    }
}

/// Get-or-insert into a name→handle map: read-lock fast path, write lock
/// only on first use of a name.
fn resolve<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    mk: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    if let Some(h) = map.read().expect("metrics lock").get(name) {
        return Arc::clone(h);
    }
    let mut w = map.write().expect("metrics lock");
    Arc::clone(w.entry(name.to_string()).or_insert_with(mk))
}

/// The metric family of a possibly-labeled name (`a{b="c"}` → `a`).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Adds one `key="value"` label to a possibly-already-labeled name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(open) => format!("{open},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Appends a suffix to the family part of a possibly-labeled name
/// (`a{b="c"}` + `_sum` → `a_sum{b="c"}`).
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

// ---------------------------------------------------------------------------
// Convergence event ring
// ---------------------------------------------------------------------------

/// Default capacity of the global convergence ring.
pub const DEFAULT_RING_CAP: usize = 4096;

/// What a convergence event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvKind {
    /// One outer iteration completed.
    Iter,
    /// The solve converged.
    Converged,
    /// The solve was cut by the stagnation guard.
    Stall,
    /// A numerical breakdown ended the solve.
    Breakdown,
}

impl ConvKind {
    /// Stable wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ConvKind::Iter => "iter",
            ConvKind::Converged => "converged",
            ConvKind::Stall => "stall",
            ConvKind::Breakdown => "breakdown",
        }
    }
}

/// One structured convergence event.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvEvent {
    /// Monotone sequence number (process-wide, never reused).
    pub seq: u64,
    /// Which solver emitted it (`"dist"`, `"gmres"`, …).
    pub source: &'static str,
    /// Outer iteration index.
    pub iter: u64,
    /// Relative residual estimate at this event.
    pub relres: f64,
    /// Event kind.
    pub kind: ConvKind,
    /// Free-form detail (breakdown kind), empty otherwise.
    pub detail: String,
}

impl ConvEvent {
    /// Flat JSON rendering (one `watch` line of the serve protocol).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"source\":\"{}\",\"iter\":{},\"relres\":{},\"kind\":\"{}\"{}}}",
            self.seq,
            escape(self.source),
            self.iter,
            json_f64(self.relres),
            self.kind.as_str(),
            if self.detail.is_empty() {
                String::new()
            } else {
                format!(",\"detail\":\"{}\"", escape(&self.detail))
            }
        )
    }
}

/// A bounded ring of [`ConvEvent`]s: pushes drop the oldest event once
/// the capacity is reached, so a long-running service never grows. The
/// sequence number keeps counting, letting a `watch` consumer detect
/// both new events and gaps.
pub struct ConvRing {
    cap: usize,
    seq: AtomicU64,
    buf: Mutex<VecDeque<ConvEvent>>,
}

impl ConvRing {
    /// Creates a ring holding at most `cap` events (min 1).
    pub fn new(cap: usize) -> ConvRing {
        ConvRing {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an event, assigning its sequence number (returned).
    pub fn push(
        &self,
        source: &'static str,
        iter: u64,
        relres: f64,
        kind: ConvKind,
        detail: &str,
    ) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut buf = self.buf.lock().expect("ring lock");
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(ConvEvent {
            seq,
            source,
            iter,
            relres,
            kind,
            detail: detail.to_string(),
        });
        seq
    }

    /// Events with `seq > since`, oldest first. `since = 0` returns
    /// everything still buffered.
    pub fn since(&self, since: u64) -> Vec<ConvEvent> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .filter(|e| e.seq > since)
            .cloned()
            .collect()
    }

    /// Total events ever pushed (the latest sequence number).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring lock").len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops buffered events (the sequence counter keeps its value).
    pub fn clear(&self) {
        self.buf.lock().expect("ring lock").clear();
    }
}

// ---------------------------------------------------------------------------
// Load imbalance
// ---------------------------------------------------------------------------

/// One rank's contribution to a [`LoadReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankLoad {
    /// Rank index.
    pub rank: usize,
    /// Wall seconds the rank spent inside the solve closure.
    pub busy_s: f64,
    /// Seconds spent blocked waiting for messages.
    pub comm_wait_s: f64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
}

impl RankLoad {
    /// Seconds of useful work: busy time minus time blocked on comm.
    pub fn compute_s(&self) -> f64 {
        (self.busy_s - self.comm_wait_s).max(0.0)
    }
}

/// Quantifies load imbalance across the ranks of one run: who paced it,
/// how skewed the busy times are, and how much of the wall clock went to
/// waiting on communication.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Per-rank attribution, in rank order.
    pub ranks: Vec<RankLoad>,
}

impl LoadReport {
    /// Builds a report (ranks are sorted by rank index).
    pub fn new(mut ranks: Vec<RankLoad>) -> LoadReport {
        ranks.sort_by_key(|r| r.rank);
        LoadReport { ranks }
    }

    /// Longest rank busy time, seconds (0 when empty).
    pub fn max_busy_s(&self) -> f64 {
        self.ranks.iter().map(|r| r.busy_s).fold(0.0, f64::max)
    }

    /// Mean rank busy time, seconds (0 when empty).
    pub fn mean_busy_s(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.busy_s).sum::<f64>() / self.ranks.len() as f64
    }

    /// Imbalance ratio `max busy / mean busy` — 1.0 is perfectly
    /// balanced; parallel efficiency is bounded by its inverse. Defined
    /// as 1.0 for empty or all-idle reports.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_busy_s();
        if mean <= 0.0 {
            1.0
        } else {
            self.max_busy_s() / mean
        }
    }

    /// Imbalance ratio of *compute* seconds (busy minus comm-wait):
    /// `max compute / mean compute`, 1.0 for empty or all-idle reports.
    ///
    /// This is the work-skew signal: synchronized solves equalize wall
    /// (busy) time across ranks — an underloaded rank just waits longer
    /// at the same collectives — so [`LoadReport::imbalance`] stays near
    /// 1.0 no matter how skewed the partition is. Subtracting the
    /// measured comm-wait recovers who actually did the work. With no
    /// comm-wait attribution (metrics layer off) this degrades to the
    /// busy-time ratio.
    pub fn compute_imbalance(&self) -> f64 {
        if self.ranks.is_empty() {
            return 1.0;
        }
        let mean =
            self.ranks.iter().map(RankLoad::compute_s).sum::<f64>() / self.ranks.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            self.ranks
                .iter()
                .map(RankLoad::compute_s)
                .fold(0.0, f64::max)
                / mean
        }
    }

    /// Fraction of total busy seconds spent blocked on communication,
    /// in `[0, 1]` (0 when idle).
    pub fn comm_fraction(&self) -> f64 {
        let busy: f64 = self.ranks.iter().map(|r| r.busy_s).sum();
        if busy <= 0.0 {
            return 0.0;
        }
        let wait: f64 = self.ranks.iter().map(|r| r.comm_wait_s).sum();
        (wait / busy).clamp(0.0, 1.0)
    }

    /// The pace-setting rank (largest busy time), `None` when empty.
    pub fn slowest_rank(&self) -> Option<usize> {
        self.ranks
            .iter()
            .max_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
            .map(|r| r.rank)
    }

    /// Up to `k` ranks, slowest (largest busy time) first.
    pub fn slowest(&self, k: usize) -> Vec<&RankLoad> {
        let mut v: Vec<&RankLoad> = self.ranks.iter().collect();
        v.sort_by(|a, b| b.busy_s.total_cmp(&a.busy_s));
        v.truncate(k);
        v
    }

    /// Human-readable per-rank table with the headline ratios.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "load: {} ranks, imbalance {:.3} (max {:.1} ms / mean {:.1} ms), comm fraction {:.1}%, slowest rank {}",
            self.ranks.len(),
            self.imbalance(),
            self.max_busy_s() * 1e3,
            self.mean_busy_s() * 1e3,
            self.comm_fraction() * 100.0,
            self.slowest_rank()
                .map_or("-".to_string(), |r| r.to_string()),
        );
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "rank", "busy(ms)", "comm(ms)", "compute%", "msgs", "bytes"
        );
        for r in &self.ranks {
            let pct = if r.busy_s > 0.0 {
                r.compute_s() / r.busy_s * 100.0
            } else {
                100.0
            };
            let _ = writeln!(
                out,
                "{:<6} {:>10.2} {:>10.2} {:>10.1} {:>10} {:>12}",
                r.rank,
                r.busy_s * 1e3,
                r.comm_wait_s * 1e3,
                pct,
                r.msgs_sent + r.msgs_recv,
                r.bytes_sent + r.bytes_recv
            );
        }
        out
    }

    /// Flat JSON rendering of the headline numbers (not per-rank rows).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ranks\":{},\"imbalance\":{},\"max_busy_s\":{},\"mean_busy_s\":{},\"comm_fraction\":{},\"slowest_rank\":{}}}",
            self.ranks.len(),
            json_f64(self.imbalance()),
            json_f64(self.max_busy_s()),
            json_f64(self.mean_busy_s()),
            json_f64(self.comm_fraction()),
            self.slowest_rank()
                .map_or("null".to_string(), |r| r.to_string()),
        )
    }
}

// ---------------------------------------------------------------------------
// Global registry + convenience free functions
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry all free functions operate on.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether the global registry records (default: yes).
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Turns global recording on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Adds `delta` to a global counter.
pub fn inc(name: &str, delta: u64) {
    global().inc(name, delta);
}

/// Sets a global gauge.
pub fn gauge_set(name: &str, v: f64) {
    global().gauge_set(name, v);
}

/// Records `us` (microseconds) into a global histogram.
pub fn observe_us(name: &str, us: u64) {
    global().observe(name, us);
}

/// Records a [`Duration`] into a global histogram in microseconds.
pub fn observe_duration(name: &str, d: Duration) {
    global().observe_duration(name, d);
}

/// Pushes a convergence event into the global ring (no-op while
/// disabled). Returns the assigned sequence number (0 when disabled).
pub fn conv_push(
    source: &'static str,
    iter: u64,
    relres: f64,
    kind: ConvKind,
    detail: &str,
) -> u64 {
    let g = global();
    if !g.is_enabled() {
        return 0;
    }
    g.inc(names::CONV_EVENTS_TOTAL, 1);
    g.ring().push(source, iter, relres, kind, detail)
}

/// Events with `seq > since` from the global ring.
pub fn conv_since(since: u64) -> Vec<ConvEvent> {
    global().ring().since(since)
}

/// Snapshot of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Prometheus-style text exposition of the global registry.
pub fn metrics_text() -> String {
    global().metrics_text()
}

/// Clears the global registry (bench/test hygiene).
pub fn reset() {
    global().reset();
}

/// The canonical metric names recorded by the stack. Keyed latency
/// histograms additionally exist as `parapre_solve_us{fp="…",precond="…"}`
/// (fingerprint in lowercase hex, preconditioner rung label).
pub mod names {
    /// Counter: jobs accepted by the solve service.
    pub const JOBS_TOTAL: &str = "parapre_jobs_total";
    /// Counter: jobs that errored (setup/solve failure, bad job line).
    pub const JOBS_FAILED_TOTAL: &str = "parapre_jobs_failed_total";
    /// Counter: session-level solves (one per `SolverSession::solve`).
    pub const SOLVES_TOTAL: &str = "parapre_solves_total";
    /// Counter: session-cache hits.
    pub const CACHE_HITS_TOTAL: &str = "parapre_cache_hits_total";
    /// Counter: session-cache misses.
    pub const CACHE_MISSES_TOTAL: &str = "parapre_cache_misses_total";
    /// Counter: session-cache evictions.
    pub const CACHE_EVICTIONS_TOTAL: &str = "parapre_cache_evictions_total";
    /// Counter: convergence events pushed into the ring.
    pub const CONV_EVENTS_TOTAL: &str = "parapre_conv_events_total";
    /// Histogram (µs): time a job waited in the service queue.
    pub const QUEUE_WAIT_US: &str = "parapre_queue_wait_us";
    /// Histogram (µs): session build (partition + distribute + factor).
    pub const BUILD_US: &str = "parapre_build_us";
    /// Histogram (µs): one session solve (all ranks, wall time).
    pub const SOLVE_US: &str = "parapre_solve_us";
    /// Histogram (µs): job end-to-end (queue exit → result ready).
    pub const E2E_US: &str = "parapre_e2e_us";
    /// Histogram: outer iterations per session solve.
    pub const SOLVE_ITERS: &str = "parapre_solve_iters";
    /// Gauge: imbalance ratio (max/mean rank busy) of the last solve.
    pub const LOAD_IMBALANCE: &str = "parapre_load_imbalance";
    /// Gauge: comm-wait fraction of the last solve.
    pub const LOAD_COMM_FRACTION: &str = "parapre_load_comm_fraction";
    /// Gauge: pace-setting rank of the last solve.
    pub const LOAD_SLOWEST_RANK: &str = "parapre_load_slowest_rank";
    /// Counter: right-hand sides solved through the batched multi-RHS
    /// path (each shares one factorization/universe with its batch).
    pub const BATCH_RHS_TOTAL: &str = "parapre_batch_rhs_total";
    /// Histogram (µs): one batched multi-RHS solve (all RHS, wall time).
    pub const BATCH_SOLVE_US: &str = "parapre_batch_solve_us";
    /// Counter: outcome records folded into the autotuner.
    pub const TUNER_RECORDS_TOTAL: &str = "parapre_tuner_records_total";
    /// Counter: `"precond":"auto"` jobs answered from a converged best
    /// config (exploitation).
    pub const TUNER_EXPLOIT_TOTAL: &str = "parapre_tuner_exploit_total";
    /// Counter: `"precond":"auto"` jobs spent gathering data on an
    /// untried rung (exploration).
    pub const TUNER_EXPLORE_TOTAL: &str = "parapre_tuner_explore_total";
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
    /// Counter: completed elastic rebalances (refine or resize migrations
    /// that passed the residual probe and were swapped in).
    pub const ELASTIC_REBALANCES_TOTAL: &str = "parapre_elastic_rebalances_total";
    /// Counter: migrations that aborted back to the old topology (vote
    /// failure, rank death, or residual-probe failure).
    pub const ELASTIC_ABORTS_TOTAL: &str = "parapre_elastic_aborts_total";
    /// Histogram: wall time of a session migration in microseconds.
    pub const ELASTIC_MIGRATE_US: &str = "parapre_elastic_migrate_us";
    /// Gauge: subdomain factors reused (not rebuilt) by the most recent
    /// migration.
    pub const ELASTIC_REUSED_RANKS: &str = "parapre_elastic_reused_ranks";

    /// Counter: sessions produced by numeric-only refactorization of a
    /// resident same-pattern session.
    pub const REFACTOR_TOTAL: &str = "parapre_refactor_total";
    /// Counter family: same-pattern misses with a resident donor that were
    /// built cold anyway, labelled by reason ([`refactor_fallback`]).
    pub const REFACTOR_FALLBACK_TOTAL: &str = "parapre_refactor_fallback_total";
    /// Histogram: wall time of a numeric-only session refactorization in
    /// microseconds.
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
    fn bucket_index_is_monotone_and_floor_consistent() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index must be monotone at v={v}");
            prev = i;
            assert!(bucket_floor(i) <= v, "floor({i}) > {v}");
            if i + 1 < N_BUCKETS {
                assert!(bucket_floor(i + 1) > v, "v={v} not below next floor");
            }
        }
        // Top bucket clamps.
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_track_exact_values() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // 500 lives in a bucket of width 64/8·… — ≤12.5% relative error.
        assert!((p50 as f64 - 500.0).abs() / 500.0 <= 0.125, "p50={p50}");
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), s.min);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        let mut m = HistogramSnapshot::default();
        m.merge(&s);
        assert_eq!(m.count, 0);
    }

    #[test]
    fn registry_counters_gauges_histograms_round_trip() {
        let r = Registry::new();
        r.inc("a_total", 2);
        r.inc("a_total", 3);
        r.gauge_set("g", 1.5);
        r.observe("h_us", 100);
        r.observe("h_us", 200);
        let s = r.snapshot();
        assert_eq!(s.counter("a_total"), 5);
        assert_eq!(s.gauge("g"), 1.5);
        assert_eq!(s.hist("h_us").unwrap().count, 2);
        assert_eq!(s.hist("h_us").unwrap().sum, 300);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        r.inc("c", 1);
        r.gauge_set("g", 2.0);
        r.observe("h", 3);
        let s = r.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.gauges.is_empty());
        assert!(s.hists.is_empty());
    }

    #[test]
    fn metrics_text_renders_types_labels_and_suffixes() {
        let r = Registry::new();
        r.inc("parapre_jobs_total", 7);
        r.gauge_set("parapre_load_imbalance", 1.25);
        r.observe("parapre_solve_us", 1000);
        r.observe("parapre_solve_us{fp=\"00ab\",precond=\"ilu0\"}", 500);
        let text = r.metrics_text();
        assert!(text.contains("# TYPE parapre_jobs_total counter"));
        assert!(text.contains("parapre_jobs_total 7"));
        assert!(text.contains("# TYPE parapre_load_imbalance gauge"));
        assert!(text.contains("# TYPE parapre_solve_us summary"));
        assert!(text.contains("parapre_solve_us{quantile=\"0.5\"}"));
        assert!(text.contains("parapre_solve_us_count 1"));
        assert!(text.contains("parapre_solve_us{fp=\"00ab\",precond=\"ilu0\",quantile=\"0.5\"}"));
        assert!(text.contains("parapre_solve_us_count{fp=\"00ab\",precond=\"ilu0\"} 1"));
        // One TYPE line per family, even with a labeled variant present.
        assert_eq!(text.matches("# TYPE parapre_solve_us ").count(), 1);
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let ring = ConvRing::new(3);
        for i in 0..5 {
            ring.push("dist", i, 0.5, ConvKind::Iter, "");
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.len(), 3);
        let all = ring.since(0);
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "oldest events dropped"
        );
        assert_eq!(ring.since(4).len(), 1);
        let ev = &all[2];
        assert!(ev.to_json().contains("\"kind\":\"iter\""));
    }

    #[test]
    fn load_report_quantifies_skew() {
        let report = LoadReport::new(vec![
            RankLoad {
                rank: 1,
                busy_s: 1.0,
                comm_wait_s: 0.5,
                ..Default::default()
            },
            RankLoad {
                rank: 0,
                busy_s: 3.0,
                comm_wait_s: 0.1,
                ..Default::default()
            },
        ]);
        assert_eq!(report.ranks[0].rank, 0, "sorted by rank");
        assert_eq!(report.max_busy_s(), 3.0);
        assert_eq!(report.mean_busy_s(), 2.0);
        assert!((report.imbalance() - 1.5).abs() < 1e-12);
        assert!((report.comm_fraction() - 0.15).abs() < 1e-12);
        assert_eq!(report.slowest_rank(), Some(0));
        assert_eq!(report.slowest(1)[0].rank, 0);
        assert!(report.table().contains("imbalance 1.500"));
        assert!(report.to_json().contains("\"slowest_rank\":0"));
    }

    #[test]
    fn empty_load_report_is_neutral() {
        let report = LoadReport::new(Vec::new());
        assert_eq!(report.imbalance(), 1.0);
        assert_eq!(report.comm_fraction(), 0.0);
        assert_eq!(report.slowest_rank(), None);
        assert!(report.to_json().contains("\"slowest_rank\":null"));
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

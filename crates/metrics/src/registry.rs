//! The always-on process scope: atomic counters, gauges and log-bucketed
//! histograms behind one registry, its Prometheus-style exposition, and
//! the bounded ring of convergence events `watch` drains.

use crate::flatjson::{escape, json_f64};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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
const N_BUCKETS: usize = EXACT + (MAX_MSB - 4 + 1) * SUB;

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
    /// Per-bucket observation counts (one fixed length for every snapshot).
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
    fn summary(&self) -> (u64, u64, u64, u64) {
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

/// A point-in-time copy of every instrument in the registry.
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
/// only locked to resolve a name to a handle (or to snapshot). The one
/// process-wide instance is reached through the crate's free functions
/// ([`crate::inc`], [`crate::observe`], …); unit tests construct their
/// own for isolation.
pub(crate) struct Registry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    hists: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
    pub(crate) ring: ConvRing,
}

impl Registry {
    /// Creates an enabled, empty registry.
    pub(crate) fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(true),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            hists: RwLock::new(BTreeMap::new()),
            ring: ConvRing::new(DEFAULT_RING_CAP),
        }
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (used by the overhead bench's A/B).
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Resolves (creating on first use) a counter handle.
    fn counter(&self, name: &str) -> Arc<AtomicU64> {
        resolve(&self.counters, name, || Arc::new(AtomicU64::new(0)))
    }

    /// Resolves (creating on first use) a gauge handle. The value is the
    /// `f64` bit pattern.
    fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        resolve(&self.gauges, name, || {
            Arc::new(AtomicU64::new(0f64.to_bits()))
        })
    }

    /// Resolves (creating on first use) a histogram handle.
    fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        resolve(&self.hists, name, || Arc::new(AtomicHistogram::new()))
    }

    /// Adds `delta` to a counter (no-op while disabled).
    pub(crate) fn inc(&self, name: &str, delta: u64) {
        if self.is_enabled() {
            self.counter(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets a gauge (no-op while disabled).
    pub(crate) fn gauge_set(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.gauge(name).store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Records a histogram observation (no-op while disabled).
    pub(crate) fn observe(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.histogram(name).record(v);
        }
    }

    /// Copies every instrument.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
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

    /// Renders a Prometheus-style text exposition: `# TYPE` comment per
    /// metric family, one `name value` line per counter/gauge, and
    /// `{quantile=…}` plus `_sum`/`_count`/`_min`/`_max` lines per
    /// histogram. Labeled names (`name{k="v"}`) keep their labels.
    pub(crate) fn metrics_text(&self) -> String {
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

/// Capacity of the process-wide convergence ring.
const DEFAULT_RING_CAP: usize = 4096;

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
    fn as_str(self) -> &'static str {
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
pub(crate) struct ConvRing {
    cap: usize,
    seq: AtomicU64,
    buf: Mutex<VecDeque<ConvEvent>>,
}

impl ConvRing {
    /// Creates a ring holding at most `cap` events (min 1).
    fn new(cap: usize) -> ConvRing {
        ConvRing {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an event, assigning its sequence number (returned).
    pub(crate) fn push(
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
    pub(crate) fn since(&self, since: u64) -> Vec<ConvEvent> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .filter(|e| e.seq > since)
            .cloned()
            .collect()
    }

    /// Total events ever pushed (the latest sequence number).
    pub(crate) fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
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
        assert_eq!(s.sum, 0);
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
}

//! From the records of a run to the named end-to-end metrics, and the
//! result line the driver reads.

use crate::json;
use crate::stats::{highest_supported, median, percentile, quartiles};
use crate::workloads::{Class, Outcome, Phase, ReqRecord, Workload, COLD_HITS_PER_CELL};
use std::collections::BTreeMap;

/// One reported number with the sample it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind `value`.
    pub n: usize,
    /// Quartiles of those samples (`NaN` when there are fewer than two).
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    pub fn single(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n: 1,
            q1: f64::NAN,
            q3: f64::NAN,
        }
    }

    /// `value` is the median of `samples` times `scale`.
    pub fn of_samples(name: &str, samples: &[f64], scale: f64, unit: &str) -> Metric {
        let [q1, _, q3] = quartiles(samples).unwrap_or([f64::NAN; 3]);
        Metric {
            name: name.into(),
            value: median(samples) * scale,
            unit: unit.into(),
            n: samples.len(),
            q1: q1 * scale,
            q3: q3 * scale,
        }
    }

    /// `name value unit` and the sample behind it.
    pub fn human(&self) -> String {
        let mut line = format!("{} {} {}", self.name, self.value, self.unit);
        if self.n > 1 {
            line.push_str(&format!("  (n={} q1={} q3={})", self.n, self.q1, self.q3));
        }
        line
    }
}

/// Which latency of a request: at nominal host speed (gated metrics) or as
/// measured (diagnostics).
type Latency = fn(&ReqRecord) -> f64;

fn normalized(r: &ReqRecord) -> f64 {
    r.normalized_s()
}

fn raw(r: &ReqRecord) -> f64 {
    r.latency_s
}

/// Latencies of the ok requests of one class and phase, grouped by cell.
fn by_cell(
    records: &[ReqRecord],
    class: Class,
    phase: Phase,
    latency: Latency,
) -> BTreeMap<usize, Vec<f64>> {
    let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in records {
        if r.class == class && r.phase == phase && r.ok {
            out.entry(r.cell).or_default().push(latency(r));
        }
    }
    out
}

/// Mean over cells of a per-cell statistic: with one cell it is that cell's
/// statistic; with several (`cold_build`), problem sizes differ so much that
/// a pooled median would sit between two cells and jump from one to the
/// other.
fn mean_over_cells(
    name: &str,
    cells: &BTreeMap<usize, Vec<f64>>,
    stat: impl Fn(&[f64]) -> f64,
) -> Option<Metric> {
    let mut sum = [0.0; 3];
    let mut n = 0;
    for samples in cells.values() {
        let [q1, _, q3] = quartiles(samples).unwrap_or([f64::NAN; 3]);
        sum[0] += q1;
        sum[1] += stat(samples);
        sum[2] += q3;
        n += samples.len();
    }
    let k = cells.len() as f64;
    (k > 0.0).then(|| Metric {
        name: name.into(),
        value: sum[1] / k * 1e3,
        unit: "ms".into(),
        n,
        q1: sum[0] / k * 1e3,
        q3: sum[2] / k * 1e3,
    })
}

/// `cold_build`'s set-up samples: per timed round, the sum over cells of
/// upload + first solve − cached solve (the mean of the cell's cached
/// solves): what it costs to make new matrices solvable.
/// `only_new_pattern` restricts the sum to the new-pattern cell.
pub fn cold_setup_samples(out: &Outcome, only_new_pattern: bool, normalize: bool) -> Vec<f64> {
    let latency: Latency = if normalize { normalized } else { raw };
    let cells = out.workload.cells();
    // round -> (seconds, requests)
    let mut rounds: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for r in &out.records {
        if r.phase != Phase::Timed || !r.ok || (only_new_pattern && !cells[r.cell].new_pattern) {
            continue;
        }
        let weight = match r.class {
            Class::Put | Class::Miss => 1.0,
            Class::Hit => -1.0 / COLD_HITS_PER_CELL as f64,
            _ => continue,
        };
        let e = rounds.entry(r.round).or_default();
        e.0 += weight * latency(r);
        e.1 += 1;
    }
    let counted = cells
        .iter()
        .filter(|c| !only_new_pattern || c.new_pattern)
        .count();
    let per_round = counted * (2 + COLD_HITS_PER_CELL);
    rounds
        .values()
        .filter(|(_, n)| *n == per_round)
        .map(|(s, _)| *s)
        .collect()
}

/// Per connection, the busy seconds (latencies at nominal host speed,
/// summed) of each complete round of the timed window, and the requests in
/// a round. A round is the workload's unit of repetition: a `cold_build`
/// round, one cycle through the right-hand sides of a warm workload, one
/// block of `service_mix`.
fn round_seconds_by_connection(out: &Outcome) -> (usize, BTreeMap<usize, Vec<f64>>) {
    // (connection, round) -> (ok requests, normalized latencies summed)
    let mut rounds: BTreeMap<(usize, usize), (usize, f64)> = BTreeMap::new();
    for r in out
        .records
        .iter()
        .filter(|r| r.phase == Phase::Timed && r.ok)
    {
        let e = rounds.entry((r.conn, r.round)).or_default();
        e.0 += 1;
        e.1 += r.normalized_s();
    }
    // The round the deadline cut short, or one with a failed request, has
    // fewer requests than a full one and is left out.
    let full = rounds.values().map(|r| r.0).max().unwrap_or(0);
    let mut conns: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for ((conn, _), (_, busy)) in rounds.into_iter().filter(|(_, r)| r.0 == full) {
        conns.entry(conn).or_default().push(busy);
    }
    (full, conns)
}

/// The gated metrics of one run, in BENCHMARK.json's order. `None` when a
/// metric has no sample, which makes the run incorrect.
///
/// Every time in them is at nominal host speed: the measured time divided by
/// the slowdown the host-speed probe saw around it (see
/// [`crate::host::SpeedProbe`]). The measured times are in [`diagnostics`].
pub fn end_to_end(out: &Outcome) -> Option<Vec<Metric>> {
    let hits = by_cell(&out.records, Class::Hit, Phase::Timed, normalized);
    // Warm workloads build a session only while netd starts up.
    let mut misses = by_cell(&out.records, Class::Miss, Phase::Timed, normalized);
    if misses.is_empty() {
        misses = by_cell(&out.records, Class::Miss, Phase::Setup, normalized);
    }
    let setup = if out.workload == Workload::ColdBuild {
        Metric::of_samples("setup_s", &cold_setup_samples(out, false, true), 1.0, "s")
    } else {
        let s: Vec<f64> = out.spawn_to_answer.iter().map(|t| t.normalized()).collect();
        Metric::of_samples("setup_s", &s, 1.0, "s")
    };
    // A closed loop completes, per connection, one round per round time;
    // the typical round is the median one.
    let (per_round, rounds) = round_seconds_by_connection(out);
    let rate = Metric {
        n: rounds.values().map(Vec::len).sum(),
        ..Metric::single(
            "reqs_per_s",
            rounds.values().map(|s| per_round as f64 / median(s)).sum(),
            "1/s",
        )
    };
    let metrics = vec![
        setup,
        mean_over_cells("req_p50_ms", &hits, median)?,
        rate,
        mean_over_cells("miss_p50_ms", &misses, median)?,
        Metric::single("peak_rss_mb", out.peak_rss_mb, "MB"),
    ];
    metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0)
        .then_some(metrics)
}

/// Ungated numbers of the same run, printed beside the gated ones: the times
/// as measured (which the host's other tenants move), the highest percentile
/// the sample supports, and the classes only some workloads have.
pub fn diagnostics(out: &Outcome) -> Vec<Metric> {
    let mut extra = Vec::new();
    let slowdowns: Vec<f64> = out
        .probes
        .iter()
        .map(|p| p.1 / crate::host::PROBE_NOMINAL_S)
        .collect();
    extra.push(Metric::of_samples(
        "host_slowdown",
        &slowdowns,
        1.0,
        "ratio",
    ));
    let timed = |class: Class| by_cell(&out.records, class, Phase::Timed, raw);
    let pooled = |class: Class, latency: Latency| -> Vec<f64> {
        by_cell(&out.records, class, Phase::Timed, latency)
            .into_values()
            .flatten()
            .collect()
    };
    extra.extend(mean_over_cells(
        "raw_req_p50_ms",
        &timed(Class::Hit),
        median,
    ));
    extra.extend(mean_over_cells(
        "raw_miss_p50_ms",
        &timed(Class::Miss),
        median,
    ));
    let timed_ok = out
        .records
        .iter()
        .filter(|r| r.phase == Phase::Timed && r.ok)
        .count();
    extra.push(Metric {
        n: timed_ok,
        ..Metric::single("raw_reqs_per_s", timed_ok as f64 / out.window_s, "1/s")
    });
    let hits = pooled(Class::Hit, normalized);
    if out.workload.cells().len() == 1 {
        // With several cells a pooled tail would be the slowest cell's body.
        if let Some(pct) = highest_supported(hits.len()).filter(|&p| p > 50) {
            let v = percentile(&hits, pct).expect("supported");
            extra.push(Metric {
                n: hits.len(),
                ..Metric::single(&format!("req_p{pct}_ms"), v * 1e3, "ms")
            });
        }
    }
    for (name, class) in [("batch_p50_ms", Class::Batch), ("put_p50_ms", Class::Put)] {
        let s = pooled(class, normalized);
        if !s.is_empty() {
            extra.push(Metric::of_samples(name, &s, 1e3, "ms"));
        }
    }
    if out.workload == Workload::ColdBuild {
        let s = cold_setup_samples(out, true, true);
        extra.push(Metric::of_samples("setup_newpat_s", &s, 1.0, "s"));
    }
    let cells = out.workload.cells();
    if cells.len() > 1 {
        for (name, class) in [("hit_p50_ms", Class::Hit), ("miss_p50_ms", Class::Miss)] {
            for (c, samples) in by_cell(&out.records, class, Phase::Timed, normalized) {
                let name = format!("{name}.{}", cells[c].label);
                extra.push(Metric::of_samples(&name, &samples, 1e3, "ms"));
            }
        }
    }
    extra
}

/// The last line of a driver run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::num(m.value),
                json::quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_is_the_contract_shape() {
        let m = [
            Metric::single("req_p50_ms", 1.2034, "ms"),
            Metric::single("setup_s", 0.8127, "s"),
        ];
        let v = Json::parse(&result_line(true, 1000, 0, &m)).unwrap();
        assert_eq!(v.bool("correct"), Some(true));
        assert_eq!(v.num("attempted"), Some(1000.0));
        assert_eq!(v.num("failed"), Some(0.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics.get("req_p50_ms").unwrap().num("value"),
            Some(1.2034)
        );
        assert_eq!(metrics.get("setup_s").unwrap().str("unit"), Some("s"));
    }
}

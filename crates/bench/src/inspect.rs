//! Offline trace inspection: merge per-rank JSONL traces into the
//! cross-rank phase table plus an imbalance and critical-path report.
//!
//! This is the post-mortem sibling of the live metrics layer: the same
//! runs that stream histograms and `LoadReport`s while executing also
//! write per-rank trace files (`--trace <dir>`), and `parapre-inspect`
//! folds those files back into one view. The per-phase totals come
//! straight from [`TraceSummary::merge`] — the inspector is a
//! cross-check of the live numbers, not a second source of truth.

use parapre_metrics::{names, LoadReport, RankLoad, RankTrace, TraceSummary};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Everything `parapre-inspect` derives from a set of per-rank traces.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Per-rank summaries, sorted by rank.
    pub per_rank: Vec<TraceSummary>,
    /// The cross-rank merge (phase times: max over ranks).
    pub merged: TraceSummary,
    /// Imbalance attribution derived from the traces: busy = each rank's
    /// last event timestamp, comm = inclusive time of the halo and
    /// interface exchange phases.
    pub load: LoadReport,
}

/// The phases counted as communication when splitting comm vs compute.
pub const COMM_PHASES: [&str; 2] = [names::HALO, names::INTERFACE_EXCHANGE];

/// Folds per-rank traces into the merged summary and load report.
pub fn inspect_traces(traces: &[RankTrace]) -> Inspection {
    let mut per_rank: Vec<TraceSummary> = traces.iter().map(RankTrace::summary).collect();
    per_rank.sort_by_key(|s| s.rank);
    let merged = TraceSummary::merge(&per_rank);
    let load = LoadReport::new(
        traces
            .iter()
            .map(|tr| {
                let s = tr.summary();
                let busy_us = tr.events.last().map_or(0, |e| e.t_us);
                let comm_us: u64 = COMM_PHASES
                    .iter()
                    .filter_map(|p| s.phase(p))
                    .map(|p| p.incl_us)
                    .sum();
                RankLoad {
                    rank: tr.rank,
                    busy_s: busy_us as f64 * 1e-6,
                    comm_wait_s: comm_us as f64 * 1e-6,
                    msgs_sent: s.comm.all.msgs_sent,
                    bytes_sent: s.comm.all.bytes_sent,
                    msgs_recv: s.comm.all.msgs_recv,
                    bytes_recv: s.comm.all.bytes_recv,
                }
            })
            .collect(),
    );
    Inspection {
        per_rank,
        merged,
        load,
    }
}

/// Reads one trace per file. Each file must be a per-rank JSONL trace as
/// written by `--trace <dir>` ([`RankTrace::to_jsonl`]).
pub fn load_trace_files(paths: &[PathBuf]) -> Result<Vec<RankTrace>, String> {
    let mut traces = Vec::with_capacity(paths.len());
    for path in paths {
        let mut text = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        traces.push(RankTrace::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(traces)
}

/// All `*.jsonl` files directly inside `dir`, sorted by name.
pub fn jsonl_files_in(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Renders the full report: the merged per-phase table, the
/// comm-vs-compute split, the per-rank load table, and the top-`top_k`
/// slowest ranks with their dominant phases (critical-path attribution).
pub fn report(insp: &Inspection, top_k: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(&insp.merged.table());
    let busy: f64 = insp.load.ranks.iter().map(|r| r.busy_s).sum();
    let comm: f64 = insp.load.ranks.iter().map(|r| r.comm_wait_s).sum();
    let _ = writeln!(
        out,
        "split: compute {:.3} ms, comm {:.3} ms ({:.1}% of busy) across {} ranks",
        (busy - comm) * 1e3,
        comm * 1e3,
        if busy > 0.0 { comm / busy * 100.0 } else { 0.0 },
        insp.load.ranks.len()
    );
    out.push_str(&insp.load.table());
    let slow = insp.load.slowest(top_k);
    if !slow.is_empty() {
        let _ = writeln!(out, "critical path: top {} slowest ranks", slow.len());
        for r in slow {
            let mut phases: Vec<(&String, u64)> = insp
                .per_rank
                .iter()
                .find(|s| s.rank == r.rank)
                .map(|s| s.phases.iter().map(|(name, p)| (name, p.excl_us)).collect())
                .unwrap_or_default();
            phases.sort_by_key(|p| std::cmp::Reverse(p.1));
            let dominant: Vec<String> = phases
                .iter()
                .take(3)
                .map(|(name, us)| format!("{name} {:.3} ms", *us as f64 / 1e3))
                .collect();
            let _ = writeln!(
                out,
                "  rank {:<4} busy {:>10.3} ms | {}",
                r.rank,
                r.busy_s * 1e3,
                dominant.join(", ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_metrics::{Event, EventKind};

    fn trace(rank: usize, spans: &[(&str, u64, u64)]) -> RankTrace {
        let mut events: Vec<Event> = Vec::new();
        for &(name, t0, t1) in spans {
            events.push(Event {
                t_us: t0,
                kind: EventKind::SpanEnter {
                    name: name.to_string(),
                },
            });
            events.push(Event {
                t_us: t1,
                kind: EventKind::SpanExit {
                    name: name.to_string(),
                },
            });
        }
        events.sort_by_key(|e| e.t_us);
        RankTrace { rank, events }
    }

    #[test]
    fn inspection_reproduces_merged_phase_totals() {
        let traces = vec![
            trace(0, &[(names::SOLVE, 0, 100), (names::HALO, 10, 30)]),
            trace(1, &[(names::SOLVE, 0, 140), (names::HALO, 20, 80)]),
        ];
        let insp = inspect_traces(&traces);
        // The merged table must equal a direct TraceSummary::merge of the
        // per-rank summaries (the acceptance cross-check). `final_relres`
        // is NaN for these synthetic traces, so compare fields and the
        // rendered table, not the structs.
        let direct = TraceSummary::merge(&[traces[0].summary(), traces[1].summary()]);
        assert_eq!(insp.merged.phases, direct.phases);
        assert_eq!(insp.merged.counters, direct.counters);
        assert_eq!(insp.merged.comm, direct.comm);
        assert_eq!(insp.merged.table(), direct.table());
        assert_eq!(insp.merged.phase(names::SOLVE).unwrap().incl_us, 140);
        // Load: busy from last event, comm from the halo phase.
        assert_eq!(insp.load.slowest_rank(), Some(1));
        assert!((insp.load.ranks[1].busy_s - 140e-6).abs() < 1e-12);
        assert!((insp.load.ranks[1].comm_wait_s - 60e-6).abs() < 1e-12);
        let text = report(&insp, 2);
        assert!(text.contains("phase summary"));
        assert!(text.contains("critical path"));
        assert!(text.contains("split: compute"));
    }

    #[test]
    fn round_trips_through_jsonl_files() {
        let dir = std::env::temp_dir().join(format!("parapre_inspect_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let traces = vec![
            trace(0, &[(names::SOLVE, 0, 50)]),
            trace(1, &[(names::SOLVE, 0, 90)]),
        ];
        for tr in &traces {
            std::fs::write(dir.join(format!("rank{}.jsonl", tr.rank)), tr.to_jsonl()).unwrap();
        }
        let files = jsonl_files_in(&dir).unwrap();
        assert_eq!(files.len(), 2);
        let back = load_trace_files(&files).unwrap();
        let insp = inspect_traces(&back);
        assert_eq!(insp.merged.phase(names::SOLVE).unwrap().incl_us, 90);
        std::fs::remove_dir_all(&dir).ok();
    }
}

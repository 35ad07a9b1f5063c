//! Per-rank busy / comm-wait attribution of one run: who paced it, how
//! skewed the work is, how much of the wall clock went to waiting.

use std::fmt::Write as _;

/// One rank's contribution to a [`LoadReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankLoad {
    /// Rank index.
    pub rank: usize,
    /// Wall seconds of the rank's `run` span (its share of the request).
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
    fn max_busy_s(&self) -> f64 {
        self.ranks.iter().map(|r| r.busy_s).fold(0.0, f64::max)
    }

    /// Mean rank busy time, seconds (0 when empty).
    fn mean_busy_s(&self) -> f64 {
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
                (r.busy_s - r.comm_wait_s).max(0.0) / r.busy_s * 100.0
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn empty_load_report_is_neutral() {
        let report = LoadReport::new(Vec::new());
        assert_eq!(report.imbalance(), 1.0);
        assert_eq!(report.comm_fraction(), 0.0);
        assert_eq!(report.slowest_rank(), None);
    }
}

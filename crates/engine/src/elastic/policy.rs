//! From successive load reports to a decision, and from a decision to a
//! new ownership map.

use parapre_grid::Adjacency;
use parapre_metrics::LoadReport;
use parapre_partition::{merge_part, refine_partition, split_part, Partition};

/// What the policy wants done to the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceDecision {
    /// Leave the topology alone.
    Stay,
    /// Keep `P`, refine part boundaries online (KL sweeps).
    Refine,
    /// Change the rank count to the given `P'` (shrink or grow by one).
    Resize(usize),
}

/// Knobs for [`RebalancePolicy`]. All thresholds are dimensionless ratios
/// over the `LoadReport`, so the policy behaves identically on fast and
/// slow machines.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Busy-time imbalance (max/mean) at or above which refinement is
    /// considered.
    pub imbalance_trigger: f64,
    /// A rank whose busy time is below this fraction of the mean counts as
    /// idle; a sustained idle rank triggers a shrink.
    pub idle_fraction: f64,
    /// Growing is only considered while the solve is compute-bound:
    /// aggregate comm fraction at or below this.
    pub comm_fraction_max: f64,
    /// Growing is only considered once mean busy time per solve reaches
    /// this floor (seconds) — below it there is nothing worth spreading.
    pub grow_busy_floor_s: f64,
    /// Consecutive observations a condition must hold before acting.
    pub sustain: usize,
    /// Observations to ignore after acting (lets the new topology produce
    /// fresh evidence before the next decision).
    pub cooldown: usize,
    /// Never shrink below this many ranks.
    pub min_ranks: usize,
    /// Never grow above this many ranks.
    pub max_ranks: usize,
    /// Cores available to the process; growing stops once `P + 1` would
    /// exceed it.
    pub available_cores: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        RebalanceConfig {
            imbalance_trigger: 1.25,
            idle_fraction: 0.15,
            comm_fraction_max: 0.2,
            grow_busy_floor_s: 0.05,
            sustain: 3,
            cooldown: 5,
            min_ranks: 2,
            max_ranks: 64,
            available_cores: cores,
        }
    }
}

/// Trace-driven rebalance policy with sustain streaks and a cooldown.
///
/// Feed it one [`LoadReport`] per completed solve via [`observe`]; it
/// answers with a [`RebalanceDecision`]. Shrink (sustained idle rank)
/// takes priority over refine (sustained imbalance), which takes priority
/// over grow (sustained balanced-and-saturated with headroom). Any
/// non-`Stay` answer resets every streak and starts the cooldown, whether
/// or not the caller actually migrates.
///
/// [`observe`]: RebalancePolicy::observe
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    cfg: RebalanceConfig,
    idle_streak: usize,
    imbalance_streak: usize,
    grow_streak: usize,
    cooldown_left: usize,
}

impl RebalancePolicy {
    /// A policy with the given knobs and cleared streaks.
    pub fn new(cfg: RebalanceConfig) -> RebalancePolicy {
        RebalancePolicy {
            cfg,
            idle_streak: 0,
            imbalance_streak: 0,
            grow_streak: 0,
            cooldown_left: 0,
        }
    }

    /// Ingests one solve's load attribution and decides.
    pub fn observe(&mut self, load: &LoadReport) -> RebalanceDecision {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return RebalanceDecision::Stay;
        }
        let p = load.ranks.len();
        if p == 0 {
            return RebalanceDecision::Stay;
        }
        // Attribution runs on *compute* seconds (busy minus comm-wait):
        // synchronized solves equalize busy wall time across ranks, so
        // only the comm-wait-corrected view exposes who did the work.
        let mean = load.ranks.iter().map(|r| r.compute_s()).sum::<f64>() / p as f64;
        let imb = load.compute_imbalance();
        let comm = load.comm_fraction();

        let has_idle = mean > 0.0
            && load
                .ranks
                .iter()
                .any(|r| r.compute_s() < self.cfg.idle_fraction * mean);
        let imbalanced = imb >= self.cfg.imbalance_trigger;
        let saturated = !imbalanced
            && comm <= self.cfg.comm_fraction_max
            && mean >= self.cfg.grow_busy_floor_s
            && p < self.cfg.available_cores;

        self.idle_streak = if has_idle && p > self.cfg.min_ranks {
            self.idle_streak + 1
        } else {
            0
        };
        self.imbalance_streak = if imbalanced {
            self.imbalance_streak + 1
        } else {
            0
        };
        self.grow_streak = if saturated && p < self.cfg.max_ranks {
            self.grow_streak + 1
        } else {
            0
        };

        let decision = if self.idle_streak >= self.cfg.sustain {
            RebalanceDecision::Resize(p - 1)
        } else if self.imbalance_streak >= self.cfg.sustain {
            RebalanceDecision::Refine
        } else if self.grow_streak >= self.cfg.sustain {
            RebalanceDecision::Resize(p + 1)
        } else {
            RebalanceDecision::Stay
        };
        if decision != RebalanceDecision::Stay {
            self.idle_streak = 0;
            self.imbalance_streak = 0;
            self.grow_streak = 0;
            self.cooldown_left = self.cfg.cooldown;
        }
        decision
    }
}

/// Applies a [`RebalanceDecision`] to a live partition, producing the new
/// ownership map (or `None` for [`RebalanceDecision::Stay`] and for resize
/// requests the partition cannot honor).
///
/// - `Refine` runs up to `refine_passes` deterministic KL sweeps.
/// - `Resize(P-1)` merges the *idlest* rank's part (from `load`) into its
///   most-connected neighbor part, then refines to re-balance.
/// - `Resize(P+1)` splits the *slowest* rank's part (falling back to the
///   largest), then refines.
pub fn apply_decision(
    adj: &Adjacency,
    part: &Partition,
    load: &LoadReport,
    decision: RebalanceDecision,
    seed: u64,
    refine_passes: usize,
) -> Option<Partition> {
    match decision {
        RebalanceDecision::Stay => None,
        RebalanceDecision::Refine => {
            let (refined, moved) = refine_partition(adj, part, refine_passes);
            if moved == 0 {
                None
            } else {
                Some(refined)
            }
        }
        RebalanceDecision::Resize(new_p) if new_p < part.n_parts => {
            if new_p == 0 || part.n_parts < 2 {
                return None;
            }
            // Idlest rank's part is the victim.
            let victim = load
                .ranks
                .iter()
                .filter(|r| r.rank < part.n_parts)
                .min_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
                .map(|r| r.rank)
                .unwrap_or(part.n_parts - 1);
            let into = most_connected_neighbor(adj, part, victim)?;
            let merged = merge_part(part, victim, into);
            Some(refine_partition(adj, &merged, refine_passes).0)
        }
        RebalanceDecision::Resize(new_p) if new_p > part.n_parts => {
            // Slowest rank's part splits; fall back to the largest part.
            let sizes = part.part_sizes();
            let target = load
                .slowest_rank()
                .filter(|&r| r < part.n_parts && sizes[r] >= 2)
                .or_else(|| {
                    (0..part.n_parts)
                        .max_by_key(|&p| sizes[p])
                        .filter(|&p| sizes[p] >= 2)
                })?;
            let grown = split_part(adj, part, target, seed);
            Some(refine_partition(adj, &grown, refine_passes).0)
        }
        RebalanceDecision::Resize(_) => None,
    }
}

/// The neighbor part sharing the most cut edges with `part_id`.
fn most_connected_neighbor(adj: &Adjacency, part: &Partition, part_id: usize) -> Option<usize> {
    let mut cut = vec![0usize; part.n_parts];
    for v in 0..adj.n() {
        if part.owner[v] as usize != part_id {
            continue;
        }
        for &w in adj.neighbors(v) {
            let q = part.owner[w] as usize;
            if q != part_id {
                cut[q] += 1;
            }
        }
    }
    (0..part.n_parts)
        .filter(|&q| q != part_id && cut[q] > 0)
        .max_by_key(|&q| cut[q])
}

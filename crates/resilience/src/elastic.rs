//! Elastic rank topology: rebalance policy and migration planning.
//!
//! The paper's preconditioners degrade as `P` grows precisely when the
//! partition no longer matches the work: interface growth and skewed
//! per-rank load both show up directly in the solver's `LoadReport`
//! (per-rank busy/comm-wait attribution). This module turns that signal
//! into *routine capacity management*:
//!
//! - [`RebalancePolicy`] consumes successive [`LoadReport`]s and decides
//!   between [`RebalanceDecision::Stay`], [`RebalanceDecision::Refine`]
//!   (online Kernighan–Lin boundary refinement of the live partition) and
//!   [`RebalanceDecision::Resize`] (shrink on sustained idle ranks, grow
//!   when balanced-but-saturated with core headroom). Decisions require a
//!   sustained streak of observations and are rate-limited by a cooldown,
//!   so a single noisy solve never triggers a migration.
//! - [`plan_migration`] compares the old and new ownership maps against
//!   the matrix pattern and computes, per new rank, whether the old rank's
//!   factor and communication plan can be reused verbatim (the whole
//!   closure — owned rows plus every coupled neighbor — must be unchanged)
//!   or must be re-extracted.
//! - [`apply_decision`] performs the partition surgery itself using
//!   `parapre-partition`'s elastic primitives (`refine_partition`,
//!   `split_part`, `merge_part`).
//!
//! The actual session swap (re-extraction, collective vote, residual
//! probe, warm-start carry) lives in `parapre-engine`'s
//! `SolverSession::migrate`; everything here is engine-agnostic.

use parapre_grid::Adjacency;
use parapre_metrics::LoadReport;
use parapre_partition::{merge_part, refine_partition, split_part, Partition};
use parapre_sparse::Csr;

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

    /// The policy's knobs.
    pub fn config(&self) -> &RebalanceConfig {
        &self.cfg
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

/// How a new rank obtains its subdomain state during a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDisposition {
    /// The old rank of the same index is valid verbatim: factor and
    /// communication plan are carried over untouched.
    Reuse,
    /// The subdomain system must be re-extracted and refactored.
    Rebuild,
}

/// A validated migration between two ownership maps over the same matrix.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Ownership before the migration (`len == n`).
    pub old_owner: Vec<u32>,
    /// Ownership after the migration (`len == n`).
    pub new_owner: Vec<u32>,
    /// Rank count before.
    pub old_p: usize,
    /// Rank count after.
    pub new_p: usize,
    /// Per new rank: reuse the old state or rebuild (`len == new_p`).
    pub disposition: Vec<RankDisposition>,
    /// Vertices whose owner changed.
    pub moved_rows: usize,
}

impl MigrationPlan {
    /// Number of new ranks that reuse their old factor verbatim.
    pub fn reused_ranks(&self) -> usize {
        self.disposition
            .iter()
            .filter(|d| **d == RankDisposition::Reuse)
            .count()
    }

    /// `true` when the plan changes nothing (owner maps identical and the
    /// rank count is unchanged).
    pub fn is_identity(&self) -> bool {
        self.old_p == self.new_p && self.moved_rows == 0
    }

    /// Downgrades the plan to all-or-nothing reuse, for preconditioners
    /// whose *build* is collective (Schur 2, SchurML): mixing reused and
    /// rebuilt subdomains would leave some ranks skipping a collective
    /// build others participate in. If any rank must rebuild, all do.
    pub fn make_collective(&mut self) {
        if self.disposition.contains(&RankDisposition::Rebuild) {
            for d in self.disposition.iter_mut() {
                *d = RankDisposition::Rebuild;
            }
        }
    }

    /// A stable 64-bit digest of the new topology (FNV-1a over `new_p`
    /// and the new owner map). Ranks vote on this during the migration to
    /// detect torn plans, and the engine keys migrated sessions into the
    /// session cache with it.
    pub fn topology_tag(&self) -> u64 {
        owner_tag(self.new_p, &self.new_owner)
    }
}

/// FNV-1a digest of a rank count plus ownership map.
pub fn owner_tag(n_parts: usize, owner: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        for i in 0..8 {
            h ^= (b >> (8 * i)) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(n_parts as u64);
    for &o in owner {
        eat(o as u64);
    }
    h
}

/// Plans a migration from `old_owner` (over `old_p` ranks) to `new_owner`
/// (over `new_p` ranks) for the matrix `a`.
///
/// A new rank `r` may [`RankDisposition::Reuse`] old rank `r`'s state only
/// when its entire coupling closure is untouched: every row it owns kept
/// its owner, and every row coupled to one of its rows (either direction
/// of the pattern) kept its owner too. That guarantees the old layout,
/// ghost-exchange plan, and factor are bit-identical to what a fresh
/// extraction would produce, including the peer rank ids its
/// communication plan addresses.
///
/// Fails (old topology stays authoritative) when the maps disagree with
/// the matrix size, a rank id is out of range, or the new map leaves a
/// rank with no rows.
pub fn plan_migration(
    a: &Csr,
    old_owner: &[u32],
    old_p: usize,
    new_owner: &[u32],
    new_p: usize,
) -> Result<MigrationPlan, String> {
    let n = a.n_rows();
    if old_owner.len() != n || new_owner.len() != n {
        return Err(format!(
            "owner map length mismatch: matrix has {n} rows, old map {}, new map {}",
            old_owner.len(),
            new_owner.len()
        ));
    }
    if new_p == 0 {
        return Err("new topology has zero ranks".into());
    }
    let mut sizes = vec![0usize; new_p];
    for (i, &o) in new_owner.iter().enumerate() {
        let o = o as usize;
        if o >= new_p {
            return Err(format!(
                "row {i}: new owner {o} out of range for P'={new_p}"
            ));
        }
        sizes[o] += 1;
    }
    if let Some(empty) = sizes.iter().position(|&s| s == 0) {
        return Err(format!("new topology leaves rank {empty} with no rows"));
    }
    for (i, &o) in old_owner.iter().enumerate() {
        if (o as usize) >= old_p {
            return Err(format!("row {i}: old owner {o} out of range for P={old_p}"));
        }
    }

    let changed: Vec<bool> = (0..n).map(|i| old_owner[i] != new_owner[i]).collect();
    let moved_rows = changed.iter().filter(|&&c| c).count();

    // A rank is dirty when any vertex in its closure changed owner. Mark
    // both endpoints of every edge incident to a changed vertex (covers
    // both the ghost direction and the send direction of the exchange
    // plan, symmetric pattern or not), in both the old and new numbering.
    let mut dirty = vec![false; new_p];
    let mut mark = |o: u32| {
        let o = o as usize;
        if o < new_p {
            dirty[o] = true;
        }
    };
    for i in 0..n {
        if changed[i] {
            mark(old_owner[i]);
            mark(new_owner[i]);
        }
        let (cols, _) = a.row(i);
        for &j in cols {
            if changed[i] || changed[j] {
                mark(old_owner[i]);
                mark(new_owner[i]);
                mark(old_owner[j]);
                mark(new_owner[j]);
            }
        }
    }

    let disposition: Vec<RankDisposition> = (0..new_p)
        .map(|r| {
            if r < old_p && !dirty[r] {
                RankDisposition::Reuse
            } else {
                RankDisposition::Rebuild
            }
        })
        .collect();

    Ok(MigrationPlan {
        old_owner: old_owner.to_vec(),
        new_owner: new_owner.to_vec(),
        old_p,
        new_p,
        disposition,
        moved_rows,
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_grid::structured::unit_square;
    use parapre_metrics::RankLoad;
    use parapre_partition::partition_graph;

    fn load(busy: &[f64], wait: &[f64]) -> LoadReport {
        LoadReport::new(
            busy.iter()
                .zip(wait)
                .enumerate()
                .map(|(rank, (&busy_s, &comm_wait_s))| RankLoad {
                    rank,
                    busy_s,
                    comm_wait_s,
                    msgs_sent: 0,
                    bytes_sent: 0,
                    msgs_recv: 0,
                    bytes_recv: 0,
                })
                .collect(),
        )
    }

    fn policy(sustain: usize, cooldown: usize) -> RebalancePolicy {
        RebalancePolicy::new(RebalanceConfig {
            sustain,
            cooldown,
            available_cores: 16,
            grow_busy_floor_s: 0.01,
            ..RebalanceConfig::default()
        })
    }

    #[test]
    fn stays_on_balanced_light_load() {
        let mut p = policy(2, 2);
        let l = load(&[0.001; 4], &[0.0; 4]);
        for _ in 0..10 {
            assert_eq!(p.observe(&l), RebalanceDecision::Stay);
        }
    }

    #[test]
    fn refine_needs_a_sustained_streak() {
        let mut p = policy(3, 2);
        let skew = load(&[2.0, 1.0, 1.0, 1.0], &[0.0; 4]);
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
        assert_eq!(p.observe(&skew), RebalanceDecision::Refine);
        // Cooldown: the same evidence is ignored for two observations.
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
        // Streak must re-accumulate afterwards.
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
    }

    #[test]
    fn a_noisy_single_observation_resets_the_streak() {
        let mut p = policy(3, 0);
        let skew = load(&[2.0, 1.0, 1.0, 1.0], &[0.0; 4]);
        let flat = load(&[1.0; 4], &[0.0; 4]);
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
        assert_eq!(p.observe(&flat), RebalanceDecision::Stay);
        assert_eq!(p.observe(&skew), RebalanceDecision::Stay);
    }

    #[test]
    fn sustained_idle_rank_shrinks() {
        let mut p = policy(2, 0);
        let idle = load(&[1.0, 1.0, 1.0, 0.01], &[0.0; 4]);
        assert_eq!(p.observe(&idle), RebalanceDecision::Stay);
        assert_eq!(p.observe(&idle), RebalanceDecision::Resize(3));
    }

    #[test]
    fn balanced_saturated_with_headroom_grows() {
        let mut p = policy(2, 0);
        let hot = load(&[1.0, 1.01, 0.99, 1.0], &[0.01; 4]);
        assert_eq!(p.observe(&hot), RebalanceDecision::Stay);
        assert_eq!(p.observe(&hot), RebalanceDecision::Resize(5));
    }

    #[test]
    fn comm_bound_load_never_grows() {
        let mut p = policy(2, 0);
        let comm = load(&[1.0; 4], &[0.9; 4]);
        for _ in 0..6 {
            assert_eq!(p.observe(&comm), RebalanceDecision::Stay);
        }
    }

    fn grid_and_partition() -> (Csr, Adjacency, Partition) {
        let m = unit_square(16, 16);
        let adj = m.adjacency();
        let part = partition_graph(&adj, 4, 7);
        // 2-D Laplacian pattern on the grid graph.
        let n = adj.n();
        let mut coo = parapre_sparse::Coo::new(n, n);
        for v in 0..n {
            coo.push(v, v, 4.0);
            for &w in adj.neighbors(v) {
                coo.push(v, w, -1.0);
            }
        }
        (coo.to_csr(), adj, part)
    }

    #[test]
    fn identity_plan_reuses_every_rank() {
        let (a, _adj, part) = grid_and_partition();
        let plan = plan_migration(&a, &part.owner, 4, &part.owner, 4).unwrap();
        assert!(plan.is_identity());
        assert_eq!(plan.reused_ranks(), 4);
        assert_eq!(plan.moved_rows, 0);
    }

    #[test]
    fn local_change_dirties_only_the_closure() {
        let (a, adj, part) = grid_and_partition();
        // Move one boundary vertex between two adjacent parts.
        let v = (0..adj.n())
            .find(|&v| {
                adj.neighbors(v)
                    .iter()
                    .any(|&w| part.owner[w] != part.owner[v])
            })
            .unwrap();
        let from = part.owner[v] as usize;
        let to = adj
            .neighbors(v)
            .iter()
            .map(|&w| part.owner[w] as usize)
            .find(|&q| q != from)
            .unwrap();
        let mut new_owner = part.owner.clone();
        new_owner[v] = to as u32;
        let plan = plan_migration(&a, &part.owner, 4, &new_owner, 4).unwrap();
        assert_eq!(plan.moved_rows, 1);
        assert_eq!(plan.disposition[from], RankDisposition::Rebuild);
        assert_eq!(plan.disposition[to], RankDisposition::Rebuild);
        // At least one untouched part survives with full reuse.
        assert!(plan.reused_ranks() >= 1, "{:?}", plan.disposition);
        // Reused ranks must be far from the move: no owned row coupled to v.
        for (r, d) in plan.disposition.iter().enumerate() {
            if *d == RankDisposition::Reuse {
                assert_ne!(r, from);
                assert_ne!(r, to);
            }
        }
    }

    #[test]
    fn collective_downgrade_is_all_or_nothing() {
        let (a, _adj, part) = grid_and_partition();
        let mut new_owner = part.owner.clone();
        let v = new_owner.iter().position(|&o| o == 0).unwrap();
        new_owner[v] = 1;
        let mut plan = plan_migration(&a, &part.owner, 4, &new_owner, 4).unwrap();
        plan.make_collective();
        assert_eq!(plan.reused_ranks(), 0);
        // Identity plans stay fully reused even for collective kinds.
        let mut id = plan_migration(&a, &part.owner, 4, &part.owner, 4).unwrap();
        id.make_collective();
        assert_eq!(id.reused_ranks(), 4);
    }

    #[test]
    fn rejects_empty_ranks_and_bad_ids() {
        let (a, _adj, part) = grid_and_partition();
        // Rank 9 never appears → empty rank at P'=10.
        assert!(plan_migration(&a, &part.owner, 4, &part.owner, 10).is_err());
        let mut bad = part.owner.clone();
        bad[0] = 99;
        assert!(plan_migration(&a, &part.owner, 4, &bad, 4).is_err());
        assert!(plan_migration(&a, &part.owner[1..], 4, &part.owner, 4).is_err());
    }

    #[test]
    fn topology_tag_separates_topologies() {
        let (a, _adj, part) = grid_and_partition();
        let id = plan_migration(&a, &part.owner, 4, &part.owner, 4).unwrap();
        let mut new_owner = part.owner.clone();
        let v = new_owner.iter().position(|&o| o == 0).unwrap();
        new_owner[v] = 1;
        let moved = plan_migration(&a, &part.owner, 4, &new_owner, 4).unwrap();
        assert_ne!(id.topology_tag(), moved.topology_tag());
        // Tag depends on P even with an identical map layout.
        assert_ne!(owner_tag(4, &part.owner), owner_tag(5, &part.owner));
    }

    #[test]
    fn apply_refine_and_resize_produce_valid_partitions() {
        let (_a, adj, part) = grid_and_partition();
        let l = load(&[1.0, 0.01, 1.0, 1.0], &[0.0; 4]);
        let shrunk = apply_decision(&adj, &part, &l, RebalanceDecision::Resize(3), 5, 32).unwrap();
        assert_eq!(shrunk.n_parts, 3);
        assert!(shrunk.part_sizes().iter().all(|&s| s > 0));
        let grown = apply_decision(&adj, &part, &l, RebalanceDecision::Resize(5), 5, 32).unwrap();
        assert_eq!(grown.n_parts, 5);
        assert!(grown.part_sizes().iter().all(|&s| s > 0));
        assert!(apply_decision(&adj, &part, &l, RebalanceDecision::Stay, 5, 32).is_none());
    }
}

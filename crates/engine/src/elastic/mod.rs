//! Elastic rank topology: watch cached sessions' load attribution, decide,
//! plan, migrate, and swap the migrated session into the [`SessionCache`]
//! under its new topology-tagged key.
//!
//! The paper's preconditioners degrade as `P` grows precisely when the
//! partition no longer matches the work: interface growth and skewed
//! per-rank load both show up directly in the solver's `LoadReport`
//! (per-rank busy/comm-wait attribution). This module turns that signal
//! into *routine capacity management*:
//!
//! - [`RebalancePolicy`] consumes successive `LoadReport`s and decides
//!   between [`RebalanceDecision::Stay`], [`RebalanceDecision::Refine`]
//!   (online Kernighan–Lin boundary refinement of the live partition) and
//!   [`RebalanceDecision::Resize`] (shrink on sustained idle ranks, grow
//!   when balanced-but-saturated with core headroom). Decisions require a
//!   sustained streak of observations and are rate-limited by a cooldown,
//!   so a single noisy solve never triggers a migration.
//! - [`apply_decision`] performs the partition surgery itself using
//!   `parapre-partition`'s elastic primitives (`refine_partition`,
//!   `split_part`, `merge_part`).
//! - [`plan_migration`] compares the old and new ownership maps against
//!   the matrix pattern and computes, per new rank, whether the old rank's
//!   factor and communication plan can be reused verbatim (the whole
//!   closure — owned rows plus every coupled neighbor — must be unchanged)
//!   or must be re-extracted.
//! - [`SolverSession::migrate`] is the session swap (re-extraction,
//!   collective vote, residual probe, warm-start carry), and
//!   [`RebalanceManager`] runs the four over every resident session.
//!
//! [`SessionCache`]: crate::SessionCache
//! [`SolverSession::migrate`]: crate::SolverSession::migrate

mod manager;
mod plan;
mod policy;

pub use manager::{RebalanceManager, RebalanceRecord};
pub use plan::{owner_tag, plan_migration, MigrationPlan, RankDisposition};
pub use policy::{apply_decision, RebalanceConfig, RebalanceDecision, RebalancePolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_grid::structured::unit_square;
    use parapre_grid::Adjacency;
    use parapre_metrics::{LoadReport, RankLoad};
    use parapre_partition::{partition_graph, Partition};
    use parapre_sparse::Csr;

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

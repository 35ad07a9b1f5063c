//! In-memory checkpoint store for distributed solves.
//!
//! At every restart-cycle boundary (after the true residual has been
//! computed) each rank pushes its owned iterate. Because completing a cycle
//! requires allreduces with every peer, two live ranks' newest cycles differ
//! by at most one — keeping the last **two** snapshots per rank therefore
//! always contains a *consistent* global iterate: the newest cycle present
//! on all ranks. Recovery assembles that iterate and restarts the solver
//! from it.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One rank's snapshot at a cycle boundary.
#[derive(Debug, Clone)]
struct Snapshot {
    cycle: u64,
    iters: usize,
    x: Vec<f64>,
}

/// A consistent global recovery point.
#[derive(Debug, Clone)]
pub struct ConsistentCheckpoint {
    /// Cycle number common to all ranks.
    pub cycle: u64,
    /// Iterations spent up to that cycle (rank-identical).
    pub iters: usize,
    /// Per-rank owned iterates.
    pub x: Vec<Vec<f64>>,
}

/// Bounded per-rank snapshot store shared by the rank threads of a solve
/// (hence the per-rank locks).
pub struct CheckpointStore {
    ranks: Vec<Mutex<VecDeque<Snapshot>>>,
}

/// Snapshots kept per rank: the minimum that guarantees a consistent
/// recovery point (see the module docs).
const KEEP: usize = 2;

impl CheckpointStore {
    /// Store for `n_ranks`, keeping the last two snapshots per rank.
    pub fn new(n_ranks: usize) -> Self {
        CheckpointStore {
            ranks: (0..n_ranks).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Total snapshots currently held.
    pub fn n_held(&self) -> usize {
        self.ranks.iter().map(|r| r.lock().unwrap().len()).sum()
    }

    /// Stores rank `rank`'s owned iterate at the end of restart cycle
    /// `cycle` (1-based, monotone within a solve), with `iters` total
    /// matvecs spent so far.
    pub fn save(&self, rank: usize, cycle: u64, iters: usize, x: &[f64]) {
        let mut q = self.ranks[rank].lock().unwrap();
        q.push_back(Snapshot {
            cycle,
            iters,
            x: x.to_vec(),
        });
        while q.len() > KEEP {
            q.pop_front();
        }
    }

    /// The newest cycle present on **all** ranks, with its per-rank
    /// iterates, or `None` if any rank has no snapshot yet.
    pub fn latest_consistent(&self) -> Option<ConsistentCheckpoint> {
        let guards: Vec<_> = self.ranks.iter().map(|r| r.lock().unwrap()).collect();
        let cycle = guards
            .iter()
            .map(|g| g.back().map(|s| s.cycle))
            .min()
            .flatten()?;
        let mut x = Vec::with_capacity(guards.len());
        let mut iters = 0;
        for g in &guards {
            let snap = g.iter().find(|s| s.cycle == cycle)?;
            iters = snap.iters;
            x.push(snap.x.clone());
        }
        Some(ConsistentCheckpoint { cycle, iters, x })
    }
}

/// Checkpointing context for a (possibly resumed) solve.
#[derive(Clone, Copy)]
pub struct CheckpointCtx<'a> {
    /// Where cycle-boundary snapshots go.
    pub store: &'a CheckpointStore,
    /// Iterations already spent before this attempt (counted against
    /// `max_iters` and included in the reported iteration totals, so a
    /// resumed solve's budget and report cover the whole logical solve).
    pub start_iters: usize,
    /// Cycle number to continue from (0 for a fresh solve), so snapshot
    /// ordering stays monotone across resume.
    pub start_cycle: u64,
}

impl<'a> CheckpointCtx<'a> {
    /// Context for a fresh (not resumed) solve.
    pub fn fresh(store: &'a CheckpointStore) -> Self {
        CheckpointCtx {
            store,
            start_iters: 0,
            start_cycle: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_has_no_consistent_point() {
        let store = CheckpointStore::new(3);
        assert!(store.latest_consistent().is_none());
        store.save(0, 1, 20, &[1.0]);
        store.save(1, 1, 20, &[2.0]);
        // Rank 2 has nothing yet.
        assert!(store.latest_consistent().is_none());
    }

    #[test]
    fn skewed_ranks_recover_the_common_cycle() {
        let store = CheckpointStore::new(2);
        store.save(0, 1, 20, &[0.1]);
        store.save(1, 1, 20, &[1.1]);
        store.save(0, 2, 40, &[0.2]); // rank 0 is a cycle ahead
        let ck = store.latest_consistent().unwrap();
        assert_eq!(ck.cycle, 1);
        assert_eq!(ck.iters, 20);
        assert_eq!(ck.x, vec![vec![0.1], vec![1.1]]);
    }

    #[test]
    fn keeps_only_last_two_per_rank() {
        let store = CheckpointStore::new(1);
        for c in 1..=5u64 {
            store.save(0, c, 20 * c as usize, &[c as f64]);
        }
        assert_eq!(store.n_held(), 2);
        let ck = store.latest_consistent().unwrap();
        assert_eq!(ck.cycle, 5);
        assert_eq!(ck.iters, 100);
    }
}

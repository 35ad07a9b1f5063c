//! Which subdomains of a new ownership map keep the factor and
//! communication plan they have.

use parapre_sparse::Csr;

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

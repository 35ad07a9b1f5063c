//! ARMS — Algebraic Recursive Multilevel Solver.
//!
//! Implements the method of Saad & Suchomel (paper reference 9) that the
//! `Schur 2` preconditioner uses as its subdomain engine (paper §2, Fig. 2):
//!
//! 1. Find a **group-independent set**: small groups of unknowns such that no
//!    two unknowns from *different* groups are coupled. Unknowns adjacent to
//!    a finished group become *local interface* unknowns.
//! 2. Permute the independent-set unknowns first. The leading block `B` is
//!    then exactly block diagonal (one small dense block per group) and is
//!    factored exactly.
//! 3. Form the dropped approximate Schur complement `Ĉ = C − E B⁻¹ F` and
//!    recurse on it; the last level is factored with ILUT.
//!
//! The solve is the exact block-LU forward/backward sweep through the
//! levels. With `n_levels = 2` this is the paper's "two-level ARMS".
//!
//! For `Schur 2`, unknowns can be **pinned to the coarse set** (the
//! interdomain interface unknowns must survive all reductions so that the
//! *expanded* Schur system contains both local and interdomain interfaces):
//! pass their flags to [`Arms::factor_with_coarse`].

use crate::ilu::{Ilut, IlutConfig, LuFactors};
use crate::precond::Preconditioner;
use parapre_sparse::dense::DenseLu;
use parapre_sparse::{Coo, Csr, Dense, Error, Permutation, Result};
use std::sync::Arc;

/// ARMS construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ArmsConfig {
    /// Number of levels; `2` = the paper's two-level ARMS (one reduction,
    /// then ILUT on the reduced system).
    pub n_levels: usize,
    /// Maximum unknowns per independent group.
    pub group_size: usize,
    /// Relative drop tolerance applied to the approximate Schur complement.
    pub drop_tol: f64,
    /// Last-level ILUT parameters.
    pub ilut: IlutConfig,
    /// Stop reducing once the remaining system is this small.
    pub min_reduced: usize,
}

impl Default for ArmsConfig {
    fn default() -> Self {
        ArmsConfig {
            n_levels: 2,
            group_size: 8,
            drop_tol: 1e-3,
            ilut: IlutConfig::default(),
            min_reduced: 10,
        }
    }
}

/// Result of the greedy group-independent-set search.
#[derive(Debug, Clone)]
pub struct GroupIndependentSet {
    /// Permutation placing independent-set unknowns first (grouped).
    pub perm: Permutation,
    /// Number of independent-set unknowns (prefix length).
    pub n_ind: usize,
    /// Group offsets into the permuted prefix: group `g` occupies permuted
    /// positions `group_off[g]..group_off[g+1]`.
    pub group_off: Vec<usize>,
}

/// Greedy group-independent-set construction (Saad & Zhang, BILUM-style).
///
/// `forced_coarse[v] = true` pins vertex `v` to the coarse (non-eliminated)
/// set. Vertices adjacent to a completed group are marked as coarse ("local
/// interface" in the paper's Fig. 2).
pub fn group_independent_set(
    a: &Csr,
    group_size: usize,
    forced_coarse: &[bool],
) -> GroupIndependentSet {
    let n = a.n_rows();
    assert_eq!(forced_coarse.len(), n);
    const UNSEEN: u8 = 0;
    const GROUPED: u8 = 1;
    const COARSE: u8 = 2;
    let mut state = vec![UNSEEN; n];
    for (v, &f) in forced_coarse.iter().enumerate() {
        if f {
            state[v] = COARSE;
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut group_off: Vec<usize> = vec![0];
    let mut frontier: Vec<usize> = Vec::new();
    for v in 0..n {
        if state[v] != UNSEEN {
            continue;
        }
        // Grow a new group from v via BFS over unseen neighbours.
        let g_start = order.len();
        state[v] = GROUPED;
        order.push(v);
        frontier.clear();
        frontier.push(v);
        let mut head = 0;
        while head < frontier.len() && order.len() - g_start < group_size {
            let u = frontier[head];
            head += 1;
            let (cols, _) = a.row(u);
            for &w in cols {
                if order.len() - g_start >= group_size {
                    break;
                }
                if w != u && state[w] == UNSEEN {
                    state[w] = GROUPED;
                    order.push(w);
                    frontier.push(w);
                }
            }
        }
        // Seal the group: all unseen neighbours of members become coarse.
        for &u in &order[g_start..] {
            let (cols, _) = a.row(u);
            for &w in cols {
                if state[w] == UNSEEN {
                    state[w] = COARSE;
                }
            }
        }
        group_off.push(order.len());
    }
    let n_ind = order.len();
    // Coarse set follows, in natural order.
    for (v, &s) in state.iter().enumerate() {
        if s == COARSE {
            order.push(v);
        }
    }
    debug_assert_eq!(order.len(), n);
    GroupIndependentSet {
        perm: Permutation::from_vec(order).expect("greedy order is a permutation"),
        n_ind,
        group_off,
    }
}

/// One elimination level of ARMS.
#[derive(Debug)]
pub struct ArmsLevel {
    /// The level's group-independent set: the symbolic half of the level,
    /// shared by `Arc` with every [`Arms::refactor`] descendant.
    gis: Arc<GroupIndependentSet>,
    block_lus: Vec<DenseLu>,
    /// Coupling blocks of the permuted matrix: `F` is `n_ind × nc`,
    /// `E` is `nc × n_ind`, `C` is the exact coarse block.
    f: Csr,
    e: Csr,
    c: Csr,
    /// Dropped approximate Schur complement `Ĉ = C − E B⁻¹ F` handed to the
    /// next level.
    reduced: Csr,
}

impl ArmsLevel {
    /// Number of eliminated (independent-set) unknowns.
    pub fn n_ind(&self) -> usize {
        self.gis.n_ind
    }

    /// Number of remaining coarse unknowns.
    pub fn n_coarse(&self) -> usize {
        self.c.n_rows()
    }

    /// Level permutation (independent set first).
    pub fn perm(&self) -> &Permutation {
        &self.gis.perm
    }

    /// Group offsets within the independent-set prefix.
    pub fn group_off(&self) -> &[usize] {
        &self.gis.group_off
    }

    /// Exact coarse block `C` of the permuted matrix.
    pub fn c_block(&self) -> &Csr {
        &self.c
    }

    /// Coupling block `F` (`n_ind × nc`).
    pub fn f_block(&self) -> &Csr {
        &self.f
    }

    /// Coupling block `E` (`nc × n_ind`).
    pub fn e_block(&self) -> &Csr {
        &self.e
    }

    /// The dropped approximate Schur complement passed to the next level.
    pub fn reduced(&self) -> &Csr {
        &self.reduced
    }

    /// Exact solve with the block-diagonal `B` over the first `n_ind`
    /// entries of `x` (in place).
    pub fn solve_b(&self, x: &mut [f64]) {
        debug_assert!(x.len() >= self.gis.n_ind);
        for (g, lu) in self.block_lus.iter().enumerate() {
            let lo = self.gis.group_off[g];
            let hi = self.gis.group_off[g + 1];
            lu.solve_in_place(&mut x[lo..hi]);
        }
    }

    /// The exact block-LU sweep through this level, `z = A⁻¹ r` up to the
    /// coarse solve: permute, `y_B = B⁻¹ r_B`, `r_C' = r_C − E y_B`, then
    /// `coarse(r_C', z_C)` solves the level's reduced system into a zeroed
    /// `z_C` (the next level, a corrected next level, or a distributed
    /// iteration on the expanded Schur system — the one thing in which the
    /// callers differ), then `z_B = y_B − B⁻¹ F z_C` and the inverse
    /// permutation.
    pub fn sweep(&self, r: &[f64], z: &mut [f64], coarse: impl FnOnce(&[f64], &mut [f64])) {
        let mut rp = self.perm().apply_vec(r);
        self.solve_b(&mut rp);
        let (yb, rc) = rp.split_at_mut(self.n_ind());
        self.e.spmv_acc(-1.0, yb, rc);
        let mut zc = vec![0.0; rc.len()];
        coarse(rc, &mut zc);
        let mut fz = self.f.mul_vec(&zc);
        self.solve_b(&mut fz);
        for (y, f) in yb.iter_mut().zip(&fz) {
            *y -= f;
        }
        rc.copy_from_slice(&zc);
        z.copy_from_slice(&self.perm().apply_inv_vec(&rp));
    }
}

/// The assembled multilevel solver.
#[derive(Debug)]
pub struct Arms {
    n: usize,
    /// The configuration the levels were built with ([`Arms::refactor`]
    /// re-applies its drop tolerance to the retained independent sets).
    cfg: ArmsConfig,
    levels: Vec<ArmsLevel>,
    last: LuFactors,
    last_n: usize,
}

impl Arms {
    /// Factors `a` with the given configuration.
    pub fn factor(a: &Csr, cfg: &ArmsConfig) -> Result<Self> {
        Self::factor_with_coarse(a, cfg, &vec![false; a.n_rows()])
    }

    /// Factors `a`, pinning `forced_coarse` unknowns to the final reduced
    /// system (used by `Schur 2` for interdomain-interface unknowns).
    pub fn factor_with_coarse(a: &Csr, cfg: &ArmsConfig, forced_coarse: &[bool]) -> Result<Self> {
        let n = a.n_rows();
        if n != a.n_cols() {
            return Err(Error::DimensionMismatch {
                op: "arms",
                expected: n,
                found: a.n_cols(),
            });
        }
        let mut levels = Vec::new();
        let mut cur = a.clone();
        let mut forced = forced_coarse.to_vec();
        for _ in 1..cfg.n_levels.max(1) {
            if cur.n_rows() <= cfg.min_reduced {
                break;
            }
            let gis = Arc::new(group_independent_set(&cur, cfg.group_size, &forced));
            if gis.n_ind == 0 {
                break; // everything pinned: nothing to eliminate
            }
            let level = build_level(&cur, &gis, cfg)?;
            // Coarse-set forced flags carry over to the reduced system.
            let nc = level.n_coarse();
            let mut new_forced = vec![false; nc];
            for k in 0..nc {
                let old = gis.perm.old_of(gis.n_ind + k);
                new_forced[k] = forced[old];
            }
            cur = level.reduced.clone();
            forced = new_forced;
            levels.push(level);
        }
        let last = Ilut::factor(&cur, &cfg.ilut)?;
        parapre_metrics::gauge(parapre_metrics::names::ARMS_LEVELS, levels.len() as f64);
        parapre_metrics::gauge(parapre_metrics::names::ARMS_LAST_N, cur.n_rows() as f64);
        Ok(Arms {
            n,
            cfg: *cfg,
            levels,
            last,
            last_n: cur.n_rows(),
        })
    }

    /// Numeric-only refactorization for a matrix with the pattern this
    /// hierarchy was built on: the group-independent-set search is skipped
    /// and every level is rebuilt on its **retained** set (dense group LUs,
    /// `W = B⁻¹F` and the dropped `Ĉ` recomputed from the new values, with
    /// fresh dropping), and the new last-level system goes through
    /// [`LuFactors::refactor`] instead of ILUT. The sets and the last
    /// factor's pattern are shared with `self` by `Arc`.
    ///
    /// Fails with a typed error — never a shift or a pivot fix — on a
    /// singular group block, a shape mismatch, or an unhealthy last-level
    /// pivot; callers fall back to [`Arms::factor_with_coarse`].
    pub fn refactor(&self, a: &Csr) -> Result<Self> {
        for found in [a.n_rows(), a.n_cols()] {
            if found != self.n {
                return Err(Error::DimensionMismatch {
                    op: "arms refactor",
                    expected: self.n,
                    found,
                });
            }
        }
        let mut levels: Vec<ArmsLevel> = Vec::with_capacity(self.levels.len());
        for donor in &self.levels {
            let cur = levels.last().map_or(a, |l| &l.reduced);
            levels.push(build_level(cur, &donor.gis, &self.cfg)?);
        }
        let last = self
            .last
            .refactor(levels.last().map_or(a, |l| &l.reduced))?;
        Ok(Arms {
            n: self.n,
            cfg: self.cfg,
            levels,
            last,
            last_n: self.last_n,
        })
    }

    /// [`Arms::factor_with_coarse`] behind the diagonal-shift retry ladder
    /// ([`crate::ilu::factor_with_shifts`]): a breakdown anywhere in the
    /// level construction (zero group-block pivot, poisoned last-level
    /// ILUT) retries on a diagonally shifted copy of `a`; a rung's health is
    /// read off the last-level factors.
    pub fn factor_with_coarse_shifted(
        a: &Csr,
        cfg: &ArmsConfig,
        forced_coarse: &[bool],
    ) -> Result<Self> {
        crate::ilu::factor_with_shifts(
            a,
            |m| Self::factor_with_coarse(m, cfg, forced_coarse),
            |arms| &mut arms.last,
        )
    }

    /// Health report of the last-level factorization (carries the shift
    /// ladder outcome when factored via
    /// [`Arms::factor_with_coarse_shifted`]).
    pub fn report(&self) -> &parapre_sparse::FactorReport {
        self.last.report()
    }

    /// Number of elimination levels (excluding the final ILUT).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// The elimination levels, outermost first.
    pub fn levels(&self) -> &[ArmsLevel] {
        &self.levels
    }

    /// The last-level ILUT factorization of the reduced system.
    pub fn last_factors(&self) -> &LuFactors {
        &self.last
    }

    /// Size of the final reduced system.
    pub fn reduced_dim(&self) -> usize {
        self.last_n
    }

    /// The block-LU solve from `depth` down, written into `z`.
    fn solve_level(&self, depth: usize, r: &[f64], z: &mut [f64]) {
        match self.levels.get(depth) {
            Some(lvl) => lvl.sweep(r, z, |rc, zc| self.solve_level(depth + 1, rc, zc)),
            None => {
                z.copy_from_slice(r);
                self.last.solve_in_place(z);
            }
        }
    }
}

impl Preconditioner for Arms {
    fn dim(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve_level(0, r, z);
    }
}

/// Builds one level: permute, split, factor the group blocks, form the
/// dropped approximate Schur complement.
fn build_level(a: &Csr, gis: &Arc<GroupIndependentSet>, cfg: &ArmsConfig) -> Result<ArmsLevel> {
    let n = a.n_rows();
    let n_ind = gis.n_ind;
    let nc = n - n_ind;
    let ap = gis.perm.apply_sym(a);

    // Split the permuted matrix into B, F, E, C.
    let ind_rows: Vec<usize> = (0..n_ind).collect();
    let coarse_rows: Vec<usize> = (n_ind..n).collect();
    let map_ind = |j: usize| (j < n_ind).then_some(j);
    let map_coarse = |j: usize| j.checked_sub(n_ind);
    let b = ap.extract(&ind_rows, map_ind, n_ind);
    let f = ap.extract(&ind_rows, map_coarse, nc);
    let e = ap.extract(&coarse_rows, map_ind, n_ind);
    let c = ap.extract(&coarse_rows, map_coarse, nc);

    // Factor the diagonal groups of B. The set search walks rows, so B is
    // exactly block diagonal when the pattern is structurally symmetric;
    // deeper levels eliminate a *dropped* Schur complement whose pattern
    // need not be, and a coupling the search could not see (an entry whose
    // transpose was dropped) is left out of the group blocks.
    let n_groups = gis.group_off.len() - 1;
    let mut block_lus = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        let lo = gis.group_off[g];
        let hi = gis.group_off[g + 1];
        let m = hi - lo;
        let mut block = Dense::zeros(m, m);
        for i in lo..hi {
            let (cols, vals) = b.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if (lo..hi).contains(&j) {
                    block[(i - lo, j - lo)] = v;
                }
            }
        }
        block_lus.push(DenseLu::factor(block)?);
    }

    // W = B^{-1} F, computed group by group.
    let mut w = Coo::new(n_ind, nc);
    let mut rhs_cols: Vec<usize> = Vec::new();
    // Position of a coarse column among the group's `rhs_cols`; every group
    // resets the entries it set, so the level allocates this once.
    let mut col_pos = vec![usize::MAX; nc];
    for g in 0..n_groups {
        let lo = gis.group_off[g];
        let hi = gis.group_off[g + 1];
        let m = hi - lo;
        // Union of coarse columns touched by this group's F rows.
        rhs_cols.clear();
        for i in lo..hi {
            rhs_cols.extend_from_slice(f.row(i).0);
        }
        rhs_cols.sort_unstable();
        rhs_cols.dedup();
        if rhs_cols.is_empty() {
            continue;
        }
        for (k, &j) in rhs_cols.iter().enumerate() {
            col_pos[j] = k;
        }
        // Dense m × |J| right-hand sides.
        let mut rhs = vec![0.0; m * rhs_cols.len()];
        for i in lo..hi {
            let (cols, vals) = f.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                rhs[col_pos[j] * m + (i - lo)] = v;
            }
        }
        for (k, &j) in rhs_cols.iter().enumerate() {
            let colbuf = &mut rhs[k * m..(k + 1) * m];
            block_lus[g].solve_in_place(colbuf);
            for (ii, &v) in colbuf.iter().enumerate() {
                if v != 0.0 {
                    w.push(lo + ii, j, v);
                }
            }
            col_pos[j] = usize::MAX;
        }
    }
    let w = w.to_csr();

    // Ĉ = C − E W, with per-row relative dropping.
    let ew = e.matmul(&w)?;
    let chat = c.add(-1.0, &ew)?;
    let reduced = drop_relative(&chat, cfg.drop_tol);

    Ok(ArmsLevel {
        gis: Arc::clone(gis),
        block_lus,
        f,
        e,
        c,
        reduced,
    })
}

/// Drops entries below `tol · ‖row‖₂ / √(row length)`; diagonals always kept.
fn drop_relative(a: &Csr, tol: f64) -> Csr {
    let n = a.n_rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        let (cols, vs) = a.row(i);
        let norm: f64 = vs.iter().map(|v| v * v).sum::<f64>();
        let thresh = tol * (norm / cols.len().max(1) as f64).sqrt();
        for (&j, &v) in cols.iter().zip(vs) {
            if j == i || v.abs() > thresh {
                col_idx.push(j);
                vals.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts_unchecked(n, a.n_cols(), row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::{FGmres, GmresConfig};
    use crate::precond::Preconditioner;
    use parapre_sparse::Coo;

    fn laplacian_2d(nx: usize) -> Csr {
        let n = nx * nx;
        let mut coo = Coo::new(n, n);
        for iy in 0..nx {
            for ix in 0..nx {
                let i = iy * nx + ix;
                coo.push(i, i, 4.0);
                if ix > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if ix + 1 < nx {
                    coo.push(i, i + 1, -1.0);
                }
                if iy > 0 {
                    coo.push(i, i - nx, -1.0);
                }
                if iy + 1 < nx {
                    coo.push(i, i + nx, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn independent_set_groups_are_decoupled() {
        let a = laplacian_2d(10);
        let gis = group_independent_set(&a, 6, &vec![false; a.n_rows()]);
        assert!(gis.n_ind > 0);
        // Membership array: group id per original vertex, usize::MAX = coarse.
        let n = a.n_rows();
        let mut member = vec![usize::MAX; n];
        for g in 0..gis.group_off.len() - 1 {
            for k in gis.group_off[g]..gis.group_off[g + 1] {
                member[gis.perm.old_of(k)] = g;
            }
        }
        for (i, j, _) in a.iter() {
            if member[i] != usize::MAX && member[j] != usize::MAX {
                assert_eq!(
                    member[i], member[j],
                    "groups {}/{} coupled",
                    member[i], member[j]
                );
            }
        }
    }

    #[test]
    fn independent_set_respects_group_size() {
        let a = laplacian_2d(8);
        let gs = 5;
        let gis = group_independent_set(&a, gs, &vec![false; a.n_rows()]);
        for w in gis.group_off.windows(2) {
            assert!(w[1] - w[0] <= gs);
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn forced_coarse_vertices_stay_coarse() {
        let a = laplacian_2d(6);
        let n = a.n_rows();
        let mut forced = vec![false; n];
        for i in 0..n {
            if i % 7 == 0 {
                forced[i] = true;
            }
        }
        let gis = group_independent_set(&a, 4, &forced);
        for k in 0..gis.n_ind {
            assert!(!forced[gis.perm.old_of(k)], "forced vertex eliminated");
        }
    }

    #[test]
    fn arms_exact_when_nothing_dropped() {
        // With zero drop tolerance and huge ILUT fill, ARMS is an exact
        // block-LU factorization: the solve must invert A to machine
        // precision.
        let a = laplacian_2d(7);
        let cfg = ArmsConfig {
            n_levels: 2,
            group_size: 4,
            drop_tol: 0.0,
            ilut: IlutConfig {
                drop_tol: 0.0,
                fill: 10_000,
            },
            min_reduced: 1,
        };
        let arms = Arms::factor(&a, &cfg).unwrap();
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let mut z = vec![0.0; n];
        arms.apply(&b, &mut z);
        for (u, v) in z.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn arms_multilevel_exact_when_nothing_dropped() {
        let a = laplacian_2d(9);
        let cfg = ArmsConfig {
            n_levels: 4,
            group_size: 3,
            drop_tol: 0.0,
            ilut: IlutConfig {
                drop_tol: 0.0,
                fill: 10_000,
            },
            min_reduced: 1,
        };
        let arms = Arms::factor(&a, &cfg).unwrap();
        assert!(arms.n_levels() >= 2, "expected multiple levels");
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b = a.mul_vec(&x_true);
        let mut z = vec![0.0; n];
        arms.apply(&b, &mut z);
        for (u, v) in z.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    /// `a` with the diagonal grown by a smooth relative amount up to `eps`.
    fn grown_diagonal(a: &Csr, eps: f64) -> Csr {
        let mut b = a.clone();
        for (slot, (i, j, v)) in b.vals_mut().iter_mut().zip(a.iter()) {
            if i == j {
                *slot = v * (1.0 + eps * (0.5 + 0.5 * (i as f64 * 0.3).sin().abs()));
            }
        }
        b
    }

    #[test]
    fn refactor_is_exact_when_nothing_is_dropped() {
        // Complete patterns on both sides: the refactored hierarchy must
        // invert the *new* matrix to machine precision, on the retained
        // independent sets.
        let a = laplacian_2d(7);
        let cfg = ArmsConfig {
            n_levels: 3,
            group_size: 4,
            drop_tol: 0.0,
            ilut: IlutConfig {
                drop_tol: 0.0,
                fill: 10_000,
            },
            min_reduced: 1,
        };
        let donor = Arms::factor(&a, &cfg).unwrap();
        let a2 = grown_diagonal(&a, 0.1);
        let arms = donor.refactor(&a2).unwrap();
        assert_eq!(arms.n_levels(), donor.n_levels());
        for (new, old) in arms.levels().iter().zip(donor.levels()) {
            assert!(Arc::ptr_eq(&new.gis, &old.gis));
        }
        assert!(arms
            .last_factors()
            .shares_pattern_with(donor.last_factors()));
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a2.mul_vec(&x_true);
        let mut z = vec![0.0; n];
        arms.apply(&b, &mut z);
        for (u, v) in z.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn refactored_arms_preconditions_like_a_fresh_one() {
        let a = laplacian_2d(15);
        let n = a.n_rows();
        let donor = Arms::factor(&a, &ArmsConfig::default()).unwrap();
        let a2 = grown_diagonal(&a, 0.05);
        let iterations = |m: &Arms| {
            let mut x = vec![0.0; n];
            let rep = FGmres::new(GmresConfig {
                max_iters: 200,
                ..Default::default()
            })
            .solve(&a2, m, &vec![1.0; n], &mut x);
            assert!(rep.converged);
            rep.iterations
        };
        let hot = iterations(&donor.refactor(&a2).unwrap());
        let cold = iterations(&Arms::factor(&a2, &ArmsConfig::default()).unwrap());
        assert!(hot.abs_diff(cold) <= 1, "refactored {hot} vs fresh {cold}");
    }

    #[test]
    fn refactor_reports_shape_and_singular_blocks() {
        let a = laplacian_2d(6);
        let donor = Arms::factor(&a, &ArmsConfig::default()).unwrap();
        assert!(matches!(
            donor.refactor(&laplacian_2d(5)),
            Err(Error::DimensionMismatch { .. })
        ));
        // All-zero values on the same pattern: the first group block is
        // singular, and no shift is attempted.
        let mut zeros = a.clone();
        zeros.vals_mut().fill(0.0);
        assert!(donor.refactor(&zeros).is_err());
    }

    #[test]
    fn arms_accelerates_fgmres() {
        let a = laplacian_2d(15);
        let n = a.n_rows();
        let arms = Arms::factor(&a, &ArmsConfig::default()).unwrap();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = FGmres::new(GmresConfig {
            max_iters: 200,
            ..Default::default()
        })
        .solve(&a, &arms, &b, &mut x);
        assert!(rep.converged);
        assert!(rep.iterations < 40, "iterations {}", rep.iterations);
    }

    #[test]
    fn arms_reduced_system_contains_forced_unknowns() {
        let a = laplacian_2d(8);
        let n = a.n_rows();
        // Pin the last grid row (as interdomain interface unknowns).
        let mut forced = vec![false; n];
        for i in (n - 8)..n {
            forced[i] = true;
        }
        let cfg = ArmsConfig {
            n_levels: 2,
            ..Default::default()
        };
        let arms = Arms::factor_with_coarse(&a, &cfg, &forced).unwrap();
        assert_eq!(arms.n_levels(), 1);
        let lvl = &arms.levels()[0];
        // Every forced unknown must sit in the coarse part of level 0.
        for k in 0..lvl.n_ind() {
            assert!(!forced[lvl.perm().old_of(k)]);
        }
        assert!(arms.reduced_dim() >= 8);
    }

    #[test]
    fn arms_on_unsymmetric_matrix() {
        let n = 80;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -2.2);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -0.8);
            }
            if i + 9 < n {
                coo.push(i, i + 9, -0.3);
            }
        }
        let a = coo.to_csr();
        let arms = Arms::factor(&a, &ArmsConfig::default()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut x = vec![0.0; n];
        let rep = FGmres::new(GmresConfig {
            max_iters: 150,
            ..Default::default()
        })
        .solve(&a, &arms, &b, &mut x);
        assert!(rep.converged, "relres {}", rep.final_relres);
    }

    #[test]
    fn level_accessors_consistent() {
        let a = laplacian_2d(6);
        let arms = Arms::factor(&a, &ArmsConfig::default()).unwrap();
        let lvl = &arms.levels()[0];
        assert_eq!(lvl.n_ind() + lvl.n_coarse(), a.n_rows());
        assert_eq!(lvl.f_block().n_rows(), lvl.n_ind());
        assert_eq!(lvl.f_block().n_cols(), lvl.n_coarse());
        assert_eq!(lvl.e_block().n_rows(), lvl.n_coarse());
        assert_eq!(lvl.e_block().n_cols(), lvl.n_ind());
        assert_eq!(lvl.c_block().n_rows(), lvl.n_coarse());
        assert_eq!(lvl.reduced().n_rows(), lvl.n_coarse());
    }
}

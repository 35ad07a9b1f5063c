//! SchurML — a multilevel Schur hierarchy with low-rank corrections.
//!
//! The paper's `Schur 2` stops after one group-independent-set elimination;
//! its own tables show the cost: interface-system iteration counts grow
//! with the number of subdomains. parGeMSLR and Li–Saad's low-rank
//! correction work fix exactly this by (a) recursing the interior/interface
//! splitting into a *hierarchy* of levels and (b) correcting each level's
//! dropped block-diagonal Schur approximation with a low-rank term learned
//! from a few Arnoldi vectors on the approximation error.
//!
//! This module supplies the sequential machinery shared by the distributed
//! `SchurML` preconditioner:
//!
//! - [`SchurMlHierarchy`] wraps an [`Arms`] factorization (every level is a
//!   group-independent-set elimination, the coarsest block is solved with
//!   ILUT) and runs its block-LU sweep ([`crate::arms::ArmsLevel::sweep`])
//!   with a *corrected* coarse solve at every depth.
//! - [`LowRankCorrection`] holds the correction for one level: with `M` the
//!   uncorrected multilevel solve for the level's reduced system `S`, run a
//!   few Arnoldi steps on the error operator `G = I − M⁻¹S` to get an
//!   orthonormal basis `V` and the projected Hessenberg `H = VᵀGV`, then
//!
//!   ```text
//!   S⁻¹ = (I − G)⁻¹ M⁻¹ ≈ (I + V ((I − H)⁻¹ − I) Vᵀ) M⁻¹
//!   ```
//!
//!   so the corrected solve is `z = t + V·C·(Vᵀ t)` with `t = M⁻¹r` and the
//!   small dense gain `C = (I − H)⁻¹ − I`. The identity is exact whenever
//!   the Krylov space is `G`-invariant; in general it cancels the `k`
//!   dominant error modes that a random-probe Arnoldi sweep finds first.
//!
//! Corrections are built bottom-up (coarsest level first) so that the
//! error operator probed at depth `d` already includes the corrections of
//! every deeper level. The whole construction and the corrected sweep are
//! purely local — no communication — which is what lets the distributed
//! wiring use the corrected solve as the inner preconditioner of its
//! expanded-Schur iteration without any deadlock risk.

use crate::arms::Arms;
use crate::precond::Preconditioner;
use crate::proj::Panel;
use parapre_sparse::dense::{Dense, DenseLu};
use parapre_sparse::{ops, Csr, Result};

/// Hard ceiling on the correction rank; the acceptance study runs at 8 and
/// anything past 16 buys accuracy that GMRES no longer notices.
pub const MAX_CORRECTION_RANK: usize = 16;

/// A low-rank correction `z = t + V·C·(Vᵀt)` for one level's coarse solve.
#[derive(Debug)]
pub struct LowRankCorrection {
    /// Orthonormal Arnoldi basis of the error operator (`k` columns).
    basis: Panel,
    /// Dense `k × k` gain `C = (I − H)⁻¹ − I`, row-major.
    gain: Vec<f64>,
}

impl LowRankCorrection {
    /// Runs `rank` Arnoldi steps on the error operator `G = I − M⁻¹S`
    /// (where `m_solve` applies `M⁻¹`) from a deterministic pseudo-random
    /// probe vector seeded by `probe_seed`, and assembles the gain.
    ///
    /// Returns `None` when no usable correction exists: zero rank or
    /// dimension, an exactly invariant start (`‖Gv‖ = 0` at step one with
    /// `h₁₁ = 0` means `M` is already exact there), a singular `(I − H)`
    /// (an error eigenvalue at 1 — correcting would divide by zero), or a
    /// non-finite/unbounded gain.
    pub fn build(
        s: &Csr,
        rank: usize,
        probe_seed: u64,
        m_solve: impl Fn(&[f64]) -> Vec<f64>,
    ) -> Option<LowRankCorrection> {
        let n = s.n_rows();
        let k_req = rank.min(MAX_CORRECTION_RANK).min(n);
        if k_req == 0 {
            return None;
        }
        // One column more than the rank: the last step's `G v` needs a
        // place too.
        let mut basis = Panel::zeros(n, k_req + 1);
        // Deterministic unit-norm probe (splitmix-style integer hash).
        let v0 = basis.col_mut(0);
        let mut state = probe_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
        for x in v0.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        }
        let nrm = ops::norm2(v0);
        if nrm == 0.0 {
            return None;
        }
        ops::scale(1.0 / nrm, v0);

        // Arnoldi on G with the fused CGS projection kernels (the same
        // kernels the distributed GMRES orthogonalization uses).
        let apply_g = |v: &[f64], g: &mut [f64]| {
            g.copy_from_slice(v);
            let minus = m_solve(&s.mul_vec(v));
            for (gi, mi) in g.iter_mut().zip(&minus) {
                *gi -= mi;
            }
        };
        // h[i][j] = vᵢᵀ G vⱼ (square part only; the subdiagonal norm is
        // folded in when the next basis vector is admitted).
        let mut h = vec![vec![0.0; k_req]; k_req];
        let mut k = k_req;
        // Projection coefficients of one step, then ⟨w, w⟩.
        let mut dots = vec![0.0; k_req + 1];
        for j in 0..k_req {
            let (vs, w) = basis.split(j + 1);
            apply_g(vs.col(j), w);
            vs.dots(w, &mut dots[..j + 2]);
            let coeffs = &dots[..j + 1];
            vs.sub(coeffs, w);
            for (i, &c) in coeffs.iter().enumerate() {
                h[i][j] = c;
            }
            if !coeffs.iter().all(|c| c.is_finite()) {
                return None;
            }
            if j + 1 < k_req {
                let wn = ops::norm2(w);
                if !wn.is_finite() {
                    return None;
                }
                if wn <= 1e-14 {
                    // Invariant subspace: H now represents G exactly on it.
                    k = j + 1;
                    break;
                }
                h[j + 1][j] = wn;
                ops::scale(1.0 / wn, w);
            }
        }
        basis.truncate(k);

        // Gain C = (I − H)⁻¹ − I via a dense LU of (I − H).
        let mut i_minus_h = Dense::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                i_minus_h[(i, j)] = if i == j { 1.0 - h[i][j] } else { -h[i][j] };
            }
        }
        let lu = DenseLu::factor(i_minus_h).ok()?;
        let mut gain = vec![0.0; k * k];
        for j in 0..k {
            let mut col = vec![0.0; k];
            col[j] = 1.0;
            lu.solve_in_place(&mut col);
            col[j] -= 1.0;
            for i in 0..k {
                let v = col[i];
                if !v.is_finite() || v.abs() > 1e12 {
                    return None; // (I − H) effectively singular
                }
                gain[i * k + j] = v;
            }
        }
        Some(LowRankCorrection { basis, gain })
    }

    /// Achieved rank (may be below the requested rank on early breakdown).
    pub fn rank(&self) -> usize {
        self.basis.n_cols()
    }

    /// Applies the correction in place: `t ← t + V·C·(Vᵀt)`.
    pub fn correct(&self, t: &mut [f64]) {
        let k = self.rank();
        let basis = self.basis.basis(k);
        let mut y = vec![0.0; k + 1];
        basis.dots(t, &mut y);
        let mut cy = vec![0.0; k];
        for i in 0..k {
            let row = &self.gain[i * k..(i + 1) * k];
            cy[i] = -ops::dot(row, &y[..k]); // negated: `sub` subtracts
        }
        basis.sub(&cy, t);
    }
}

/// An ARMS factorization whose block-LU sweep applies a low-rank
/// correction to every level's coarse solve.
#[derive(Debug)]
pub struct SchurMlHierarchy {
    arms: Arms,
    /// Requested correction rank ([`SchurMlHierarchy::refactor`] relearns
    /// the corrections at the same rank).
    rank: usize,
    /// `corrections[d]` corrects the depth-`d+1` solve, i.e. the system
    /// `levels()[d].reduced()`; `None` where no usable correction exists.
    corrections: Vec<Option<LowRankCorrection>>,
}

impl SchurMlHierarchy {
    /// Learns the per-level corrections of an ARMS factorization
    /// bottom-up, `rank` Arnoldi vectors per level (clamped to
    /// [`MAX_CORRECTION_RANK`]). At rank 0 nothing is probed and the
    /// hierarchy *is* `arms`: same sweep, same bits.
    pub fn from_arms(arms: Arms, rank: usize) -> Self {
        let n_levels = arms.n_levels();
        let mut hier = SchurMlHierarchy {
            arms,
            rank,
            corrections: (0..n_levels).map(|_| None).collect(),
        };
        if rank == 0 {
            return hier;
        }
        // Bottom-up: the error operator probed at depth d already includes
        // every deeper correction through `solve_from(d, ·)`.
        for d in (1..=n_levels).rev() {
            let corr = {
                let sys = hier.arms.levels()[d - 1].reduced();
                LowRankCorrection::build(sys, rank, d as u64, |r| hier.solve_from(d, r))
            };
            hier.corrections[d - 1] = corr;
        }
        hier
    }

    /// Numeric-only refactorization for a same-pattern matrix: the ARMS
    /// levels are rebuilt on their retained independent sets
    /// ([`Arms::refactor`]) and the low-rank corrections are relearned
    /// from the new values (they are numeric through and through — the
    /// Arnoldi probe sees the new error operator).
    pub fn refactor(&self, a: &Csr) -> Result<Self> {
        Ok(Self::from_arms(self.arms.refactor(a)?, self.rank))
    }

    /// The underlying ARMS factorization.
    pub fn arms(&self) -> &Arms {
        &self.arms
    }

    /// Achieved correction rank per elimination level (0 = no correction).
    pub fn correction_ranks(&self) -> Vec<usize> {
        self.corrections
            .iter()
            .map(|c| c.as_ref().map_or(0, LowRankCorrection::rank))
            .collect()
    }

    /// Largest achieved correction rank across the levels.
    pub fn max_correction_rank(&self) -> usize {
        self.correction_ranks().into_iter().max().unwrap_or(0)
    }

    /// The corrected multilevel sweep from `depth` down: depth `0` solves
    /// with the whole hierarchy; depth `d ≥ 1` solves the reduced system
    /// `levels()[d-1].reduced()` (its low-rank correction applied on top).
    pub fn solve_from(&self, depth: usize, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.solve_level(depth, r, &mut z);
        z
    }

    /// The block-LU sweep at `depth` with the corrected solve of the next
    /// depth as its coarse solve, then this depth's own correction.
    fn solve_level(&self, depth: usize, r: &[f64], z: &mut [f64]) {
        match self.arms.levels().get(depth) {
            Some(lvl) => lvl.sweep(r, z, |rc, zc| self.solve_level(depth + 1, rc, zc)),
            None => {
                z.copy_from_slice(r);
                self.arms.last_factors().solve_in_place(z);
            }
        }
        if depth >= 1 {
            if let Some(c) = &self.corrections[depth - 1] {
                c.correct(z);
            }
        }
    }
}

impl Preconditioner for SchurMlHierarchy {
    fn dim(&self) -> usize {
        self.arms.dim()
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve_level(0, r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arms::ArmsConfig;
    use crate::gmres::{FGmres, GmresConfig};
    use crate::ilu::IlutConfig;
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
    fn refactor_relearns_the_corrections_on_the_retained_levels() {
        let a = laplacian_2d(14);
        let n = a.n_rows();
        let forced = vec![false; n];
        let donor = lossy(&a, 6, &forced);
        let mut a2 = a.clone();
        for v in a2.vals_mut() {
            *v *= 1.07;
        }
        let hot = donor.refactor(&a2).unwrap();
        let cold = lossy(&a2, 6, &forced);
        assert_eq!(hot.arms().n_levels(), donor.arms().n_levels());
        assert_eq!(hot.correction_ranks(), cold.correction_ranks());
        assert!(hot
            .arms()
            .last_factors()
            .shares_pattern_with(donor.arms().last_factors()));
        // A uniform scaling keeps every relative drop decision, so the
        // refactored hierarchy is the fresh one up to rounding.
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let (z_hot, z_cold) = (hot.solve_from(0, &r), cold.solve_from(0, &r));
        for (h, c) in z_hot.iter().zip(&z_cold) {
            assert!((h - c).abs() <= 1e-9 * c.abs().max(1.0), "{h} vs {c}");
        }
    }

    /// A deliberately lossy config so the corrections have error to cancel.
    const LOSSY: ArmsConfig = ArmsConfig {
        n_levels: 3,
        group_size: 4,
        drop_tol: 0.2,
        ilut: IlutConfig {
            drop_tol: 0.1,
            fill: 5,
        },
        min_reduced: 5,
    };

    fn lossy(a: &Csr, rank: usize, forced_coarse: &[bool]) -> SchurMlHierarchy {
        let arms = Arms::factor_with_coarse(a, &LOSSY, forced_coarse).unwrap();
        SchurMlHierarchy::from_arms(arms, rank)
    }

    #[test]
    fn rank_zero_matches_plain_arms_bitwise() {
        let a = laplacian_2d(9);
        let hier = lossy(&a, 0, &vec![false; a.n_rows()]);
        let arms = Arms::factor(&a, &LOSSY).unwrap();
        let r: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut z_h = vec![0.0; a.n_rows()];
        let mut z_a = vec![0.0; a.n_rows()];
        hier.apply(&r, &mut z_h);
        arms.apply(&r, &mut z_a);
        assert_eq!(z_h, z_a);
        assert_eq!(hier.max_correction_rank(), 0);
    }

    #[test]
    fn correction_is_exact_on_the_probed_direction() {
        // S = I, M⁻¹ = α·I with α ≠ 1: G = (1−α)I, so the one-step Arnoldi
        // space is invariant and the corrected solve must return the exact
        // inverse along the probe vector.
        let n = 40;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        let s = coo.to_csr();
        let alpha = 0.4;
        let corr = LowRankCorrection::build(&s, 4, 7, |v| v.iter().map(|x| alpha * x).collect())
            .expect("correction must build");
        assert_eq!(corr.rank(), 1, "G is a scalar multiple of I");
        // Recover the probe direction from the basis itself.
        let v0 = corr.basis.col(0).to_vec();
        let mut t: Vec<f64> = v0.iter().map(|x| alpha * x).collect(); // t = M⁻¹ v0
        corr.correct(&mut t);
        for (got, want) in t.iter().zip(&v0) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}"); // S⁻¹v0 = v0
        }
    }

    #[test]
    fn corrected_hierarchy_reduces_fgmres_iterations() {
        let a = laplacian_2d(16);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let iters = |rank: usize| {
            let hier = lossy(&a, rank, &vec![false; n]);
            if rank > 0 {
                assert!(hier.max_correction_rank() >= 1, "no correction built");
                assert!(hier.max_correction_rank() <= MAX_CORRECTION_RANK);
            }
            let mut x = vec![0.0; n];
            let rep = FGmres::new(GmresConfig {
                max_iters: 300,
                ..Default::default()
            })
            .solve(&a, &hier, &b, &mut x);
            assert!(rep.converged, "rank {rank}: relres {}", rep.final_relres);
            rep.iterations
        };
        let plain = iters(0);
        let corrected = iters(8);
        assert!(
            corrected <= plain,
            "correction made it worse: {corrected} vs {plain}"
        );
    }

    #[test]
    fn forced_coarse_unknowns_survive_every_level() {
        let a = laplacian_2d(10);
        let n = a.n_rows();
        let mut forced = vec![false; n];
        for f in forced.iter_mut().take(10) {
            *f = true;
        }
        let hier = lossy(&a, 4, &forced);
        assert!(hier.arms().n_levels() >= 1);
        // Forced unknowns must never be eliminated at level 0.
        let lvl = &hier.arms().levels()[0];
        for k in 0..lvl.n_ind() {
            assert!(!forced[lvl.perm().old_of(k)]);
        }
        assert!(hier.arms().reduced_dim() >= 10);
    }

    #[test]
    fn rank_is_clamped_to_the_ceiling() {
        let a = laplacian_2d(8);
        let hier = lossy(&a, 1000, &vec![false; a.n_rows()]);
        assert!(hier.max_correction_rank() <= MAX_CORRECTION_RANK);
    }
}

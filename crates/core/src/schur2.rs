//! `Schur 2` — the expanded-Schur preconditioner with ARMS subdomain solves
//! (paper §2, Fig. 2).
//!
//! Each rank applies one group-independent-set elimination (ARMS level) to
//! its owned block, **pinning the interdomain-interface unknowns to the
//! coarse set**. What remains after the elimination is the *expanded Schur
//! complement*: local interfaces (left over by the independent-set
//! reordering) plus the interdomain interfaces. The global expanded Schur
//! system is solved approximately with a few distributed GMRES iterations
//! preconditioned by a **distributed ILU(0)** — ILU(0) of each rank's
//! (dropped) local expanded-Schur block, applied with no communication.
//!
//! Because the eliminated block `B` is *exactly* block diagonal (small dense
//! group blocks, factored exactly), the forward/backward substitutions
//! around the global solve are exact; the approximation lives in the Schur
//! iteration and the dropping — this is why the paper finds `Schur 2` to
//! have "the most stable iteration counts with respect to P" at a higher
//! per-iteration cost.

use parapre_dist::{DistGmres, DistGmresConfig, DistMatrix, DistOp, DistPrecond, LocalLayout};
use parapre_krylov::{Arms, ArmsConfig, Ilu0, LuFactors};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Result};

/// Parameters of the `Schur 2` preconditioner.
#[derive(Debug, Clone, Copy)]
pub struct Schur2Config {
    /// ARMS parameters (two-level by default, as in the paper).
    pub arms: ArmsConfig,
    /// Distributed GMRES iterations on the expanded Schur system.
    pub schur_iters: usize,
}

impl Default for Schur2Config {
    fn default() -> Self {
        Schur2Config {
            arms: ArmsConfig::default(),
            schur_iters: 5,
        }
    }
}

/// The assembled `Schur 2` preconditioner for one rank.
pub struct Schur2Precond {
    layout: LocalLayout,
    arms: Arms,
    /// Reduced position of each owned local id (`usize::MAX` if eliminated).
    red_of_local: Vec<usize>,
    /// ILU(0) of the local expanded-Schur block (the distributed ILU(0)).
    dist_ilu0: LuFactors,
    /// Interface rows × ghost couplings, from the distributed matrix.
    e_ext: Csr,
    /// All ranks found an elimination level (checked collectively at build
    /// time so every rank takes the same code path).
    multilevel: bool,
    schur_iters: usize,
}

impl Schur2Precond {
    /// Builds the preconditioner; collective (all ranks must call). Both
    /// subdomain factorizations (ARMS, and ILU(0) of the reduced block) go
    /// through the diagonal-shift retry ladder, which a healthy plain
    /// factorization wins untouched.
    pub fn build(dm: &DistMatrix, comm: &mut Comm, cfg: Schur2Config) -> Result<Self> {
        let a_i = dm.owned_block();
        let no = dm.layout.n_owned();
        let ni = dm.layout.n_internal;
        // Pin interdomain interface unknowns to the coarse set.
        let mut forced = vec![false; no];
        for f in forced.iter_mut().skip(ni) {
            *f = true;
        }
        // Do NOT `?` out before the collective below: an early local return
        // would leave the peer ranks blocked in `all_land` forever. Capture
        // the local result, agree on the outcome, then fail jointly.
        let arms_res = {
            let _s = parapre_trace::span(parapre_trace::phase::FACTOR);
            Arms::factor_with_coarse_shifted(&a_i, &cfg.arms, &forced)
        };
        let local_ok = arms_res.as_ref().is_ok_and(|a| a.n_levels() >= 1);
        let local_built = arms_res.is_ok();
        let multilevel = comm.all_land(local_ok, parapre_dist::tags::REDUCE + 40);
        let all_built = comm.all_land(local_built, parapre_dist::tags::REDUCE + 41);
        if !all_built {
            // Every rank returns Err together (rank-identical decision), so
            // callers can descend the fallback ladder in lockstep.
            return Err(arms_res
                .err()
                .unwrap_or(parapre_sparse::Error::ZeroPivot(0)));
        }
        let arms = arms_res.expect("all_built implies local Ok");

        let _s = parapre_trace::span(parapre_trace::phase::SCHUR_EXTRACT);
        // The reduced-block ILU(0) is local (no collectives), but wrap the
        // fallibility the same way: decide success collectively below.
        let local_schur = if multilevel {
            let lvl = &arms.levels()[0];
            let n_ind = lvl.n_ind();
            let mut red_of_local = vec![usize::MAX; no];
            for k in 0..lvl.n_coarse() {
                red_of_local[lvl.perm().old_of(n_ind + k)] = k;
            }
            // Distributed ILU(0): factor the dropped local Schur block.
            Ilu0::factor_shifted(lvl.reduced()).map(|ilu| (red_of_local, ilu))
        } else {
            Ok(Self::degenerate_parts(no, &arms))
        };
        let schur_ok = local_schur.is_ok();
        let all_schur_ok = comm.all_land(schur_ok, parapre_dist::tags::REDUCE + 42);
        if !all_schur_ok {
            return Err(local_schur
                .err()
                .unwrap_or(parapre_sparse::Error::ZeroPivot(0)));
        }
        let (red_of_local, dist_ilu0) = local_schur.expect("agreed Ok");
        drop(_s);
        let _s = parapre_trace::span(parapre_trace::phase::INTERFACE_ASSEMBLY);
        Ok(Schur2Precond {
            layout: dm.layout.clone(),
            arms,
            red_of_local,
            dist_ilu0,
            e_ext: dm.split_blocks().e_ext,
            multilevel,
            schur_iters: cfg.schur_iters,
        })
    }

    fn degenerate_parts(no: usize, arms: &Arms) -> (Vec<usize>, LuFactors) {
        // Degenerate ranks (tiny subdomains): fall back to the pure
        // ARMS/ILUT solve of the whole block on every rank.
        (vec![usize::MAX; no], arms.last_factors().clone())
    }

    /// Health report of the subdomain ARMS factorization (last-level
    /// factors), including any diagonal shifts the build took.
    pub fn report(&self) -> &parapre_sparse::FactorReport {
        self.arms.report()
    }

    /// Size of this rank's expanded-interface (reduced) system.
    pub fn expanded_dim(&self) -> usize {
        if self.multilevel {
            self.arms.levels()[0].n_coarse()
        } else {
            0
        }
    }

    /// Number of interdomain-interface unknowns inside the expanded system.
    pub fn n_interdomain(&self) -> usize {
        self.layout.n_interface
    }
}

/// The global expanded-Schur operator.
struct ExpSchurOp<'a> {
    p: &'a Schur2Precond,
}

impl DistOp for ExpSchurOp<'_> {
    fn n_owned(&self) -> usize {
        self.p.expanded_dim()
    }
    fn apply(&self, comm: &mut Comm, z: &[f64], out: &mut [f64]) {
        let p = self.p;
        let lvl = &p.arms.levels()[0];
        // Local exact Schur action: C z − E B⁻¹ (F z)  (B block-diagonal,
        // solved exactly).
        lvl.c_block().spmv(z, out);
        let mut fz = lvl.f_block().mul_vec(z);
        lvl.solve_b(&mut fz);
        lvl.e_block().spmv_acc(-1.0, &fz, out);
        // Cross-subdomain couplings on the interdomain interface rows.
        let lay = &p.layout;
        let ni = lay.n_internal;
        let mut y_if = vec![0.0; lay.n_interface];
        for (k, y) in y_if.iter_mut().enumerate() {
            let red = p.red_of_local[ni + k];
            debug_assert_ne!(red, usize::MAX, "interface unknown eliminated");
            *y = z[red];
        }
        let mut ghosts = vec![0.0; lay.n_ghost];
        lay.exchange_interface(comm, &y_if, &mut ghosts);
        let eg = p.e_ext.mul_vec(&ghosts);
        for (k, &v) in eg.iter().enumerate() {
            out[p.red_of_local[ni + k]] += v;
        }
    }
}

/// The distributed ILU(0) preconditioner of the expanded Schur system.
struct DistIlu0<'a> {
    p: &'a Schur2Precond,
}

impl DistPrecond for DistIlu0<'_> {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.p.dist_ilu0.solve_in_place(z);
    }
}

impl DistPrecond for Schur2Precond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        if !self.multilevel {
            // Collective fallback: every rank applies its local ARMS solve.
            let mut out = vec![0.0; r.len()];
            parapre_krylov::Preconditioner::apply(&self.arms, r, &mut out);
            z.copy_from_slice(&out);
            return;
        }
        let lvl = &self.arms.levels()[0];
        let n_ind = lvl.n_ind();
        // Forward sweep in the permuted (independent-set-first) ordering.
        let mut rp = lvl.perm().apply_vec(r);
        lvl.solve_b(&mut rp); // y_B in rp[..n_ind]
        let (yb, rc) = rp.split_at(n_ind);
        let mut gprime = rc.to_vec();
        lvl.e_block().spmv_acc(-1.0, yb, &mut gprime);

        // Global expanded Schur solve (a few distributed GMRES iterations
        // preconditioned by the distributed ILU(0)).
        let mut zc = vec![0.0; gprime.len()];
        let op = ExpSchurOp { p: self };
        let m = DistIlu0 { p: self };
        DistGmres::new(DistGmresConfig::inner(self.schur_iters))
            .solve(comm, &op, &m, &gprime, &mut zc);

        // Backward sweep: z_B = y_B − B⁻¹ F z_C.
        let mut fz = lvl.f_block().mul_vec(&zc);
        lvl.solve_b(&mut fz);
        let mut zp = Vec::with_capacity(r.len());
        zp.extend(yb.iter().zip(&fz).map(|(y, f)| y - f));
        zp.extend_from_slice(&zc);
        let out = lvl.perm().apply_inv_vec(&zp);
        z.copy_from_slice(&out);
    }

    /// The independent sets are kept ([`Arms::refactor`]); the distributed
    /// ILU(0) refactors inside its own pattern, into which the freshly
    /// dropped expanded-Schur block is projected. `multilevel` was agreed
    /// collectively at build time and depends only on the retained sets,
    /// so no rank needs to ask again.
    fn refactor(&self, dm: &DistMatrix, _a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        crate::runner::same_local_shape(&self.layout, &dm.layout)?;
        let arms = self.arms.refactor(&dm.owned_block())?;
        let dist_ilu0 = if self.multilevel {
            self.dist_ilu0.refactor(arms.levels()[0].reduced())?
        } else {
            arms.last_factors().clone()
        };
        Ok(Box::new(Schur2Precond {
            layout: dm.layout.clone(),
            arms,
            red_of_local: self.red_of_local.clone(),
            dist_ilu0,
            e_ext: dm.split_blocks().e_ext,
            multilevel: self.multilevel,
            schur_iters: self.schur_iters,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_dist::scatter_vector;
    use parapre_fem::{bc, poisson, LinearSystem};
    use parapre_grid::structured::unit_square;
    use parapre_mpisim::Universe;
    use parapre_partition::partition_graph;

    fn tc1(nx: usize, p: usize, seed: u64) -> (Csr, Vec<f64>, Vec<u32>) {
        let mesh = unit_square(nx, nx);
        let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
        let mut sys = LinearSystem { a, b };
        let fixed: Vec<(usize, f64)> = mesh
            .boundary_nodes()
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| (i, poisson::exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
            .collect();
        bc::apply_dirichlet(&mut sys, &fixed);
        let part = partition_graph(&mesh.adjacency(), p, seed);
        (sys.a, sys.b, part.owner)
    }

    fn run_schur2(a: &Csr, b: &[f64], owner: &[u32], p: usize) -> (usize, bool) {
        let out = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = Schur2Precond::build(&dm, comm, Schur2Config::default()).unwrap();
            let b_loc = scatter_vector(&dm.layout, b);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(DistGmresConfig {
                max_iters: 300,
                ..Default::default()
            })
            .solve(comm, &dm, &m, &b_loc, &mut x);
            (rep.iterations, rep.converged)
        });
        out[0]
    }

    #[test]
    fn schur2_converges_fast() {
        let p = 4;
        let (a, b, owner) = tc1(20, p, 5);
        let (it, conv) = run_schur2(&a, &b, &owner, p);
        assert!(conv);
        assert!(it <= 20, "Schur2 iterations {it}");
    }

    #[test]
    fn schur2_expanded_system_contains_both_interface_kinds() {
        let p = 4;
        let (a, _b, owner) = tc1(16, p, 3);
        let a_ref = &a;
        let owner_ref = &owner;
        let sizes = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let m = Schur2Precond::build(&dm, comm, Schur2Config::default()).unwrap();
            (m.expanded_dim(), m.n_interdomain())
        });
        for &(exp, interdomain) in &sizes {
            // Expanded set ⊇ interdomain interfaces, and strictly larger in
            // general (local interfaces exist).
            assert!(exp >= interdomain, "{exp} < {interdomain}");
        }
        assert!(
            sizes.iter().any(|&(exp, inter)| exp > inter),
            "no local interfaces found: {sizes:?}"
        );
    }

    #[test]
    fn schur2_iteration_counts_very_stable_in_p() {
        // The paper's Schur 2 hallmark.
        let mut counts = Vec::new();
        for &p in &[2usize, 6] {
            let (a, b, owner) = tc1(20, p, 5);
            let (it, conv) = run_schur2(&a, &b, &owner, p);
            assert!(conv);
            counts.push(it as i64);
        }
        assert!((counts[1] - counts[0]).abs() <= 6, "{counts:?}");
    }

    #[test]
    fn schur2_single_rank_degenerates_gracefully() {
        let (a, b, owner0) = tc1(10, 2, 1);
        let owner: Vec<u32> = owner0.iter().map(|_| 0).collect();
        let (it, conv) = run_schur2(&a, &b, &owner, 1);
        assert!(conv, "single-rank Schur2 failed after {it} iterations");
    }
}

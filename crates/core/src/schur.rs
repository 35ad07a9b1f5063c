//! `Schur 1` — the Schur-complement-enhanced parallel preconditioner
//! (paper §2, Algorithm 2.1).
//!
//! One ILUT factorization of the internal-first-ordered subdomain matrix
//! `A_i = [B_i F_i; E_i C_i]` yields, for free, both
//!
//! * an approximate solver for `B_i` (the **leading** block of the factor),
//!   used inside the "few local GMRES iterations preconditioned by ILUT"
//!   subdomain solves, and
//! * an approximate factorization `L_{S_i} U_{S_i}` of the local Schur
//!   complement `S_i = C_i − E_i B_i⁻¹ F_i` (the **trailing** block — the
//!   block-factorization identity quoted in the paper).
//!
//! The preconditioner application is Algorithm 2.1:
//!
//! 1. `g'_i = g_i − E_i B̃_i⁻¹ f_i`;
//! 2. solve the **global interface Schur system** `S y = g'` approximately
//!    with a few iterations of distributed GMRES, preconditioned by block
//!    Jacobi (each block solved with the extracted `L_{S_i} U_{S_i}`); the
//!    global Schur matvec uses the induced form
//!    `(Sy)_i = C_i y_i + Σ_j E_{ij} y_j − E_i B̃_i⁻¹ (F_i y_i)`;
//! 3. `B_i u_i = f_i − F_i y_i`.
//!
//! Inner solves vary between applications ⇒ the outer accelerator must be
//! FGMRES (paper §4.3).

use parapre_dist::{DistGmres, DistMatrix, DistOp, DistPrecond, LocalBlocks, LocalLayout};
use parapre_krylov::{Gmres, Ilut, IlutConfig, LuFactors, Preconditioner};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Result};

/// Parameters of the `Schur 1` preconditioner.
#[derive(Debug, Clone, Copy)]
pub struct Schur1Config {
    /// ILUT parameters for the subdomain factorization.
    pub ilut: IlutConfig,
    /// Local GMRES iterations per `B_i` solve ("a few", paper §4.4).
    pub inner_b_iters: usize,
    /// Distributed GMRES iterations on the global Schur system.
    pub schur_iters: usize,
}

impl Default for Schur1Config {
    fn default() -> Self {
        Schur1Config {
            ilut: IlutConfig {
                drop_tol: 1e-3,
                fill: 30,
            },
            inner_b_iters: 5,
            schur_iters: 5,
        }
    }
}

/// Preconditioner for local `B_i` solves: the leading block of the merged
/// ILUT factor.
struct LeadingPrecond<'a> {
    factors: &'a LuFactors,
    nb: usize,
}

impl Preconditioner for LeadingPrecond<'_> {
    fn dim(&self) -> usize {
        self.nb
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.factors.leading_solve(self.nb, z);
    }
}

/// The assembled `Schur 1` preconditioner for one rank.
pub struct Schur1Precond {
    layout: LocalLayout,
    blocks: LocalBlocks,
    factors: LuFactors,
    schur_factors: LuFactors,
    cfg: Schur1Config,
}

impl Schur1Precond {
    /// Factors the subdomain matrix (ILUT behind the diagonal-shift retry
    /// ladder, which a healthy plain factorization wins untouched) and
    /// extracts the Schur factors.
    pub fn build(dm: &DistMatrix, cfg: Schur1Config) -> Result<Self> {
        let a_i = dm.owned_block(); // already ordered internal-first
        let factors = {
            let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
            Ilut::factor_shifted(&a_i, &cfg.ilut)?
        };
        Self::assemble(dm, cfg, factors)
    }

    fn assemble(dm: &DistMatrix, cfg: Schur1Config, factors: LuFactors) -> Result<Self> {
        let schur_factors = {
            let _s = parapre_metrics::span(parapre_metrics::names::SCHUR_EXTRACT);
            factors.trailing_block(dm.layout.n_internal)
        };
        let _s = parapre_metrics::span(parapre_metrics::names::INTERFACE_ASSEMBLY);
        Ok(Schur1Precond {
            layout: dm.layout.clone(),
            blocks: dm.split_blocks(),
            factors,
            schur_factors,
            cfg,
        })
    }

    /// Health report of the subdomain factorization.
    pub fn report(&self) -> &parapre_sparse::FactorReport {
        self.factors.report()
    }

    /// Approximate `B_i⁻¹ r`: a few local GMRES iterations preconditioned by
    /// the leading ILUT block (paper §4.4's subdomain solver).
    fn b_solve(&self, r: &[f64]) -> Vec<f64> {
        let ni = self.layout.n_internal;
        debug_assert_eq!(r.len(), ni);
        let mut x = vec![0.0; ni];
        if ni == 0 {
            return x;
        }
        let m = LeadingPrecond {
            factors: &self.factors,
            nb: ni,
        };
        Gmres::fixed_effort(&self.blocks.b, &m, self.cfg.inner_b_iters, r, &mut x);
        x
    }

    /// Cheap fixed approximation of `B_i⁻¹` used *inside* the Schur matvec
    /// (one sweep of the leading ILUT block), keeping the global Schur
    /// operator fixed so plain GMRES may iterate on it.
    fn b_sweep(&self, r: &mut [f64]) {
        self.factors.leading_solve(self.layout.n_internal, r);
    }
}

/// The global (interface) Schur operator: matvec via the induced form.
struct SchurOp<'a> {
    p: &'a Schur1Precond,
}

impl DistOp for SchurOp<'_> {
    fn n_owned(&self) -> usize {
        self.p.layout.n_interface
    }
    fn apply(&self, comm: &mut Comm, y: &[f64], out: &mut [f64]) {
        let lay = &self.p.layout;
        let blocks = &self.p.blocks;
        // Neighbour interface values.
        let mut ghosts = vec![0.0; lay.n_ghost];
        lay.exchange_interface(comm, y, &mut ghosts);
        // out = C y + E_ext ghosts − E · B̃⁻¹ (F y).
        blocks.c.spmv(y, out);
        blocks.e_ext.spmv_acc(1.0, &ghosts, out);
        let mut fy = blocks.f.mul_vec(y);
        self.p.b_sweep(&mut fy);
        blocks.e.spmv_acc(-1.0, &fy, out);
    }
}

/// Block-Jacobi preconditioner for the Schur system: solves with the
/// extracted `L_{S_i} U_{S_i}` (no communication).
struct SchurBlockJacobi<'a> {
    p: &'a Schur1Precond,
}

impl DistPrecond for SchurBlockJacobi<'_> {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.p.schur_factors.solve_in_place(z);
    }
}

impl DistPrecond for Schur1Precond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let ni = self.layout.n_internal;
        let nf = self.layout.n_interface;
        debug_assert_eq!(r.len(), ni + nf);
        let (f, g) = r.split_at(ni);

        // Step 1: g' = g − E B̃⁻¹ f.
        let bf = self.b_solve(f);
        let mut gp = g.to_vec();
        self.blocks.e.spmv_acc(-1.0, &bf, &mut gp);

        // Step 2: a few distributed GMRES iterations on S y = g'.
        let mut y = vec![0.0; nf];
        let op = SchurOp { p: self };
        let m = SchurBlockJacobi { p: self };
        DistGmres::fixed_effort(comm, &op, &m, self.cfg.schur_iters, &gp, &mut y);

        // Step 3: u = B̃⁻¹ (f − F y).
        let mut t = f.to_vec();
        self.blocks.f.spmv_acc(-1.0, &y, &mut t);
        let u = self.b_solve(&t);

        z[..ni].copy_from_slice(&u);
        z[ni..].copy_from_slice(&y);
    }

    /// One numeric pass over the frozen ILUT pattern, then the trailing
    /// (Schur) block is cut from the new factor exactly as at build time.
    fn refactor(&self, dm: &DistMatrix, _a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        crate::runner::same_local_shape(&self.layout, &dm.layout)?;
        let factors = self.factors.refactor(&dm.owned_block())?;
        Ok(Box::new(Self::assemble(dm, self.cfg, factors)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockPrecond;
    use crate::testutil::tc1;
    use parapre_dist::{scatter_vector, DistGmresConfig};
    use parapre_mpisim::Universe;
    use parapre_sparse::Csr;

    fn solve_with<MB>(a: &Csr, b: &[f64], owner: &[u32], p: usize, make: MB) -> (usize, bool, f64)
    where
        MB: Fn(&DistMatrix, &mut Comm) -> Box<dyn DistPrecond> + Sync,
    {
        let make = &make;
        let out = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = make(&dm, comm);
            let b_loc = scatter_vector(&dm.layout, b);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(DistGmresConfig {
                max_iters: 300,
                ..Default::default()
            })
            .solve(comm, &dm, &m, &b_loc, &mut x);
            (rep.iterations, rep.converged, rep.final_relres)
        });
        out[0]
    }

    #[test]
    fn schur1_converges_and_beats_block_jacobi_iterations() {
        let p = 4;
        let (a, b, owner) = tc1(20, p, 5);
        let (it_s1, c1, _) = solve_with(&a, &b, &owner, p, |dm, _| {
            Box::new(Schur1Precond::build(dm, Schur1Config::default()).unwrap())
        });
        let (it_b1, c2, _) = solve_with(&a, &b, &owner, p, |dm, _| {
            Box::new(BlockPrecond::ilu0(dm).unwrap())
        });
        assert!(c1 && c2);
        assert!(it_s1 < it_b1, "Schur1 {it_s1} vs Block1 {it_b1}");
        assert!(it_s1 <= 25, "Schur1 too slow: {it_s1}");
    }

    #[test]
    fn schur1_iterations_stable_in_p() {
        // The paper's headline TC1 observation: Schur 1 iteration growth
        // with P is moderate.
        let mut counts = Vec::new();
        for &p in &[2usize, 8] {
            let (a, b, owner) = tc1(24, p, 5);
            let (it, conv, _) = solve_with(&a, &b, &owner, p, |dm, _| {
                Box::new(Schur1Precond::build(dm, Schur1Config::default()).unwrap())
            });
            assert!(conv);
            counts.push(it);
        }
        assert!(
            counts[1] <= 3 * counts[0].max(3),
            "Schur1 iteration blow-up: {counts:?}"
        );
    }

    #[test]
    fn schur1_works_on_one_rank() {
        let (a, b, owner0) = tc1(10, 2, 1);
        let owner: Vec<u32> = owner0.iter().map(|_| 0).collect();
        let (it, conv, _) = solve_with(&a, &b, &owner, 1, |dm, _| {
            Box::new(Schur1Precond::build(dm, Schur1Config::default()).unwrap())
        });
        assert!(conv);
        assert!(it < 20);
    }

    #[test]
    fn more_schur_iterations_do_not_hurt() {
        let p = 4;
        let (a, b, owner) = tc1(16, p, 9);
        let run = |k: usize| {
            solve_with(&a, &b, &owner, p, move |dm, _| {
                Box::new(
                    Schur1Precond::build(
                        dm,
                        Schur1Config {
                            schur_iters: k,
                            ..Default::default()
                        },
                    )
                    .unwrap(),
                )
            })
        };
        let (it2, c2, _) = run(2);
        let (it8, c8, _) = run(8);
        assert!(c2 && c8);
        assert!(it8 <= it2 + 2, "k=8 gave {it8}, k=2 gave {it2}");
    }
}

//! The simple block preconditioners `Block 1` (ILU(0)) and `Block 2` (ILUT).
//!
//! Paper §2: "Parallel block preconditioners are the simplest algebraic
//! preconditioning strategy, where each subdomain updates its local solution
//! independently by solving a subdomain linear system formed by `A_i` and a
//! given local residual" — here by one backward/forward sweep of an
//! incomplete factorization of the full owned block `A_i`. The application
//! involves **zero communication**, which is why the paper finds these
//! preconditioners to have the best per-iteration scalability (and, on hard
//! problems, the worst convergence).

use parapre_dist::{DistMatrix, DistPrecond};
use parapre_krylov::{Ilu0, Ilut, IlutConfig, LuFactors};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Result};

/// A block(-Jacobi) preconditioner with an incomplete-LU subdomain sweep.
pub struct BlockPrecond {
    factors: LuFactors,
}

impl BlockPrecond {
    /// `Block 1`: ILU(0) of the owned block, behind the diagonal-shift
    /// retry ladder — the plain factorization wins untouched when its
    /// pivots are healthy, and zero or near-zero subdomain pivots retry on
    /// shifted copies instead of failing.
    pub fn ilu0(dm: &DistMatrix) -> Result<Self> {
        let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
        let a_i = dm.owned_block();
        Ok(BlockPrecond {
            factors: Ilu0::factor_shifted(&a_i)?,
        })
    }

    /// `Block 2`: ILUT(τ, p) of the owned block, behind the same ladder.
    pub fn ilut(dm: &DistMatrix, cfg: &IlutConfig) -> Result<Self> {
        let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
        let a_i = dm.owned_block();
        Ok(BlockPrecond {
            factors: Ilut::factor_shifted(&a_i, cfg)?,
        })
    }

    /// Fill of the stored factor (diagnostics).
    pub fn nnz(&self) -> usize {
        self.factors.nnz()
    }

    /// The subdomain factors (health report, fill, shift diagnostics).
    pub fn factors(&self) -> &LuFactors {
        &self.factors
    }
}

impl DistPrecond for BlockPrecond {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.factors.solve_in_place(z);
    }

    /// One sweep through the factors for all the columns.
    fn apply_block(&self, _comm: &mut Comm, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.factors.solve_columns(rs, zs);
    }

    /// `Block 1`'s ILU(0) is numeric-only to begin with; `Block 2` skips
    /// ILUT's drop/fill selection and works inside the frozen pattern.
    fn refactor(&self, dm: &DistMatrix, _a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        Ok(Box::new(BlockPrecond {
            factors: self.factors.refactor(&dm.owned_block())?,
        }))
    }
}

/// The bottom rung of the preconditioner fallback ladder: point-Jacobi
/// scaling by the owned diagonal. Communication-free, factorization-free,
/// and *infallible* — zero, missing, or non-finite diagonal entries scale
/// by 1 instead, so construction can never fail, whatever the matrix.
pub struct JacobiDistPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiDistPrecond {
    /// Builds from the rank's owned block.
    pub fn build(dm: &DistMatrix) -> Self {
        let a_i = dm.owned_block();
        let n = a_i.n_rows();
        let mut inv_diag = vec![1.0; n];
        for (i, slot) in inv_diag.iter_mut().enumerate() {
            let (cols, vals) = a_i.row(i);
            if let Ok(k) = cols.binary_search(&i) {
                let d = vals[k];
                let r = 1.0 / d;
                if d != 0.0 && r.is_finite() {
                    *slot = r;
                }
            }
        }
        JacobiDistPrecond { inv_diag }
    }
}

impl DistPrecond for JacobiDistPrecond {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }

    /// Nothing symbolic to keep: the rebuild is the build.
    fn refactor(&self, dm: &DistMatrix, _a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        Ok(Box::new(JacobiDistPrecond::build(dm)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tc1;
    use parapre_dist::{scatter_vector, DistGmres, DistMatrix, GmresConfig};
    use parapre_mpisim::Universe;

    #[test]
    fn block_preconditioners_accelerate_distributed_fgmres() {
        let p = 4;
        let (a, b, owner) = tc1(16, p, 17);
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let run = |use_ilut: bool| -> (usize, bool) {
            let out = Universe::run(p, move |comm| {
                let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
                let m = if use_ilut {
                    BlockPrecond::ilut(&dm, &IlutConfig::default()).unwrap()
                } else {
                    BlockPrecond::ilu0(&dm).unwrap()
                };
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                let rep = DistGmres::new(GmresConfig {
                    max_iters: 400,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &m, &b_loc, &mut x);
                (rep.iterations, rep.converged)
            });
            out[0]
        };
        let (it_plain, _) = {
            let out = Universe::run(p, move |comm| {
                let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                let rep = DistGmres::new(GmresConfig {
                    max_iters: 400,
                    ..GmresConfig::distributed()
                })
                .solve(
                    comm,
                    &dm,
                    &parapre_dist::IdentityDistPrecond,
                    &b_loc,
                    &mut x,
                );
                (rep.iterations, rep.converged)
            });
            out[0]
        };
        let (it_b1, c1) = run(false);
        let (it_b2, c2) = run(true);
        assert!(c1 && c2);
        assert!(it_b1 < it_plain, "Block1 {it_b1} vs plain {it_plain}");
        // ILUT is at least as strong as ILU(0) on this SPD problem.
        assert!(it_b2 <= it_b1 + 2, "Block2 {it_b2} vs Block1 {it_b1}");
    }

    #[test]
    fn block_solve_is_communication_free() {
        let p = 4;
        let (a, b, owner) = tc1(10, p, 17);
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let stats = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let m = BlockPrecond::ilu0(&dm).unwrap();
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let before = comm.stats();
            let mut z = vec![0.0; dm.layout.n_owned()];
            m.apply(comm, &b_loc, &mut z);
            let after = comm.stats();
            (before, after)
        });
        for (before, after) in stats {
            assert_eq!(before, after, "block preconditioner must not communicate");
        }
    }

    #[test]
    fn block_jacobi_iterations_grow_with_p() {
        // The classical block-Jacobi degradation: more subdomains ⇒ weaker
        // preconditioner ⇒ more iterations (paper's Block1/Block2 trend).
        let mut iters = Vec::new();
        for p in [2usize, 8] {
            let (a, b, owner) = tc1(20, p, 3);
            let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
            let out = Universe::run(p, move |comm| {
                let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
                let m = BlockPrecond::ilu0(&dm).unwrap();
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                DistGmres::new(GmresConfig {
                    max_iters: 500,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &m, &b_loc, &mut x)
                .iterations
            });
            iters.push(out[0]);
        }
        assert!(iters[1] >= iters[0], "{iters:?}");
    }
}

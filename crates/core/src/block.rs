//! The simple block preconditioners `Block 1` (ILU(0)) and `Block 2` (ILUT),
//! and the one-layer-overlap rung.
//!
//! Paper §2: "Parallel block preconditioners are the simplest algebraic
//! preconditioning strategy, where each subdomain updates its local solution
//! independently by solving a subdomain linear system formed by `A_i` and a
//! given local residual" — here by one backward/forward sweep of an
//! incomplete factorization of the full owned block `A_i`. The application
//! involves **zero communication**, which is why the paper finds these
//! preconditioners to have the best per-iteration scalability (and, on hard
//! problems, the worst convergence).
//!
//! The overlap rung makes the paper's §1.1 remark concrete: the minimum
//! overlap is all a parallel Krylov iteration *needs*, but "an increased
//! overlap may help to produce better parallel preconditioner". Its block is
//! widened by one layer — the ghost rows, which the neighbours send once at
//! build time ([`DistMatrix::ghost_rows`]) — and its application restricts
//! back to owned unknowns: the *restricted additive Schwarz* (RAS)
//! combination, one ghost exchange per application.

use parapre_dist::{DistMatrix, DistPrecond, LocalLayout};
use parapre_krylov::{Ilu0, Ilut, IlutConfig, LuFactors};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Result};

/// A block(-Jacobi) preconditioner with an incomplete-LU subdomain sweep.
pub struct BlockPrecond {
    factors: LuFactors,
    /// The overlap rung's layout: its apply extends the residual by the
    /// ghost values and keeps the owned part. `None` for `Block 1`/`Block 2`.
    overlap: Option<LocalLayout>,
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
            overlap: None,
        })
    }

    /// `Block 2`: ILUT(τ, p) of the owned block, behind the same ladder.
    pub fn ilut(dm: &DistMatrix, cfg: &IlutConfig) -> Result<Self> {
        let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
        let a_i = dm.owned_block();
        Ok(BlockPrecond {
            factors: Ilut::factor_shifted(&a_i, cfg)?,
            overlap: None,
        })
    }

    /// The overlap rung: ILUT(τ, p) of [`overlap_block`], behind the same
    /// ladder. Collective over the neighbours (the ghost-row exchange).
    pub fn overlap(dm: &DistMatrix, comm: &mut Comm, cfg: &IlutConfig) -> Result<Self> {
        let a_ext = overlap_block(dm, comm)?;
        let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
        Ok(BlockPrecond {
            factors: Ilut::factor_shifted(&a_ext, cfg)?,
            overlap: Some(dm.layout.clone()),
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

/// The one-layer-overlap block, `n_local × n_local` in local order: the
/// owned rows of `a_loc`, then the ghost rows the neighbours send
/// ([`DistMatrix::ghost_rows`]), restricted to the local node set. A ghost
/// row's couplings to nodes outside that set are dropped — the standard
/// overlapping-Schwarz restriction. The rows came by message, so the block
/// is assembled through `Csr::from_parts`'s validation.
pub fn overlap_block(dm: &DistMatrix, comm: &mut Comm) -> Result<Csr> {
    let _assemble = parapre_metrics::span(parapre_metrics::names::INTERFACE_ASSEMBLY);
    let nl = dm.layout.n_local();
    let mut row_ptr = dm.a_loc.row_ptr().to_vec();
    let mut col_idx = dm.a_loc.col_idx().to_vec();
    let mut vals = dm.a_loc.vals().to_vec();
    for row in dm.ghost_rows(comm) {
        for (c, v) in row {
            col_idx.push(c);
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts(nl, nl, row_ptr, col_idx, vals)
}

impl DistPrecond for BlockPrecond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let Some(layout) = &self.overlap else {
            z.copy_from_slice(r);
            return self.factors.solve_in_place(z);
        };
        let no = layout.n_owned();
        debug_assert_eq!(r.len(), no);
        // Extend the residual by the neighbours' values (one exchange).
        let mut ext = vec![0.0; layout.n_local()];
        ext[..no].copy_from_slice(r);
        layout.update_ghosts(comm, &mut ext);
        self.factors.solve_in_place(&mut ext);
        // RAS restriction: keep the owned part only.
        z.copy_from_slice(&ext[..no]);
    }

    /// One sweep through the factors for all the columns (the overlap rung
    /// applies them one after the other).
    fn apply_block(&self, comm: &mut Comm, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        if self.overlap.is_none() {
            return self.factors.solve_columns(rs, zs);
        }
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            self.apply(comm, r, z);
        }
    }

    /// `Block 1`'s ILU(0) is numeric-only to begin with; `Block 2` and the
    /// overlap rung skip ILUT's drop/fill selection and work inside the
    /// frozen pattern. The overlap rung exchanges the ghost rows again,
    /// before it checks the new layout against its own.
    fn refactor(&self, comm: &mut Comm, dm: &DistMatrix) -> Result<Box<dyn DistPrecond>> {
        let block = match &self.overlap {
            None => dm.owned_block(),
            Some(layout) => {
                let a_ext = overlap_block(dm, comm)?;
                crate::runner::same_local_shape(layout, &dm.layout)?;
                a_ext
            }
        };
        Ok(Box::new(BlockPrecond {
            factors: self.factors.refactor(&block)?,
            overlap: self.overlap.as_ref().map(|_| dm.layout.clone()),
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
    fn refactor(&self, _comm: &mut Comm, dm: &DistMatrix) -> Result<Box<dyn DistPrecond>> {
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

    fn iterations<F>(a: &Csr, b: &[f64], owner: &[u32], p: usize, make: F) -> usize
    where
        F: Fn(&DistMatrix, &mut Comm) -> Box<dyn DistPrecond> + Sync,
    {
        let make = &make;
        Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = make(&dm, comm);
            let b_loc = scatter_vector(&dm.layout, b);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig {
                max_iters: 500,
                ..GmresConfig::distributed()
            })
            .solve(comm, &dm, &m, &b_loc, &mut x);
            assert!(rep.converged);
            rep.iterations
        })[0]
    }

    #[test]
    fn overlap_reduces_iterations_vs_plain_block() {
        let p = 6;
        let (a, b, owner) = tc1(24, p, 5);
        let cfg = IlutConfig::default();
        let plain = iterations(&a, &b, &owner, p, |dm, _| {
            Box::new(BlockPrecond::ilut(dm, &cfg).unwrap())
        });
        let overlapped = iterations(&a, &b, &owner, p, |dm, comm| {
            Box::new(BlockPrecond::overlap(dm, comm, &cfg).unwrap())
        });
        assert!(
            overlapped <= plain,
            "overlap {overlapped} should not exceed plain {plain}"
        );
    }

    #[test]
    fn overlap_preconditioner_communicates() {
        let p = 4;
        let (a, b, owner) = tc1(12, p, 5);
        let a_ref = &a;
        let b_ref = &b;
        let owner_ref = &owner;
        let deltas = Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), p);
            let m = BlockPrecond::overlap(&dm, comm, &IlutConfig::default()).unwrap();
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let before = comm.stats().msgs_sent;
            let mut z = vec![0.0; dm.layout.n_owned()];
            m.apply(comm, &b_loc, &mut z);
            comm.stats().msgs_sent - before
        });
        // Every rank with neighbours must have sent ghost updates.
        assert!(deltas.iter().any(|&d| d > 0));
    }

    #[test]
    fn single_rank_overlap_equals_plain_ilut() {
        let (a, b, _) = tc1(10, 2, 5);
        let owner = vec![0u32; a.n_rows()];
        let p = 1;
        let cfg = IlutConfig::default();
        let plain = iterations(&a, &b, &owner, p, |dm, _| {
            Box::new(BlockPrecond::ilut(dm, &cfg).unwrap())
        });
        let over = iterations(&a, &b, &owner, p, |dm, comm| {
            Box::new(BlockPrecond::overlap(dm, comm, &cfg).unwrap())
        });
        assert_eq!(plain, over, "no ghosts ⇒ identical preconditioner");
    }
}

//! Overlapping block preconditioner — the paper's §1.1 remark made
//! concrete.
//!
//! The paper notes that the minimum-overlap data layout is all that
//! parallel Krylov iterations *need*, but that "an increased overlap may
//! help to produce better parallel preconditioner". This module implements
//! exactly that experiment: the subdomain factorization is extended by one
//! layer of overlap (the external-interface/ghost rows), and the
//! application restricts back to owned unknowns — the *restricted additive
//! Schwarz* (RAS) combination, which needs one ghost exchange per
//! application (unlike `Block 1/2`, which need none).
//!
//! The `ablate_block_overlap` bench measures what the paper only
//! hypothesises: the iteration count drops relative to `Block 2` at the
//! price of per-application communication.

use parapre_dist::{DistMatrix, DistPrecond};
use parapre_krylov::{Ilut, IlutConfig, LuFactors};
use parapre_mpisim::Comm;
use parapre_sparse::{Csr, Result};

/// A one-layer-overlap RAS block preconditioner with an ILUT subdomain
/// solver.
pub struct OverlapBlockPrecond {
    layout: parapre_dist::LocalLayout,
    factors: LuFactors,
}

impl OverlapBlockPrecond {
    /// Builds the extended subdomain matrix (owned + ghost rows, columns
    /// restricted to the local node set) and factors it with ILUT behind
    /// the diagonal-shift retry ladder.
    ///
    /// Needs the global matrix to read the ghost rows — the paper's layout
    /// replicates exactly one layer, so rows of ghosts may reference nodes
    /// outside the local set; those couplings are dropped (the standard
    /// overlapping-Schwarz restriction).
    pub fn build(dm: &DistMatrix, a_global: &Csr, cfg: &IlutConfig) -> Result<Self> {
        let a_ext = Self::extended_block(dm, a_global);
        let factors = {
            let _s = parapre_metrics::span(parapre_metrics::names::FACTOR);
            Ilut::factor_shifted(&a_ext, cfg)?
        };
        Ok(OverlapBlockPrecond {
            layout: dm.layout.clone(),
            factors,
        })
    }

    /// The extended subdomain matrix: owned rows verbatim, ghost rows read
    /// from the global matrix and restricted to the local node set.
    fn extended_block(dm: &DistMatrix, a_global: &Csr) -> Csr {
        let _assemble = parapre_metrics::span(parapre_metrics::names::INTERFACE_ASSEMBLY);
        let lay = &dm.layout;
        let nl = lay.n_local();
        let no = lay.n_owned();
        // Global → local map over the local node set.
        let mut g2l = vec![usize::MAX; a_global.n_rows()];
        for (l, &g) in lay.local_to_global.iter().enumerate() {
            g2l[g] = l;
        }
        // Extended matrix: owned rows verbatim, ghost rows restricted.
        let mut row_ptr = Vec::with_capacity(nl + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for l in 0..nl {
            if l < no {
                let (cols, vs) = dm.a_loc.row(l);
                col_idx.extend_from_slice(cols);
                vals.extend_from_slice(vs);
            } else {
                let g = lay.local_to_global[l];
                let (cols, vs) = a_global.row(g);
                let mut entries: Vec<(usize, f64)> = cols
                    .iter()
                    .zip(vs)
                    .filter(|&(&c, &_v)| g2l[c] != usize::MAX)
                    .map(|(&c, &v)| (g2l[c], v))
                    .collect();
                entries.sort_unstable_by_key(|&(c, _)| c);
                for (c, v) in entries {
                    col_idx.push(c);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(nl, nl, row_ptr, col_idx, vals)
    }

    /// Fill of the extended factor (diagnostics).
    pub fn nnz(&self) -> usize {
        self.factors.nnz()
    }

    /// The extended-block factors (health report, shift diagnostics).
    pub fn factors(&self) -> &LuFactors {
        &self.factors
    }
}

impl DistPrecond for OverlapBlockPrecond {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let no = self.layout.n_owned();
        debug_assert_eq!(r.len(), no);
        // Extend the residual by the neighbours' values (one exchange).
        let mut ext = vec![0.0; self.layout.n_local()];
        ext[..no].copy_from_slice(r);
        self.layout.update_ghosts(comm, &mut ext);
        self.factors.solve_in_place(&mut ext);
        // RAS restriction: keep the owned part only.
        z.copy_from_slice(&ext[..no]);
    }

    /// The extended block is reassembled from the new values and factored
    /// inside the frozen ILUT pattern.
    fn refactor(&self, dm: &DistMatrix, a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        crate::runner::same_local_shape(&self.layout, &dm.layout)?;
        Ok(Box::new(OverlapBlockPrecond {
            layout: dm.layout.clone(),
            factors: self.factors.refactor(&Self::extended_block(dm, a_global))?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockPrecond;
    use crate::testutil::tc1;
    use parapre_dist::{scatter_vector, DistGmres, GmresConfig};
    use parapre_mpisim::Universe;

    fn iterations<F>(a: &Csr, b: &[f64], owner: &[u32], p: usize, make: F) -> usize
    where
        F: Fn(&DistMatrix) -> Box<dyn DistPrecond> + Sync,
    {
        let make = &make;
        Universe::run(p, move |comm| {
            let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
            let m = make(&dm);
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
        let plain = iterations(&a, &b, &owner, p, |dm| {
            Box::new(BlockPrecond::ilut(dm, &cfg).unwrap())
        });
        let a_ref = &a;
        let overlapped = iterations(&a, &b, &owner, p, |dm| {
            Box::new(OverlapBlockPrecond::build(dm, a_ref, &cfg).unwrap())
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
            let m = OverlapBlockPrecond::build(&dm, a_ref, &IlutConfig::default()).unwrap();
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
        let a_ref = &a;
        let plain = iterations(&a, &b, &owner, p, |dm| {
            Box::new(BlockPrecond::ilut(dm, &cfg).unwrap())
        });
        let over = iterations(&a, &b, &owner, p, |dm| {
            Box::new(OverlapBlockPrecond::build(dm, a_ref, &cfg).unwrap())
        });
        assert_eq!(plain, over, "no ghosts ⇒ identical preconditioner");
    }
}

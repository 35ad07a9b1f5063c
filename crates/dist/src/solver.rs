//! Distributed right-preconditioned (F)GMRES with restart: the entries of
//! `parapre-krylov`'s one Arnoldi driver ([`gmres::arnoldi`]) across ranks.
//!
//! The driver, its least-squares recurrence and its stopping policy are
//! `parapre-krylov`'s. What this module adds is the context the driver runs
//! in: every inner product and norm is an all-reduction over the ranks of a
//! [`Comm`], and the operator and preconditioner act on the rank's owned
//! unknowns (communicating internally as needed). Control flow is
//! SPMD-deterministic: every rank takes the same branches because every
//! stopping decision is made on all-reduced quantities.

use crate::{tags, DistMatrix};
use parapre_krylov::gmres::{self, Context};
use parapre_krylov::SolveReport;
use parapre_mpisim::Comm;
use parapre_sparse::{ops, Csr, Error, Result};
use std::cell::RefCell;

pub use parapre_krylov::gmres::{GmresConfig, OrthMethod};

/// A distributed linear operator on owned-unknown vectors.
pub trait DistOp {
    /// Length of this rank's owned part.
    fn n_owned(&self) -> usize;
    /// `y = A x` (may communicate).
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]);
    /// `ys[c] = A xs[c]` for every column, in one collective step of the
    /// lock-step block solve. Every rank passes the same number of columns.
    /// The default applies the columns one after the other; an override
    /// must give each column the bits of its [`DistOp::apply`].
    fn apply_block(&self, comm: &mut Comm, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.apply(comm, x, y);
        }
    }
}

/// A distributed preconditioner `z = M⁻¹ r` on owned-unknown vectors.
///
/// `Send + Sync` is a supertrait because setup and apply are separated:
/// once factored, a preconditioner is immutable state that solver sessions
/// cache and share across the rank threads of many subsequent solves
/// (`apply` takes `&self`; all per-solve mutability lives in `comm` and the
/// output buffer).
pub trait DistPrecond: Send + Sync {
    /// `z = M⁻¹ r` (may communicate; may be flexible/inner-iterative).
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]);

    /// `zs[c] = M⁻¹ rs[c]` for every column, in one collective step of the
    /// lock-step block solve. Every rank passes the same number of columns.
    /// The default applies the columns one after the other; an override
    /// must give each column the bits of its [`DistPrecond::apply`].
    fn apply_block(&self, comm: &mut Comm, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            self.apply(comm, r, z);
        }
    }

    /// Numeric-only rebuild of this rank's preconditioner for `dm`, the
    /// same rows of a matrix with the **same sparsity pattern and new
    /// values**: everything symbolic (fill patterns, independent sets) is
    /// kept from `self`, only numbers are recomputed.
    /// `a_global` is the new global matrix (consulted by preconditioners
    /// that read beyond their owned rows).
    ///
    /// Purely local — an implementation must not communicate, so that a
    /// caller can run it on every rank and agree on the outcome afterwards
    /// without risking a rank alone in a collective. Strict: no pivot
    /// fixes, no diagonal shifts; an unhealthy result is an `Err` and the
    /// caller rebuilds symbolically. The default declines, for
    /// preconditioners with nothing symbolic worth keeping.
    fn refactor(&self, dm: &DistMatrix, a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        let _ = (dm, a_global);
        Err(Error::InvalidStructure(
            "this preconditioner has no numeric-only refactorization".into(),
        ))
    }
}

impl<T: DistPrecond + ?Sized> DistPrecond for Box<T> {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        (**self).apply(comm, r, z)
    }
    fn apply_block(&self, comm: &mut Comm, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        (**self).apply_block(comm, rs, zs)
    }
    fn refactor(&self, dm: &DistMatrix, a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        (**self).refactor(dm, a_global)
    }
}

impl<T: DistPrecond + ?Sized> DistPrecond for &T {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        (**self).apply(comm, r, z)
    }
    fn apply_block(&self, comm: &mut Comm, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        (**self).apply_block(comm, rs, zs)
    }
    fn refactor(&self, dm: &DistMatrix, a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        (**self).refactor(dm, a_global)
    }
}

/// Identity distributed preconditioner.
pub struct IdentityDistPrecond;

impl DistPrecond for IdentityDistPrecond {
    fn apply(&self, _comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

thread_local! {
    /// Ghost-extended copies of the columns a [`DistMatrix`] multiplies, and
    /// the packed products of a block multiply.
    static SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

impl DistOp for DistMatrix {
    fn n_owned(&self) -> usize {
        self.layout.n_owned()
    }
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        SCRATCH.with(|s| {
            let ext = &mut s.borrow_mut().0;
            ext.resize(self.layout.n_local(), 0.0);
            ext[..x.len()].copy_from_slice(x);
            self.matvec(comm, ext, y);
        });
    }
    /// One ghost message per neighbour carries every column, and the SpMV
    /// reads each matrix entry once per group of up to eight columns.
    fn apply_block(&self, comm: &mut Comm, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        if let ([x], [y]) = (xs, &mut *ys) {
            return self.apply(comm, x, y);
        }
        let (n_local, n_owned) = (self.layout.n_local(), self.layout.n_owned());
        SCRATCH.with(|s| {
            let (ext, out) = &mut *s.borrow_mut();
            ext.resize(n_local * xs.len(), 0.0);
            out.resize(n_owned * ys.len(), 0.0);
            ops::pack_columns(xs, n_local, ext);
            self.matvec_columns(comm, ext, out, xs.len());
            ops::unpack_columns(out, n_owned, ys);
        });
    }
}

/// The distributed restarted (F)GMRES driver.
#[derive(Debug, Clone)]
pub struct DistGmres {
    /// Solver parameters ([`GmresConfig::distributed`] is the distributed
    /// setting).
    pub config: GmresConfig,
}

/// The context of a distributed solve: sums are all-reductions over the
/// ranks of `comm`, and rank 0 speaks for the solve.
struct Ranks<'a, A, M> {
    comm: &'a mut Comm,
    a: &'a A,
    m: &'a M,
}

impl<A: DistOp, M: DistPrecond> Context for Ranks<'_, A, M> {
    const SOURCE: &'static str = "dist";
    fn speaks(&self) -> bool {
        self.comm.rank() == 0
    }
    fn sum(&mut self, xs: &mut [f64]) {
        self.comm.allreduce_sum_vec(xs, tags::REDUCE);
    }
    fn product(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        self.a.apply_block(self.comm, xs, ys);
    }
    fn precond(&mut self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.m.apply_block(self.comm, rs, zs);
    }
}

impl DistGmres {
    /// Creates a solver.
    pub fn new(config: GmresConfig) -> Self {
        DistGmres { config }
    }

    /// Solves `A x = b` over the rank's owned unknowns, `x` updated in
    /// place (initial guess on entry).
    pub fn solve<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
    ) -> SolveReport {
        self.solve_block(comm, a, m, &[b], &mut [x])
            .pop()
            .expect("one report per column")
    }

    /// Solves `A x_c = b_c` for every column `c` in lock-step rounds:
    /// [`gmres::arnoldi`], flexible, across the ranks of `comm`, through
    /// [`DistPrecond::apply_block`] and [`DistOp::apply_block`].
    pub fn solve_block<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
    ) -> Vec<SolveReport> {
        assert!(bs.iter().all(|b| b.len() == a.n_owned()));
        gmres::arnoldi(&mut Ranks { comm, a, m }, &self.config, true, bs, xs)
    }

    /// [`gmres::fixed_effort`] across the ranks of `comm`, with the
    /// distributed setting's orthogonalization (one fused all-reduce per
    /// step).
    pub fn fixed_effort<A: DistOp, M: DistPrecond>(
        comm: &mut Comm,
        a: &A,
        m: &M,
        k: usize,
        g: &[f64],
        z: &mut [f64],
    ) {
        let ctx = &mut Ranks { comm, a, m };
        gmres::fixed_effort(ctx, OrthMethod::ClassicalBatched, k, g, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gather_vector, scatter_vector, DistMatrix};
    use parapre_fem::{bc, poisson, LinearSystem};
    use parapre_grid::structured::unit_square;
    use parapre_mpisim::Universe;
    use parapre_partition::partition_graph;
    use parapre_sparse::Csr;

    fn tc1_small(nx: usize) -> (Csr, Vec<f64>, Vec<u32>) {
        let mesh = unit_square(nx, nx);
        let (a, b) = poisson::assemble_2d(&mesh, poisson::rhs_tc1);
        let mut sys = LinearSystem { a, b };
        let boundary = mesh.boundary_nodes();
        let fixed: Vec<(usize, f64)> = boundary
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| (i, poisson::exact_tc1(mesh.coords[i][0], mesh.coords[i][1])))
            .collect();
        bc::apply_dirichlet(&mut sys, &fixed);
        let part = partition_graph(&mesh.adjacency(), 4, 7);
        (sys.a, sys.b, part.owner)
    }

    #[test]
    fn distributed_gmres_matches_sequential_solution() {
        let (a, b, owner) = tc1_small(10);
        let n = a.n_rows();
        // Sequential reference.
        let mut x_seq = vec![0.0; n];
        let rep = parapre_krylov::Gmres::new(parapre_krylov::GmresConfig {
            max_iters: 500,
            rel_tol: 1e-10,
            ..Default::default()
        })
        .solve(&a, &parapre_krylov::IdentityPrecond::new(n), &b, &mut x_seq);
        assert!(rep.converged);

        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let results = Universe::run(4, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig {
                max_iters: 500,
                rel_tol: 1e-10,
                ..GmresConfig::distributed()
            })
            .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
            assert!(rep.converged);
            gather_vector(comm, &dm.layout, &x, b_ref.len())
        });
        let x_dist = results[0].as_ref().expect("gathered on rank 0");
        for (u, v) in x_dist.iter().zip(&x_seq) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn iteration_counts_equal_sequential_gmres() {
        // Unpreconditioned GMRES iteration counts are partition-independent
        // (the Krylov space is the same): distributed MGS must match
        // sequential MGS exactly — the reduction tree changes summation
        // order but not which reductions happen, and this problem is far
        // from the regime where that matters.
        let (a, b, owner) = tc1_small(8);
        let n = a.n_rows();
        let mut x_seq = vec![0.0; n];
        let rep_seq = parapre_krylov::Gmres::new(parapre_krylov::GmresConfig {
            max_iters: 300,
            ..Default::default()
        })
        .solve(&a, &parapre_krylov::IdentityPrecond::new(n), &b, &mut x_seq);

        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let iters = Universe::run(4, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig {
                max_iters: 300,
                orth: OrthMethod::Modified,
                ..GmresConfig::distributed()
            })
            .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
            (rep.iterations, rep.converged)
        });
        for &(it, conv) in &iters {
            assert!(conv);
            assert_eq!(it, rep_seq.iterations);
        }
    }

    #[test]
    fn batched_cgs_iterations_within_two_of_mgs() {
        // The fused-allreduce classical Gram–Schmidt (default) may differ
        // from modified Gram–Schmidt by a step or two, never more on these
        // well-conditioned systems.
        let (a, b, owner) = tc1_small(10);
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let run = |orth: OrthMethod| {
            Universe::run(4, |comm| {
                let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                let rep = DistGmres::new(GmresConfig {
                    max_iters: 300,
                    orth,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
                assert!(rep.converged);
                rep.iterations
            })
        };
        let mgs = run(OrthMethod::Modified)[0];
        let cgs = run(OrthMethod::ClassicalBatched)[0];
        assert!(cgs.abs_diff(mgs) <= 2, "CGS {cgs} vs MGS {mgs} iterations");
    }

    #[test]
    fn batched_cgs_issues_one_fused_allreduce_per_iteration() {
        // Message-count regression: with CGS the orthogonalization of a
        // whole cycle costs one vector allreduce per iteration (plus
        // occasional reorthogonalization), not k+2 scalar ones.
        let (a, b, owner) = tc1_small(8);
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let run = |orth: OrthMethod| {
            Universe::run(4, |comm| {
                let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                let before = comm.stats().msgs_sent;
                let rep = DistGmres::new(GmresConfig {
                    max_iters: 60,
                    orth,
                    ..GmresConfig::distributed()
                })
                .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
                (comm.stats().msgs_sent - before, rep.iterations)
            })
        };
        let (mgs_msgs, mgs_iters) = run(OrthMethod::Modified)[0];
        let (cgs_msgs, cgs_iters) = run(OrthMethod::ClassicalBatched)[0];
        assert!(mgs_iters > 0 && cgs_iters > 0);
        // Per iteration, CGS must send strictly fewer messages than MGS.
        assert!(
            (cgs_msgs as f64 / cgs_iters as f64) < (mgs_msgs as f64 / mgs_iters as f64),
            "CGS {cgs_msgs}/{cgs_iters} vs MGS {mgs_msgs}/{mgs_iters} msgs/iter"
        );
    }

    #[test]
    fn report_identical_on_all_ranks() {
        let (a, b, owner) = tc1_small(8);
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let reports = Universe::run(4, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig {
                record_history: true,
                ..GmresConfig::distributed()
            })
            .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
            (rep.iterations, rep.final_relres, rep.residual_history)
        });
        for r in &reports[1..] {
            assert_eq!(r.0, reports[0].0);
            assert_eq!(r.1, reports[0].1);
            assert_eq!(r.2, reports[0].2);
        }
    }

    #[test]
    fn works_on_a_single_rank() {
        let (a, b, owner0) = tc1_small(6);
        let owner: Vec<u32> = owner0.iter().map(|_| 0).collect();
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let out = Universe::run(1, |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, 0, 1);
            assert_eq!(dm.layout.n_ghost, 0);
            assert_eq!(dm.layout.n_interface, 0);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistGmres::new(GmresConfig::distributed()).solve(
                comm,
                &dm,
                &IdentityDistPrecond,
                &b_loc,
                &mut x,
            );
            rep.converged
        });
        assert!(out[0]);
    }
}

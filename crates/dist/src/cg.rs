//! Distributed preconditioned conjugate gradients.
//!
//! For the SPD test cases (Poisson, heat, elasticity) CG is the natural
//! accelerator; the paper standardizes on FGMRES because the Schur
//! preconditioners are nonsymmetric/flexible, but the `Block` family is a
//! fixed SPD operator and runs fine under CG. Provided as a cross-check and
//! for downstream users with symmetric problems.

use crate::solver::{CheckpointCtx, DistOp, DistPrecond};
use crate::tags;
use parapre_mpisim::Comm;
use parapre_sparse::ops;

/// CG stopping parameters.
#[derive(Debug, Clone, Copy)]
pub struct DistCgConfig {
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative residual target.
    pub rel_tol: f64,
    /// Absolute floor.
    pub abs_tol: f64,
}

impl Default for DistCgConfig {
    fn default() -> Self {
        DistCgConfig {
            max_iters: 1000,
            rel_tol: 1e-6,
            abs_tol: 1e-300,
        }
    }
}

/// Result of a distributed CG solve (identical on all ranks).
#[derive(Debug, Clone)]
pub struct DistCgReport {
    /// Tolerance met.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub final_relres: f64,
    /// Typed breakdown when the solve stopped for a numerical reason
    /// (rank-identical, decided on allreduced quantities).
    pub breakdown: Option<parapre_krylov::SolveBreakdown>,
}

/// The distributed CG driver.
#[derive(Debug, Clone)]
pub struct DistCg {
    /// Solver parameters.
    pub config: DistCgConfig,
}

impl DistCg {
    /// Creates a solver.
    pub fn new(config: DistCgConfig) -> Self {
        DistCg { config }
    }

    /// Solves SPD `A x = b` over owned unknowns, `x` updated in place.
    pub fn solve<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
    ) -> DistCgReport {
        self.solve_with_checkpoint(comm, a, m, b, x, None, 0)
    }

    /// [`DistCg::solve`] with optional periodic checkpointing.
    ///
    /// CG has no restart cycles, so snapshots are taken every
    /// `checkpoint_every` iterations (0 disables even when `ckpt` is set).
    /// Unlike FGMRES, a resumed CG rebuilds its search direction from the
    /// checkpointed iterate alone — losing conjugacy history but not
    /// correctness.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_with_checkpoint<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
        ckpt: Option<CheckpointCtx<'_>>,
        checkpoint_every: usize,
    ) -> DistCgReport {
        let n = a.n_owned();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let cfg = &self.config;
        let dot = |comm: &mut Comm, u: &[f64], v: &[f64]| -> f64 {
            comm.allreduce_sum(ops::dot(u, v), tags::REDUCE + 2)
        };

        let mut r = vec![0.0; n];
        a.apply(comm, x, &mut r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let start = ckpt.map_or(0, |c| c.start_iters);
        let mut cycle = ckpt.map_or(0, |c| c.start_cycle);
        let r0 = dot(comm, &r, &r).sqrt();
        if !r0.is_finite() {
            parapre_metrics::count(parapre_metrics::names::SOLVE_BREAKDOWN, 1);
            return DistCgReport {
                converged: false,
                iterations: start,
                final_relres: f64::NAN,
                breakdown: Some(parapre_krylov::SolveBreakdown {
                    kind: parapre_krylov::BreakdownKind::NonFinite,
                    iteration: start,
                    relres: f64::NAN,
                }),
            };
        }
        if r0 <= cfg.abs_tol {
            return DistCgReport {
                converged: true,
                iterations: start,
                final_relres: 0.0,
                breakdown: None,
            };
        }
        let target = (cfg.rel_tol * r0).max(cfg.abs_tol);

        let mut z = vec![0.0; n];
        m.apply(comm, &r, &mut z);
        let mut p = z.clone();
        let mut rz = dot(comm, &r, &z);
        let mut ap = vec![0.0; n];

        for it in (start + 1)..=cfg.max_iters {
            a.apply(comm, &p, &mut ap);
            let pap = dot(comm, &p, &ap);
            if pap <= 0.0 || !pap.is_finite() {
                let kind = if pap.is_finite() {
                    parapre_krylov::BreakdownKind::IndefiniteOperator
                } else {
                    parapre_krylov::BreakdownKind::NonFinite
                };
                let relres = dot(comm, &r, &r).sqrt() / r0;
                parapre_metrics::count(parapre_metrics::names::SOLVE_BREAKDOWN, 1);
                return DistCgReport {
                    converged: false,
                    iterations: it - 1,
                    final_relres: relres,
                    breakdown: Some(parapre_krylov::SolveBreakdown {
                        kind,
                        iteration: it - 1,
                        relres,
                    }),
                };
            }
            let alpha = rz / pap;
            for ((xi, &pi), (ri, &api)) in x.iter_mut().zip(&p).zip(r.iter_mut().zip(&ap)) {
                *xi += alpha * pi;
                *ri -= alpha * api;
            }
            if let Some(ck) = ckpt {
                // Rank-identical cadence: every rank sees the same `it`.
                if checkpoint_every > 0 && (it - start).is_multiple_of(checkpoint_every) {
                    cycle += 1;
                    ck.sink.save(comm.rank(), cycle, it, x);
                    parapre_metrics::count(parapre_metrics::names::CKPT_SAVED, 1);
                }
            }
            // Apply M⁻¹ *before* the convergence check so the residual norm
            // and the β-coefficient inner product ride a single fused
            // allreduce — one latency per iteration instead of two, at the
            // cost of one speculative preconditioner apply on the final
            // iteration.
            m.apply(comm, &r, &mut z);
            let mut pair = [ops::dot(&r, &r), ops::dot(&r, &z)];
            comm.allreduce_sum_vec(&mut pair, tags::REDUCE + 2);
            let rnorm = pair[0].sqrt();
            if rnorm <= target {
                return DistCgReport {
                    converged: true,
                    iterations: it,
                    final_relres: rnorm / r0,
                    breakdown: None,
                };
            }
            let rz_new = pair[1];
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, &zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
        }
        DistCgReport {
            converged: false,
            iterations: cfg.max_iters,
            final_relres: dot(comm, &r, &r).sqrt() / r0,
            breakdown: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scatter_vector, DistMatrix, IdentityDistPrecond};
    use parapre_fem::{bc, poisson, LinearSystem};
    use parapre_grid::structured::unit_square;
    use parapre_mpisim::Universe;
    use parapre_partition::partition_graph;

    fn spd_system(nx: usize) -> (parapre_sparse::Csr, Vec<f64>, Vec<u32>) {
        let mesh = unit_square(nx, nx);
        let (a, b) = poisson::assemble_2d(&mesh, |_, _| 1.0);
        let mut sys = LinearSystem { a, b };
        let fixed: Vec<(usize, f64)> = mesh
            .boundary_nodes()
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| (i, 0.0))
            .collect();
        bc::apply_dirichlet(&mut sys, &fixed);
        let part = partition_graph(&mesh.adjacency(), 4, 3);
        (sys.a, sys.b, part.owner)
    }

    #[test]
    fn distributed_cg_matches_sequential_cg() {
        let (a, b, owner) = spd_system(12);
        let n = a.n_rows();
        let mut x_seq = vec![0.0; n];
        let rep_seq = parapre_krylov::ConjugateGradient::new(parapre_krylov::CgConfig {
            rel_tol: 1e-8,
            ..Default::default()
        })
        .solve(&a, &parapre_krylov::IdentityPrecond::new(n), &b, &mut x_seq);
        assert!(rep_seq.converged);

        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let out = Universe::run(4, move |comm| {
            let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
            let b_loc = scatter_vector(&dm.layout, b_ref);
            let mut x = vec![0.0; dm.layout.n_owned()];
            let rep = DistCg::new(DistCgConfig {
                rel_tol: 1e-8,
                ..Default::default()
            })
            .solve(comm, &dm, &IdentityDistPrecond, &b_loc, &mut x);
            (rep.converged, rep.iterations)
        });
        for &(conv, it) in &out {
            assert!(conv);
            // CG recursion is reduction-order sensitive; iteration counts
            // match the sequential run to within a couple of iterations.
            assert!(
                (it as i64 - rep_seq.iterations as i64).abs() <= 2,
                "dist {it} vs seq {}",
                rep_seq.iterations
            );
        }
    }

    #[test]
    fn block_preconditioned_distributed_cg() {
        // Block-Jacobi-ILU(0) is SPD ⇒ legal under CG; it must reduce the
        // iteration count.
        use parapre_krylov::Ilu0;
        struct BlockIlu0(parapre_krylov::LuFactors);
        impl DistPrecond for BlockIlu0 {
            fn apply(&self, _c: &mut Comm, r: &[f64], z: &mut [f64]) {
                z.copy_from_slice(r);
                self.0.solve_in_place(z);
            }
        }
        let (a, b, owner) = spd_system(32);
        let (a_ref, b_ref, owner_ref) = (&a, &b, &owner);
        let run = |precond: bool| {
            Universe::run(4, move |comm| {
                let dm = DistMatrix::from_global(a_ref, owner_ref, comm.rank(), 4);
                let b_loc = scatter_vector(&dm.layout, b_ref);
                let mut x = vec![0.0; dm.layout.n_owned()];
                let rep = if precond {
                    let m = BlockIlu0(Ilu0::factor(&dm.owned_block()).unwrap());
                    DistCg::new(Default::default()).solve(comm, &dm, &m, &b_loc, &mut x)
                } else {
                    DistCg::new(Default::default()).solve(
                        comm,
                        &dm,
                        &IdentityDistPrecond,
                        &b_loc,
                        &mut x,
                    )
                };
                (rep.converged, rep.iterations)
            })[0]
        };
        let (c1, plain) = run(false);
        let (c2, prec) = run(true);
        assert!(c1 && c2);
        assert!(prec < plain, "{prec} vs {plain}");
    }
}

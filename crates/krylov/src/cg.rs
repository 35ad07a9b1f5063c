//! Preconditioned conjugate gradients.
//!
//! Used by the additive-Schwarz comparison of the paper (§5.2): each
//! subdomain solve is **one** CG iteration accelerated by an FFT-based fast
//! Poisson preconditioner.

use crate::op::LinOp;
use crate::precond::Preconditioner;
use crate::{BreakdownKind, SolveBreakdown, SolveReport};
use parapre_sparse::ops;

/// CG stopping parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative residual reduction target.
    pub rel_tol: f64,
    /// Absolute residual floor.
    pub abs_tol: f64,
    /// Record per-iteration residual norms.
    pub record_history: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            max_iters: 1000,
            rel_tol: 1e-6,
            abs_tol: 1e-300,
            record_history: false,
        }
    }
}

/// The preconditioned conjugate gradient method (SPD systems).
#[derive(Debug, Clone)]
pub struct ConjugateGradient {
    /// Solver parameters.
    pub config: CgConfig,
}

impl ConjugateGradient {
    /// Creates a solver with the given configuration.
    pub fn new(config: CgConfig) -> Self {
        ConjugateGradient { config }
    }

    /// Solves `A x = b` for SPD `A`, updating `x` in place.
    pub fn solve<A: LinOp, M: Preconditioner>(
        &self,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
    ) -> SolveReport {
        let n = a.dim();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let cfg = &self.config;
        let mut report = SolveReport::default();

        let mut r = vec![0.0; n];
        a.apply(x, &mut r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let r0 = ops::norm2(&r);
        if cfg.record_history {
            report.residual_history.push(r0);
        }
        if !r0.is_finite() {
            parapre_metrics::count(parapre_metrics::names::SOLVE_BREAKDOWN, 1);
            report.breakdown = Some(SolveBreakdown {
                kind: BreakdownKind::NonFinite,
                iteration: 0,
                relres: f64::NAN,
            });
            report.final_relres = f64::NAN;
            return report;
        }
        if r0 <= cfg.abs_tol {
            report.converged = true;
            report.final_relres = 0.0;
            return report;
        }
        let target = (cfg.rel_tol * r0).max(cfg.abs_tol);

        let mut z = vec![0.0; n];
        m.apply(&r, &mut z);
        let mut p = z.clone();
        let mut rz = ops::dot(&r, &z);
        let mut ap = vec![0.0; n];

        for it in 1..=cfg.max_iters {
            a.apply(&p, &mut ap);
            let pap = ops::dot(&p, &ap);
            if !pap.is_finite() {
                report.iterations = it - 1;
                report.final_relres = ops::norm2(&r) / r0;
                parapre_metrics::count(parapre_metrics::names::SOLVE_BREAKDOWN, 1);
                report.breakdown = Some(SolveBreakdown {
                    kind: BreakdownKind::NonFinite,
                    iteration: it - 1,
                    relres: report.final_relres,
                });
                return report;
            }
            if pap <= 0.0 {
                // Not SPD (or breakdown): stop honestly, with the type.
                report.iterations = it - 1;
                report.final_relres = ops::norm2(&r) / r0;
                parapre_metrics::count(parapre_metrics::names::SOLVE_BREAKDOWN, 1);
                report.breakdown = Some(SolveBreakdown {
                    kind: BreakdownKind::IndefiniteOperator,
                    iteration: it - 1,
                    relres: report.final_relres,
                });
                return report;
            }
            let alpha = rz / pap;
            ops::axpy(alpha, &p, x);
            ops::axpy(-alpha, &ap, &mut r);
            let rnorm = ops::norm2(&r);
            if cfg.record_history {
                report.residual_history.push(rnorm);
            }
            report.iterations = it;
            if rnorm <= target {
                report.converged = true;
                report.final_relres = rnorm / r0;
                return report;
            }
            m.apply(&r, &mut z);
            let rz_new = ops::dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, &zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
        }
        report.final_relres = ops::norm2(&r) / r0;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::Ilu0;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use parapre_sparse::{Coo, Csr};

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
    fn cg_solves_spd_system() {
        let a = laplacian_2d(12);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.mul_vec(&x_true);
        let mut x = vec![0.0; n];
        let rep = ConjugateGradient::new(Default::default()).solve(
            &a,
            &IdentityPrecond::new(n),
            &b,
            &mut x,
        );
        assert!(rep.converged);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn jacobi_preconditioning_helps_scaled_system() {
        // SPD matrix with a wildly varying diagonal: Jacobi rescaling
        // collapses the spectrum and must cut the iteration count.
        let n = 60;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0 + i as f64 * 10.0);
            if i > 0 {
                coo.push(i, i - 1, -0.4);
                coo.push(i - 1, i, -0.4);
            }
        }
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let cfg = CgConfig {
            max_iters: 2000,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let plain = ConjugateGradient::new(cfg).solve(&a, &IdentityPrecond::new(n), &b, &mut x1);
        let mut x2 = vec![0.0; n];
        let jac = JacobiPrecond::from_diagonal(&a.diagonal().unwrap());
        let prec = ConjugateGradient::new(cfg).solve(&a, &jac, &b, &mut x2);
        assert!(plain.converged && prec.converged);
        assert!(prec.iterations < plain.iterations);
    }

    #[test]
    fn ilu0_preconditioned_cg_iteration_counts() {
        let a = laplacian_2d(16);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let f = Ilu0::factor(&a).unwrap();
        let mut x = vec![0.0; n];
        let rep = ConjugateGradient::new(Default::default()).solve(&a, &f, &b, &mut x);
        assert!(rep.converged);
        assert!(rep.iterations < 40, "iterations {}", rep.iterations);
    }

    #[test]
    fn cg_zero_rhs() {
        let a = laplacian_2d(5);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = ConjugateGradient::new(CgConfig {
            abs_tol: 1e-14,
            ..Default::default()
        })
        .solve(&a, &IdentityPrecond::new(n), &vec![0.0; n], &mut x);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
    }

    #[test]
    fn cg_respects_iteration_budget() {
        let a = laplacian_2d(20);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = ConjugateGradient::new(CgConfig {
            max_iters: 2,
            rel_tol: 1e-14,
            ..Default::default()
        })
        .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 2);
    }
}

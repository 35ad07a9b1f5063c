//! Restarted GMRES and flexible GMRES (FGMRES), right-preconditioned.
//!
//! The paper uses FGMRES(20) as the outer accelerator (the preconditioners
//! contain inner iterations, so the preconditioner varies between
//! applications) and short plain-GMRES runs as subdomain/Schur solvers
//! (paper §4.3–4.4). Implementation follows Saad, *Iterative Methods for
//! Sparse Linear Systems*, Algorithms 6.9 (GMRES) and 9.5 (FGMRES):
//! modified Gram–Schmidt orthogonalization and Givens-rotation QR of the
//! Hessenberg matrix ([`crate::lsq::GivensLsq`], shared with the distributed
//! driver), so the residual norm is available every iteration without
//! forming the solution.
//!
//! This driver is the *inner* solver of the distributed preconditioners: a
//! handful of steps on a subdomain block. So it judges divergence and
//! stagnation on the residual estimate after every iteration — there may be
//! no second cycle to wait for — where `parapre_dist::solver` judges them on
//! the all-reduced true residual at a cycle boundary. Every way a cycle can
//! end (`enum Stop`) reaches one post-cycle block: update, true residual, report.

use crate::lsq::GivensLsq;
use crate::op::LinOp;
use crate::precond::Preconditioner;
use crate::proj::Panel;
use crate::{BreakdownKind, SolveBreakdown, SolveReport};
use parapre_metrics::names;
use parapre_sparse::ops;

/// Residual-estimate blow-up factor over `‖r₀‖` past which the solve is
/// declared divergent rather than allowed to burn its iteration budget.
pub const DIVERGENCE_GUARD: f64 = 1e8;

/// Minimum relative improvement the stagnation window must observe:
/// `res < (1 − STALL_RTOL) · res_window_ago`, else the solve is stalled.
pub const STALL_RTOL: f64 = 1e-3;

/// Stopping and restart parameters shared by GMRES and FGMRES.
#[derive(Debug, Clone, Copy)]
pub struct GmresConfig {
    /// Restart length `m` (Krylov basis size). Paper value: 20.
    pub restart: usize,
    /// Maximum total iterations (matrix-vector products).
    pub max_iters: usize,
    /// Relative residual reduction target (paper: 1e-6).
    pub rel_tol: f64,
    /// Absolute residual floor — iteration stops when `‖r‖ ≤ abs_tol` even
    /// if the relative target is not met (guards `b = 0`).
    pub abs_tol: f64,
    /// Record the residual norm after every iteration.
    pub record_history: bool,
    /// Stagnation window (iterations): stop early with a typed
    /// [`BreakdownKind::Stagnation`] when the residual estimate fails to
    /// improve by [`STALL_RTOL`] over this many iterations. `0` disables
    /// the guard.
    pub stall_window: usize,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            restart: 20,
            max_iters: 500,
            rel_tol: 1e-6,
            abs_tol: 1e-300,
            record_history: false,
            stall_window: 0,
        }
    }
}

/// Right-preconditioned restarted GMRES(m) with a **fixed** preconditioner.
#[derive(Debug, Clone)]
pub struct Gmres {
    /// Solver parameters.
    pub config: GmresConfig,
}

/// Right-preconditioned restarted **flexible** GMRES(m): the preconditioner
/// may change from one iteration to the next (inner iterative solves).
#[derive(Debug, Clone)]
pub struct FGmres {
    /// Solver parameters.
    pub config: GmresConfig,
}

impl Gmres {
    /// Creates a solver with the given configuration.
    pub fn new(config: GmresConfig) -> Self {
        Gmres { config }
    }

    /// Solves `A x = b`, updating `x` in place (initial guess on entry).
    pub fn solve<A: LinOp, M: Preconditioner>(
        &self,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
    ) -> SolveReport {
        run_gmres(a, m, b, x, &self.config, Entry::Gmres)
    }

    /// Fixed-effort inner solve: `k` GMRES steps on `A x = b` from `x = 0`,
    /// unreported; `x` is output only. Bit for bit [`Gmres::solve`] from a
    /// zeroed guess under `restart = max_iters = k`, `rel_tol = 1e-12`,
    /// `stall_window = 4`, minus the two operator products only the report
    /// reads: the opening residual is `b` itself, and a cycle that spent
    /// its budget returns without the closing true residual. Every early
    /// exit (estimate under `1e-12·‖b‖`, breakdown, divergence, stagnation)
    /// takes the general path. The budget is `k` alone, not a relation
    /// between two fields that a caller has to keep.
    pub fn fixed_effort<A: LinOp, M: Preconditioner>(
        a: &A,
        m: &M,
        k: usize,
        b: &[f64],
        x: &mut [f64],
    ) {
        x.fill(0.0);
        let cfg = GmresConfig {
            restart: k.max(1),
            max_iters: k.max(1),
            rel_tol: 1e-12,
            stall_window: 4,
            ..Default::default()
        };
        run_gmres(a, m, b, x, &cfg, Entry::FixedEffort);
    }
}

impl FGmres {
    /// Creates a solver with the given configuration.
    pub fn new(config: GmresConfig) -> Self {
        FGmres { config }
    }

    /// Solves `A x = b`, updating `x` in place (initial guess on entry).
    pub fn solve<A: LinOp, M: Preconditioner>(
        &self,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
    ) -> SolveReport {
        run_gmres(a, m, b, x, &self.config, Entry::FGmres)
    }
}

/// Which public entry is driving the Arnoldi cycle.
#[derive(PartialEq)]
enum Entry {
    /// [`Gmres::solve`].
    Gmres,
    /// [`FGmres::solve`].
    FGmres,
    /// [`Gmres::fixed_effort`].
    FixedEffort,
}

/// Shared Arnoldi/Givens driver. For [`Entry::FGmres`] the preconditioned
/// directions `Z_j = M⁻¹ v_j` are stored and the update is `x += Z y`;
/// otherwise only `V` is stored and `x += M⁻¹ (V y)`.
fn run_gmres<A: LinOp, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &[f64],
    x: &mut [f64],
    cfg: &GmresConfig,
    entry: Entry,
) -> SolveReport {
    let report = run_gmres_core(a, m, b, x, cfg, entry);
    // Sequential (F)GMRES runs inside preconditioner applications in the
    // distributed stack; surface its effort as a counter rather than
    // polluting the outer convergence stream. Terminal stalls and
    // breakdowns *are* streamed — they are rare and diagnostic.
    parapre_metrics::count(names::GMRES_ITERS, report.iterations as u64);
    if let Some(bd) = &report.breakdown {
        // A sequential solve has no peers: it speaks for itself.
        let kind = bd.kind.conv_kind();
        parapre_metrics::convergence("gmres", true, bd.iteration, bd.relres, kind, bd.kind.key());
    }
    report
}

/// Why an Arnoldi cycle ended before its last column.
#[derive(Clone, Copy, PartialEq)]
enum Stop {
    /// The residual estimate met the target.
    Target,
    /// The new basis vector has zero norm: the Krylov space is invariant.
    ZeroNorm,
    /// The Hessenberg column holds a NaN or an infinity and was discarded.
    NonFinite,
    /// The estimate passed [`DIVERGENCE_GUARD`].
    Diverged,
    /// The estimate failed the stagnation window.
    Stalled,
}

fn run_gmres_core<A: LinOp, M: Preconditioner>(
    a: &A,
    m: &M,
    b: &[f64],
    x: &mut [f64],
    cfg: &GmresConfig,
    entry: Entry,
) -> SolveReport {
    let flexible = entry == Entry::FGmres;
    let fixed_effort = entry == Entry::FixedEffort;
    let n = a.dim();
    assert_eq!(b.len(), n, "gmres: rhs length");
    assert_eq!(x.len(), n, "gmres: x length");
    assert_eq!(m.dim(), n, "gmres: preconditioner dim");
    // A cycle cannot outrun the iteration budget, and its basis is allocated
    // whole.
    let restart = cfg.restart.clamp(1, cfg.max_iters.max(1));

    let mut report = SolveReport::default();
    let mut r = vec![0.0; n];
    // `r = b − A x`, and its norm.
    let residual = |x: &[f64], r: &mut [f64]| {
        a.apply(x, r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        ops::norm2(r)
    };

    let r0_norm = if fixed_effort {
        r.copy_from_slice(b);
        ops::norm2(&r)
    } else {
        residual(x, &mut r)
    };
    if cfg.record_history {
        report.residual_history.push(r0_norm);
    }
    if !r0_norm.is_finite() {
        report.breakdown = Some(SolveBreakdown {
            kind: BreakdownKind::NonFinite,
            iteration: 0,
            relres: f64::NAN,
        });
        return report;
    }
    if r0_norm <= cfg.abs_tol {
        report.converged = true;
        report.final_relres = 0.0;
        return report;
    }
    let target = (cfg.rel_tol * r0_norm).max(cfg.abs_tol);
    let mut stall: Vec<f64> = Vec::new();

    // Krylov basis, one column more than the restart length: the vector
    // being orthogonalized is the column after the basis so far. For FGMRES
    // every preconditioned direction is kept, otherwise only the latest.
    let mut v = Panel::zeros(n, restart + 1);
    let mut zdirs = Panel::zeros(n, if flexible { restart } else { 1 });
    let mut lsq = GivensLsq::new(restart);

    let mut total_iters = 0usize;
    let mut beta = r0_norm;

    loop {
        lsq.start(beta);
        v.col_mut(0).copy_from_slice(&r);
        ops::scale(1.0 / beta, v.col_mut(0));

        let mut k = 0usize; // columns completed this cycle
        let mut stop = None;
        while k < restart && total_iters < cfg.max_iters {
            // z = M^{-1} v_k ; w = A z
            let zk = if flexible { k } else { 0 };
            m.apply(v.col(k), zdirs.col_mut(zk));
            let (vs, w) = v.split(k + 1);
            a.apply(zdirs.col(zk), w);
            total_iters += 1;

            // Modified Gram-Schmidt.
            let hcol = lsq.column(k);
            for (i, hik) in hcol[..=k].iter_mut().enumerate() {
                *hik = ops::dot(w, vs.col(i));
                ops::axpy(-*hik, vs.col(i), w);
            }
            let wnorm = ops::norm2(w);
            hcol[k + 1] = wnorm;

            // A NaN/Inf inner product or norm poisons the Hessenberg column:
            // it is discarded and the finite columns form the best solution.
            let Some(res_est) = lsq.rotate(k) else {
                stop = Some(Stop::NonFinite);
                break;
            };
            k += 1;
            if cfg.record_history {
                report.residual_history.push(res_est);
            }
            stop = if wnorm == 0.0 {
                // Breakdown, happy or serious: the true residual says which.
                Some(Stop::ZeroNorm)
            } else if res_est <= target {
                Some(Stop::Target)
            } else if res_est > DIVERGENCE_GUARD * r0_norm {
                Some(Stop::Diverged)
            } else if stalled(&mut stall, res_est, cfg.stall_window) {
                Some(Stop::Stalled)
            } else {
                None
            };
            if stop.is_some() {
                break;
            }
            if k < restart {
                ops::scale(1.0 / wnorm, v.col_mut(k));
            }
        }

        // The cycle is over: stopped, restart length reached or budget spent.
        update_solution(&mut v, &mut zdirs, lsq.solve(k), x, flexible, |u, z| {
            m.apply(u, z)
        });
        report.iterations = total_iters;
        if fixed_effort && stop.is_none() {
            // The budget is spent and nobody reads the rest of the report.
            return report;
        }
        // The true residual, to report honestly: a cycle that stopped on an
        // estimate is given 1 % of slack against it.
        beta = residual(x, &mut r);
        report.final_relres = beta / r0_norm;
        let bar = if stop.is_some() {
            target * 1.01
        } else {
            target
        };
        report.converged = stop != Some(Stop::Diverged) && beta <= bar;
        if report.converged {
            return report;
        }
        let breakdown = match stop {
            // Target: the true residual disagrees (rare) — restart from `x`.
            None | Some(Stop::Target) => None,
            // Serious breakdown: the Krylov space is invariant yet the true
            // residual misses the target — a restart would rebuild the same
            // exhausted space. Say so instead of claiming convergence.
            Some(Stop::ZeroNorm) => Some(BreakdownKind::ZeroNormalization),
            Some(Stop::NonFinite) => Some(BreakdownKind::NonFinite),
            Some(Stop::Diverged) => Some(BreakdownKind::Divergence),
            Some(Stop::Stalled) => {
                parapre_metrics::count(names::GMRES_STALL_CUT, 1);
                Some(BreakdownKind::Stagnation)
            }
        };
        if let Some(kind) = breakdown {
            report.breakdown = Some(SolveBreakdown {
                kind,
                iteration: total_iters,
                relres: report.final_relres,
            });
            return report;
        }
        if total_iters >= cfg.max_iters {
            return report;
        }
    }
}

/// Records `res_est` and says whether it fails to improve by [`STALL_RTOL`]
/// on the estimate `window` iterations back (`window = 0`: never).
fn stalled(estimates: &mut Vec<f64>, res_est: f64, window: usize) -> bool {
    if window == 0 {
        return false;
    }
    estimates.push(res_est);
    estimates.len() > window
        && res_est > estimates[estimates.len() - 1 - window] * (1.0 - STALL_RTOL)
}

/// Adds to `x` the correction of a cycle with coefficients `y`, for the
/// sequential and the distributed driver alike: `x += Z y` over the stored
/// preconditioned directions when `flexible`, else `x += M⁻¹ (V y)` through
/// `precond` (`z = M⁻¹ u`). The column of `v` after the last one used and
/// column 0 of `zdirs` are scratch for the second form.
pub fn update_solution(
    v: &mut Panel,
    zdirs: &mut Panel,
    y: &[f64],
    x: &mut [f64],
    flexible: bool,
    precond: impl FnOnce(&[f64], &mut [f64]),
) {
    if y.is_empty() {
        return;
    }
    if flexible {
        for (j, &yj) in y.iter().enumerate() {
            ops::axpy(yj, zdirs.col(j), x);
        }
    } else {
        let (vs, u) = v.split(y.len());
        u.fill(0.0);
        for (j, &yj) in y.iter().enumerate() {
            ops::axpy(yj, vs.col(j), u);
        }
        precond(u, zdirs.col_mut(0));
        ops::axpy(1.0, zdirs.col(0), x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::{Ilu0, Ilut, IlutConfig};
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

    fn check_solution(a: &Csr, b: &[f64], x: &[f64], tol: f64) {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let r: f64 = b
            .iter()
            .zip(&ax)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(r <= tol * bn.max(1e-30), "residual {r} vs {} * {bn}", tol);
    }

    #[test]
    fn gmres_unpreconditioned_laplacian() {
        let a = laplacian_2d(8);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig {
            max_iters: 300,
            ..Default::default()
        })
        .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(rep.converged, "relres {}", rep.final_relres);
        check_solution(&a, &b, &x, 1e-5);
    }

    #[test]
    fn gmres_ilu0_converges_much_faster() {
        let a = laplacian_2d(16);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let cfg = GmresConfig {
            max_iters: 400,
            ..Default::default()
        };

        let mut x0 = vec![0.0; n];
        let plain = Gmres::new(cfg).solve(&a, &IdentityPrecond::new(n), &b, &mut x0);

        let f = Ilu0::factor(&a).unwrap();
        let mut x1 = vec![0.0; n];
        let prec = Gmres::new(cfg).solve(&a, &f, &b, &mut x1);

        assert!(plain.converged && prec.converged);
        assert!(
            prec.iterations * 2 < plain.iterations,
            "ilu0 {} vs plain {}",
            prec.iterations,
            plain.iterations
        );
        check_solution(&a, &b, &x1, 1e-5);
    }

    #[test]
    fn gmres_nonzero_initial_guess() {
        let a = laplacian_2d(6);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.mul_vec(&x_true);
        let mut x: Vec<f64> = (0..n).map(|i| 0.5 - (i % 3) as f64).collect();
        let rep = Gmres::new(Default::default()).solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(rep.converged);
        check_solution(&a, &b, &x, 1e-5);
    }

    #[test]
    fn gmres_exact_solution_start_returns_immediately() {
        let a = laplacian_2d(5);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true);
        let mut x = x_true.clone();
        let rep = Gmres::new(Default::default()).solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
    }

    #[test]
    fn gmres_zero_rhs_gives_zero() {
        let a = laplacian_2d(5);
        let n = a.n_rows();
        let b = vec![0.0; n];
        let mut x = vec![1.0; n];
        let rep = Gmres::new(GmresConfig {
            abs_tol: 1e-14,
            ..Default::default()
        })
        .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(rep.converged);
        let xn: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(xn < 1e-8, "‖x‖ = {xn}");
    }

    #[test]
    fn gmres_respects_max_iters() {
        let a = laplacian_2d(20);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig {
            max_iters: 3,
            rel_tol: 1e-14,
            ..Default::default()
        })
        .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
    }

    #[test]
    fn gmres_restarts_still_converge() {
        let a = laplacian_2d(12);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig {
            restart: 5,
            max_iters: 2000,
            ..Default::default()
        })
        .solve(
            &a,
            &JacobiPrecond::from_diagonal(&a.diagonal().unwrap()),
            &b,
            &mut x,
        );
        assert!(rep.converged, "relres {}", rep.final_relres);
        check_solution(&a, &b, &x, 1e-5);
    }

    #[test]
    fn fgmres_with_variable_preconditioner() {
        // Inner GMRES as preconditioner: the classic FGMRES use case.
        struct InnerSolve<'a> {
            a: &'a Csr,
            f: crate::ilu::LuFactors,
        }
        impl crate::precond::Preconditioner for InnerSolve<'_> {
            fn dim(&self) -> usize {
                self.a.n_rows()
            }
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                Gmres::fixed_effort(self.a, &self.f, 4, r, z);
            }
        }
        let a = laplacian_2d(14);
        let n = a.n_rows();
        let f = Ilut::factor(&a, &IlutConfig::default()).unwrap();
        let m = InnerSolve { a: &a, f };
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = vec![0.0; n];
        let rep = FGmres::new(GmresConfig {
            max_iters: 100,
            ..Default::default()
        })
        .solve(&a, &m, &b, &mut x);
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert!(rep.iterations < 30, "iterations {}", rep.iterations);
        check_solution(&a, &b, &x, 1e-5);
    }

    #[test]
    fn fgmres_matches_gmres_for_fixed_preconditioner() {
        let a = laplacian_2d(10);
        let n = a.n_rows();
        let f = Ilu0::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let cfg = GmresConfig {
            max_iters: 200,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = Gmres::new(cfg).solve(&a, &f, &b, &mut x1);
        let mut x2 = vec![0.0; n];
        let r2 = FGmres::new(cfg).solve(&a, &f, &b, &mut x2);
        assert!(r1.converged && r2.converged);
        assert_eq!(r1.iterations, r2.iterations);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn residual_history_is_monotone_within_cycle() {
        let a = laplacian_2d(10);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let rep = Gmres::new(GmresConfig {
            record_history: true,
            max_iters: 200,
            ..Default::default()
        })
        .solve(&a, &IdentityPrecond::new(n), &b, &mut x);
        assert!(rep.converged);
        // GMRES residual estimates never increase.
        for w in rep.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "{} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn gmres_unsymmetric_system() {
        // Upwinded convection-diffusion-like band matrix.
        let n = 100;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0);
            if i > 0 {
                coo.push(i, i - 1, -2.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -0.5);
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let f = Ilut::factor(&a, &IlutConfig::default()).unwrap();
        let rep = Gmres::new(Default::default()).solve(&a, &f, &b, &mut x);
        assert!(rep.converged);
        check_solution(&a, &b, &x, 1e-5);
    }
}

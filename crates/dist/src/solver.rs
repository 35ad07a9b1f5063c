//! Distributed right-preconditioned (F)GMRES with restart.
//!
//! The least-squares recurrence ([`GivensLsq`]), the cycle update
//! ([`update_solution`]) and the report ([`SolveReport`]) are
//! `parapre-krylov`'s, the same objects the sequential driver uses; here
//! every inner product and norm is a distributed reduction and the operator
//! and preconditioner act on the rank's owned unknowns (communicating
//! internally as needed). Control flow is SPMD-deterministic: every rank
//! takes the same branches because all stopping decisions are made on
//! all-reduced quantities. That is also why this driver keeps its own
//! policies: it orthogonalizes with one fused reduction per pass (CGS2) and
//! judges divergence and stagnation on the true residual at a cycle
//! boundary, where a collective decision costs nothing extra, while the
//! sequential driver (modified Gram–Schmidt, per-iteration window) is tuned
//! for few-step inner solves.

use crate::{tags, CheckpointCtx, DistMatrix};
use parapre_krylov::gmres::{update_solution, DIVERGENCE_GUARD, STALL_RTOL};
use parapre_krylov::lsq::GivensLsq;
use parapre_krylov::proj::{Basis, Panel};
use parapre_krylov::{BreakdownKind, SolveBreakdown, SolveReport};
use parapre_metrics::{names, ConvKind};
use parapre_mpisim::Comm;
use parapre_sparse::{ops, Csr, Error, Result};
use std::cell::RefCell;
use std::collections::VecDeque;

/// A distributed linear operator on owned-unknown vectors.
pub trait DistOp {
    /// Length of this rank's owned part.
    fn n_owned(&self) -> usize;
    /// `y = A x` (may communicate).
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]);
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
            "this preconditioner has no numeric-only refactorization",
        ))
    }
}

impl<T: DistPrecond + ?Sized> DistPrecond for Box<T> {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        (**self).apply(comm, r, z)
    }
    fn refactor(&self, dm: &DistMatrix, a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        (**self).refactor(dm, a_global)
    }
}

impl<T: DistPrecond + ?Sized> DistPrecond for &T {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        (**self).apply(comm, r, z)
    }
    fn refactor(&self, dm: &DistMatrix, a_global: &Csr) -> Result<Box<dyn DistPrecond>> {
        (**self).refactor(dm, a_global)
    }
}

impl<T: DistPrecond + ?Sized> DistPrecond for std::sync::Arc<T> {
    fn apply(&self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        (**self).apply(comm, r, z)
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

impl<T: DistOp + ?Sized> DistOp for std::sync::Arc<T> {
    fn n_owned(&self) -> usize {
        (**self).n_owned()
    }
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        (**self).apply(comm, x, y)
    }
}

impl DistOp for DistMatrix {
    fn n_owned(&self) -> usize {
        self.layout.n_owned()
    }
    fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        thread_local! {
            static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|s| {
            let mut ext = s.borrow_mut();
            ext.resize(self.layout.n_local(), 0.0);
            ext[..x.len()].copy_from_slice(x);
            self.matvec(comm, &mut ext, y);
        });
    }
}

/// Arnoldi orthogonalization strategy — the latency/reproducibility knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrthMethod {
    /// Classical Gram–Schmidt with all `k+1` projection coefficients and
    /// the norm batched into **one** fused vector allreduce per iteration,
    /// plus DGKS selective reorthogonalization (a second fused reduce only
    /// when cancellation is detected). Default: on `P` ranks this replaces
    /// `k+2` latency-bound scalar reductions per iteration with one (or
    /// two). Iteration counts can differ by a step or two from
    /// [`OrthMethod::Modified`] because the projection is computed against
    /// the un-updated `w`.
    #[default]
    ClassicalBatched,
    /// Modified Gram–Schmidt: one scalar allreduce per basis vector per
    /// iteration (`k+2` total). Bitwise-reproduces the sequential
    /// reference algorithm — use when exact iteration parity matters more
    /// than latency.
    Modified,
}

/// Stopping and restart parameters (paper: FGMRES(20), `‖r‖/‖r₀‖ ≤ 1e-6`).
#[derive(Debug, Clone, Copy)]
pub struct DistGmresConfig {
    /// Restart length.
    pub restart: usize,
    /// Total iteration budget.
    pub max_iters: usize,
    /// Relative residual target.
    pub rel_tol: f64,
    /// Absolute residual floor.
    pub abs_tol: f64,
    /// Record residual history (rank-identical).
    pub record_history: bool,
    /// Arnoldi orthogonalization strategy.
    pub orth: OrthMethod,
    /// Stagnation window in *restart cycles*: when the true residual at a
    /// cycle boundary fails to improve by `STALL_RTOL` over this many
    /// cycles, the solve stops with a typed
    /// [`BreakdownKind::Stagnation`] instead of burning the rest of the
    /// iteration budget. `0` disables the guard. The decision is made on
    /// the allreduced residual, so every rank stops identically.
    pub stall_window: usize,
}

impl Default for DistGmresConfig {
    fn default() -> Self {
        DistGmresConfig {
            restart: 20,
            max_iters: 1000,
            rel_tol: 1e-6,
            abs_tol: 1e-300,
            record_history: false,
            orth: OrthMethod::default(),
            stall_window: 4,
        }
    }
}

/// Which public entry is driving the Arnoldi cycle.
enum Entry<'a> {
    /// [`DistGmres::solve_with_checkpoint`]: flexible, traced, reported.
    Solve(Option<CheckpointCtx<'a>>),
    /// [`DistGmres::fixed_effort`].
    FixedEffort,
}

/// The distributed restarted (F)GMRES driver.
#[derive(Debug, Clone)]
pub struct DistGmres {
    /// Solver parameters.
    pub config: DistGmresConfig,
}

impl DistGmres {
    /// Creates a solver.
    pub fn new(config: DistGmresConfig) -> Self {
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
        self.solve_with_checkpoint(comm, a, m, b, x, None)
    }

    /// [`DistGmres::solve`] with optional restart-cycle checkpointing.
    ///
    /// When `ckpt` is set, the owned iterate is handed to the store at every
    /// restart-cycle boundary, and `start_iters`/`start_cycle` shift the
    /// budget and cycle numbering for a solve resumed from a snapshot. A
    /// resumed solve converges to `rel_tol` relative to its *resume-point*
    /// residual — never looser than the original target, since the
    /// checkpointed residual is at most the initial one.
    pub fn solve_with_checkpoint<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
        ckpt: Option<CheckpointCtx<'_>>,
    ) -> SolveReport {
        self.run(comm, a, m, b, x, Entry::Solve(ckpt))
    }

    /// Fixed-effort inner solve: `k` right-preconditioned GMRES steps on
    /// `A z = g` from `z = 0` with a **fixed** preconditioner, untraced and
    /// unreported; `z` is output only. Bit for bit what [`DistGmres::solve`]
    /// gives a fixed preconditioner from a zeroed guess under
    /// `restart = max_iters = k`, `rel_tol = 1e-12`, `stall_window = 0`,
    /// minus the two operator products only the report reads: the opening
    /// residual is `g` itself (`g − A·0`, for a finite operator), and a
    /// cycle that spent its budget returns without the closing true
    /// residual. A cycle that ended early (estimate under `1e-12·‖g‖`, zero
    /// normalization, non-finite column) takes the general path. The budget
    /// is `k` alone: a second cycle cannot be asked for. The zero guess is
    /// stated by the choice of entry, never found by scanning `z` — a
    /// rank-local test could send one rank past an exchange its neighbours
    /// are waiting in.
    pub fn fixed_effort<A: DistOp, M: DistPrecond>(
        comm: &mut Comm,
        a: &A,
        m: &M,
        k: usize,
        g: &[f64],
        z: &mut [f64],
    ) {
        z.fill(0.0);
        let solver = DistGmres::new(DistGmresConfig {
            restart: k.max(1),
            max_iters: k.max(1),
            rel_tol: 1e-12,
            stall_window: 0,
            ..Default::default()
        });
        solver.run(comm, a, m, g, z, Entry::FixedEffort);
    }

    /// The one Arnoldi driver behind both entries.
    fn run<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        b: &[f64],
        x: &mut [f64],
        entry: Entry<'_>,
    ) -> SolveReport {
        let (ckpt, fixed) = match entry {
            Entry::Solve(ckpt) => (ckpt, false),
            Entry::FixedEffort => (None, true),
        };
        let n = a.n_owned();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let cfg = &self.config;
        // A cycle cannot outrun the iteration budget, and its basis is
        // allocated whole.
        let restart = cfg.restart.clamp(1, cfg.max_iters.max(1));
        let _solve_span = parapre_metrics::span(if fixed {
            names::INNER_SOLVE
        } else {
            names::SOLVE
        });
        // Rank 0 of an outer solve speaks for the run in the live ring;
        // inner solves are silent.
        let speaks = !fixed && comm.rank() == 0;
        let converging = |iter: usize, relres: f64, kind: ConvKind, detail: &str| {
            parapre_metrics::convergence("dist", speaks, iter, relres, kind, detail);
        };

        let mut report = SolveReport {
            iterations: ckpt.map_or(0, |c| c.start_iters),
            ..Default::default()
        };

        let dot = |comm: &mut Comm, u: &[f64], v: &[f64]| -> f64 {
            comm.allreduce_sum(ops::dot(u, v), tags::REDUCE)
        };
        // `r = b − A x`, and its norm.
        let residual = |comm: &mut Comm, x: &[f64], r: &mut [f64]| {
            a.apply(comm, x, r);
            for (ri, &bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            dot(comm, r, r).sqrt()
        };

        let mut r = vec![0.0; n];
        let r0_norm = if fixed {
            r.copy_from_slice(b);
            dot(comm, &r, &r).sqrt()
        } else {
            residual(comm, x, &mut r)
        };
        if cfg.record_history {
            report.residual_history.push(r0_norm);
        }
        if !r0_norm.is_finite() {
            let kind = BreakdownKind::NonFinite;
            converging(report.iterations, f64::NAN, kind.conv_kind(), kind.key());
            report.breakdown = Some(SolveBreakdown {
                kind,
                iteration: report.iterations,
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
        // The true residuals of the last `stall_window + 1` cycle boundaries
        // (there are at most `max_iters / restart + 1` of them).
        let mut cycle_betas: VecDeque<f64> =
            VecDeque::with_capacity(cfg.stall_window.min(cfg.max_iters / restart) + 1);

        // Everything a cycle writes is allocated here, once per solve. The
        // Krylov basis has one column more than the restart length: the
        // vector being orthogonalized is the column after the basis so far.
        // The flexible solve keeps every preconditioned direction, the
        // fixed-preconditioner one only the latest.
        let mut v = Panel::zeros(n, restart + 1);
        let mut zdirs = Panel::zeros(n, if fixed { 1 } else { restart });
        let mut lsq = GivensLsq::new(restart);
        let mut batch = vec![0.0; restart + 1];
        let mut total_iters = ckpt.map_or(0, |c| c.start_iters);
        let mut cycle = ckpt.map_or(0, |c| c.start_cycle);
        let mut beta = r0_norm;

        loop {
            lsq.start(beta);
            for (vi, &ri) in v.col_mut(0).iter_mut().zip(&r) {
                *vi = ri / beta;
            }

            let mut k = 0usize;
            let mut cycle_done = false;
            let mut zero_norm = false;
            let mut nonfinite = false;
            while k < restart && total_iters < cfg.max_iters && !cycle_done {
                let zk = if fixed { 0 } else { k };
                {
                    let _s = parapre_metrics::span(names::PRECOND_APPLY);
                    m.apply(comm, v.col(k), zdirs.col_mut(zk));
                }
                let (vs, w) = v.split(k + 1);
                a.apply(comm, zdirs.col(zk), w);
                total_iters += 1;

                let orth = parapre_metrics::span(names::ORTH);
                let hcol = lsq.column(k);
                let wnorm = match cfg.orth {
                    OrthMethod::Modified => {
                        for (i, hik) in hcol[..=k].iter_mut().enumerate() {
                            let vi = vs.col(i);
                            *hik = dot(comm, w, vi);
                            for (wj, &vj) in w.iter_mut().zip(vi) {
                                *wj -= *hik * vj;
                            }
                        }
                        let wnorm = dot(comm, w, w).sqrt();
                        for wj in w.iter_mut() {
                            *wj /= wnorm;
                        }
                        wnorm
                    }
                    OrthMethod::ClassicalBatched => {
                        orthogonalize_batched(comm, vs, w, hcol, &mut batch[..k + 2])
                    }
                };
                drop(orth);
                hcol[k + 1] = wnorm;
                // All entries of `hcol` come from allreduced sums, so the
                // non-finite decision is identical on every rank. Discard
                // the poisoned column and finish the cycle with the finite
                // prefix.
                let Some(res_est) = lsq.rotate(k) else {
                    nonfinite = true;
                    cycle_done = true;
                    break;
                };
                k += 1;
                if cfg.record_history {
                    report.residual_history.push(res_est);
                }
                if !fixed {
                    converging(total_iters, res_est / r0_norm, ConvKind::Iter, "");
                }
                // Column `k` now holds `w / wnorm`, the next basis vector; a
                // cycle that ends here never reads it.
                if res_est <= target || wnorm == 0.0 {
                    zero_norm = wnorm == 0.0;
                    cycle_done = true;
                }
            }

            // Form the update from this cycle.
            update_solution(&mut v, &mut zdirs, lsq.solve(k), x, !fixed, |u, z| {
                let _s = parapre_metrics::span(names::PRECOND_APPLY);
                m.apply(comm, u, z);
            });

            // The budget is spent and nobody reads the report.
            if fixed && !cycle_done {
                return report;
            }

            // True residual and the shared stopping decision.
            beta = residual(comm, x, &mut r);
            report.iterations = total_iters;
            report.final_relres = beta / r0_norm;
            if let Some(ck) = ckpt {
                cycle += 1;
                ck.store.save(comm.rank(), cycle, total_iters, x);
                parapre_metrics::count(names::CKPT_SAVED, 1);
            }
            if beta <= target {
                report.converged = true;
                converging(total_iters, report.final_relres, ConvKind::Converged, "");
                return report;
            }
            let breakdown_kind = if !beta.is_finite() || nonfinite {
                Some(BreakdownKind::NonFinite)
            } else if zero_norm {
                // Serious breakdown: the basis collapsed but the true
                // residual still misses the target — restarting would
                // rebuild the same invariant subspace.
                Some(BreakdownKind::ZeroNormalization)
            } else if beta > DIVERGENCE_GUARD * r0_norm {
                Some(BreakdownKind::Divergence)
            } else if cfg.stall_window > 0 {
                if cycle_betas.len() > cfg.stall_window {
                    cycle_betas.pop_front();
                }
                cycle_betas.push_back(beta);
                (cycle_betas.len() > cfg.stall_window && beta > cycle_betas[0] * (1.0 - STALL_RTOL))
                    .then_some(BreakdownKind::Stagnation)
            } else {
                None
            };
            if let Some(kind) = breakdown_kind {
                converging(
                    total_iters,
                    report.final_relres,
                    kind.conv_kind(),
                    kind.key(),
                );
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
}

/// Classical Gram–Schmidt step with one fused allreduce: batches the
/// projections `w·v_0 … w·v_k` and the squared norm `w·w` into a single
/// length-`k+2` vector reduction, then applies DGKS selective
/// reorthogonalization (one more fused reduce) when the Pythagorean
/// estimate `‖w'‖² ≈ w·w − Σhᵢ²` reveals severe cancellation.
///
/// Writes the projection coefficients into `hcol[..k+1]`, leaves in `w` the
/// orthogonalized vector **divided by its norm** — the next basis vector —
/// and returns that norm `‖w'‖` (estimate; relative error `O(ε)` once the
/// cancellation guard has passed — any remaining error only perturbs the
/// Krylov basis scaling, not the residual recurrence's correctness).
/// `batch` is scratch for the `k+2` reduced sums.
fn orthogonalize_batched(
    comm: &mut Comm,
    vs: Basis<'_>,
    w: &mut [f64],
    hcol: &mut [f64],
    batch: &mut [f64],
) -> f64 {
    let k1 = vs.len();
    debug_assert!(hcol.len() > k1);
    vs.dots(w, batch);
    comm.allreduce_sum_vec(batch, tags::REDUCE);
    parapre_metrics::count(names::GMRES_FUSED_ALLREDUCE, 1);
    let ww = batch[k1];
    hcol[..k1].copy_from_slice(&batch[..k1]);
    let proj_sq: f64 = batch[..k1].iter().map(|h| h * h).sum();
    let mut est = (ww - proj_sq).max(0.0);
    // DGKS criterion (η² = 1/2): when more than half the mass of `w` was
    // removed by the projection, the Pythagorean estimate is untrustworthy
    // and the coefficients have cancelled — orthogonalize once more. With a
    // good preconditioner `A M⁻¹ v ≈ v`, so this is the usual case, and the
    // first subtraction shares its sweep over `w` with the second pass's
    // inner products.
    if est <= 0.5 * ww {
        parapre_metrics::count(names::GMRES_REORTH, 1);
        vs.sub_then_dots(&hcol[..k1], w, batch);
        comm.allreduce_sum_vec(batch, tags::REDUCE);
        parapre_metrics::count(names::GMRES_FUSED_ALLREDUCE, 1);
        let w1w1 = batch[k1];
        let mut corr_sq = 0.0;
        for (h, &ci) in hcol[..k1].iter_mut().zip(&batch[..k1]) {
            *h += ci;
            corr_sq += ci * ci;
        }
        est = (w1w1 - corr_sq).max(0.0);
    }
    let wnorm = est.sqrt();
    vs.sub_div(&batch[..k1], wnorm, w);
    wnorm
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
            let rep = DistGmres::new(DistGmresConfig {
                max_iters: 500,
                rel_tol: 1e-10,
                ..Default::default()
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
            let rep = DistGmres::new(DistGmresConfig {
                max_iters: 300,
                orth: OrthMethod::Modified,
                ..Default::default()
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
                let rep = DistGmres::new(DistGmresConfig {
                    max_iters: 300,
                    orth,
                    ..Default::default()
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
                let rep = DistGmres::new(DistGmresConfig {
                    max_iters: 60,
                    orth,
                    ..Default::default()
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
            let rep = DistGmres::new(DistGmresConfig {
                record_history: true,
                ..Default::default()
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
            let rep = DistGmres::new(Default::default()).solve(
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

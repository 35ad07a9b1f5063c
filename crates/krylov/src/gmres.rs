//! Restarted GMRES and flexible GMRES (FGMRES), right-preconditioned: one
//! Arnoldi driver for every entry, inside one rank and across ranks.
//!
//! The paper uses one algorithm at two scales: FGMRES(20) is the outer
//! accelerator, and a few GMRES steps are the subdomain and Schur solves
//! (paper §4.3–4.4). Implementation follows Saad, *Iterative Methods for
//! Sparse Linear Systems*, Algorithms 6.9 (GMRES) and 9.5 (FGMRES): Arnoldi
//! with Givens-rotation QR of the Hessenberg matrix ([`GivensLsq`]), so the
//! residual norm is known after every iteration without forming the solution.
//!
//! [`arnoldi`] is the driver, generic over a [`Context`]: how the inner
//! products are summed and how the operator and the preconditioner are
//! applied. Inside one rank the sums are the local ones; across ranks
//! (`parapre_dist::solver`) they are all-reductions. The entries — [`Gmres`],
//! [`FGmres`], [`Gmres::fixed_effort`] and `parapre_dist::DistGmres` — differ
//! only in data: the context, whether the preconditioner may vary
//! (`flexible`), and whether the solve is a fixed-effort inner solve. One
//! [`GmresConfig`] configures them all, the [`OrthMethod`] included.
//!
//! There is one stopping policy. A cycle ends on its last column, on a spent
//! budget, on an estimate at or under the target, on a zero normalization or
//! on a non-finite Hessenberg column. Then the true residual `β` decides: the
//! solve has converged only at `β ≤ target`; divergence and stagnation are
//! judged on `β`, at the cycle boundary; otherwise the next cycle starts from
//! the updated iterate. Every decision is taken on summed quantities, so
//! every rank of a distributed solve takes the same branches.

use crate::lsq::GivensLsq;
use crate::op::LinOp;
use crate::precond::Preconditioner;
use crate::proj::{Basis, Panel};
use crate::{BreakdownKind, SolveBreakdown, SolveReport};
use parapre_metrics::{names, ConvKind};
use parapre_sparse::ops;
use std::collections::VecDeque;

/// True-residual blow-up factor over `‖r₀‖`, at a cycle boundary, past which
/// the solve is declared divergent rather than allowed to burn its budget.
pub const DIVERGENCE_GUARD: f64 = 1e8;

/// Minimum relative improvement the stagnation window must observe:
/// `β < (1 − STALL_RTOL) · β_window_cycles_ago`, else the solve is stalled.
pub const STALL_RTOL: f64 = 1e-3;

/// Stopping, restart and orthogonalization parameters of every entry of the
/// one driver. [`GmresConfig::default`] is the sequential entries' setting,
/// [`GmresConfig::distributed`] the distributed entries'.
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
    /// Stagnation window in *restart cycles*: when the true residual at a
    /// cycle boundary fails to improve by [`STALL_RTOL`] over this many
    /// cycles, the solve stops with a typed [`BreakdownKind::Stagnation`]
    /// instead of burning the rest of the budget. `0` disables the guard.
    pub stall_window: usize,
    /// Arnoldi orthogonalization strategy.
    pub orth: OrthMethod,
}

impl Default for GmresConfig {
    /// The sequential setting: modified Gram–Schmidt, 500 iterations, no
    /// stagnation window.
    fn default() -> Self {
        GmresConfig {
            restart: 20,
            max_iters: 500,
            rel_tol: 1e-6,
            abs_tol: 1e-300,
            record_history: false,
            stall_window: 0,
            orth: OrthMethod::Modified,
        }
    }
}

impl GmresConfig {
    /// The distributed setting (paper: FGMRES(20), `‖r‖/‖r₀‖ ≤ 1e-6`): one
    /// fused all-reduce per step, 1000 iterations, and a four-cycle
    /// stagnation window judged on the all-reduced residual.
    pub fn distributed() -> Self {
        GmresConfig {
            max_iters: 1000,
            stall_window: 4,
            orth: OrthMethod::ClassicalBatched,
            ..GmresConfig::default()
        }
    }
}

/// Arnoldi orthogonalization strategy — the latency/reproducibility knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrthMethod {
    /// Classical Gram–Schmidt with delayed re-orthogonalization (DCGS2,
    /// Świrydowicz et al., NLA 2021): **one** fused sum per iteration
    /// carries the previous vector's second-pass inner products and norm
    /// together with the new vector's projections, and two passes over the
    /// basis finish the one and project the other. The distributed setting:
    /// on `P` ranks this replaces `k+2` latency-bound scalar reductions per
    /// iteration with one. Each Hessenberg column is complete one step
    /// late; the last step of a cycle, and a step whose estimate says the
    /// target is met, complete theirs with one more sum. Iteration counts
    /// can differ by a step or two from [`OrthMethod::Modified`].
    ClassicalBatched,
    /// Modified Gram–Schmidt: one scalar sum per basis vector per iteration
    /// (`k+2` total), subtraction by `ops::axpy` and normalization by
    /// `ops::scale(1/‖·‖)`. The sequential entries run it, and so does a
    /// distributed solve that asks for it: at `P = 1` the two are bit for
    /// bit one solve.
    Modified,
}

/// Where the vectors of one solve live: how the driver sums an inner product
/// over their parts, and how it applies the operator and the preconditioner
/// to them. Every part of a solve makes the same calls in the same order, so
/// a context may communicate inside any of them.
pub trait Context {
    /// The source this context's solves report convergence events under.
    const SOURCE: &'static str;
    /// Whether this part speaks for the solve in the convergence ring (one
    /// part of an outer solve does; inner fixed-effort solves never speak).
    fn speaks(&self) -> bool;
    /// Sums every entry of `xs` over the parts, element-wise.
    fn sum(&mut self, xs: &mut [f64]);
    /// `ys[c] = A xs[c]` for every column.
    fn product(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]);
    /// `zs[c] = M⁻¹ rs[c]` for every column.
    fn precond(&mut self, rs: &[&[f64]], zs: &mut [&mut [f64]]);
    /// Sees the finished orthonormal basis of a cycle, before its
    /// correction. The default ignores it.
    fn cycle_basis(&mut self, basis: Basis<'_>) {
        let _ = basis;
    }
}

/// A solve inside one rank: the sums are the local ones, and the operator
/// and preconditioner are applied column by column.
struct Local<'a, A, M> {
    a: &'a A,
    m: &'a M,
}

impl<'a, A: LinOp, M: Preconditioner> Local<'a, A, M> {
    fn new(a: &'a A, m: &'a M, n: usize) -> Self {
        assert_eq!(a.dim(), n, "gmres: operator dim");
        assert_eq!(m.dim(), n, "gmres: preconditioner dim");
        Local { a, m }
    }
}

impl<A: LinOp, M: Preconditioner> Context for Local<'_, A, M> {
    const SOURCE: &'static str = "gmres";
    /// A sequential solve has no peers: it speaks for itself.
    fn speaks(&self) -> bool {
        true
    }
    fn sum(&mut self, _xs: &mut [f64]) {}
    fn product(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.a.apply(x, y);
        }
    }
    fn precond(&mut self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            self.m.apply(r, z);
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
        solve_local(a, m, &self.config, false, b, x)
    }

    /// [`fixed_effort`] inside one rank, with modified Gram–Schmidt.
    pub fn fixed_effort<A: LinOp, M: Preconditioner>(
        a: &A,
        m: &M,
        k: usize,
        b: &[f64],
        x: &mut [f64],
    ) {
        let ctx = &mut Local::new(a, m, b.len());
        fixed_effort(ctx, OrthMethod::Modified, k, b, x);
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
        solve_local(a, m, &self.config, true, b, x)
    }
}

/// [`arnoldi`] on one right-hand side inside one rank: the sequential solve.
fn solve_local<A: LinOp, M: Preconditioner>(
    a: &A,
    m: &M,
    cfg: &GmresConfig,
    flexible: bool,
    b: &[f64],
    x: &mut [f64],
) -> SolveReport {
    let ctx = &mut Local::new(a, m, b.len());
    let mut reps = arnoldi(ctx, cfg, flexible, &[b], &mut [x]);
    reps.pop().expect("one report per column")
}

/// Fixed-effort inner solve in `ctx`: `k` right-preconditioned GMRES steps
/// on `A z = g` from `z = 0` with a **fixed** preconditioner, unreported and
/// silent (its spans open under `inner_solve`); `z` is output only. Bit for
/// bit what [`arnoldi`] gives a fixed preconditioner from a zeroed guess
/// under `restart = max_iters = k`, `rel_tol = 1e-12`, `stall_window = 0`,
/// minus the two operator products only the report reads: the opening
/// residual is `g` itself (`g − A·0`, for a finite operator), and a cycle
/// that spent its budget returns without the closing true residual. A cycle
/// that ended early (estimate under `1e-12·‖g‖`, zero normalization,
/// non-finite column) takes the general path. The budget is `k` alone: a
/// second cycle cannot be asked for. The zero guess is stated by the choice
/// of entry, never found by scanning `z` — a rank-local test could send one
/// rank past an exchange its neighbours are waiting in.
pub fn fixed_effort<C: Context>(ctx: &mut C, orth: OrthMethod, k: usize, g: &[f64], z: &mut [f64]) {
    z.fill(0.0);
    let cfg = GmresConfig {
        restart: k.max(1),
        max_iters: k.max(1),
        rel_tol: 1e-12,
        orth,
        ..GmresConfig::default()
    };
    let run = Run::new(ctx, &cfg, false, true);
    run.columns(ctx, &[g], &mut [z]);
}

/// The one Arnoldi driver: solves `A x_c = b_c` for every column `c` in
/// **lock-step rounds**, each `x_c` updated in place (initial guess on
/// entry); one report per column, in order. `flexible` keeps every
/// preconditioned direction (`x += Z y`); otherwise only the latest is kept
/// and the update is `x += M⁻¹ (V y)`.
///
/// A round applies the preconditioner once to every column taking an
/// Arnoldi step ([`Context::precond`]), the operator once to those columns'
/// directions and to the iterates whose true residual is due
/// ([`Context::product`]), and sums every column's fused Gram–Schmidt sums or
/// residual norm in one [`Context::sum`], plus one more for the columns whose
/// last Hessenberg column is completed without a next step. Each column keeps its own basis, least-squares state,
/// restart position and stopping decision, all taken on summed values, and
/// each column's bits are those of its one-column solve (an all-reduce sums
/// element-wise in the scalar's tree order).
pub fn arnoldi<C: Context>(
    ctx: &mut C,
    cfg: &GmresConfig,
    flexible: bool,
    bs: &[&[f64]],
    xs: &mut [&mut [f64]],
) -> Vec<SolveReport> {
    let run = Run::new(ctx, cfg, flexible, false);
    run.columns(ctx, bs, xs)
}

/// Columns one lock-step solve carries; a wider request runs as several.
const LOCKSTEP_COLS: usize = 64;

/// Hands `f` the inputs and outputs of `pairs` as the two slices a block
/// apply takes, from the stack: a solve allocates nothing per round.
fn lend<'a>(
    pairs: impl Iterator<Item = (&'a [f64], &'a mut [f64])>,
    f: impl FnOnce(&[&[f64]], &mut [&mut [f64]]),
) {
    let mut ins: [&[f64]; LOCKSTEP_COLS] = [&[]; LOCKSTEP_COLS];
    let mut outs: [&mut [f64]; LOCKSTEP_COLS] = std::array::from_fn(|_| Default::default());
    let mut len = 0;
    for (i, o) in pairs {
        (ins[len], outs[len]) = (i, o);
        len += 1;
    }
    f(&ins[..len], &mut outs[..len]);
}

/// What every column of one solve shares: the configuration and the entry's
/// data.
struct Run<'a> {
    cfg: &'a GmresConfig,
    /// A cycle cannot outrun the iteration budget, and its basis is
    /// allocated whole.
    restart: usize,
    /// Whether the update reads a stored direction per step (`x += Z y`).
    /// The flexible solve must; so must a delayed one, whose steps apply
    /// the preconditioner to a vector the step after overwrites with its
    /// finished form. Otherwise only the latest direction is kept and the
    /// update is `x += M⁻¹ (V y)`.
    directions: bool,
    /// A fixed-effort inner solve: no opening product, no closing residual
    /// once the budget is spent, no report, no voice.
    fixed: bool,
    /// The context's event source, and whether this part speaks.
    source: &'static str,
    speaks: bool,
}

impl<'a> Run<'a> {
    fn new<C: Context>(ctx: &C, cfg: &'a GmresConfig, flexible: bool, fixed: bool) -> Self {
        Run {
            cfg,
            restart: cfg.restart.clamp(1, cfg.max_iters.max(1)),
            directions: flexible || cfg.orth == OrthMethod::ClassicalBatched,
            fixed,
            source: C::SOURCE,
            speaks: !fixed && ctx.speaks(),
        }
    }

    /// The direction slot of step `k`: every step's, or only the latest.
    fn zk(&self, k: usize) -> usize {
        if self.directions {
            k
        } else {
            0
        }
    }

    fn converging(&self, iter: usize, relres: f64, kind: ConvKind, detail: &str) {
        parapre_metrics::convergence(self.source, self.speaks, iter, relres, kind, detail);
    }

    /// Lock-step rounds over the columns until each has its report.
    fn columns<C: Context>(
        &self,
        ctx: &mut C,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
    ) -> Vec<SolveReport> {
        assert_eq!(bs.len(), xs.len());
        if bs.len() > LOCKSTEP_COLS {
            let groups = bs.chunks(LOCKSTEP_COLS).zip(xs.chunks_mut(LOCKSTEP_COLS));
            return groups.flat_map(|(b, x)| self.columns(ctx, b, x)).collect();
        }
        let fixed = self.fixed;
        let _solve_span = parapre_metrics::span(if fixed {
            names::INNER_SOLVE
        } else {
            names::SOLVE
        });
        let mut cols: Vec<Column<'_>> = bs
            .iter()
            .zip(xs.iter())
            .map(|(&b, x)| Column::new(b, x, self))
            .collect();
        // The fused sums of a round: the step's, and the completions.
        let (mut sums, mut again) = (Vec::new(), Vec::new());
        while cols.iter().any(|c| c.stage != Stage::Done) {
            let stepping = cols.iter().any(|c| c.stage == Stage::Step);
            // One preconditioner application over the stepping columns.
            if stepping {
                let _s = parapre_metrics::span(names::PRECOND_APPLY);
                let steps = cols.iter_mut().filter(|c| c.stage == Stage::Step);
                let steps = steps.map(|c| (c.v.col(c.step()), c.zdirs.col_mut(self.zk(c.step()))));
                lend(steps, |rs, zs| ctx.precond(rs, zs));
            }
            // One operator application: the stepping columns' directions,
            // and the iterates whose true residual is due (a fixed-effort
            // residual opens as `g` itself).
            let products = cols
                .iter_mut()
                .zip(xs.iter())
                .filter_map(|(c, x)| match c.stage {
                    Stage::Step => {
                        let j = c.step();
                        let (_, w) = c.v.split(j + 1);
                        Some((c.zdirs.col(self.zk(j)), w))
                    }
                    Stage::Open if fixed => None,
                    Stage::Open | Stage::Close => Some((&**x, &mut c.r[..])),
                    Stage::Done => None,
                });
            lend(products, |ins, outs| {
                if !ins.is_empty() {
                    ctx.product(ins, outs);
                }
            });
            for c in cols.iter_mut() {
                if c.stage == Stage::Close || (c.stage == Stage::Open && !fixed) {
                    for (ri, &bi) in c.r.iter_mut().zip(c.b) {
                        *ri = bi - *ri;
                    }
                }
            }
            let orth = stepping.then(|| parapre_metrics::span(names::ORTH));
            self.reduce(ctx, &mut cols, &mut sums, &mut again);
            drop(orth);
            for (c, x) in cols.iter_mut().zip(xs.iter_mut()) {
                match c.stage {
                    Stage::Open => c.open(self, ctx, x),
                    Stage::Step => c.next_step(self, ctx, x),
                    Stage::Close => c.close(self, ctx, x),
                    Stage::Done => {}
                }
            }
        }
        cols.into_iter().map(|c| c.report).collect()
    }
}

/// Where a column of the lock-step solve stands at the start of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Its opening residual norm is summed this round.
    Open,
    /// It takes an Arnoldi step this round.
    Step,
    /// The true residual closing its cycle is summed this round.
    Close,
    /// Its report is final.
    Done,
}

/// One right-hand side of a lock-step solve: everything the one-column
/// solve keeps, so that its arithmetic is that solve's.
struct Column<'b> {
    b: &'b [f64],
    stage: Stage,
    report: SolveReport,
    /// Residual of the cycle start, and its summed norm.
    r: Vec<f64>,
    beta: f64,
    r0_norm: f64,
    target: f64,
    /// The Krylov basis has one column more than the restart length: the
    /// vector being orthogonalized is the column after the basis so far.
    v: Panel,
    zdirs: Panel,
    lsq: GivensLsq,
    /// This column's share of a fused sum.
    sums: Vec<f64>,
    /// The norm each delayed step divided its direction by: step `j`'s
    /// Hessenberg column is that of `A M⁻¹ (v̂_j / rho[j])`.
    rho: Vec<f64>,
    /// The true residuals of the last `stall_window + 1` cycle boundaries
    /// (there are at most `max_iters / restart + 1` of them).
    cycle_betas: VecDeque<f64>,
    total_iters: usize,
    /// Complete Hessenberg columns in the cycle so far.
    k: usize,
    /// Column `k` has its projections and waits for the norm of the vector
    /// they left, which the next step's sum brings (delayed steps only).
    pending: bool,
    /// The pending column's completion rides this round's second sum.
    completing: bool,
    cycle_done: bool,
    zero_norm: bool,
    nonfinite: bool,
}

impl<'b> Column<'b> {
    /// Everything a cycle writes is allocated here, once per solve.
    fn new(b: &'b [f64], x: &[f64], run: &Run<'_>) -> Self {
        let (n, cfg, restart) = (b.len(), run.cfg, run.restart);
        assert_eq!(x.len(), n, "gmres: x length");
        Column {
            b,
            stage: Stage::Open,
            report: SolveReport::default(),
            r: if run.fixed { b.to_vec() } else { vec![0.0; n] },
            beta: 0.0,
            r0_norm: 0.0,
            target: 0.0,
            v: Panel::zeros(n, restart + 1),
            zdirs: Panel::zeros(n, if run.directions { restart } else { 1 }),
            lsq: GivensLsq::new(restart),
            sums: vec![0.0; 2 * restart + 1],
            rho: vec![1.0; restart],
            cycle_betas: VecDeque::with_capacity(cfg.stall_window.min(cfg.max_iters / restart) + 1),
            total_iters: 0,
            k: 0,
            pending: false,
            completing: false,
            cycle_done: false,
            zero_norm: false,
            nonfinite: false,
        }
    }

    /// Stops with a typed breakdown.
    fn break_down(&mut self, run: &Run<'_>, kind: BreakdownKind, iteration: usize, relres: f64) {
        run.converging(iteration, relres, kind.conv_kind(), kind.key());
        self.report.breakdown = Some(SolveBreakdown {
            kind,
            iteration,
            relres,
        });
        self.stage = Stage::Done;
    }

    /// The opening residual norm has been summed: done already, or the
    /// first cycle starts.
    fn open<C: Context>(&mut self, run: &Run<'_>, ctx: &mut C, x: &mut [f64]) {
        let (cfg, r0_norm) = (run.cfg, self.beta);
        if cfg.record_history {
            self.report.residual_history.push(r0_norm);
        }
        if !r0_norm.is_finite() {
            self.break_down(run, BreakdownKind::NonFinite, 0, f64::NAN);
        } else if r0_norm <= cfg.abs_tol {
            self.report.converged = true;
            self.report.final_relres = 0.0;
            self.stage = Stage::Done;
        } else {
            self.r0_norm = r0_norm;
            self.target = (cfg.rel_tol * r0_norm).max(cfg.abs_tol);
            self.start_cycle(run, ctx, x);
        }
    }

    /// Opens a cycle from `r` and its norm `beta`. Modified Gram–Schmidt
    /// normalizes `r` now; a delayed step finishes it with its first sum.
    fn start_cycle<C: Context>(&mut self, run: &Run<'_>, ctx: &mut C, x: &mut [f64]) {
        self.lsq.start(self.beta);
        let v0 = self.v.col_mut(0);
        v0.copy_from_slice(&self.r);
        if run.cfg.orth == OrthMethod::Modified {
            ops::scale(1.0 / self.beta, v0);
        }
        (self.k, self.pending) = (0, false);
        (self.cycle_done, self.zero_norm, self.nonfinite) = (false, false, false);
        self.next_step(run, ctx, x);
    }

    /// The index of the next step: the complete columns, and the pending
    /// one.
    fn step(&self) -> usize {
        self.k + usize::from(self.pending)
    }

    /// Whether the cycle and the iteration budget leave room for one more
    /// step.
    fn budget_left(&self, run: &Run<'_>) -> bool {
        self.step() < run.restart
            && self.total_iters + usize::from(self.pending) < run.cfg.max_iters
    }

    /// Steps again next round, or ends the cycle now.
    fn next_step<C: Context>(&mut self, run: &Run<'_>, ctx: &mut C, x: &mut [f64]) {
        if !self.cycle_done && self.budget_left(run) {
            self.stage = Stage::Step;
            return;
        }
        debug_assert!(!self.pending, "a cycle ends on complete columns");
        ctx.cycle_basis(self.v.basis(self.k));
        // The cycle's correction: `x += Z y` over the stored directions, or
        // `x += M⁻¹ (V y)` with the column after the basis and the one
        // direction slot as scratch. A serious breakdown can leave a zero on
        // the diagonal of `R`; then `y` solves over the columns before it,
        // whose residual is no larger than the cycle start's.
        let k = if self.zero_norm {
            self.lsq.nonsingular(self.k)
        } else {
            self.k
        };
        let y = self.lsq.solve(k);
        if run.directions {
            for (j, (&yj, &rho)) in y.iter().zip(&self.rho).enumerate() {
                ops::axpy(yj / rho, self.zdirs.col(j), x);
            }
        } else if !y.is_empty() {
            let (vs, u) = self.v.split(y.len());
            u.fill(0.0);
            for (j, &yj) in y.iter().enumerate() {
                ops::axpy(yj, vs.col(j), u);
            }
            let _s = parapre_metrics::span(names::PRECOND_APPLY);
            ctx.precond(&[u], &mut [self.zdirs.col_mut(0)]);
            ops::axpy(1.0, self.zdirs.col(0), x);
        }
        // The budget is spent and nobody reads the report.
        self.stage = if run.fixed && !self.cycle_done {
            Stage::Done
        } else {
            Stage::Close
        };
    }

    /// Modified Gram–Schmidt: one scalar sum per basis vector and one for
    /// the norm; then column `k` is complete.
    fn orthogonalize_modified<C: Context>(&mut self, run: &Run<'_>, ctx: &mut C) {
        let k = self.k;
        let (vs, w) = self.v.split(k + 1);
        let hcol = self.lsq.column(k);
        for (i, hik) in hcol[..=k].iter_mut().enumerate() {
            let mut h = [ops::dot(w, vs.col(i))];
            ctx.sum(&mut h);
            *hik = h[0];
            ops::axpy(-*hik, vs.col(i), w);
        }
        let mut ww = [ops::dot(w, w)];
        ctx.sum(&mut ww);
        let wnorm = ww[0].sqrt();
        ops::scale(1.0 / wnorm, w);
        hcol[k + 1] = wnorm;
        self.rotate_in(run);
    }

    /// The delayed step's two passes, after its sum: `sums` holds
    /// `[V_jᵀ v̂_j, ⟨v̂_j, v̂_j⟩, V_jᵀ w, ⟨v̂_j, w⟩, ⟨w, w⟩]` for the unfinished
    /// vector `v̂_j` in column `j` and `w = A M⁻¹ v̂_j` after it. Its head
    /// completes a pending column `j − 1` ([`Column::complete`]); then,
    /// unless that ended the cycle, one pass finishes
    /// `q_j = (v̂_j − V_j s) / ρ` and projects `w / ρ` (the image of the
    /// direction `v̂_j / ρ`) on `[V_j, q_j]`, leaving `v̂_{j+1}` in column
    /// `j + 1`. The sum completing column `j`
    /// is asked for (its inner products pushed on `again`) when no step
    /// is left in the cycle or the budget, or when the column's estimate,
    /// with the Pythagorean norm `‖w/ρ‖² − Σ h²`, already meets the target:
    /// a cycle then ends on a sum, not on a discarded step.
    fn delayed_step(&mut self, run: &Run<'_>, again: &mut Vec<f64>) {
        let j = self.step();
        if self.pending {
            self.complete(run);
            if self.cycle_done {
                return;
            }
        }
        let sums = &mut self.sums[..2 * j + 3];
        let (s, c) = (&sums[..j], &sums[j + 1..2 * j + 1]);
        let rho = reduced_norm(sums[j], s);
        // `⟨q_j, w⟩ = (⟨v̂_j, w⟩ − sᵀ V_jᵀ w) / ρ`, in the slot of `⟨v̂_j, w⟩`.
        let sc: f64 = s.iter().zip(c).map(|(a, b)| a * b).sum();
        sums[2 * j + 1] = (sums[2 * j + 1] - sc) / rho;
        let (s, b, ww) = (&sums[..j], &sums[j + 1..2 * j + 2], sums[2 * j + 2]);
        let hcol = self.lsq.column(j);
        for (h, &bi) in hcol[..=j].iter_mut().zip(b) {
            *h = bi / rho;
        }
        let est_sq = ww / (rho * rho) - hcol[..=j].iter().map(|h| h * h).sum::<f64>();
        hcol[j + 1] = est_sq.max(0.0).sqrt();
        let (vs, v, w) = self.v.split2(j);
        vs.sub2(s, v, b, w, rho);
        self.rho[j] = rho;
        self.pending = true;
        if !self.budget_left(run) || self.lsq.estimate(j) <= self.target {
            let (vs, w) = self.v.split(j + 1);
            let out = &mut self.sums[..j + 2];
            vs.dots(w, out);
            again.extend_from_slice(out);
            self.completing = true;
        }
    }

    /// Completes the pending column `k` from `sums`, whose head is
    /// `[V_{k+1}ᵀ v̂_{k+1}, ⟨v̂_{k+1}, v̂_{k+1}⟩]`: the next vector's second-pass
    /// coefficients are added to the column's projections, and its norm
    /// after them is the column's last entry.
    fn complete(&mut self, run: &Run<'_>) {
        let k = self.k;
        let s = &self.sums[..=k];
        let hcol = self.lsq.column(k);
        for (h, &si) in hcol[..=k].iter_mut().zip(s) {
            *h += si;
        }
        hcol[k + 1] = reduced_norm(self.sums[k + 1], s);
        self.rotate_in(run);
    }

    /// Column `k` of the Hessenberg matrix is complete: rotate it in, count
    /// the iteration, and end the cycle on the target, a zero norm or a
    /// non-finite column.
    fn rotate_in(&mut self, run: &Run<'_>) {
        let k = self.k;
        self.pending = false;
        self.total_iters += 1;
        let wnorm = self.lsq.column(k)[k + 1];
        // All entries of the column come from summed values, so the
        // non-finite decision is identical on every rank. Discard the
        // poisoned column and finish the cycle with the finite prefix.
        if let Some(res_est) = self.lsq.rotate(k) {
            self.k += 1;
            if run.cfg.record_history {
                self.report.residual_history.push(res_est);
            }
            if !run.fixed {
                run.converging(self.total_iters, res_est / self.r0_norm, ConvKind::Iter, "");
            }
            // Column `k` now holds `w / wnorm`, the next basis vector; a
            // cycle that ends here never reads it.
            if res_est <= self.target || wnorm == 0.0 {
                self.zero_norm = wnorm == 0.0;
                self.cycle_done = true;
            }
        } else {
            self.nonfinite = true;
            self.cycle_done = true;
        }
    }

    /// The true residual closing a cycle has been summed: the one stopping
    /// decision.
    fn close<C: Context>(&mut self, run: &Run<'_>, ctx: &mut C, x: &mut [f64]) {
        let (cfg, beta, total_iters) = (run.cfg, self.beta, self.total_iters);
        let relres = beta / self.r0_norm;
        self.report.iterations = total_iters;
        self.report.final_relres = relres;
        if beta <= self.target {
            self.report.converged = true;
            run.converging(total_iters, relres, ConvKind::Converged, "");
            self.stage = Stage::Done;
            return;
        }
        let breakdown_kind = if self.zero_norm {
            // Serious breakdown: the basis collapsed but the true residual
            // still misses the target (or is not a number: the collapsed
            // least-squares problem may be singular) — restarting would
            // rebuild the same invariant subspace.
            Some(BreakdownKind::ZeroNormalization)
        } else if !beta.is_finite() || self.nonfinite {
            Some(BreakdownKind::NonFinite)
        } else if beta > DIVERGENCE_GUARD * self.r0_norm {
            Some(BreakdownKind::Divergence)
        } else if cfg.stall_window > 0 {
            let betas = &mut self.cycle_betas;
            if betas.len() > cfg.stall_window {
                betas.pop_front();
            }
            betas.push_back(beta);
            (betas.len() > cfg.stall_window && beta > betas[0] * (1.0 - STALL_RTOL))
                .then_some(BreakdownKind::Stagnation)
        } else {
            None
        };
        if let Some(kind) = breakdown_kind {
            self.break_down(run, kind, total_iters, relres);
        } else if total_iters >= cfg.max_iters {
            self.stage = Stage::Done;
        } else {
            self.start_cycle(run, ctx, x);
        }
    }
}

/// `√max(α − Σ sᵢ², 0)`: the norm of a vector of squared norm `α` once its
/// components `s` along an orthonormal basis are removed.
fn reduced_norm(alpha: f64, s: &[f64]) -> f64 {
    (alpha - s.iter().map(|x| x * x).sum::<f64>())
        .max(0.0)
        .sqrt()
}

impl Run<'_> {
    /// A round's sums. Every due residual norm and, under delayed classical
    /// Gram–Schmidt, every stepping column's step ride one [`Context::sum`];
    /// the completions asked for by [`Column::delayed_step`] ride one more.
    /// Modified Gram–Schmidt then sums each stepping column's projections
    /// one by one.
    fn reduce<C: Context>(
        &self,
        ctx: &mut C,
        cols: &mut [Column<'_>],
        sums: &mut Vec<f64>,
        again: &mut Vec<f64>,
    ) {
        let delayed = self.cfg.orth == OrthMethod::ClassicalBatched;
        sums.clear();
        for c in cols.iter_mut() {
            match c.stage {
                Stage::Step if delayed => {
                    let j = c.step();
                    let out = &mut c.sums[..2 * j + 3];
                    let (vs, w) = c.v.split(j + 1);
                    vs.dots2(vs.col(j), w, out);
                    sums.extend_from_slice(out);
                }
                Stage::Open | Stage::Close => sums.push(ops::dot(&c.r, &c.r)),
                _ => {}
            }
        }
        if !sums.is_empty() {
            ctx.sum(sums);
        }
        if delayed && cols.iter().any(|c| c.stage == Stage::Step) {
            parapre_metrics::count(names::GMRES_FUSED_ALLREDUCE, 1);
        }
        let mut reduced = sums.iter();
        again.clear();
        for c in cols.iter_mut() {
            match c.stage {
                Stage::Step if delayed => {
                    let j = c.step();
                    for (s, &r) in c.sums[..2 * j + 3].iter_mut().zip(&mut reduced) {
                        *s = r;
                    }
                    c.delayed_step(self, again);
                }
                Stage::Step => c.orthogonalize_modified(self, ctx),
                Stage::Open | Stage::Close => c.beta = reduced.next().expect("one norm").sqrt(),
                Stage::Done => {}
            }
        }
        if again.is_empty() {
            return;
        }
        ctx.sum(again);
        parapre_metrics::count(names::GMRES_COMPLETION, 1);
        let mut reduced = again.iter();
        for c in cols.iter_mut() {
            if std::mem::take(&mut c.completing) {
                for (s, &r) in c.sums[..c.k + 2].iter_mut().zip(&mut reduced) {
                    *s = r;
                }
                c.complete(self);
            }
        }
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

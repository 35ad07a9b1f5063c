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

use crate::{tags, DistMatrix};
use parapre_krylov::gmres::{update_solution, DIVERGENCE_GUARD, STALL_RTOL};
use parapre_krylov::lsq::GivensLsq;
use parapre_krylov::proj::Panel;
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
        self.solve_block(comm, a, m, &[b], &mut [x])
            .pop()
            .expect("one report per column")
    }

    /// Solves `A x_c = b_c` for every column `c` in **lock-step rounds**,
    /// each `x_c` updated in place (initial guess on entry); one report per
    /// column, in order.
    ///
    /// A round applies the preconditioner once to every column taking an
    /// Arnoldi step ([`DistPrecond::apply_block`]), the operator once to
    /// those columns' directions and to the iterates whose true residual is
    /// due ([`DistOp::apply_block`]), and reduces every column's fused
    /// Gram–Schmidt sums or residual norm in one all-reduce, plus one more
    /// for the columns that re-orthogonalize. Each column keeps its own
    /// basis, least-squares state, restart position and stopping decision,
    /// all taken on reduced values, so every rank takes the same branches,
    /// and each column's bits are those of its one-column solve (the
    /// all-reduce sums element-wise in the scalar's tree order).
    pub fn solve_block<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
    ) -> Vec<SolveReport> {
        self.run(comm, a, m, bs, xs, false)
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
        solver.run(comm, a, m, &[g], &mut [z], true);
    }

    /// The one Arnoldi driver behind every entry: lock-step rounds over the
    /// columns until each has its report. `fixed` is the
    /// [`DistGmres::fixed_effort`] entry; otherwise the solve is
    /// [`DistGmres::solve_block`]'s: flexible, traced, reported.
    fn run<A: DistOp, M: DistPrecond>(
        &self,
        comm: &mut Comm,
        a: &A,
        m: &M,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
        fixed: bool,
    ) -> Vec<SolveReport> {
        assert_eq!(bs.len(), xs.len());
        if bs.len() > LOCKSTEP_COLS {
            let groups = bs.chunks(LOCKSTEP_COLS).zip(xs.chunks_mut(LOCKSTEP_COLS));
            return groups
                .flat_map(|(b, x)| self.run(comm, a, m, b, x, fixed))
                .collect();
        }
        let n = a.n_owned();
        let cfg = &self.config;
        let _solve_span = parapre_metrics::span(if fixed {
            names::INNER_SOLVE
        } else {
            names::SOLVE
        });
        let run = Run {
            cfg,
            // A cycle cannot outrun the iteration budget, and its basis is
            // allocated whole.
            restart: cfg.restart.clamp(1, cfg.max_iters.max(1)),
            fixed,
            // Rank 0 of an outer solve speaks for the run in the live ring;
            // inner solves are silent.
            speaks: !fixed && comm.rank() == 0,
        };
        assert!(xs.iter().all(|x| x.len() == n));
        let mut cols: Vec<Column<'_>> = bs.iter().map(|&b| Column::new(b, &run, n)).collect();
        // The fused reductions of a round: first pass, and re-orthogonalization.
        let (mut sums, mut again) = (Vec::new(), Vec::new());
        while cols.iter().any(|c| c.stage != Stage::Done) {
            let stepping = cols.iter().any(|c| c.stage == Stage::Step);
            // One preconditioner application over the stepping columns.
            if stepping {
                let _s = parapre_metrics::span(names::PRECOND_APPLY);
                let steps = cols.iter_mut().filter(|c| c.stage == Stage::Step);
                let steps = steps.map(|c| (c.v.col(c.k), c.zdirs.col_mut(run.zk(c.k))));
                lend(steps, |rs, zs| m.apply_block(comm, rs, zs));
            }
            // One operator application: the stepping columns' directions,
            // and the iterates whose true residual is due (a fixed-effort
            // residual opens as `g` itself).
            let products = cols
                .iter_mut()
                .zip(xs.iter())
                .filter_map(|(c, x)| match c.stage {
                    Stage::Step => {
                        c.total_iters += 1;
                        let (_, w) = c.v.split(c.k + 1);
                        Some((c.zdirs.col(run.zk(c.k)), w))
                    }
                    Stage::Open if fixed => None,
                    Stage::Open | Stage::Close => Some((&**x, &mut c.r[..])),
                    Stage::Done => None,
                });
            lend(products, |ins, outs| {
                if !ins.is_empty() {
                    a.apply_block(comm, ins, outs);
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
            reduce(comm, cfg.orth, &mut cols, &mut sums, &mut again);
            drop(orth);
            for (c, x) in cols.iter_mut().zip(xs.iter_mut()) {
                match c.stage {
                    Stage::Open => c.open(&run, comm, m, x),
                    Stage::Step => c.stepped(&run, comm, m, x),
                    Stage::Close => c.close(&run, comm, m, x),
                    Stage::Done => {}
                }
            }
        }
        cols.into_iter().map(|c| c.report).collect()
    }
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

/// What every column of one [`DistGmres::run`] shares.
struct Run<'a> {
    cfg: &'a DistGmresConfig,
    restart: usize,
    /// A fixed-effort inner solve: fixed preconditioner, no report.
    fixed: bool,
    speaks: bool,
}

impl Run<'_> {
    /// The direction slot of basis vector `k`: the flexible solve keeps
    /// every preconditioned direction, the fixed-preconditioner one only
    /// the latest.
    fn zk(&self, k: usize) -> usize {
        if self.fixed {
            0
        } else {
            k
        }
    }

    fn converging(&self, iter: usize, relres: f64, kind: ConvKind, detail: &str) {
        parapre_metrics::convergence("dist", self.speaks, iter, relres, kind, detail);
    }
}

/// Where a column of the lock-step solve stands at the start of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Its opening residual norm is reduced this round.
    Open,
    /// It takes an Arnoldi step this round.
    Step,
    /// The true residual closing its cycle is reduced this round.
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
    /// Residual of the cycle start, and its reduced norm.
    r: Vec<f64>,
    beta: f64,
    r0_norm: f64,
    target: f64,
    /// The Krylov basis has one column more than the restart length: the
    /// vector being orthogonalized is the column after the basis so far.
    v: Panel,
    zdirs: Panel,
    lsq: GivensLsq,
    /// This column's share of a fused reduction: `k + 1` projections and
    /// `⟨w, w⟩`; and `‖w'‖²` from the step's last Gram–Schmidt pass.
    sums: Vec<f64>,
    est: f64,
    /// Whether the step in flight takes the second pass.
    reorth: bool,
    /// The true residuals of the last `stall_window + 1` cycle boundaries
    /// (there are at most `max_iters / restart + 1` of them).
    cycle_betas: VecDeque<f64>,
    total_iters: usize,
    /// Basis vectors in the cycle so far.
    k: usize,
    cycle_done: bool,
    zero_norm: bool,
    nonfinite: bool,
}

impl<'b> Column<'b> {
    /// Everything a cycle writes is allocated here, once per solve.
    fn new(b: &'b [f64], run: &Run<'_>, n: usize) -> Self {
        assert_eq!(b.len(), n);
        let (cfg, restart) = (run.cfg, run.restart);
        Column {
            b,
            stage: Stage::Open,
            report: SolveReport::default(),
            r: if run.fixed { b.to_vec() } else { vec![0.0; n] },
            beta: 0.0,
            r0_norm: 0.0,
            target: 0.0,
            v: Panel::zeros(n, restart + 1),
            zdirs: Panel::zeros(n, if run.fixed { 1 } else { restart }),
            lsq: GivensLsq::new(restart),
            sums: vec![0.0; restart + 1],
            est: 0.0,
            reorth: false,
            cycle_betas: VecDeque::with_capacity(cfg.stall_window.min(cfg.max_iters / restart) + 1),
            total_iters: 0,
            k: 0,
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

    /// The opening residual norm has been reduced: done already, or the
    /// first cycle starts.
    fn open<M: DistPrecond>(&mut self, run: &Run<'_>, comm: &mut Comm, m: &M, x: &mut [f64]) {
        let (cfg, r0_norm) = (run.cfg, self.beta);
        if cfg.record_history {
            self.report.residual_history.push(r0_norm);
        }
        if !r0_norm.is_finite() {
            let iteration = self.report.iterations;
            self.break_down(run, BreakdownKind::NonFinite, iteration, f64::NAN);
        } else if r0_norm <= cfg.abs_tol {
            self.report.converged = true;
            self.report.final_relres = 0.0;
            self.stage = Stage::Done;
        } else {
            self.r0_norm = r0_norm;
            self.target = (cfg.rel_tol * r0_norm).max(cfg.abs_tol);
            self.start_cycle(run, comm, m, x);
        }
    }

    /// Opens a cycle from `r` and its norm `beta`.
    fn start_cycle<M: DistPrecond>(
        &mut self,
        run: &Run<'_>,
        comm: &mut Comm,
        m: &M,
        x: &mut [f64],
    ) {
        let beta = self.beta;
        self.lsq.start(beta);
        for (vi, &ri) in self.v.col_mut(0).iter_mut().zip(&self.r) {
            *vi = ri / beta;
        }
        self.k = 0;
        (self.cycle_done, self.zero_norm, self.nonfinite) = (false, false, false);
        self.next_step(run, comm, m, x);
    }

    /// Steps again next round, or ends the cycle now.
    fn next_step<M: DistPrecond>(&mut self, run: &Run<'_>, comm: &mut Comm, m: &M, x: &mut [f64]) {
        if !self.cycle_done && self.k < run.restart && self.total_iters < run.cfg.max_iters {
            self.stage = Stage::Step;
            return;
        }
        // Form the update from this cycle.
        let y = self.lsq.solve(self.k);
        update_solution(&mut self.v, &mut self.zdirs, y, x, !run.fixed, |u, z| {
            let _s = parapre_metrics::span(names::PRECOND_APPLY);
            m.apply(comm, u, z);
        });
        // The budget is spent and nobody reads the report.
        self.stage = if run.fixed && !self.cycle_done {
            Stage::Done
        } else {
            Stage::Close
        };
    }

    /// Modified Gram–Schmidt: one scalar all-reduce per basis vector and
    /// one for the norm.
    fn orthogonalize_modified(&mut self, comm: &mut Comm) {
        let k = self.k;
        let (vs, w) = self.v.split(k + 1);
        let hcol = self.lsq.column(k);
        for (i, hik) in hcol[..=k].iter_mut().enumerate() {
            let vi = vs.col(i);
            *hik = comm.allreduce_sum(ops::dot(w, vi), tags::REDUCE);
            for (wj, &vj) in w.iter_mut().zip(vi) {
                *wj -= *hik * vj;
            }
        }
        let wnorm = comm.allreduce_sum(ops::dot(w, w), tags::REDUCE).sqrt();
        for wj in w.iter_mut() {
            *wj /= wnorm;
        }
        hcol[k + 1] = wnorm;
    }

    /// Column `k` of the Hessenberg matrix is complete: rotate it in and
    /// decide whether the cycle goes on.
    fn stepped<M: DistPrecond>(&mut self, run: &Run<'_>, comm: &mut Comm, m: &M, x: &mut [f64]) {
        let k = self.k;
        let wnorm = self.lsq.column(k)[k + 1];
        // All entries of the column come from all-reduced sums, so the
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
        self.next_step(run, comm, m, x);
    }

    /// The true residual closing a cycle has been reduced: the shared
    /// stopping decision.
    fn close<M: DistPrecond>(&mut self, run: &Run<'_>, comm: &mut Comm, m: &M, x: &mut [f64]) {
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
        let breakdown_kind = if !beta.is_finite() || self.nonfinite {
            Some(BreakdownKind::NonFinite)
        } else if self.zero_norm {
            // Serious breakdown: the basis collapsed but the true residual
            // still misses the target — restarting would rebuild the same
            // invariant subspace.
            Some(BreakdownKind::ZeroNormalization)
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
            self.start_cycle(run, comm, m, x);
        }
    }
}

/// A round's reductions. Every due residual norm and, under classical
/// Gram–Schmidt, every stepping column's first pass (`k + 1` projections and
/// `⟨w, w⟩`) ride one all-reduce; the second passes of the columns that
/// re-orthogonalize ride one more. Modified Gram–Schmidt then reduces each
/// stepping column's projections one by one.
///
/// The re-orthogonalization is DGKS (η² = 1/2): when more than half the mass
/// of `w` was removed by the projection, the Pythagorean estimate
/// `‖w'‖² ≈ w·w − Σhᵢ²` is untrustworthy and the coefficients have
/// cancelled, so `w` is orthogonalized once more. With a good preconditioner
/// `A M⁻¹ v ≈ v`, so this is the usual case, and the first subtraction
/// shares its sweep over `w` with the second pass's inner products. The
/// last subtraction leaves the next basis vector `w' / ‖w'‖` in `w`, and the
/// norm (relative error `O(ε)` once the guard has passed) below the
/// coefficients.
fn reduce(
    comm: &mut Comm,
    orth: OrthMethod,
    cols: &mut [Column<'_>],
    sums: &mut Vec<f64>,
    again: &mut Vec<f64>,
) {
    let cgs = orth == OrthMethod::ClassicalBatched;
    sums.clear();
    for c in cols.iter_mut() {
        match c.stage {
            Stage::Step if cgs => {
                let (vs, w) = c.v.split(c.k + 1);
                vs.dots(w, &mut c.sums[..c.k + 2]);
                sums.extend_from_slice(&c.sums[..c.k + 2]);
            }
            Stage::Open | Stage::Close => sums.push(ops::dot(&c.r, &c.r)),
            _ => {}
        }
    }
    if !sums.is_empty() {
        comm.allreduce_sum_vec(sums, tags::REDUCE);
    }
    if cgs && cols.iter().any(|c| c.stage == Stage::Step) {
        parapre_metrics::count(names::GMRES_FUSED_ALLREDUCE, 1);
    }
    let mut reduced = sums.iter();
    again.clear();
    for c in cols.iter_mut() {
        match c.stage {
            Stage::Step if cgs => {
                let k1 = c.k + 1;
                for (s, &r) in c.sums[..=k1].iter_mut().zip(&mut reduced) {
                    *s = r;
                }
                let hcol = c.lsq.column(c.k);
                let ww = c.sums[k1];
                hcol[..k1].copy_from_slice(&c.sums[..k1]);
                let proj_sq: f64 = c.sums[..k1].iter().map(|h| h * h).sum();
                c.est = (ww - proj_sq).max(0.0);
                c.reorth = c.est <= 0.5 * ww;
                if c.reorth {
                    parapre_metrics::count(names::GMRES_REORTH, 1);
                    let (vs, w) = c.v.split(k1);
                    vs.sub_then_dots(&hcol[..k1], w, &mut c.sums[..=k1]);
                    again.extend_from_slice(&c.sums[..=k1]);
                }
            }
            Stage::Open | Stage::Close => c.beta = reduced.next().expect("one norm").sqrt(),
            _ => {}
        }
    }
    if !again.is_empty() {
        comm.allreduce_sum_vec(again, tags::REDUCE);
        parapre_metrics::count(names::GMRES_FUSED_ALLREDUCE, 1);
    }
    let mut reduced = again.iter();
    for c in cols.iter_mut().filter(|c| c.stage == Stage::Step) {
        if !cgs {
            c.orthogonalize_modified(comm);
            continue;
        }
        let k1 = c.k + 1;
        let hcol = c.lsq.column(c.k);
        if c.reorth {
            let mut corr_sq = 0.0;
            for (s, &r) in c.sums[..=k1].iter_mut().zip(&mut reduced) {
                *s = r;
            }
            for (h, &ci) in hcol[..k1].iter_mut().zip(&c.sums[..k1]) {
                *h += ci;
                corr_sq += ci * ci;
            }
            c.est = (c.sums[k1] - corr_sq).max(0.0);
        }
        let wnorm = c.est.sqrt();
        let (vs, w) = c.v.split(k1);
        vs.sub_div(&c.sums[..k1], wnorm, w);
        hcol[k1] = wnorm;
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

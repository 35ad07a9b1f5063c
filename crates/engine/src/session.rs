//! Cached solver sessions: partition + distribute + factor **once**, then
//! solve any number of right-hand sides against the frozen state.
//!
//! The paper's workloads are repeated solves (TC4 is one implicit step of a
//! time-dependent problem); a paper-table cell is the special case of one
//! build and one solve ([`crate::experiment`]). A [`SolverSession`]
//! performs the expensive setup pipeline one time and keeps the per-rank
//! state — each rank's [`DistMatrix`] and factored preconditioner — alive
//! across [`SolverSession::solve`] calls.
//! Every solve spins up a fresh universe of `P` threads that *borrow* the
//! cached rank states (this is why [`parapre_dist::DistPrecond`] requires
//! `Send + Sync`), so a session holds no threads while idle and concurrent
//! solves on one session never contend.

use crate::EngineError;
use parapre_core::{
    build_dist_precond_with_fallback, partition_case, refactor_dist_precond, AssembledCase,
    PartitionScheme, PrecondKind, PrecondParams, RefactorReject,
};
use parapre_dist::{
    gather_vector, scatter_vector, tags, DistGmres, DistMatrix, DistOp, DistPrecond, GmresConfig,
};
use parapre_grid::Adjacency;
use parapre_metrics::names;
use parapre_mpisim::{Comm, MachineModel, RankFailure, SchedulePlan, Universe};
use parapre_partition::partition_graph;
use parapre_sparse::ops;
use parapre_sparse::Csr;
use std::sync::Arc;
use std::time::Duration;

/// Everything that determines a session's frozen state (and therefore its
/// cache identity, together with the matrix fingerprint).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Which preconditioner to factor.
    pub precond: PrecondKind,
    /// Number of ranks `P`.
    pub n_ranks: usize,
    /// Partitioning scheme (for case-built sessions; matrix-built sessions
    /// always use general graph partitioning).
    pub scheme: PartitionScheme,
    /// Partitioner RNG seed.
    pub partition_seed: u64,
    /// Outer FGMRES parameters.
    pub gmres: GmresConfig,
    /// Preconditioner tuning knobs.
    pub params: PrecondParams,
    /// Deadlock tripwire for every universe this session launches.
    pub recv_timeout: Duration,
}

impl SessionConfig {
    /// Paper defaults (FGMRES(20), 1e-6 reduction, Linux-cluster partition
    /// seed) for a preconditioner/rank-count pair.
    pub fn paper(precond: PrecondKind, n_ranks: usize) -> Self {
        SessionConfig {
            precond,
            n_ranks,
            scheme: PartitionScheme::General,
            partition_seed: MachineModel::linux_cluster().partition_seed,
            gmres: GmresConfig {
                restart: 20,
                max_iters: 600,
                rel_tol: 1e-6,
                ..GmresConfig::distributed()
            },
            params: PrecondParams::default(),
            recv_timeout: Duration::from_secs(60),
        }
    }

    /// Canonical string of every solver-relevant knob — the non-matrix part
    /// of the session cache key. Floats are rendered with full round-trip
    /// precision (`{:?}`), so configs differing in any bit key differently.
    pub fn config_string(&self) -> String {
        format!(
            "{}|{}|P{}|seed{}|{:?}|{:?}",
            self.precond.cache_key(),
            self.scheme.key(),
            self.n_ranks,
            self.partition_seed,
            self.gmres,
            self.params,
        )
    }
}

/// A matrix's two content hashes, computed together in one pass
/// ([`Csr::fingerprints`]) and carried alongside it so no layer hashes the
/// same matrix twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixId {
    /// [`Csr::fingerprint`]: shape, pattern and value bits — the session
    /// cache key.
    pub fingerprint: u64,
    /// [`Csr::pattern_fingerprint`]: shape and pattern only — equal for a
    /// matrix re-sent with new values, which is what makes a resident
    /// session a refactorization donor.
    pub pattern_fingerprint: u64,
}

impl MatrixId {
    /// Hashes `a` (one pass over its arrays).
    pub fn of(a: &Csr) -> MatrixId {
        let (pattern_fingerprint, fingerprint) = a.fingerprints();
        MatrixId {
            fingerprint,
            pattern_fingerprint,
        }
    }
}

/// Why a same-pattern matrix was built cold instead of refactored from a
/// resident donor — the `reason` label of `parapre_refactor_fallback_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorFallback {
    /// Refactored factors were not healthy on some rank (zero, negligible
    /// or non-finite pivot); voted down collectively.
    Unhealthy,
    /// The new matrix did not fit the donor's frozen structure after all
    /// (shape or layout mismatch, or the refactor universe failed).
    Pattern,
    /// The donor itself was built with ladder fallbacks or pivot shifts:
    /// its symbolic state encodes a repair, not the configured rung.
    DonorDirty,
    /// The refactored session built fine but its first solve did not
    /// converge or broke down: the frozen pattern no longer suits the
    /// values. Detected by the service, never by
    /// [`SolverSession::refactor`] itself.
    Stale,
}

impl RefactorFallback {
    /// Stable machine-readable key.
    pub fn key(self) -> &'static str {
        match self {
            RefactorFallback::Unhealthy => "unhealthy",
            RefactorFallback::Pattern => "pattern",
            RefactorFallback::DonorDirty => "donor_dirty",
            RefactorFallback::Stale => "stale",
        }
    }
}

impl From<RefactorReject> for RefactorFallback {
    fn from(r: RefactorReject) -> Self {
        match r {
            RefactorReject::Unhealthy => RefactorFallback::Unhealthy,
            RefactorReject::Pattern => RefactorFallback::Pattern,
        }
    }
}

/// One rank's frozen setup product: its rows of the matrix and its factored
/// preconditioner. Shared read-only (`Sync`) by every subsequent solve.
struct RankState {
    dm: DistMatrix,
    precond: Box<dyn DistPrecond>,
    /// Ladder rung the preconditioner was actually built on (identical on
    /// every rank).
    kind_used: PrecondKind,
    /// Ladder rungs descended below the configured kind (rank-identical).
    fallbacks: usize,
    /// Diagonal-shift retries this rank's factorization spent.
    pivot_shifts: usize,
}

/// A solver session: setup performed once, solves served on demand.
pub struct SolverSession {
    cfg: SessionConfig,
    n_global: usize,
    id: MatrixId,
    /// Numeric refactorizations since the last symbolic build in this
    /// session's ancestry (0 for a cold build).
    pattern_age: usize,
    setup_seconds: f64,
    ranks: Vec<RankState>,
    /// The distributed global matrix and owner map, retained so a session
    /// can be rebuilt on another rung or refactored without
    /// re-partitioning. The owner map is shared with every session
    /// refactored from this one; the matrix with the matrix store when it
    /// was registered structurally symmetric.
    a_global: Arc<Csr>,
    owner: Arc<[u32]>,
}

/// The outcome of one solve: one right-hand side of a [`SolverSession::run`].
#[derive(Debug, Clone)]
pub struct SessionSolveReport {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// Outer FGMRES iterations.
    pub iterations: usize,
    /// Whether the relative-residual target was met.
    pub converged: bool,
    /// The solver's recursive residual estimate `‖r‖/‖r₀‖`.
    pub final_relres: f64,
    /// The *true* residual `‖b − Ax‖/‖b‖`, recomputed from scratch after
    /// the solve (catches any drift in the recursive estimate).
    pub true_relres: f64,
    /// Wall time of this solve: the close of the request's span (universe
    /// launch to join). In a request with `k > 1` right-hand sides, which
    /// share every round, it is that reading over `k`, so the reports of a
    /// request add up to it.
    pub solve_seconds: f64,
    /// Typed breakdown when the solver stopped for a numerical reason
    /// (`None` on clean convergence or a plain iteration-budget exit).
    pub breakdown: Option<parapre_dist::SolveBreakdown>,
    /// Per-rank busy/comm-wait attribution of this solve. Comm-wait
    /// seconds are only populated while the live metrics layer is
    /// enabled; busy seconds and traffic counts are always measured. In a
    /// request with `k > 1` right-hand sides every report carries the whole
    /// request's load: its columns share each message, so the traffic has
    /// no per-column split.
    pub load: parapre_metrics::LoadReport,
}

/// One request to [`SolverSession::run`]: `k ≥ 1` right-hand sides and how
/// to solve them. Everything but `rhs` defaults to off
/// (`..SolveRequest::new(b)`).
#[derive(Clone, Default)]
pub struct SolveRequest<'a> {
    /// The right-hand sides, solved together in **one** universe launch by
    /// one lock-step block solve ([`DistGmres::solve_block`]): they share
    /// the rank threads and comm plans, and every halo message, all-reduce
    /// and factor sweep of a round. Each is bit for bit its own solve.
    pub rhs: Vec<&'a [f64]>,
    /// Initial guess of every solve (zero when `None`).
    pub x0: Option<&'a [f64]>,
    /// Install a `parapre-metrics` recorder on every rank and return the
    /// event streams in [`SolveOutput::traces`].
    pub trace: bool,
    /// A seeded send-delay schedule installed on every rank (tests only:
    /// it moves time, never bits).
    pub schedule: Option<Arc<SchedulePlan>>,
}

impl<'a> SolveRequest<'a> {
    /// A plain request for one right-hand side.
    pub fn new(b: &'a [f64]) -> Self {
        SolveRequest {
            rhs: vec![b],
            ..Default::default()
        }
    }

    /// A plain request for every right-hand side in `rhss`.
    pub fn batch(rhss: &'a [Vec<f64>]) -> Self {
        SolveRequest {
            rhs: rhss.iter().map(Vec::as_slice).collect(),
            ..Default::default()
        }
    }
}

/// What the preconditioner ladder did for one
/// [`SolverSession::solve_with_fallback`].
#[derive(Debug, Clone, Default)]
pub struct Descent {
    /// Rungs descended below the requested kind, build-time and solve-time,
    /// over every session the descent went through.
    pub fallbacks: usize,
    /// Diagonal-shift factorization retries, summed over ranks and
    /// sessions.
    pub pivot_shifts: usize,
    /// Kind key of the last typed breakdown seen (`"stagnation"`,
    /// `"non_finite"`, ...), recovered from or not.
    pub breakdown_kind: Option<String>,
}

/// The outcome of one [`SolverSession::run`].
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// One report per right-hand side, in request order.
    pub reports: Vec<SessionSolveReport>,
    /// One event stream per rank when the request asked for tracing.
    pub traces: Vec<parapre_metrics::RankTrace>,
}

impl SolveOutput {
    /// The report of a single-right-hand-side request.
    pub fn single(mut self) -> SessionSolveReport {
        assert_eq!(self.reports.len(), 1, "single() is for k = 1 requests");
        self.reports.remove(0)
    }
}

/// `;`-joined rank failure messages, the payload of an [`EngineError`].
pub(crate) fn join_failures(failures: &[RankFailure]) -> String {
    let msgs: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
    msgs.join("; ")
}

/// Runs `f` on a fresh universe of `p` ranks under `cfg`'s deadlock
/// tripwire. All-or-nothing: every rank's output in rank order, or every
/// failure.
fn launch<T: Send>(
    cfg: &SessionConfig,
    p: usize,
    schedule: Option<Arc<SchedulePlan>>,
    f: impl Fn(&mut Comm) -> T + Sync,
) -> Result<Vec<T>, Vec<RankFailure>> {
    let mut outs = Vec::with_capacity(p);
    let mut failures = Vec::new();
    for out in Universe::try_run_with(p, cfg.recv_timeout, schedule, f) {
        match out {
            Ok(o) => outs.push(o),
            Err(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        Ok(outs)
    } else {
        Err(failures)
    }
}

impl SolverSession {
    /// Builds a session from a global matrix and a per-unknown owner map:
    /// distributes rows and factors the preconditioner on every rank, once.
    /// A pattern that is not structurally symmetric is refused
    /// ([`EngineError::UnsymmetricPattern`]); [`SolverSession::from_matrix`]
    /// takes a general matrix.
    pub fn build(
        a: &Csr,
        owner: &[u32],
        cfg: &SessionConfig,
    ) -> Result<SolverSession, EngineError> {
        if let Some((row, col)) = unpaired_entry(a) {
            return Err(EngineError::UnsymmetricPattern(row, col));
        }
        Self::build_identified(&Arc::new(a.clone()), owner, cfg, MatrixId::of(a), false)
            .map(|(s, _)| s)
    }

    /// [`SolverSession::build`] for a caller that already hashed `a`
    /// (`id` must be [`MatrixId::of`]`(a)`) and shares it. With `trace`
    /// every rank records its event stream (the `setup` span and everything
    /// under it).
    pub(crate) fn build_identified(
        a: &Arc<Csr>,
        owner: &[u32],
        cfg: &SessionConfig,
        id: MatrixId,
        trace: bool,
    ) -> Result<(SolverSession, Vec<parapre_metrics::RankTrace>), EngineError> {
        assert_eq!(a.n_rows(), a.n_cols(), "square systems only");
        assert_eq!(owner.len(), a.n_rows(), "one owner per unknown");
        let p = cfg.n_ranks;
        let setup = parapre_metrics::timed(names::SETUP);
        let (ranks, traces): (Vec<_>, Vec<_>) = launch(cfg, p, None, |comm| {
            parapre_metrics::recorded(comm.rank(), trace, || {
                let _setup = parapre_metrics::span(names::SETUP);
                let dm = DistMatrix::from_global(a, owner, comm.rank(), p);
                let built =
                    build_dist_precond_with_fallback(cfg.precond, &dm, comm, a, &cfg.params);
                RankState {
                    dm,
                    precond: built.precond,
                    kind_used: built.kind_used,
                    fallbacks: built.fallbacks,
                    pivot_shifts: built.pivot_shifts,
                }
            })
        })
        .map_err(|fails| EngineError::Setup(join_failures(&fails)))?
        .into_iter()
        .unzip();
        let session = SolverSession {
            cfg: cfg.clone(),
            n_global: a.n_rows(),
            id,
            pattern_age: 0,
            setup_seconds: setup.close().as_secs_f64(),
            ranks,
            a_global: Arc::clone(a),
            owner: owner.into(),
        };
        Ok((session, traces.into_iter().flatten().collect()))
    }

    /// Numeric-only rebuild: a session for `a_new` — a matrix with
    /// `donor`'s **sparsity pattern** and new values — that reuses the
    /// donor's symbolic work instead of repeating it.
    ///
    /// Reused exactly: the owner map (the graph partition depends only on
    /// pattern, `P` and seed, so it is not run again) and with it every
    /// layout and communication plan, which are re-derived from the same
    /// map. Reused approximately: each rank's fill patterns and
    /// group-independent sets, frozen at their donor state
    /// ([`parapre_core::refactor_dist_precond`]). The new session is
    /// configured like the donor and serves the rung the donor serves.
    ///
    /// Refuses — and the caller builds cold — when the donor was built
    /// with ladder fallbacks or pivot shifts ([`RefactorFallback::DonorDirty`]),
    /// when `a_new` does not have the donor's shape or a rank's block does
    /// not fit ([`RefactorFallback::Pattern`]), or when the refactored
    /// factors are unhealthy on any rank ([`RefactorFallback::Unhealthy`]).
    /// The accept/reject decision is collective: all ranks return together.
    pub fn refactor(donor: &SolverSession, a_new: &Csr) -> Result<SolverSession, RefactorFallback> {
        let id = MatrixId::of(a_new);
        Self::refactor_identified(donor, &Arc::new(a_new.clone()), id, false).map(|(s, _)| s)
    }

    /// [`SolverSession::refactor`] for a caller that already hashed
    /// `a_new` (`id` must be [`MatrixId::of`]`(a_new)`) and shares it. With
    /// `trace` every rank records its event stream: one `setup.refactor`
    /// span where a cold build records `setup.factor`.
    pub fn refactor_identified(
        donor: &SolverSession,
        a_new: &Arc<Csr>,
        id: MatrixId,
        trace: bool,
    ) -> Result<(SolverSession, Vec<parapre_metrics::RankTrace>), RefactorFallback> {
        if donor.build_fallbacks() > 0 || donor.pivot_shifts() > 0 {
            return Err(RefactorFallback::DonorDirty);
        }
        // Shape is part of the pattern hash.
        if id.pattern_fingerprint != donor.id.pattern_fingerprint {
            return Err(RefactorFallback::Pattern);
        }
        let cfg = &donor.cfg;
        let p = cfg.n_ranks;
        let owner = &donor.owner;
        let refactor = parapre_metrics::timed(names::REFACTOR_US);
        // A rank that died applying the donor's structure is a misfit.
        let outs = launch(cfg, p, None, |comm| {
            parapre_metrics::recorded(comm.rank(), trace, || {
                let _setup = parapre_metrics::span(names::SETUP);
                let from = &donor.ranks[comm.rank()];
                let dm = DistMatrix::from_global(a_new, owner, comm.rank(), p);
                refactor_dist_precond(&*from.precond, &dm, comm).map(|precond| RankState {
                    dm,
                    precond,
                    kind_used: from.kind_used,
                    fallbacks: 0,
                    pivot_shifts: 0,
                })
            })
        })
        .map_err(|_| RefactorFallback::Pattern)?;
        let mut ranks = Vec::with_capacity(p);
        let mut traces = Vec::new();
        for (built, tr) in outs {
            // Rank-identical by construction (collective vote).
            ranks.push(built?);
            traces.extend(tr);
        }
        let session = SolverSession {
            cfg: cfg.clone(),
            n_global: donor.n_global,
            id,
            pattern_age: donor.pattern_age + 1,
            setup_seconds: refactor.close().as_secs_f64(),
            ranks,
            a_global: Arc::clone(a_new),
            owner: Arc::clone(owner),
        };
        Ok((session, traces))
    }

    /// Builds a session for an assembled test case (partitions the node
    /// graph under the configured scheme, then expands to dof owners).
    pub fn from_case(
        case: &AssembledCase,
        cfg: &SessionConfig,
    ) -> Result<SolverSession, EngineError> {
        let node_part = partition_case(case, cfg.scheme, cfg.n_ranks, cfg.partition_seed);
        let owner = case.dof_owner(&node_part.owner);
        Self::build(&case.sys.a, &owner, cfg)
    }

    /// Builds a session straight from a general square matrix (the Matrix
    /// Market path): the sparsity pattern is symmetrized for the layout and
    /// the rows are partitioned with the general graph scheme.
    pub fn from_matrix(a: &Csr, cfg: &SessionConfig) -> Result<SolverSession, EngineError> {
        let (a_sym, owner) = partition_matrix(a, cfg.n_ranks, cfg.partition_seed);
        let id = MatrixId::of(&a_sym);
        Self::build_identified(&Arc::new(a_sym), &owner, cfg, id, false).map(|(s, _)| s)
    }

    /// Solves `A x = b` against the cached factors (zero initial guess).
    pub fn solve(&self, b: &[f64]) -> Result<SessionSolveReport, EngineError> {
        Ok(self.run(SolveRequest::new(b))?.single())
    }

    /// Traced solve: the report plus every rank's event stream. Used to
    /// *assert* that the hot path performs no factorization work (no
    /// `setup.factor` span may appear).
    pub fn solve_traced(
        &self,
        b: &[f64],
        x0: Option<&[f64]>,
    ) -> Result<(SessionSolveReport, Vec<parapre_metrics::RankTrace>), EngineError> {
        let mut out = self.run(SolveRequest {
            x0,
            trace: true,
            ..SolveRequest::new(b)
        })?;
        let traces = std::mem::take(&mut out.traces);
        Ok((out.single(), traces))
    }

    /// The one solve path: every right-hand side of `req` against the
    /// cached factors, inside one universe launch. The right-hand sides are
    /// scattered, solved together by one lock-step distributed FGMRES,
    /// checked against their true residuals and gathered on rank 0; each
    /// column starts from the request's guess, so it is bit for bit the
    /// single solve of its right-hand side. Failures come back
    /// *structured*, one per dead rank, each with its receive-timeout
    /// diagnostic when it deadlocked (`EngineError: From<Vec<RankFailure>>`
    /// flattens them for `?`).
    pub fn run(&self, req: SolveRequest<'_>) -> Result<SolveOutput, Vec<RankFailure>> {
        let k = req.rhs.len();
        assert!(k >= 1, "a request needs at least one rhs");
        for b in &req.rhs {
            assert_eq!(b.len(), self.n_global, "rhs length");
        }
        if let Some(x0) = req.x0 {
            assert_eq!(x0.len(), self.n_global, "guess length");
        }
        let wall = parapre_metrics::timed(if k == 1 {
            names::SOLVE_US
        } else {
            names::BATCH_SOLVE_US
        });
        let mut ranks = launch(&self.cfg, self.cfg.n_ranks, req.schedule, |comm| {
            parapre_metrics::recorded(comm.rank(), req.trace, || {
                let busy = parapre_metrics::timed(names::RUN);
                let before = comm.stats();
                let st = &self.ranks[comm.rank()];
                let layout = &st.dm.layout;
                let b_loc: Vec<Vec<f64>> =
                    req.rhs.iter().map(|b| scatter_vector(layout, b)).collect();
                let mut x: Vec<Vec<f64>> = (0..k)
                    .map(|_| match req.x0 {
                        Some(g) => scatter_vector(layout, g),
                        None => vec![0.0; layout.n_owned()],
                    })
                    .collect();
                let bs: Vec<&[f64]> = b_loc.iter().map(Vec::as_slice).collect();
                let mut xs: Vec<&mut [f64]> = x.iter_mut().map(Vec::as_mut_slice).collect();
                let reps = DistGmres::new(self.cfg.gmres).solve_block(
                    comm,
                    &st.dm,
                    &st.precond,
                    &bs,
                    &mut xs,
                );
                // True residuals ‖b − Ax‖ / ‖b‖, assembled distributed: one
                // operator application and one reduction per norm for all.
                let mut r = vec![vec![0.0; layout.n_owned()]; k];
                let xs: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
                let mut rs: Vec<&mut [f64]> = r.iter_mut().map(Vec::as_mut_slice).collect();
                st.dm.apply_block(comm, &xs, &mut rs);
                for (rc, bc) in r.iter_mut().zip(&b_loc) {
                    for (ri, &bi) in rc.iter_mut().zip(bc) {
                        *ri = bi - *ri;
                    }
                }
                let norms = |comm: &mut Comm, vs: &[Vec<f64>]| {
                    let mut sums: Vec<f64> = vs.iter().map(|v| ops::dot(v, v)).collect();
                    comm.allreduce_sum_vec(&mut sums, tags::REDUCE);
                    sums.into_iter().map(f64::sqrt).collect::<Vec<_>>()
                };
                let rnorms = norms(comm, &r);
                let bnorms = norms(comm, &b_loc);
                let x_global: Vec<_> = x
                    .iter()
                    .map(|xc| gather_vector(comm, layout, xc, self.n_global))
                    .collect();
                let moved = parapre_mpisim::CommStats::delta(&comm.stats(), &before);
                let load = parapre_metrics::RankLoad {
                    rank: comm.rank(),
                    busy_s: busy.close().as_secs_f64(),
                    comm_wait_s: moved.wait_us as f64 * 1e-6,
                    msgs_sent: moved.msgs_sent,
                    bytes_sent: moved.bytes_sent,
                    msgs_recv: moved.msgs_recv,
                    bytes_recv: moved.bytes_recv,
                };
                // Rank 0 gathered the solutions and writes the reports; the
                // load of every rank is attached once they are all back.
                let reports: Vec<Option<SessionSolveReport>> = reps
                    .into_iter()
                    .zip(x_global)
                    .zip(rnorms.iter().zip(&bnorms))
                    .map(|((rep, xg), (&rnorm, &bnorm))| {
                        xg.map(|x| SessionSolveReport {
                            x,
                            iterations: rep.iterations,
                            converged: rep.converged,
                            final_relres: rep.final_relres,
                            true_relres: if bnorm > 0.0 { rnorm / bnorm } else { rnorm },
                            solve_seconds: 0.0, // the request span's share, below
                            breakdown: rep.breakdown,
                            load: parapre_metrics::LoadReport::default(),
                        })
                    })
                    .collect();
                (load, reports)
            })
        })?;
        let wall = wall.close();
        let traces = ranks.iter_mut().filter_map(|(_, tr)| tr.take()).collect();
        let load = parapre_metrics::LoadReport::new(ranks.iter().map(|((l, _), _)| *l).collect());
        let reports: Vec<SessionSolveReport> = std::mem::take(&mut ranks[0].0 .1)
            .into_iter()
            .map(|report| SessionSolveReport {
                solve_seconds: wall.as_secs_f64() / k as f64,
                load: load.clone(),
                ..report.expect("rank 0 gathers")
            })
            .collect();
        // Beside the span's own reading: a single solve's again under its
        // keyed name (fingerprint + active rung), per-column tallies, gauges.
        if parapre_metrics::enabled() {
            if k == 1 {
                let keyed = names::keyed_solve(self.id.fingerprint, self.active_precond().key());
                parapre_metrics::observe(&keyed, wall.as_micros() as u64);
            }
            parapre_metrics::inc(names::SOLVES_TOTAL, k as u64);
            for report in &reports {
                parapre_metrics::observe(names::SOLVE_ITERS, report.iterations as u64);
            }
            parapre_metrics::gauge_set(names::LOAD_IMBALANCE, load.imbalance());
            parapre_metrics::gauge_set(names::LOAD_COMM_FRACTION, load.comm_fraction());
            if let Some(r) = load.slowest_rank() {
                parapre_metrics::gauge_set(names::LOAD_SLOWEST_RANK, r as f64);
            }
        }
        Ok(SolveOutput { reports, traces })
    }

    /// [`SolverSession::run`] of one right-hand side that descends the
    /// preconditioner ladder: when the solve stops unconverged on a typed
    /// breakdown (non-finite arithmetic, stagnation, divergence), the
    /// session is rebuilt one rung down and the solve starts again, from the
    /// broken-down iterate when that is finite. The report's `solve_seconds`
    /// adds up every rung's solve and every rebuild's setup, so with no
    /// descent it is its one solve's. A rank failure ends the solve at once.
    pub fn solve_with_fallback(
        &self,
        b: &[f64],
        x0: Option<&[f64]>,
    ) -> Result<(SessionSolveReport, Descent), Vec<RankFailure>> {
        let mut seconds = 0.0;
        let mut descent = Descent::default();
        let mut guess: Option<Vec<f64>> = None;
        // A descent replaces the session with one built a rung down; `self`
        // stays borrowed.
        let mut rebuilt: Option<SolverSession> = None;
        loop {
            let sess = rebuilt.as_ref().unwrap_or(self);
            let req = SolveRequest {
                x0: guess.as_deref().or(x0),
                ..SolveRequest::new(b)
            };
            let mut rep = sess.run(req)?.single();
            seconds += rep.solve_seconds;
            if let Some(bd) = rep.breakdown {
                descent.breakdown_kind = Some(bd.kind.key().to_string());
            }
            let broke_down = !rep.converged && rep.breakdown.is_some();
            let down = sess.active_precond().fallback().filter(|_| broke_down);
            let down = down.and_then(|precond| {
                let cfg = SessionConfig {
                    precond,
                    ..sess.cfg.clone()
                };
                Self::build_identified(&sess.a_global, &sess.owner, &cfg, sess.id, false).ok()
            });
            // What an abandoned session's own build cost counts too.
            descent.fallbacks += sess.build_fallbacks();
            descent.pivot_shifts += sess.pivot_shifts();
            let Some((down, _)) = down else {
                rep.solve_seconds = seconds;
                return Ok((rep, descent));
            };
            seconds += down.setup_seconds;
            parapre_metrics::count(names::PRECOND_FALLBACK, 1);
            descent.fallbacks += 1;
            if rep.x.iter().all(|v| v.is_finite()) {
                guess = Some(rep.x);
            }
            rebuilt = Some(down);
        }
    }

    /// The configuration this session was frozen with.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Global problem size.
    pub fn n_unknowns(&self) -> usize {
        self.n_global
    }

    /// Content fingerprint of the distributed matrix.
    pub fn fingerprint(&self) -> u64 {
        self.id.fingerprint
    }

    /// Pattern-only fingerprint of the distributed matrix: equal between a
    /// session and any matrix it could donate its symbolic state to.
    pub fn pattern_fingerprint(&self) -> u64 {
        self.id.pattern_fingerprint
    }

    /// Numeric refactorizations since the last symbolic build in this
    /// session's ancestry: 0 for a cold build, `donor + 1` for a session
    /// produced by [`SolverSession::refactor`].
    pub fn pattern_age(&self) -> usize {
        self.pattern_age
    }

    /// Wall time of the one-off setup (distribute + factor, or refactor):
    /// the close of the build's span, universe launch to join.
    pub fn setup_seconds(&self) -> f64 {
        self.setup_seconds
    }

    /// The preconditioner actually in use — the fallback-ladder rung the
    /// build landed on (equals the configured kind when no fallback fired).
    pub fn active_precond(&self) -> PrecondKind {
        self.ranks[0].kind_used
    }

    /// Ladder rungs descended below the configured preconditioner at build
    /// time (rank-identical; 0 on a clean build).
    pub fn build_fallbacks(&self) -> usize {
        self.ranks[0].fallbacks
    }

    /// Total diagonal-shift retries spent factoring, summed over ranks.
    pub fn pivot_shifts(&self) -> usize {
        self.ranks.iter().map(|r| r.pivot_shifts).sum()
    }

    /// The (structurally symmetrized) global matrix this session solves.
    pub fn matrix(&self) -> &Csr {
        &self.a_global
    }

    /// Per-unknown owner map.
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }
}

/// Symmetrizes a general matrix's *pattern* (values untouched: the
/// transpose entries are added with value zero) and partitions the
/// resulting graph — the adoption path for arbitrary Matrix Market input,
/// whose layouts require structurally symmetric coupling.
pub fn partition_matrix(a: &Csr, n_ranks: usize, seed: u64) -> (Csr, Vec<u32>) {
    let a_sym = symmetrize_pattern(a);
    let owner = partition_pattern(&a_sym, n_ranks, seed);
    (a_sym, owner)
}

/// `a` with its pattern made structurally symmetric: every missing
/// transpose entry is added with value zero, stored values are untouched.
pub(crate) fn symmetrize_pattern(a: &Csr) -> Csr {
    let mut at = a.transpose();
    for v in at.vals_mut() {
        *v = 0.0;
    }
    a.add(1.0, &at).expect("same shape")
}

/// Whether [`symmetrize_pattern`] would return `a` bit for bit, decided in
/// place: the pattern is structurally symmetric, so the transpose adds no
/// entry, and every value comes through the `+ 0.0` it is given unchanged
/// (all do but `-0.0`, which comes back `+0.0`).
fn symmetrizes_to_itself(a: &Csr) -> bool {
    a.vals().iter().all(|v| (v + 0.0).to_bits() == v.to_bits()) && unpaired_entry(a).is_none()
}

/// The first stored `(i, j)` of the square `a`, in row-major order, whose
/// `(j, i)` is not stored; `None` when the pattern is structurally symmetric.
fn unpaired_entry(a: &Csr) -> Option<(usize, usize)> {
    let n = a.n_rows();
    assert_eq!(n, a.n_cols(), "square systems only");
    // In a symmetric pattern, row `j` lists the rows `i` that store
    // `(i, j)` in the order a row-major walk meets them. Every entry takes
    // one slot of its column's row; with `nnz` entries and `nnz` slots, no
    // mismatch means every slot was taken.
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let mut next = row_ptr[..n].to_vec();
    for i in 0..n {
        for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
            if next[j] == row_ptr[j + 1] || col_idx[next[j]] != i {
                // Not necessarily the first unpaired entry: search for it.
                return (0..n)
                    .flat_map(|i| a.row(i).0.iter().map(move |&j| (i, j)))
                    .find(|&(i, j)| a.row(j).0.binary_search(&i).is_err());
            }
            next[j] += 1;
        }
    }
    None
}

/// `a` itself when it [`symmetrizes_to_itself`] (every FEM matrix does),
/// its [`symmetrize_pattern`] otherwise.
pub(crate) fn with_symmetric_pattern(a: Arc<Csr>) -> Arc<Csr> {
    if symmetrizes_to_itself(&a) {
        a
    } else {
        Arc::new(symmetrize_pattern(&a))
    }
}

/// General graph partition of a structurally symmetric matrix's pattern.
/// A function of the pattern, `n_ranks` and `seed` alone — values never
/// enter — which is why a same-pattern matrix can adopt a resident
/// session's owner map without running it.
pub(crate) fn partition_pattern(a_sym: &Csr, n_ranks: usize, seed: u64) -> Vec<u32> {
    partition_graph(&matrix_graph(a_sym), n_ranks, seed).owner
}

/// The symmetrized pattern graph of a square matrix: `j` is a neighbour of
/// `i` when `(i, j)` or `(j, i)` is stored and `i != j`, each list sorted
/// and without repeats.
///
/// A structurally symmetric pattern — what the session's partitioner
/// always passes — is that graph already: row `i`'s columns are sorted and
/// distinct, so dropping the diagonal leaves exactly its list, and the
/// graph is read off `a` in one pass. Any other input is first made
/// symmetric (`A + 0·Aᵀ`, as [`partition_matrix`] does). Values never
/// enter.
pub fn matrix_graph(a: &Csr) -> Adjacency {
    if unpaired_entry(a).is_some() {
        return matrix_graph(&symmetrize_pattern(a));
    }
    let n = a.n_rows();
    let mut xadj = Vec::with_capacity(n + 1);
    let mut adjncy = Vec::with_capacity(a.nnz());
    xadj.push(0);
    for i in 0..n {
        adjncy.extend(a.row(i).0.iter().filter(|&&j| j != i));
        xadj.push(adjncy.len());
    }
    Adjacency { xadj, adjncy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapre_core::{build_case, CaseId, CaseSize};
    use parapre_sparse::Coo;

    /// Equal shape, pattern and value bits (`==` on `f64` would equate
    /// `0.0` with `-0.0`, which hash differently).
    fn same_bits(a: &Csr, b: &Csr) -> bool {
        a.n_rows() == b.n_rows()
            && a.n_cols() == b.n_cols()
            && a.row_ptr() == b.row_ptr()
            && a.col_idx() == b.col_idx()
            && a.vals()
                .iter()
                .zip(b.vals())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Three `n x n` matrices (`n >= 2`) from one random symmetric pattern:
    /// as drawn, with one transpose entry removed, and with one value `-0.0`.
    fn three_kinds(seed: u64, n: usize) -> [Csr; 3] {
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            for j in 0..i {
                // The pair (n - 1, 0) is left for the unsymmetric kind.
                if (i, j) != (n - 1, 0) && next() % 3 == 0 {
                    coo.push(i, j, -1.0 - (next() % 8) as f64 / 8.0);
                    coo.push(j, i, -1.0 - (next() % 8) as f64 / 8.0);
                }
            }
        }
        let symmetric = coo.to_csr();
        coo.push(0, n - 1, -1.0);
        let unsymmetric = coo.to_csr();
        let mut neg_zero = symmetric.clone();
        let k = (next() as usize) % neg_zero.nnz();
        neg_zero.vals_mut()[k] = -0.0;
        [symmetric, unsymmetric, neg_zero]
    }

    #[test]
    fn the_in_place_check_is_symmetrization_returning_its_input() {
        let fem = build_case(CaseId::Tc3, CaseSize::Tiny).sys.a;
        // A cyclic pattern, whose every row and column hold two entries; and
        // an entry in the last column over an empty last row.
        let cycle = [[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 4.0]];
        let cycle = Csr::from_dense_rows(&cycle.map(|r| r.to_vec()));
        let empty_row = Csr::from_dense_rows(&[vec![4.0, 1.0], vec![0.0, 0.0]]);
        let mut cases = vec![(fem, true), (cycle, false), (empty_row, false)];
        for seed in 1..=60u64 {
            let [symmetric, unsymmetric, neg_zero] = three_kinds(seed, 2 + seed as usize % 9);
            cases.extend([(symmetric, true), (unsymmetric, false), (neg_zero, false)]);
        }
        for (a, itself) in cases {
            assert_eq!(same_bits(&symmetrize_pattern(&a), &a), itself, "{a:?}");
            assert_eq!(symmetrizes_to_itself(&a), itself, "{a:?}");
            let shared = Arc::new(a);
            let got = with_symmetric_pattern(Arc::clone(&shared));
            assert_eq!(Arc::ptr_eq(&got, &shared), itself);
            assert!(same_bits(&got, &symmetrize_pattern(&shared)));
        }
    }

    #[test]
    fn the_graph_read_off_the_pattern_is_the_per_node_construction() {
        // The construction `matrix_graph` replaced: both directions of every
        // off-diagonal entry into per-node lists, sorted and deduplicated.
        fn per_node(a: &Csr) -> Adjacency {
            let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); a.n_rows()];
            for (i, j, _) in a.iter() {
                if i != j {
                    nbrs[i].push(j);
                    nbrs[j].push(i);
                }
            }
            let mut xadj = vec![0usize];
            let mut adjncy = Vec::new();
            for list in &mut nbrs {
                list.sort_unstable();
                list.dedup();
                adjncy.extend_from_slice(list);
                xadj.push(adjncy.len());
            }
            Adjacency { xadj, adjncy }
        }
        let fem = build_case(CaseId::Tc6, CaseSize::Tiny).sys.a;
        let cycle = [[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 4.0]];
        let cycle = Csr::from_dense_rows(&cycle.map(|r| r.to_vec()));
        let no_diagonal = Csr::from_dense_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        let mut cases = vec![fem, cycle, no_diagonal];
        for seed in 1..=60u64 {
            cases.extend(three_kinds(seed, 2 + seed as usize % 9));
        }
        for a in cases {
            let (got, want) = (matrix_graph(&a), per_node(&a));
            assert_eq!((got.xadj, got.adjncy), (want.xadj, want.adjncy), "{a:?}");
        }
    }

    #[test]
    fn cold_and_refactored_sessions_on_one_shared_matrix_give_the_ledger_bits() {
        let fnv1a = |x: &[f64]| {
            x.iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        let ledger = include_str!("../../../LEDGER.txt")
            .lines()
            .find(|l| l.starts_with("tc1 tiny block1 P=2 "))
            .expect("the ledger has the cell");
        let case = build_case(CaseId::Tc1, CaseSize::Tiny);
        let cfg = SessionConfig::paper(PrecondKind::Block1, 2);
        let part = partition_case(&case, cfg.scheme, cfg.n_ranks, cfg.partition_seed);
        let owner = case.dof_owner(&part.owner);
        let a = Arc::new(case.sys.a.clone());
        let id = MatrixId::of(&a);
        let (cold, _) = SolverSession::build_identified(&a, &owner, &cfg, id, false).unwrap();
        let (refactored, _) = SolverSession::refactor_identified(&cold, &a, id, false)
            .unwrap_or_else(|e| panic!("refactor refused: {e:?}"));
        for session in [&cold, &refactored] {
            assert!(Arc::ptr_eq(&session.a_global, &a));
            let rep = session
                .run(SolveRequest {
                    x0: Some(&case.x0),
                    ..SolveRequest::new(&case.sys.b)
                })
                .expect("solves")
                .single();
            let msgs: u64 = rep.load.ranks.iter().map(|r| r.msgs_sent).sum();
            let tail = format!(
                " it={} conv=true rung=block1 fallbacks=0 shifts=0 msgs={msgs} x={:016x}",
                rep.iterations,
                fnv1a(&rep.x)
            );
            assert!(ledger.ends_with(&tail), "{ledger} vs{tail}");
        }
        assert_eq!(refactored.pattern_age(), 1);
    }
}

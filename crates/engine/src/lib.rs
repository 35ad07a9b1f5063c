//! # parapre-engine
//!
//! The one distributed pipeline of the reproduction — cached solver
//! sessions — and what is built on it: the paper's table cells, a keyed LRU
//! session cache, and a bounded concurrent solve service.
//!
//! A paper-table cell is one build and one solve; the paper's *workloads*
//! (parameter sweeps, request streams) are one build and many solves. Both
//! go through the same two calls:
//!
//! * [`SolverSession`] — partition + distribute + factor once, then serve
//!   any number of solve requests against the frozen per-rank state;
//! * [`run_case`] — one paper-table cell: [`SolverSession`] build plus one
//!   solve from the case's initial guess, reported as a [`RunResult`]
//!   (iterations, traffic, the α–β modeled time of either machine
//!   profile);
//! * [`SessionCache`] — sessions keyed by (matrix fingerprint, solver
//!   config) with LRU eviction, single-flight builds, and hit/miss
//!   counters surfaced through `parapre-metrics`;
//! * [`SolveService`] — a worker pool running independent jobs over a
//!   bounded set of mpisim universes (threads ≤ `P × pool_size`), with a
//!   bounded queue and explicit [`SubmitError::QueueFull`] backpressure;
//! * [`jobs`] — the job protocol: one flat JSON object per job, parsed by
//!   [`parse_job_fields`] (which walks the one table of keys, kinds and
//!   ranges, [`JOB_KEYS`]) and served over the wire by `parapre-netd` in
//!   `parapre-net`, the one front-end.
//!
//! # The solver surface on one page
//!
//! * **Run a table cell** — [`run_case`] / [`run_case_traced`] (the two
//!   calls below, plus the safety-net check of the paper's tables).
//! * **Set up** — [`SolverSession::build`] (matrix and owner map),
//!   [`SolverSession::from_case`] (assembled test case),
//!   [`SolverSession::from_matrix`] (any square matrix, partitioned first),
//!   [`SolverSession::refactor`] (same pattern, new values: the donor's
//!   symbolic work is reused).
//! * **Solve** — [`SolverSession::run`] with a [`SolveRequest`], the only
//!   solve path. [`SolverSession::solve`]`(b)` and
//!   [`SolverSession::solve_traced`]`(b, x0)` are shorthands for its two
//!   commonest requests. `run` returns the structured per-rank failures;
//!   `?` flattens them into an [`EngineError`].
//! * **Fail** — a rank that panics or whose receive trips the deadlock
//!   timeout comes back from `run` as a structured
//!   [`RankFailure`](parapre_mpisim::RankFailure); the service answers the
//!   job with it at once and keeps serving. The only recovery is numerical:
//!   [`SolverSession::solve_with_fallback`] rebuilds a session whose solve
//!   broke down one rung down the preconditioner ladder and solves again
//!   (a job's `fallback` key, on by default).
//!
//! What used to be separate entry points are fields of the request, all off
//! by default:
//!
//! | [`SolveRequest`] field | replaces |
//! |---|---|
//! | `rhs` | one right-hand side is the plain solve, several are the batched solve (one launch, one lock-step block solve, each column bit for bit its own solve) |
//! | `x0` | the solve-with-a-guess call |
//! | `trace` | the traced solve; streams come back in [`SolveOutput::traces`] |
//! | `schedule` | the launch under a seeded send-delay schedule (tests: it moves time, never bits) |
//!
//! ```
//! use parapre_core::{build_case, CaseId, CaseSize, PrecondKind};
//! use parapre_engine::{batch_rhs, SessionConfig, SolveRequest, SolverSession};
//!
//! let case = build_case(CaseId::Tc1, CaseSize::Tiny);
//! let cfg = SessionConfig::paper(PrecondKind::Block2, 2);
//! let session = SolverSession::from_case(&case, &cfg)?;
//! let rep = session.solve(&case.sys.b)?;
//! assert!(rep.converged);
//!
//! // With a guess: a later solve starts from an earlier answer.
//! let warm = SolveRequest { x0: Some(&rep.x), ..SolveRequest::new(&case.sys.b) };
//! assert!(session.run(warm)?.single().converged);
//!
//! // Four right-hand sides in one lock-step solve: every round sends one
//! // halo message per neighbour and sweeps the factors once for all four.
//! let rhss = batch_rhs(&case.sys.b, 4);
//! let out = session.run(SolveRequest::batch(&rhss))?;
//! assert!(out.reports.iter().all(|r| r.converged));
//! assert_eq!(out.reports[0].x, rep.x); // column 0 is the base right-hand side
//! # Ok::<(), parapre_engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiment;
pub mod jobs;
pub mod service;
pub mod session;

pub use cache::{CacheStats, SessionCache, SessionKey};
pub use experiment::{run_case, run_case_traced, RunResult};
pub use jobs::{
    batch_rhs, parse_job_fields, parse_job_line, parse_line_fields, problem_key, resolve_problem,
    resolve_problem_with, JobResult, KeySpec, Kind, ProblemSpec, ResolvedProblem, RhsSpec,
    SolveJob, StoredMatrix, COMMANDS, JOB_KEYS, MAX_JOB_LINE_BYTES,
};
pub use service::{
    ConfigError, Job, JobTicket, MatrixStore, MatrixStoreStats, ServiceConfig, SolveService,
    SubmitError,
};
pub use session::{
    matrix_graph, Descent, MatrixId, RefactorFallback, SessionConfig, SessionSolveReport,
    SolveOutput, SolveRequest, SolverSession,
};

/// Errors of the serving layer.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// Session construction failed (rank failure messages, `;`-joined).
    Setup(String),
    /// A distributed solve failed (deadlock diagnostics or rank panics).
    Solve(String),
    /// A job specification or its inputs were invalid.
    BadJob(String),
    /// [`SolverSession::build`] was handed a pattern that is not
    /// structurally symmetric: `(row, col)`, the first stored entry in
    /// row-major order whose transpose is not stored.
    UnsymmetricPattern(usize, usize),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Setup(m) => write!(f, "session setup failed: {m}"),
            EngineError::Solve(m) => write!(f, "distributed solve failed: {m}"),
            EngineError::BadJob(m) => write!(f, "bad job: {m}"),
            EngineError::UnsymmetricPattern(i, j) => {
                write!(f, "unsymmetric pattern: ({i}, {j}) stored, ({j}, {i}) not")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<Vec<parapre_mpisim::RankFailure>> for EngineError {
    fn from(failures: Vec<parapre_mpisim::RankFailure>) -> Self {
        EngineError::Solve(session::join_failures(&failures))
    }
}

//! The job protocol served by `parapre-netd` — one flat JSON object per
//! job — and the solve-job resolution shared with the scheduler.
//!
//! Builtin-case job:
//!
//! ```json
//! {"id":"j1","case":"tc1","size":"tiny","precond":"schur1","ranks":4,"repeat":2}
//! ```
//!
//! Matrix Market job (`rhs` is `ones`, `rowsum`, or a vector-file path):
//!
//! ```json
//! {"id":"j2","mtx":"path/to/a.mtx","rhs":"ones","precond":"block2","ranks":2}
//! ```
//!
//! Recognized keys ([`JOB_KEYS`]): `id`, `case` *or* `mtx` *or* `fp` (a
//! registered matrix's fingerprint), `n` (explicit grid extent, overrides
//! `size`), `size` (`tiny`/`default`/`full`), `precond` (one of
//! [`VALID_PRECONDS`]; `"schurml"` additionally honours `levels`, 0 to 8,
//! and `rank`, 0 to [`MAX_CORRECTION_RANK`]), `ranks` (1 to 128), `scheme`
//! (`boxes` needs a structured case), `seed`, `repeat` (at most 64), `rhs`,
//! `tol` (finite, in (0, 1)), `maxit` (at most 10 000), `restart` (1 to
//! 1000), `batch` (at most 64). Resilience keys: `retries` (0 to 4),
//! `backoff_ms` (0 to 1000, doubled per retry), `degrade`, `checkpoint`
//! (recovery policy), `fallback` (solve-time descent of the preconditioner
//! ladder on a typed breakdown, default on; the build always goes through
//! the ladder); `fault_seed`, `drop_prob` and `delay_prob` (finite, in
//! [0, 1]), `delay_us` (0 to 10 000), `kill_rank` (below `ranks`),
//! `kill_op` (deterministic fault injection — chaos jobs); `deadline_ms`
//! (wall-clock budget from submission — expired jobs come back as
//! structured `timeout` records instead of occupying a worker). A value
//! outside its range is a `rejected` record naming the key, the range and
//! the value: no single job can hold a worker for longer than its bounded
//! retries, backoffs and delays allow. A key outside [`JOB_KEYS`] is a
//! `rejected` record naming it and the nearest key that is in the list.
//! Results come back one flat-ish JSON line per job (the `iterations` and
//! `dead_ranks` arrays are the only nesting).

use crate::resilient::RecoveryPolicy;
use crate::session::{partition_pattern, with_symmetric_pattern, MatrixId, SessionConfig};
use crate::EngineError;
use parapre_core::{build_case, build_case_sized, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre_core::{extent_range, partition_case, AssembledCase};
use parapre_krylov::MAX_CORRECTION_RANK;
use parapre_metrics::flatjson::{self, JsonValue};
use parapre_mpisim::{FaultConfig, RankOp};
use parapre_sparse::Csr;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Where a job's matrix comes from.
#[derive(Debug, Clone)]
pub enum ProblemSpec {
    /// One of the paper's assembled test cases.
    Case {
        /// Which case.
        id: CaseId,
        /// Grid-size preset (used when `extent` is `None`).
        size: CaseSize,
        /// Explicit grid extent overriding the preset.
        extent: Option<usize>,
    },
    /// A Matrix Market file.
    Mtx {
        /// Path to the `.mtx` file.
        path: PathBuf,
    },
    /// A matrix previously registered with the service by content
    /// fingerprint (`parapre-netd` ingest: clients upload once, then
    /// submit `{"fp":"<hex>"}` jobs without re-sending the bytes).
    Registered {
        /// The [`Csr::fingerprint`] of the registered matrix.
        fp: u64,
    },
}

/// Where a job's right-hand side comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RhsSpec {
    /// The case's natural (assembled) right-hand side; falls back to
    /// [`RhsSpec::Ones`] for Matrix Market problems.
    Natural,
    /// All ones.
    Ones,
    /// Row sums of the matrix (makes `x = 1` the exact solution).
    RowSum,
    /// A vector file (plain text or Matrix Market `array`).
    File(PathBuf),
}

/// One solve request.
#[derive(Debug, Clone)]
pub struct SolveJob {
    /// Caller-chosen identifier echoed in the result.
    pub id: String,
    /// Matrix source.
    pub problem: ProblemSpec,
    /// Right-hand-side source.
    pub rhs: RhsSpec,
    /// How many times to solve (identical RHS; exercises the cached
    /// factors on every repeat after the first).
    pub repeat: usize,
    /// Number of right-hand sides solved through the batched multi-RHS
    /// path (one universe launch, shared factors). `1` uses the ordinary
    /// resilient per-solve path; `k > 1` derives `k` deterministic RHS
    /// variants from the job's RHS spec.
    pub batch: usize,
    /// Session configuration (preconditioner, ranks, tolerances …).
    pub session: SessionConfig,
    /// Retry/checkpoint/degrade behavior for this job.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault injection plan (chaos jobs only).
    pub fault: Option<FaultConfig>,
    /// Wall-clock budget in milliseconds, measured from submission. A job
    /// still queued past its deadline is rejected with a structured
    /// `timeout` record instead of occupying a worker; a multi-repeat job
    /// re-checks between repeats and stops early the same way.
    pub deadline_ms: Option<u64>,
}

/// The outcome of one job, serializable as a JSONL result line.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's identifier.
    pub id: String,
    /// Whether the job ran to completion (solves may still not converge —
    /// see [`JobResult::converged`]).
    pub ok: bool,
    /// Failure message when `ok` is false.
    pub error: Option<String>,
    /// Whether every solve met the residual target.
    pub converged: bool,
    /// Outer iteration count of each repeat.
    pub iterations: Vec<usize>,
    /// Final recursive relative residual of the last solve.
    pub final_relres: f64,
    /// Final true relative residual ‖b−Ax‖/‖b‖ of the last solve.
    pub true_relres: f64,
    /// Whether the session came from cache.
    pub cache_hit: bool,
    /// Session setup wall time attributed to this job (0 on cache hits).
    pub setup_seconds: f64,
    /// Total solve wall time across repeats.
    pub solve_seconds: f64,
    /// Milliseconds the job waited in the service queue before a worker
    /// picked it up (0 when run outside a service).
    pub queue_ms: f64,
    /// Milliseconds of session build attributed to this job — the
    /// millisecond view of `setup_seconds` (0 on cache hits).
    pub build_ms: f64,
    /// Milliseconds of solve wall time across repeats — the millisecond
    /// view of `solve_seconds`.
    pub solve_ms: f64,
    /// Global problem size.
    pub n_unknowns: usize,
    /// Failed attempts absorbed by retries, summed over repeats.
    pub retries: usize,
    /// At least one repeat was answered by the degraded (reduced-system)
    /// path — the solution is partial; see `true_relres`.
    pub degraded: bool,
    /// Union of ranks declared dead across repeats.
    pub dead_ranks: Vec<usize>,
    /// Classification of the failure (`"rank_failure"`, `"panic"`,
    /// `"rejected"`, ...) when one occurred.
    pub error_kind: Option<String>,
    /// Diagonal-shift factorization retries, summed over ranks and repeats.
    pub pivot_shifts: usize,
    /// Preconditioner-ladder rungs descended (build- plus solve-time),
    /// summed over repeats.
    pub fallbacks: usize,
    /// Kind key of the last typed numerical breakdown observed
    /// (`"stagnation"`, `"non_finite"`, ...), recovered-from or not.
    pub breakdown_kind: Option<String>,
    /// Right-hand sides solved per repeat (1 on the non-batched path).
    pub batch: usize,
    /// Key of the preconditioner rung that actually served the job (the
    /// requested one unless the build descended the ladder).
    pub precond_used: Option<String>,
    /// The job's session was produced by a numeric-only refactorization of
    /// a resident same-pattern session (by this job on a miss, or by the
    /// job that built the session this one hit).
    pub refactored: bool,
    /// Refactorizations since the last symbolic build in the session's
    /// ancestry (0 for a cold-built session).
    pub pattern_age: usize,
}

impl JobResult {
    /// A result for a job that failed before (or while) solving.
    pub fn failed(id: impl Into<String>, error: impl Into<String>) -> JobResult {
        JobResult {
            id: id.into(),
            ok: false,
            error: Some(error.into()),
            converged: false,
            iterations: Vec::new(),
            final_relres: f64::NAN,
            true_relres: f64::NAN,
            cache_hit: false,
            setup_seconds: 0.0,
            solve_seconds: 0.0,
            queue_ms: 0.0,
            build_ms: 0.0,
            solve_ms: 0.0,
            n_unknowns: 0,
            retries: 0,
            degraded: false,
            dead_ranks: Vec::new(),
            error_kind: None,
            pivot_shifts: 0,
            fallbacks: 0,
            breakdown_kind: None,
            batch: 1,
            precond_used: None,
            refactored: false,
            pattern_age: 0,
        }
    }

    /// Serializes as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let iters: Vec<String> = self.iterations.iter().map(|i| i.to_string()).collect();
        let mut out = format!(
            "{{\"id\":\"{}\",\"ok\":{},\"converged\":{},\"iterations\":[{}],\
             \"final_relres\":{},\"true_relres\":{},\"cache_hit\":{},\
             \"setup_seconds\":{},\"solve_seconds\":{},\
             \"queue_ms\":{},\"build_ms\":{},\"solve_ms\":{},\"n\":{},\
             \"refactored\":{},\"pattern_age\":{}",
            flatjson::escape(&self.id),
            self.ok,
            self.converged,
            iters.join(","),
            flatjson::json_f64(self.final_relres),
            flatjson::json_f64(self.true_relres),
            self.cache_hit,
            flatjson::json_f64(self.setup_seconds),
            flatjson::json_f64(self.solve_seconds),
            flatjson::json_f64(self.queue_ms),
            flatjson::json_f64(self.build_ms),
            flatjson::json_f64(self.solve_ms),
            self.n_unknowns,
            self.refactored,
            self.pattern_age,
        );
        if self.retries > 0 {
            out.push_str(&format!(",\"retries\":{}", self.retries));
        }
        if self.degraded {
            out.push_str(",\"degraded\":true");
        }
        if !self.dead_ranks.is_empty() {
            let ranks: Vec<String> = self.dead_ranks.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!(",\"dead_ranks\":[{}]", ranks.join(",")));
        }
        if self.pivot_shifts > 0 {
            out.push_str(&format!(",\"pivot_shifts\":{}", self.pivot_shifts));
        }
        if self.fallbacks > 0 {
            out.push_str(&format!(",\"fallbacks\":{}", self.fallbacks));
        }
        if let Some(kind) = &self.breakdown_kind {
            out.push_str(&format!(
                ",\"breakdown_kind\":\"{}\"",
                flatjson::escape(kind)
            ));
        }
        if self.batch > 1 {
            out.push_str(&format!(",\"batch\":{}", self.batch));
        }
        if let Some(p) = &self.precond_used {
            out.push_str(&format!(",\"precond\":\"{}\"", flatjson::escape(p)));
        }
        if let Some(kind) = &self.error_kind {
            out.push_str(&format!(",\"error_kind\":\"{}\"", flatjson::escape(kind)));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!(",\"error\":\"{}\"", flatjson::escape(e)));
        }
        out.push('}');
        out
    }
}

/// The full set of `precond` values a job line may carry — spelled out in
/// the rejection message so a misspelled client learns the valid set from
/// the structured `"rejected"` record instead of a bare "unknown" error.
pub const VALID_PRECONDS: &str = "block1, block2, schur1, schur2, schurml, overlap, jacobi";

/// Hard ceiling on one job line. Anything larger is rejected before the
/// parser touches it — a mis-framed client must not make the service
/// buffer or scan unbounded garbage. (Matrices travel through the `put`
/// ingest path, never inline in a job line.)
pub const MAX_JOB_LINE_BYTES: usize = 1 << 20;

/// Longest restart cycle a job may ask for.
const MAX_RESTART: u64 = 1000;

/// Most ranks a job may ask for: a universe allocates `P²` channels and
/// `P` threads before any rank runs.
const MAX_RANKS: u64 = 128;

/// Most right-hand sides one job may batch: the service materializes every
/// one of them, each as long as the matrix, before the solve starts.
const MAX_BATCH: u64 = 64;

/// Most retries a job may ask for.
const MAX_RETRIES: u64 = 4;

/// Longest base backoff a job may ask for, in milliseconds. It doubles per
/// retry, so the worst total wait is `15 × MAX_BACKOFF_MS`.
const MAX_BACKOFF_MS: u64 = 1000;

/// Longest injected message delay a job may ask for, in microseconds.
const MAX_DELAY_US: u64 = 10_000;

/// Most elimination levels a `schurml` job may ask for.
const MAX_LEVELS: u64 = 8;

/// Most repeats of one job.
const MAX_REPEAT: u64 = 64;

/// Most outer iterations a job may ask for.
const MAX_ITERS: u64 = 10_000;

/// Every key [`parse_job_fields`] reads. Any other key is a rejection.
pub const JOB_KEYS: &[&str] = &[
    "id",
    "case",
    "mtx",
    "fp",
    "n",
    "size",
    "precond",
    "levels",
    "rank",
    "ranks",
    "scheme",
    "seed",
    "tol",
    "maxit",
    "restart",
    "rhs",
    "repeat",
    "batch",
    "retries",
    "backoff_ms",
    "degrade",
    "checkpoint",
    "fallback",
    "fault_seed",
    "drop_prob",
    "delay_prob",
    "delay_us",
    "kill_rank",
    "kill_op",
    "deadline_ms",
];

/// The keys and values of one job or command line.
pub type JobFields = std::collections::BTreeMap<String, JsonValue>;

/// Parses one JSONL job line. `seq` numbers auto-generated ids
/// (`job-<seq>`) for lines without an `id`.
pub fn parse_job_line(line: &str, seq: usize) -> Result<SolveJob, EngineError> {
    parse_job_fields(&parse_line_fields(line)?, || format!("job-{seq}"))
}

/// The flat JSON object of one line (a job or a `cmd`), size-checked first.
pub fn parse_line_fields(line: &str) -> Result<JobFields, EngineError> {
    if line.len() > MAX_JOB_LINE_BYTES {
        return Err(EngineError::BadJob(format!(
            "job line of {} bytes exceeds the {} byte limit",
            line.len(),
            MAX_JOB_LINE_BYTES
        )));
    }
    flatjson::parse_flat_object(line).map_err(|e| EngineError::BadJob(e.to_string()))
}

/// The job a parsed line describes; `default_id` names it when the line
/// carries no `id`.
pub fn parse_job_fields(
    fields: &JobFields,
    default_id: impl FnOnce() -> String,
) -> Result<SolveJob, EngineError> {
    let get_str = |k: &str| fields.get(k).and_then(JsonValue::as_str);
    let get_u = |k: &str| fields.get(k).and_then(JsonValue::as_u64);
    let get_f = |k: &str| fields.get(k).and_then(JsonValue::as_f64);

    let id = get_str("id").map_or_else(default_id, str::to_string);

    let problem = match (get_str("case"), get_str("mtx"), get_str("fp")) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
            return Err(EngineError::BadJob(
                "give exactly one of `case`, `mtx`, `fp`".into(),
            ))
        }
        (None, None, Some(hex)) => {
            let fp = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|_| EngineError::BadJob(format!("bad fingerprint {hex:?}")))?;
            ProblemSpec::Registered { fp }
        }
        (Some(c), None, None) => {
            let case_id = CaseId::parse(c)
                .ok_or_else(|| EngineError::BadJob(format!("unknown case {c:?}")))?;
            let size = match get_str("size") {
                Some(s) => CaseSize::parse(s)
                    .ok_or_else(|| EngineError::BadJob(format!("unknown size {s:?}")))?,
                None => CaseSize::Tiny,
            };
            // An extent too large for `usize` is out of range too.
            let extent = get_u("n").map(|n| usize::try_from(n).unwrap_or(usize::MAX));
            let accepted = extent_range(case_id);
            if let Some(n) = extent.filter(|n| !accepted.contains(n)) {
                return Err(EngineError::BadJob(format!(
                    "n must be in {}..={} for case {:?}, got {n}",
                    accepted.start(),
                    accepted.end(),
                    case_id.key()
                )));
            }
            ProblemSpec::Case {
                id: case_id,
                size,
                extent,
            }
        }
        (None, Some(path), None) => ProblemSpec::Mtx {
            path: PathBuf::from(path),
        },
        (None, None, None) => {
            return Err(EngineError::BadJob("missing `case`, `mtx`, or `fp`".into()))
        }
    };

    // Bounded keys: absent, in range, or a `BadJob` naming the key, the
    // range and the value. An integer at most `max`; a real in the closed
    // or the open unit interval (NaN is in neither).
    let get_u_max = |k: &str, max: u64| match get_u(k) {
        Some(v) if v > max => Err(out_of_range(k, format!("0..={max}"), v)),
        v => Ok(v),
    };
    let get_unit = |k: &str, closed: bool| match get_f(k) {
        Some(v) if !(0.0..=1.0).contains(&v) || !closed && (v == 0.0 || v == 1.0) => {
            Err(out_of_range(k, if closed { "[0, 1]" } else { "(0, 1)" }, v))
        }
        v => Ok(v),
    };

    let precond_str = get_str("precond").unwrap_or("schur1");
    let mut precond = PrecondKind::parse(precond_str).ok_or_else(|| {
        EngineError::BadJob(format!(
            "unknown precond {precond_str:?}; valid: {VALID_PRECONDS}"
        ))
    })?;
    // SchurML knobs: `levels`/`rank` refine the parsed default variant.
    let levels = get_u_max("levels", MAX_LEVELS)?;
    let rank = get_u_max("rank", MAX_CORRECTION_RANK as u64)?;
    if let PrecondKind::SchurML { levels: l, rank: r } = &mut precond {
        *l = levels.map_or(*l, |v| v as usize);
        *r = rank.map_or(*r, |v| v as usize);
    }
    let n_ranks = get_u("ranks").unwrap_or(4);
    if !(1..=MAX_RANKS).contains(&n_ranks) {
        return Err(out_of_range("ranks", format!("1..={MAX_RANKS}"), n_ranks));
    }
    let mut session = SessionConfig::paper(precond, n_ranks as usize);
    if let Some(s) = get_str("scheme") {
        session.scheme = PartitionScheme::parse(s)
            .ok_or_else(|| EngineError::BadJob(format!("unknown scheme {s:?}")))?;
    }
    if let Some(seed) = get_u("seed") {
        session.partition_seed = seed;
    }
    if let Some(tol) = get_unit("tol", false)? {
        session.gmres.rel_tol = tol;
    }
    if let Some(maxit) = get_u_max("maxit", MAX_ITERS)? {
        session.gmres.max_iters = maxit as usize;
    }
    if let Some(restart) = get_u("restart") {
        // The solver allocates its `restart + 1` basis vectors up front.
        if !(1..=MAX_RESTART).contains(&restart) {
            return Err(out_of_range(
                "restart",
                format!("1..={MAX_RESTART}"),
                restart,
            ));
        }
        session.gmres.restart = restart as usize;
    }

    let rhs = match get_str("rhs") {
        None | Some("natural") => RhsSpec::Natural,
        Some("ones") => RhsSpec::Ones,
        Some("rowsum") => RhsSpec::RowSum,
        Some(path) => RhsSpec::File(PathBuf::from(path)),
    };

    let get_bool = |k: &str| fields.get(k).and_then(JsonValue::as_bool);
    let mut recovery = RecoveryPolicy::default();
    if let Some(r) = get_u_max("retries", MAX_RETRIES)? {
        recovery.retry_budget = r as usize;
    }
    if let Some(ms) = get_u_max("backoff_ms", MAX_BACKOFF_MS)? {
        recovery.backoff_ms = ms;
    }
    if let Some(d) = get_bool("degrade") {
        recovery.degrade = d;
    }
    if let Some(c) = get_bool("checkpoint") {
        recovery.checkpoint = c;
    }
    if let Some(f) = get_bool("fallback") {
        recovery.precond_fallback = f;
    }

    let drop_prob = get_unit("drop_prob", true)?;
    let delay_prob = get_unit("delay_prob", true)?;
    let delay_us = get_u_max("delay_us", MAX_DELAY_US)?;
    // A rank the universe does not have would never die.
    let kill_rank = get_u_max("kill_rank", n_ranks - 1)?;
    let has_fault = ["fault_seed", "drop_prob", "delay_prob", "kill_rank"]
        .iter()
        .any(|k| fields.contains_key(*k));
    let fault = has_fault.then(|| {
        let mut f = FaultConfig {
            seed: get_u("fault_seed").unwrap_or(0),
            drop_prob: drop_prob.unwrap_or(0.0),
            delay_prob: delay_prob.unwrap_or(0.0),
            ..Default::default()
        };
        if let Some(us) = delay_us {
            f.delay_us = us;
        }
        if let Some(rank) = kill_rank {
            f.kill.push(RankOp {
                rank: rank as usize,
                op: get_u("kill_op").unwrap_or(0),
            });
        }
        f
    });

    let batch = get_u("batch").unwrap_or(1).max(1);
    if batch > MAX_BATCH {
        return Err(EngineError::BadJob(format!(
            "batch must be at most {MAX_BATCH}, got {batch}"
        )));
    }
    let batch = batch as usize;
    if batch > 1 && fault.is_some() {
        return Err(EngineError::BadJob(
            "batched jobs do not support fault injection".into(),
        ));
    }

    let deadline_ms = match fields.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) if ms > 0 => Some(ms),
            _ => {
                return Err(EngineError::BadJob(
                    "deadline_ms must be a positive integer of milliseconds".into(),
                ))
            }
        },
    };

    let repeat = get_u_max("repeat", MAX_REPEAT)?.unwrap_or(1).max(1) as usize;

    // Last, so that a line with a bad value and an unknown key names the
    // bad value.
    if let Some(key) = fields.keys().find(|k| !JOB_KEYS.contains(&k.as_str())) {
        let nearest = JOB_KEYS
            .iter()
            .min_by_key(|valid| edit_distance(key, valid))
            .expect("JOB_KEYS is not empty");
        return Err(EngineError::BadJob(format!(
            "unknown key {key:?}; nearest valid key: {nearest:?}"
        )));
    }

    Ok(SolveJob {
        id,
        problem,
        rhs,
        repeat,
        batch,
        session,
        recovery,
        fault,
        deadline_ms,
    })
}

/// The rejection of a job key whose value lies outside `range`.
fn out_of_range(
    key: &str,
    range: impl std::fmt::Display,
    got: impl std::fmt::Display,
) -> EngineError {
    EngineError::BadJob(format!("{key} must be in {range}, got {got}"))
}

/// The Levenshtein distance between `a` and `b`, counted in chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Cache identity of a job's *resolved problem* (assembled matrix,
/// partition, rhs). Two jobs share a resolution iff every input to
/// [`resolve_problem`] matches. File-backed problems (`mtx` / rhs files)
/// are keyed by path, not content: a service caches what it read first.
pub fn problem_key(job: &SolveJob) -> String {
    format!(
        "{:?}|{:?}|{}|{}|P{}",
        job.problem,
        job.rhs,
        job.session.scheme.key(),
        job.session.partition_seed,
        job.session.n_ranks
    )
}

/// A matrix registered with the service, with the pattern hash its
/// registration computed in the same pass as the content hash it is keyed
/// by.
#[derive(Debug, Clone)]
pub struct StoredMatrix {
    /// The matrix as uploaded.
    pub a: Arc<Csr>,
    /// Both hashes of `a`.
    pub id: MatrixId,
}

/// A job's matrix, owner map, right-hand side, and optional initial guess,
/// ready for [`SolverSession::build`](crate::SolverSession::build).
pub struct ResolvedProblem {
    /// The (layout-ready) global matrix; a registered upload that is its
    /// own pattern symmetrization is the store's matrix itself.
    pub a: Arc<Csr>,
    /// Both hashes of `a`, computed once here so that neither the cache
    /// lookup of every job nor the session build hashes it again.
    pub id: MatrixId,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Initial guess (the paper's per-case guess for builtin cases).
    pub x0: Option<Vec<f64>>,
    /// Per-unknown owning rank. Matrix-backed problems partition their
    /// pattern graph on first use: a job served from cache, or refactored
    /// from a resident session (which brings its own owner map), never
    /// pays for the partition.
    owner: OnceLock<Vec<u32>>,
    /// `(n_ranks, seed)` of that deferred graph partition.
    partition: (usize, u64),
}

impl ResolvedProblem {
    /// Per-unknown owning rank (computed on first call for matrix-backed
    /// problems; see the field).
    pub fn owner(&self) -> &[u32] {
        self.owner.get_or_init(|| {
            let (n_ranks, seed) = self.partition;
            partition_pattern(&self.a, n_ranks, seed)
        })
    }

    /// A matrix-backed problem: `a_sym` is structurally symmetric and its
    /// general graph partition is deferred.
    fn from_matrix(
        a_sym: Arc<Csr>,
        id: MatrixId,
        job: &SolveJob,
    ) -> Result<ResolvedProblem, EngineError> {
        let b = rhs_for(&job.rhs, &a_sym, None)?;
        Ok(ResolvedProblem {
            a: a_sym,
            id,
            b,
            x0: None,
            owner: OnceLock::new(),
            partition: (job.session.n_ranks, job.session.partition_seed),
        })
    }
}

/// Materializes a job's problem: assembles the case or loads the file,
/// partitions, and produces the right-hand side. Fingerprint-referencing
/// jobs ([`ProblemSpec::Registered`]) need a store —
/// use [`resolve_problem_with`].
pub fn resolve_problem(job: &SolveJob) -> Result<ResolvedProblem, EngineError> {
    resolve_problem_with(job, &|_| None)
}

/// [`resolve_problem`] with a fingerprint → matrix lookup for
/// [`ProblemSpec::Registered`] jobs (the service passes its
/// [`MatrixStore`](crate::service::MatrixStore)).
pub fn resolve_problem_with(
    job: &SolveJob,
    lookup: &dyn Fn(u64) -> Option<StoredMatrix>,
) -> Result<ResolvedProblem, EngineError> {
    match &job.problem {
        ProblemSpec::Registered { fp } => {
            let stored = lookup(*fp).ok_or_else(|| {
                EngineError::BadJob(format!("fingerprint {fp:016x} is not registered"))
            })?;
            // A structurally symmetric upload is shared with the store, and
            // so are the hashes its `put` computed.
            let a = with_symmetric_pattern(Arc::clone(&stored.a));
            let id = if Arc::ptr_eq(&a, &stored.a) {
                stored.id
            } else {
                MatrixId::of(&a)
            };
            ResolvedProblem::from_matrix(a, id, job)
        }
        ProblemSpec::Case { id, size, extent } => {
            let case: AssembledCase = match extent {
                Some(n) => build_case_sized(*id, *n),
                None => build_case(*id, *size),
            };
            if job.session.scheme == PartitionScheme::Boxes && case.structured_dims.is_none() {
                return Err(EngineError::BadJob(format!(
                    "scheme \"boxes\" needs a structured grid, which case {:?} does not have",
                    id.key()
                )));
            }
            let node_part = partition_case(
                &case,
                job.session.scheme,
                job.session.n_ranks,
                job.session.partition_seed,
            );
            let owner = case.dof_owner(&node_part.owner);
            let b = rhs_for(&job.rhs, &case.sys.a, Some(&case.sys.b))?;
            Ok(ResolvedProblem {
                id: MatrixId::of(&case.sys.a),
                a: Arc::new(case.sys.a),
                b,
                x0: Some(case.x0),
                owner: OnceLock::from(owner),
                partition: (job.session.n_ranks, job.session.partition_seed),
            })
        }
        ProblemSpec::Mtx { path } => {
            let a = parapre_sparse::io::load_mtx(path)
                .map_err(|e| EngineError::BadJob(format!("{}: {e:?}", path.display())))?;
            if a.n_rows() != a.n_cols() {
                return Err(EngineError::BadJob("matrix must be square".into()));
            }
            let a = with_symmetric_pattern(Arc::new(a));
            let id = MatrixId::of(&a);
            ResolvedProblem::from_matrix(a, id, job)
        }
    }
}

/// Derives `k` deterministic right-hand-side variants from a base vector
/// for batched jobs: variant 0 is the base itself, variant `j` modulates
/// it with a smooth index-dependent factor, so the batch exercises `k`
/// genuinely different solves of comparable difficulty (a scaled RHS
/// alone would converge identically by linearity).
pub fn batch_rhs(base: &[f64], k: usize) -> Vec<Vec<f64>> {
    (0..k.max(1))
        .map(|j| {
            if j == 0 {
                return base.to_vec();
            }
            let freq = j as f64;
            base.iter()
                .enumerate()
                .map(|(i, &v)| {
                    let phase = freq * (i as f64 + 1.0) / (base.len() as f64 + 1.0);
                    v * (1.0 + 0.25 * (std::f64::consts::PI * phase).sin())
                })
                .collect()
        })
        .collect()
}

fn rhs_for(spec: &RhsSpec, a: &Csr, natural: Option<&[f64]>) -> Result<Vec<f64>, EngineError> {
    let n = a.n_rows();
    let b = match spec {
        RhsSpec::Natural => match natural {
            Some(b) => b.to_vec(),
            None => vec![1.0; n],
        },
        RhsSpec::Ones => vec![1.0; n],
        RhsSpec::RowSum => a.mul_vec(&vec![1.0; n]),
        RhsSpec::File(path) => {
            let b = parapre_sparse::io::load_vec(path)
                .map_err(|e| EngineError::BadJob(format!("{}: {e:?}", path.display())))?;
            if b.len() != n {
                return Err(EngineError::BadJob(format!(
                    "rhs length {} != matrix size {n}",
                    b.len()
                )));
            }
            b
        }
    };
    // A single NaN/Inf in the right-hand side poisons every inner product
    // of the solve — reject the job up front with a structured error.
    if let Some(i) = b.iter().position(|v| !v.is_finite()) {
        return Err(EngineError::BadJob(format!(
            "rhs entry {i} is not finite ({})",
            b[i]
        )));
    }
    Ok(b)
}

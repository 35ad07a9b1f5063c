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
//! The keys a job line may carry, the kind and range of each value and
//! what it sets are the rows of [`JOB_KEYS`]; [`parse_job_fields`] walks
//! them, so a value of the wrong kind or outside its range is a `rejected`
//! record naming the key, and so is a key outside the table (with the
//! nearest key that is in it). The `cmd` verbs are [`COMMANDS`].
//! Results come back one flat-ish JSON line per job (the `iterations`
//! array is the only nesting).

use crate::session::{partition_pattern, with_symmetric_pattern, MatrixId, SessionConfig};
use crate::EngineError;
use parapre_core::{build_case, build_case_sized, CaseId, CaseSize, PartitionScheme, PrecondKind};
use parapre_core::{extent_range, partition_case, AssembledCase};
use parapre_krylov::MAX_CORRECTION_RANK;
use parapre_metrics::flatjson::{self, JsonValue};
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
    /// path (one universe launch, shared factors). `1` uses the per-solve
    /// path, which may descend the preconditioner ladder; `k > 1` derives
    /// `k` deterministic RHS variants from the job's RHS spec.
    pub batch: usize,
    /// Session configuration (preconditioner, ranks, tolerances …).
    pub session: SessionConfig,
    /// On a typed numerical breakdown (non-finite arithmetic, stagnation,
    /// divergence) of a single-right-hand-side solve, rebuild the session
    /// one rung down the preconditioner ladder and solve again.
    pub fallback: bool,
    /// Wall-clock budget in milliseconds, measured from submission. A job
    /// still queued past its deadline is rejected with a structured
    /// `timeout` record instead of occupying a worker; a multi-repeat job
    /// re-checks between repeats and stops early the same way.
    pub deadline_ms: Option<u64>,
}

/// The outcome of one job, serializable as a JSONL result line.
#[derive(Debug, Clone, Default)]
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
            error: Some(error.into()),
            final_relres: f64::NAN,
            true_relres: f64::NAN,
            batch: 1,
            ..JobResult::default()
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

/// Hard ceiling on one job line. Anything larger is rejected before the
/// parser touches it — a mis-framed client must not make the service
/// buffer or scan unbounded garbage. (Matrices travel through the `put`
/// ingest path, never inline in a job line.)
pub const MAX_JOB_LINE_BYTES: usize = 1 << 20;

/// What the value of a job key must be.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Any string.
    Str,
    /// `true` or `false`.
    Bool,
    /// An integer in `min..=max`; `u64::MAX` as `max` is any `u64`.
    Uint(u64, u64),
    /// A number in `(0, 1)`. `null` reads as NaN, which is not in it.
    OpenUnit,
    /// One of an enum's keys (case-insensitive), as the function lists them.
    OneOf(fn() -> Vec<&'static str>),
}

impl Kind {
    /// The range of a numeric kind as its rejections print it.
    fn within(&self) -> String {
        match *self {
            Uint(min, MAX) => format!("in {min}..=u64::MAX"),
            Uint(min, max) => format!("in {min}..={max}"),
            _ => "in (0, 1)".into(),
        }
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Str => write!(f, "a string"),
            Bool => write!(f, "true or false"),
            Uint(..) => write!(f, "an integer {}", self.within()),
            OpenUnit => write!(f, "a number {}", self.within()),
            OneOf(keys) => write!(f, "one of {}", keys().join(", ")),
        }
    }
}

use Kind::{Bool, OneOf, OpenUnit, Str, Uint};
const MAX: u64 = u64::MAX;

/// One job key: its name, the kind of value it takes and what it sets.
#[derive(Debug, Clone, Copy)]
pub struct KeySpec {
    /// The key as a job line spells it.
    pub name: &'static str,
    /// What its value must be.
    pub kind: Kind,
    /// One line on what it sets.
    pub doc: &'static str,
}

/// A value that passed its row's check.
#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    Str(&'a str),
    Bool(bool),
    Uint(u64),
    Real(f64),
}

impl KeySpec {
    /// The row as README's job-key table shows it.
    pub fn markdown_row(&self) -> String {
        format!("| `{}` | {} | {} |", self.name, self.kind, self.doc)
    }

    /// The walker's step: `v` as this row's kind (an enum key as its
    /// position), or `<key> must be <kind or range>, got <v as sent>`.
    fn check<'a>(&self, v: &'a JsonValue) -> Result<Value<'a>, EngineError> {
        let err = |w, g| EngineError::BadJob(format!("{} must be {w}, got {g}", self.name));
        let wrong = || err(self.kind.to_string(), sent(v));
        let outside = |got: String| err(self.kind.within(), got);
        match self.kind {
            Str => v.as_str().map(Value::Str).ok_or_else(wrong),
            Bool => v.as_bool().map(Value::Bool).ok_or_else(wrong),
            Uint(min, max) => {
                // NaN (and so `null`) and the infinities are fractional.
                let x = v.as_f64().filter(|x| x.fract() == 0.0).ok_or_else(wrong)?;
                let (n, exact) = (x as u64, (0.0..MAX as f64).contains(&x));
                if exact && (min..=max).contains(&n) {
                    Ok(Value::Uint(n))
                } else {
                    Err(outside(if exact { n.to_string() } else { sent(v) }))
                }
            }
            OpenUnit => {
                let x = v.as_f64().ok_or_else(wrong)?;
                let inside = x > 0.0 && x < 1.0;
                let got = || outside(sent(&JsonValue::Num(x)));
                inside.then_some(Value::Real(x)).ok_or_else(got)
            }
            OneOf(keys) => {
                let (s, keys) = (v.as_str().ok_or_else(wrong)?, keys());
                let at = keys.iter().position(|k| k.eq_ignore_ascii_case(s));
                let valid = || format!("unknown {} {s:?}; valid: {}", self.name, keys.join(", "));
                at.map(|i| Value::Uint(i as u64))
                    .ok_or_else(|| EngineError::BadJob(valid()))
            }
        }
    }
}

/// A JSON value as a rejection echoes it.
fn sent(v: &JsonValue) -> String {
    match v {
        JsonValue::Str(s) => format!("{s:?}"),
        // From 1e21 on in exponent form, so `1e30` reads `1e30`.
        JsonValue::Num(x) if x.abs() >= 1e21 => format!("{x:e}"),
        JsonValue::Num(x) => x.to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Null => "null".into(),
        JsonValue::Arr(xs) => format!("[{}]", xs.iter().map(sent).collect::<Vec<_>>().join(",")),
    }
}

const fn key(name: &'static str, kind: Kind, doc: &'static str) -> KeySpec {
    KeySpec { name, kind, doc }
}

fn keys<T: Copy, const N: usize>(every: [T; N], key: fn(T) -> &'static str) -> Vec<&'static str> {
    every.map(key).to_vec()
}

/// Every job key, in the order [`parse_job_fields`] checks them; any other
/// key is a rejection. The bounds keep one job within a universe's `P²`
/// channels, a GMRES basis and a batch's right-hand sides. Defaults are in
/// parentheses.
#[rustfmt::skip]
pub const JOB_KEYS: &[KeySpec] = &[
    key("id",          Str,              "echoed in the result (`job-<seq>`)"),
    key("case",        OneOf(|| keys(CaseId::ALL, CaseId::key)), "a builtin test case"),
    key("mtx",         Str,              "a Matrix Market file; exactly one of `case`, `mtx`, `fp`"),
    key("fp",          Str,              "the hex fingerprint of a matrix registered by `put`"),
    key("size",        OneOf(|| keys(CaseSize::ALL, CaseSize::key)), "grid preset of `case` (`tiny`)"),
    key("n",           Uint(0, MAX),     "grid extent of `case` within the case's range, over `size`"),
    key("precond",     OneOf(|| keys(PrecondKind::EVERY, PrecondKind::key)), "preconditioner rung (`schur1`)"),
    key("levels",      Uint(0, 8),       "hierarchy depth of `schurml` (2)"),
    key("rank",        Uint(0, MAX_CORRECTION_RANK as u64), "correction rank of `schurml` (8)"),
    key("ranks",       Uint(1, 128),     "ranks of the universe (4)"),
    key("scheme",      OneOf(|| keys(PartitionScheme::ALL, PartitionScheme::key)), "partitioner (`general`); `boxes` needs a structured case"),
    key("seed",        Uint(0, MAX),     "partition seed"),
    key("tol",         OpenUnit,         "relative residual target (1e-6)"),
    key("maxit",       Uint(0, 10_000),  "outer iteration cap (600)"),
    key("restart",     Uint(1, 1000),    "GMRES restart length (20)"),
    key("rhs",         Str,              "`natural`, `ones`, `rowsum` (b = A·1) or a vector file"),
    key("fallback",    Bool,             "descend the preconditioner ladder on a breakdown (true)"),
    key("batch",       Uint(0, 64),      "right-hand sides in one lock-step solve (1)"),
    key("deadline_ms", Uint(1, MAX),     "wall-clock budget from submission"),
    key("repeat",      Uint(0, 64),      "solves of the same right-hand side (1)"),
];

/// Every `cmd` verb. netd's dispatch answers `ping`, `put`, `shutdown` and
/// `bye`; [`SolveService::read_command`](crate::SolveService::read_command)
/// the rest.
pub const COMMANDS: &[&str] = &[
    "ping", "put", "shutdown", "bye", "stats", "watch", "metrics",
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
    // The walk: each value against its row, in the table's order.
    let values = JOB_KEYS
        .iter()
        .map(|spec| fields.get(spec.name).map(|v| spec.check(v)).transpose())
        .collect::<Result<Vec<_>, _>>()?;
    let get = |k: &str| values[JOB_KEYS.iter().position(|s| s.name == k).expect("a row")];
    let text = |k| match get(k) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    };
    let flag = |k| match get(k) {
        Some(Value::Bool(b)) => Some(b),
        _ => None,
    };
    let int = |k| match get(k) {
        Some(Value::Uint(n)) => Some(n),
        _ => None,
    };
    let real = |k| match get(k) {
        Some(Value::Real(x)) => Some(x),
        _ => None,
    };
    let pick = |k| int(k).map(|i| i as usize);

    let mut precond = pick("precond").map_or(PrecondKind::Schur1, |i| PrecondKind::EVERY[i]);
    if let PrecondKind::SchurML { levels, rank } = &mut precond {
        *levels = int("levels").map_or(*levels, |l| l as usize);
        *rank = int("rank").map_or(*rank, |r| r as usize);
    }
    let n_ranks = int("ranks").unwrap_or(4);
    let mut session = SessionConfig::paper(precond, n_ranks as usize);
    session.scheme = pick("scheme").map_or(session.scheme, |i| PartitionScheme::ALL[i]);
    session.partition_seed = int("seed").unwrap_or(session.partition_seed);
    let gmres = &mut session.gmres;
    gmres.rel_tol = real("tol").unwrap_or(gmres.rel_tol);
    gmres.max_iters = int("maxit").map_or(gmres.max_iters, |m| m as usize);
    gmres.restart = int("restart").map_or(gmres.restart, |r| r as usize);

    let rhs = match text("rhs") {
        None | Some("natural") => RhsSpec::Natural,
        Some("ones") => RhsSpec::Ones,
        Some("rowsum") => RhsSpec::RowSum,
        Some(path) => RhsSpec::File(PathBuf::from(path)),
    };

    let batch = int("batch").unwrap_or(1).max(1) as usize;

    // The rules that join keys.
    let bad = |msg: &str| Err(EngineError::BadJob(msg.into()));
    let case = pick("case").map(|i| CaseId::ALL[i]);
    let problem = match (case, text("mtx"), text("fp")) {
        (Some(id), None, None) => {
            // An extent too large for `usize` is out of range too.
            let extent = int("n").map(|n| usize::try_from(n).unwrap_or(usize::MAX));
            let (lo, hi) = extent_range(id).into_inner();
            if let Some(n) = extent.filter(|n| !(lo..=hi).contains(n)) {
                return bad(&format!(
                    "n must be in {lo}..={hi} for case {:?}, got {n}",
                    id.key()
                ));
            }
            let size = pick("size").map_or(CaseSize::Tiny, |i| CaseSize::ALL[i]);
            ProblemSpec::Case { id, size, extent }
        }
        (None, Some(path), None) => ProblemSpec::Mtx { path: path.into() },
        (None, None, Some(hex)) => match u64::from_str_radix(hex.trim_start_matches("0x"), 16) {
            Ok(fp) => ProblemSpec::Registered { fp },
            Err(_) => return bad(&format!("bad fingerprint {hex:?}")),
        },
        (None, None, None) => return bad("missing `case`, `mtx`, or `fp`"),
        _ => return bad("give exactly one of `case`, `mtx`, `fp`"),
    };
    // Last, so that a line with a bad value and an unknown key names the
    // bad value.
    let known = |k: &String| JOB_KEYS.iter().any(|s| s.name == k);
    if let Some(key) = fields.keys().find(|k| !known(k)) {
        let nearest = nearest(key, JOB_KEYS.iter().map(|s| s.name));
        return bad(&format!(
            "unknown key {key:?}; nearest valid key: {nearest:?}"
        ));
    }

    Ok(SolveJob {
        id: text("id").map_or_else(default_id, str::to_string),
        problem,
        rhs,
        repeat: int("repeat").unwrap_or(1).max(1) as usize,
        batch,
        session,
        fallback: flag("fallback").unwrap_or(true),
        deadline_ms: int("deadline_ms"),
    })
}

/// The entry of `valid` nearest to `got` in edit distance (the first on a
/// tie) — what a rejection of an unknown key or verb suggests.
pub(crate) fn nearest<'a>(got: &str, valid: impl IntoIterator<Item = &'a str>) -> &'a str {
    valid
        .into_iter()
        .min_by_key(|v| edit_distance(got, v))
        .unwrap_or_default()
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

/// The rejection of a job naming a fingerprint the store does not hold:
/// never put, or evicted since.
pub(crate) fn unregistered(fp: u64) -> EngineError {
    EngineError::BadJob(format!(
        "fingerprint {fp:016x} is not in the matrix store (never put, or evicted); put it again"
    ))
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
            let stored = lookup(*fp).ok_or_else(|| unregistered(*fp))?;
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

//! `parse_job_fields` — one walk over the rows of `JOB_KEYS` and the two
//! rules that join keys — against the hand-coded parser it replaced, which
//! is kept below verbatim as the reference (renamed `job_fields`, with the
//! enum parsers it called as they stood, and the job and recovery types it
//! built, which module `old` keeps as they stood).
//!
//! Every line must give the same `SolveJob` (equal `Debug`, the reference's
//! job read through [`walked`]) on both sides, or be rejected by both with
//! the same text. Four differences are intended, and [`check`] states them:
//!
//! 1. a value that is not of its row's kind is rejected, naming the key,
//!    where the reference ran the job with the key's default or a
//!    truncation: another JSON type; `null` for a key that is not a real;
//!    a negative or fractional number, or one of 2^64 or more, for an
//!    integer key; a string that is not one of an enum key's values (the
//!    deleted alias `blockoverlap` among them), also on a key the job does
//!    not read (`size` on an `mtx` job). A number from 1e21 on is echoed
//!    in exponent form (`1e30`), where the reference printed every digit or
//!    the saturated `u64`;
//! 2. `batch` and `deadline_ms` are rejected in the one shape
//!    `<key> must be in <range>, got <value>`, where the reference said
//!    `batch must be at most 64, got 65` and `deadline_ms must be a
//!    positive integer of milliseconds`;
//! 3. a line with two bad values may name the other one, because the walk
//!    checks every row before the rules that join keys. [`check`] accepts
//!    such a rejection when the reference gives the same text once the
//!    keys it named first are taken off the line;
//! 4. the ten recovery and fault-injection keys of [`DELETED`] are not rows
//!    of the table any more, so a line holding one is rejected as an
//!    unknown key naming the nearest key of the table, where the reference
//!    read them — unless a value of another key is bad, and then the line
//!    is rejected as it is without them; and an unknown key nearest to one
//!    of them names its nearest key of the table instead. On every line
//!    without them the two sides give equal jobs.
//!
//! Inputs: a structure-aware generator that draws keys from `JOB_KEYS`, the
//! deleted keys and near-miss misspellings of them, values at each range's
//! ends and one past them, every JSON kind, `null` and duplicate keys; lines
//! that are well typed and in range throughout, which must parse on both
//! sides to the same job; and a hand corpus.

use parapre::core::{extent_range, CaseId};
use parapre::engine::jobs::JobFields;
use parapre::engine::{parse_job_line, parse_line_fields, Kind, SolveJob, JOB_KEYS};
use parapre::metrics::flatjson::{self, JsonValue};
use proptest::prelude::*;

/// The keys the table lost with process-level recovery (difference 4).
const DELETED: [&str; 10] = [
    "retries",
    "backoff_ms",
    "degrade",
    "checkpoint",
    "drop_prob",
    "delay_prob",
    "delay_us",
    "kill_rank",
    "fault_seed",
    "kill_op",
];

/// The job the reference builds, and the recovery and fault types it fills
/// in, as they stood before the ten keys of [`DELETED`] left the table
/// (the fields the reference writes are read only by [`walked`]'s checks).
#[allow(dead_code)]
mod old {
    use parapre::engine::{ProblemSpec, RhsSpec, SessionConfig};

    /// What the resilience ladder was allowed to do for a job.
    #[derive(Debug, Clone, Copy)]
    pub struct RecoveryPolicy {
        pub retry_budget: usize,
        pub backoff_ms: u64,
        pub degrade: bool,
        pub checkpoint: bool,
        pub precond_fallback: bool,
    }

    impl Default for RecoveryPolicy {
        fn default() -> Self {
            RecoveryPolicy {
                retry_budget: 2,
                backoff_ms: 5,
                degrade: true,
                checkpoint: true,
                precond_fallback: true,
            }
        }
    }

    /// A (rank, send-op) coordinate of a kill.
    #[derive(Debug, Clone, Copy)]
    pub struct RankOp {
        pub rank: usize,
        pub op: u64,
    }

    /// The fault schedule a job line could ask for (the fields a line set).
    #[derive(Debug, Clone)]
    pub struct FaultConfig {
        pub seed: u64,
        pub drop_prob: f64,
        pub delay_prob: f64,
        pub delay_us: u64,
        pub kill: Vec<RankOp>,
    }

    impl Default for FaultConfig {
        fn default() -> Self {
            FaultConfig {
                seed: 0,
                drop_prob: 0.0,
                delay_prob: 0.0,
                delay_us: 200,
                kill: Vec::new(),
            }
        }
    }

    /// One solve request.
    #[derive(Debug, Clone)]
    pub struct SolveJob {
        pub id: String,
        pub problem: ProblemSpec,
        pub rhs: RhsSpec,
        pub repeat: usize,
        pub batch: usize,
        pub session: SessionConfig,
        pub recovery: RecoveryPolicy,
        pub fault: Option<FaultConfig>,
        pub deadline_ms: Option<u64>,
    }
}

/// The reference's job as the walker states it: of the recovery policy
/// only the ladder flag is left, and a line without the deleted keys asks
/// for the default policy and no faults.
fn walked(job: old::SolveJob) -> SolveJob {
    let (policy, default) = (job.recovery, old::RecoveryPolicy::default());
    assert!(job.fault.is_none(), "a fault on a line without fault keys");
    assert_eq!(
        (
            policy.retry_budget,
            policy.backoff_ms,
            policy.degrade,
            policy.checkpoint
        ),
        (
            default.retry_budget,
            default.backoff_ms,
            default.degrade,
            default.checkpoint
        ),
        "a recovery setting on a line without recovery keys"
    );
    SolveJob {
        id: job.id,
        problem: job.problem,
        rhs: job.rhs,
        repeat: job.repeat,
        batch: job.batch,
        session: job.session,
        fallback: policy.precond_fallback,
        deadline_ms: job.deadline_ms,
    }
}

/// The parser as it stood before the table: `parse_job_fields` (renamed),
/// its bounds, its key list and the enum parsers it called.
mod reference {
    use super::old::{FaultConfig, RankOp, RecoveryPolicy, SolveJob};
    use parapre::core::{extent_range, CaseId, CaseSize, PartitionScheme, PrecondKind};
    use parapre::engine::jobs::JobFields;
    use parapre::engine::{EngineError, ProblemSpec, RhsSpec, SessionConfig};
    use parapre::krylov::MAX_CORRECTION_RANK;
    use parapre::metrics::flatjson::JsonValue;
    use std::path::PathBuf;

    /// The full set of `precond` values a job line may carry — spelled out in
    /// the rejection message so a misspelled client learns the valid set from
    /// the structured `"rejected"` record instead of a bare "unknown" error.
    pub const VALID_PRECONDS: &str = "block1, block2, schur1, schur2, schurml, overlap, jacobi";

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

    /// Every key [`job_fields`] reads. Any other key is a rejection.
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

    /// The job a parsed line describes; `default_id` names it when the line
    /// carries no `id`.
    pub fn job_fields(
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
                    Some(s) => parse_size(s)
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
        let mut precond = parse_precond(precond_str).ok_or_else(|| {
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
            session.scheme = parse_scheme(s)
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

    fn parse_precond(s: &str) -> Option<PrecondKind> {
        match s.to_ascii_lowercase().as_str() {
            "block1" => Some(PrecondKind::Block1),
            "block2" => Some(PrecondKind::Block2),
            "schur1" => Some(PrecondKind::Schur1),
            "schur2" => Some(PrecondKind::Schur2),
            "schurml" => Some(PrecondKind::schurml_default()),
            "overlap" | "blockoverlap" => Some(PrecondKind::BlockOverlap),
            "jacobi" => Some(PrecondKind::Jacobi),
            _ => None,
        }
    }

    fn parse_size(s: &str) -> Option<CaseSize> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(CaseSize::Tiny),
            "default" => Some(CaseSize::Default),
            "full" => Some(CaseSize::Full),
            _ => None,
        }
    }

    fn parse_scheme(s: &str) -> Option<PartitionScheme> {
        match s.to_ascii_lowercase().as_str() {
            "general" => Some(PartitionScheme::General),
            "boxes" => Some(PartitionScheme::Boxes),
            "rcb" => Some(PartitionScheme::Rcb),
            _ => None,
        }
    }
}

/// How a line's two outcomes relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agreement {
    SameJob,
    SameRejection,
    WrongKind,
    OneShape,
    OtherBadValue,
    DeletedKey,
}

/// The `Kind` of `key`'s row, if it has one.
fn kind_of(key: &str) -> Option<Kind> {
    JOB_KEYS
        .iter()
        .find(|spec| spec.name == key)
        .map(|spec| spec.kind)
}

/// Whether `v` is of `kind`, written out apart from the walker.
fn of_kind(kind: Kind, v: &JsonValue) -> bool {
    match (kind, v) {
        (Kind::Str, JsonValue::Str(_)) | (Kind::Bool, JsonValue::Bool(_)) => true,
        (Kind::Uint(..), JsonValue::Num(x)) => {
            x.fract() == 0.0 && *x >= 0.0 && *x < 18_446_744_073_709_551_616.0
        }
        (Kind::OpenUnit, JsonValue::Num(_) | JsonValue::Null) => true,
        (Kind::OneOf(keys), JsonValue::Str(s)) => keys().iter().any(|k| k.eq_ignore_ascii_case(s)),
        _ => false,
    }
}

/// The key a rejection names, if the line holds it.
fn named(err: &str, fields: &JobFields) -> Option<String> {
    let err = err.strip_prefix("bad job: ")?;
    let key = if let Some(rest) = err.strip_prefix("unknown key ") {
        rest.split("; nearest")
            .next()?
            .trim_matches('"')
            .to_string()
    } else if let Some(rest) = err.strip_prefix("unknown ") {
        rest.split(' ').next()?.to_string()
    } else if err.starts_with("bad fingerprint") {
        "fp".into()
    } else if err.starts_with("give exactly one of") {
        ["fp", "mtx"]
            .into_iter()
            .find(|k| fields.contains_key(*k))?
            .into()
    } else {
        err.split(" must be ").next()?.to_string()
    };
    fields.contains_key(&key).then_some(key)
}

/// Whether the reference's rejection `old` and the walker's `new` say the
/// same thing, up to the one shape of difference 2 and the exponent echo
/// of difference 1.
fn same(old: &str, new: &str, fields: &JobFields) -> bool {
    let got = |m: &str| m.split_once(", got ").map(|(_, got)| got.to_string());
    let one_shape = |key: &str, was: &str| {
        old.starts_with(&format!("bad job: {key} {was}"))
            && new.starts_with(&format!("bad job: {key} must be "))
            && (got(old).is_none() || got(old) == got(new))
    };
    let echoed = fields.values().any(|v| match v {
        JsonValue::Num(x) if x.abs() >= 1e21 => {
            old.replace(&x.to_string(), &format!("{x:e}")) == new
        }
        _ => false,
    });
    old == new
        || echoed
        || one_shape("batch", "must be at most")
        || one_shape("deadline_ms", "must be a positive integer")
}

/// Whether the reference, asked again with the faults it names taken off
/// the line one at a time, comes to the walker's rejection `new`. A named
/// key is removed; a missing problem is given an `mtx`.
fn after_other_bad_values(fields: &JobFields, new: &str) -> bool {
    let mut fields = fields.clone();
    for _ in 0..=fields.len() {
        let Err(old) = reference::job_fields(&fields, || "job-0".into()) else {
            return false;
        };
        let old = old.to_string();
        if same(&old, new, &fields) {
            return true;
        }
        if old.contains("missing `case`, `mtx`, or `fp`") {
            fields.insert("mtx".into(), JsonValue::Str("a.mtx".into()));
            continue;
        }
        let Some(key) = named(&old, &fields) else {
            return false;
        };
        fields.remove(&key);
    }
    false
}

/// Parses `line` on both sides and states how the outcomes agree; panics,
/// naming both, when they differ in a way the module doc does not list.
fn check(line: &str) -> Agreement {
    let Ok(fields) = parse_line_fields(line) else {
        let new = parse_job_line(line, 0);
        assert!(new.is_err(), "{line}: not an object, yet parsed");
        return Agreement::SameRejection;
    };
    check_fields(line, &fields)
}

/// `v` as a job line spells it, for the flat parser to read back.
fn json(v: &JsonValue) -> String {
    match v {
        JsonValue::Str(s) => format!("\"{}\"", flatjson::escape(s)),
        JsonValue::Num(x) if x.is_nan() => "NaN".into(),
        JsonValue::Num(x) if x.is_infinite() => (if *x > 0.0 { "inf" } else { "-inf" }).into(),
        JsonValue::Num(x) => format!("{x:?}"),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Null => "null".into(),
        JsonValue::Arr(xs) => format!("[{}]", xs.iter().map(json).collect::<Vec<_>>().join(",")),
    }
}

/// The walker's outcome on the line of `fields`: the job's `Debug`, or the
/// rejection.
fn walk(fields: &JobFields) -> Result<String, String> {
    let entries: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", flatjson::escape(k), json(v)))
        .collect();
    let line = format!("{{{}}}", entries.join(","));
    // By `Debug`, where NaN is NaN.
    let back = parse_line_fields(&line).expect(&line);
    assert_eq!(format!("{back:?}"), format!("{fields:?}"), "{line}");
    let new = parse_job_line(&line, 0).map(|job| format!("{job:?}"));
    new.map_err(|e| e.to_string())
}

/// [`check`] of the object `line` parsed to.
fn check_fields(line: &str, fields: &JobFields) -> Agreement {
    let new = walk(fields);
    if fields.keys().any(|k| DELETED.contains(&k.as_str())) {
        return deleted_keys(line, fields, &new);
    }
    let old =
        reference::job_fields(fields, || "job-0".into()).map(|job| format!("{:?}", walked(job)));
    let old = old.map_err(|e| e.to_string());
    let ill_typed = fields
        .iter()
        .any(|(k, v)| kind_of(k).is_some_and(|kind| !of_kind(kind, v)));
    assert!(
        !ill_typed || new.is_err(),
        "{line}: a value of the wrong kind was accepted"
    );
    let wrong_kind = |new: &str| {
        let key = named(new, fields)?;
        Some(!of_kind(kind_of(&key)?, &fields[&key]))
    };
    match (&old, &new) {
        (Ok(a), Ok(b)) if a == b => Agreement::SameJob,
        (Err(a), Err(b)) if a == b => Agreement::SameRejection,
        (_, Err(b)) if wrong_kind(b) == Some(true) => Agreement::WrongKind,
        (Err(a), Err(b)) if same(a, b, fields) => Agreement::OneShape,
        (Err(_), Err(b)) if after_other_bad_values(fields, b) => Agreement::OtherBadValue,
        (Err(a), Err(b)) if nearest_was_deleted(a, b) => Agreement::DeletedKey,
        _ => panic!("{line}\n  reference: {old:?}\n  walker:    {new:?}"),
    }
}

/// `(key, nearest)` of an unknown-key rejection.
fn unknown_key(err: &str) -> Option<(String, String)> {
    let rest = err.strip_prefix("bad job: unknown key ")?;
    let (key, nearest) = rest.split_once("; nearest valid key: ")?;
    Some((
        key.trim_matches('"').into(),
        nearest.trim_matches('"').into(),
    ))
}

/// Difference 4, on an unknown key: the reference found it nearest to a
/// deleted key, the walker to a key of the table.
fn nearest_was_deleted(old: &str, new: &str) -> bool {
    match (unknown_key(old), unknown_key(new)) {
        (Some((k, was)), Some((key, now))) => {
            k == key && DELETED.contains(&was.as_str()) && JOB_KEYS.iter().any(|s| s.name == now)
        }
        _ => false,
    }
}

/// Difference 4, on a line holding a key of [`DELETED`]: the walker names
/// one of them as unknown, with a key of the table as the nearest; or it
/// rejects the line as it rejects the line without them, which must then
/// agree with the reference.
fn deleted_keys(line: &str, fields: &JobFields, new: &Result<String, String>) -> Agreement {
    let err = new.as_ref().expect_err(line);
    let named = unknown_key(err).filter(|(key, _)| DELETED.contains(&key.as_str()));
    if let Some((key, nearest)) = named {
        assert!(fields.contains_key(&key), "{line}: names {key}");
        assert!(
            JOB_KEYS.iter().any(|s| s.name == nearest),
            "{line}: nearest {nearest} is not a key"
        );
        return Agreement::DeletedKey;
    }
    let mut kept = fields.clone();
    kept.retain(|k, _| !DELETED.contains(&k.as_str()));
    assert_eq!(
        &walk(&kept),
        new,
        "{line}: the deleted keys changed the rejection"
    );
    check_fields(line, &kept)
}

/// A small deterministic generator for job lines.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// A key of the table or a deleted key, or one edit away from one.
    fn key(&mut self) -> String {
        let key = if self.below(8) == 0 {
            self.pick(&DELETED)
        } else {
            JOB_KEYS[self.below(JOB_KEYS.len())].name
        };
        if self.below(8) != 0 {
            return key.to_string();
        }
        let mut chars: Vec<char> = key.chars().collect();
        let at = self.below(chars.len());
        match self.below(5) {
            0 => {
                chars.remove(at);
            }
            1 => chars.insert(at, chars[at]),
            2 if at + 1 < chars.len() => chars.swap(at, at + 1),
            3 => chars[at] = chars[at].to_ascii_uppercase(),
            _ => chars.insert(at, 'x'),
        }
        chars.into_iter().collect()
    }

    /// A JSON value of any kind.
    fn any_value(&mut self) -> String {
        let kinds = [
            r#""two""#,
            r#""""#,
            r#""1e-8""#,
            r#""TC1""#,
            "2.5",
            "-3",
            "7",
            "0",
            "1",
            "-0",
            "1e30",
            "1e300",
            "18446744073709551616",
            "true",
            "false",
            "null",
            "[1,2]",
            "[]",
            "NaN",
        ];
        self.pick(&kinds).to_string()
    }

    /// An integer at or one past an end of `min..=max`, or inside it.
    fn integer(&mut self, min: u64, max: u64) -> String {
        let (min, max) = (min as i128, max as i128);
        let at = [
            min - 1,
            min,
            min + 1,
            (min + max) / 2,
            max - 1,
            max,
            max + 1,
        ];
        at[self.below(at.len())].to_string()
    }

    /// A value for `key`: mostly of its row's kind, near or past its range.
    fn value(&mut self, key: &str) -> String {
        let Some(kind) = kind_of(key).filter(|_| self.below(4) != 0) else {
            return self.any_value();
        };
        match kind {
            Kind::Uint(..) if key == "n" => {
                let ends = [
                    "0", "1", "2", "3", "31", "32", "241", "242", "1001", "1002", "521186",
                ];
                self.pick(&ends).into()
            }
            Kind::Uint(min, max) => self.integer(min, max),
            Kind::OpenUnit => self
                .pick(&[
                    "0", "1", "0.5", "0.999", "1e-6", "-1", "2", "1.0001", "-0.0001", "1e-300",
                ])
                .into(),
            Kind::Bool => self.pick(&["true", "false"]).into(),
            Kind::OneOf(keys) => {
                let keys = keys();
                let k = keys[self.below(keys.len())];
                match self.below(6) {
                    0 => format!("\"{}\"", k.to_ascii_uppercase()),
                    1 => format!("\"{k}x\""),
                    2 => self
                        .pick(&[r#""blockoverlap""#, r#""tc7""#, r#""""#])
                        .into(),
                    _ => format!("\"{k}\""),
                }
            }
            Kind::Str => match key {
                "fp" => self
                    .pick(&[r#""00ff""#, r#""0x1A""#, r#""xyzzy""#, r#""""#])
                    .into(),
                "rhs" => self
                    .pick(&[r#""natural""#, r#""ones""#, r#""rowsum""#, r#""b.vec""#])
                    .into(),
                "mtx" => r#""a.mtx""#.into(),
                _ => self.pick(&[r#""j1""#, r#""""#, r#""a b""#]).into(),
            },
        }
    }

    /// A line of random keys and values around a problem key or two.
    fn line(&mut self) -> String {
        let mut entries: Vec<(String, String)> = Vec::new();
        let problems = ["case", "case", "case", "case", "mtx", "fp"];
        for _ in 0..[1, 1, 1, 1, 1, 1, 0, 2][self.below(8)] {
            let key = self.pick(&problems);
            let value = self.value(key);
            entries.push((key.into(), value));
        }
        for _ in 0..self.below(7) {
            let key = self.key();
            let value = self.value(&key);
            entries.push((key, value));
        }
        if !entries.is_empty() && self.below(8) == 0 {
            let key = entries[self.below(entries.len())].0.clone();
            let value = self.value(&key);
            entries.push((key, value));
        }
        object(&entries)
    }

    /// A line that is well typed and in range throughout.
    fn clean_line(&mut self) -> String {
        let mut entries: Vec<(String, String)> = Vec::new();
        let ranks = 1 + self.below(8);
        entries.push(("ranks".into(), ranks.to_string()));
        match self.below(3) {
            0 => {
                let id = CaseId::ALL[self.below(6)];
                entries.push(("case".into(), format!("\"{}\"", id.key())));
                if self.below(2) == 0 {
                    let range = extent_range(id);
                    let n = [*range.start(), *range.end()][self.below(2)];
                    entries.push(("n".into(), n.to_string()));
                }
            }
            1 => entries.push(("mtx".into(), r#""a.mtx""#.into())),
            _ => entries.push(("fp".into(), r#""0x00ff""#.into())),
        }
        for _ in 0..self.below(8) {
            let spec = &JOB_KEYS[self.below(JOB_KEYS.len())];
            let key = spec.name;
            if ["case", "mtx", "fp", "n", "ranks"].contains(&key) {
                continue;
            }
            let value = match spec.kind {
                Kind::Uint(min, max) => {
                    let max = max.min(1 << 53);
                    [min, max, min + (max - min) / 2][self.below(3)].to_string()
                }
                Kind::OpenUnit => self.pick(&["1e-8", "0.5", "0.999"]).into(),
                _ => loop {
                    let value = self.value(key);
                    let json = parse_line_fields(&format!("{{\"v\":{value}}}")).unwrap();
                    if of_kind(spec.kind, &json["v"]) {
                        break value;
                    }
                },
            };
            entries.push((key.into(), value));
        }
        object(&entries)
    }
}

/// The flat JSON object of `entries`, in order (duplicates kept).
fn object(entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[test]
fn the_hand_corpus_agrees() {
    for line in [
        r#"{"id":"j1","case":"tc1","size":"tiny","precond":"schur1","ranks":4,"repeat":2}"#,
        r#"{"id":"j2","mtx":"path/to/a.mtx","rhs":"ones","precond":"block2","ranks":2}"#,
        r#"{"id":"c0-123","fp":"00000000deadbeef","rhs":"/some/dir/b.vec","precond":"block2","ranks":2}"#,
        r#"{"id":"c1-2","fp":"00ff","rhs":"rowsum","precond":"schur2","ranks":2,"batch":8}"#,
        r#"{"case":"tc1","precond":"schurml","levels":3,"rank":4}"#,
        r#"{"case":"tc1","ranks":2,"kill_rank":1,"kill_op":40,"fault_seed":7,"retries":1}"#,
        r#"{"case":"tc1","ranks":2,"drop_prob":0.1,"delay_prob":0.5,"delay_us":100}"#,
        r#"{"case":"tc1","tol":1e-8,"maxit":50,"restart":10,"deadline_ms":500}"#,
        r#"{"case":"tc1","degrade":false,"checkpoint":false,"fallback":false}"#,
        r#"{"case":"tc1","ranks":"two"}"#,
        r#"{"case":"tc1","ranks":-3}"#,
        r#"{"case":"tc1","ranks":null}"#,
        r#"{"case":"tc1","ranks":2.5}"#,
        r#"{"case":"tc1","seed":1.9}"#,
        r#"{"case":"tc1","maxit":10000.9}"#,
        r#"{"case":"tc1","precond":7}"#,
        r#"{"case":"tc1","degrade":"yes"}"#,
        r#"{"case":"tc1","id":5}"#,
        r#"{"case":"tc1","tol":"1e-8"}"#,
        r#"{"case":"tc1","n":1e30}"#,
        r#"{"case":"tc1","batch":65}"#,
        r#"{"case":"tc1","deadline_ms":0}"#,
        r#"{"case":"tc1","batch":4,"kill_rank":1}"#,
        r#"{"case":"tc1","ranks":2,"kill_rank":2}"#,
        r#"{"case":"tc1","kill_rank":3}"#,
        r#"{"case":"tc1","kill_rank":4}"#,
        r#"{"case":"tc1","fp":"00ff","retries":9}"#,
        r#"{"case":"tc1","n":0,"ranks":0}"#,
        r#"{"case":"tc1","precnd":"x","retries":5}"#,
        r#"{"mtx":"a.mtx","size":"huge"}"#,
        r#"{"cmd":"frobnicate"}"#,
        "{",
        "",
        "[1,2,3]",
    ] {
        check(line);
    }
}

#[test]
fn every_range_end_agrees() {
    for spec in JOB_KEYS {
        let values: Vec<String> = match spec.kind {
            Kind::Uint(min, max) => {
                let (min, max) = (min as i128, max as i128);
                [min - 1, min, max, max + 1]
                    .iter()
                    .map(i128::to_string)
                    .collect()
            }
            Kind::OpenUnit => ["-0.0001", "0", "1", "1.0001", "null"]
                .map(String::from)
                .into(),
            Kind::OneOf(keys) => keys().iter().map(|k| format!("\"{k}\"")).collect(),
            Kind::Str | Kind::Bool => vec!["true".into(), r#""ones""#.into()],
        };
        for value in values {
            check(&format!(
                r#"{{"case":"tc1","ranks":2,"{}":{value}}}"#,
                spec.name
            ));
        }
    }
}

#[test]
fn the_generator_reaches_every_agreement() {
    let mut draw = Draw(0x9e37_79b9_7f4a_7c15);
    let mut seen = Vec::new();
    for _ in 0..4000 {
        let line = draw.line();
        let agreement = check(&line);
        if !seen.contains(&agreement) {
            seen.push(agreement);
        }
    }
    for agreement in [
        Agreement::SameJob,
        Agreement::SameRejection,
        Agreement::WrongKind,
        Agreement::OneShape,
        Agreement::OtherBadValue,
        Agreement::DeletedKey,
    ] {
        assert!(seen.contains(&agreement), "no line gave {agreement:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_lines_agree_and_clean_lines_give_the_same_job(seed in any::<u64>()) {
        let mut draw = Draw(seed | 1);
        let clean = draw.clean_line();
        prop_assert_eq!(check(&clean), Agreement::SameJob, "{} did not parse alike", clean);
        for _ in 0..24 {
            check(&draw.line());
        }
    }
}

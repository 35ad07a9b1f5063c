//! The concurrent solve service: a bounded worker pool over mpisim
//! universes with a bounded queue and explicit backpressure.
//!
//! Each of the `pool_size` workers runs at most one job at a time, and a
//! job launches at most `P` rank threads, so total solver threads stay
//! capped at `P × pool_size` no matter how many jobs are submitted. When
//! the queue is full, [`SolveService::submit`] *rejects* with
//! [`SubmitError::QueueFull`] instead of buffering unboundedly — callers
//! decide whether to wait, shed load, or retry.
//!
//! Failures stay contained: a job that deadlocks or panics inside a
//! universe comes back on its first attempt as a failed [`JobResult`]
//! carrying the [`CommError`](parapre_mpisim::CommError) diagnostic (rank,
//! peer, tag) or the panic message, and the worker moves on to the next
//! job — the process is never poisoned.

use crate::cache::{evict_lru, CacheStats, SessionCache, SessionKey};
use crate::jobs::{
    batch_rhs, nearest, problem_key, resolve_problem_with, unregistered, JobResult, ProblemSpec,
    ResolvedProblem, SolveJob, StoredMatrix, COMMANDS,
};
use crate::session::{Descent, MatrixId, RefactorFallback, SolveRequest, SolverSession};
use crate::EngineError;
use parapre_metrics::names;
use parapre_sparse::Csr;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of worker threads (concurrent jobs).
    pub pool_size: usize,
    /// Maximum *queued* (not yet running) jobs before submissions are
    /// rejected with backpressure.
    pub queue_capacity: usize,
    /// Capacity of the session cache (resident factored sessions), of the
    /// problem cache and of the matrix store.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool_size: 4,
            queue_capacity: 16,
            cache_capacity: 4,
        }
    }
}

impl ServiceConfig {
    /// Rejects configurations that cannot serve: a zero-sized pool has no
    /// worker to ever drain the queue (every ticket would hang forever),
    /// and a zero-capacity queue rejects every submission.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pool_size == 0 {
            return Err(ConfigError::ZeroPoolSize);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        Ok(())
    }
}

/// A [`ServiceConfig`] the service refuses to start with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `pool_size == 0`: no worker would ever run a job.
    ZeroPoolSize,
    /// `queue_capacity == 0`: every submission would be rejected.
    ZeroQueueCapacity,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPoolSize => {
                write!(
                    f,
                    "pool_size must be >= 1 (a zero-sized pool never runs a job)"
                )
            }
            ConfigError::ZeroQueueCapacity => {
                write!(
                    f,
                    "queue_capacity must be >= 1 (a zero-capacity queue rejects every job)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure; retry after
    /// draining a ticket.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(
                    f,
                    "job queue full (capacity {capacity}); apply backpressure"
                )
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A unit of work for the service.
pub enum Job {
    /// A solve request (resolved, cached, and solved by the worker).
    Solve(Box<SolveJob>),
    /// An arbitrary closure (tests and embedders; runs on a worker slot
    /// under the same concurrency accounting as solves).
    Custom {
        /// Identifier echoed in the result.
        id: String,
        /// The work; `Err` marks the job failed.
        run: Box<dyn FnOnce() -> Result<(), String> + Send>,
    },
}

impl Job {
    fn id(&self) -> &str {
        match self {
            Job::Solve(j) => &j.id,
            Job::Custom { id, .. } => id,
        }
    }
}

/// Claim ticket for a submitted job; redeem with [`JobTicket::wait`].
pub struct JobTicket {
    /// The job's identifier.
    pub id: String,
    rx: Receiver<JobResult>,
}

impl JobTicket {
    /// Blocks until the job finishes and returns its result.
    pub fn wait(self) -> JobResult {
        self.rx
            .recv()
            .unwrap_or_else(|_| JobResult::failed(self.id, "worker disappeared"))
    }

    /// Blocks for at most `timeout`. `Ok` carries the result; `Err(self)`
    /// returns the still-live ticket so the caller can keep waiting (or
    /// drop it to abandon the job) — nobody gets stuck forever behind a
    /// hung rank.
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobResult, JobTicket> {
        use std::sync::mpsc::RecvTimeoutError;
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(result),
            Err(RecvTimeoutError::Timeout) => Err(self),
            Err(RecvTimeoutError::Disconnected) => {
                Ok(JobResult::failed(self.id, "worker disappeared"))
            }
        }
    }
}

struct State {
    /// Queued jobs with their result channel and submission stamp (the
    /// deadline's anchor and the start of the queue and end-to-end spans).
    queue: VecDeque<(Job, Sender<JobResult>, Instant)>,
    shutdown: bool,
}

/// A small LRU of resolved problems (assembled matrix + partition + rhs),
/// so repeated jobs skip assembly and partitioning as well as factorization.
/// File-backed problems are keyed by path: a changed file needs a restart.
struct ProblemCache {
    map: Mutex<HashMap<String, (Arc<ResolvedProblem>, u64)>>,
    capacity: usize,
    tick: AtomicUsize,
}

impl ProblemCache {
    fn new(capacity: usize) -> ProblemCache {
        ProblemCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicUsize::new(0),
        }
    }

    fn get_or_resolve(
        &self,
        job: &SolveJob,
        matrices: &MatrixStore,
    ) -> Result<Arc<ResolvedProblem>, crate::EngineError> {
        // A job naming a fingerprint refreshes it in the store, and one the
        // store has dropped is refused even where its resolution is cached.
        let stored = match job.problem {
            ProblemSpec::Registered { fp } => {
                Some(matrices.get(fp).ok_or_else(|| unregistered(fp))?)
            }
            _ => None,
        };
        let key = problem_key(job);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) as u64 + 1;
        {
            let mut map = self.map.lock().expect("problem cache lock");
            if let Some((problem, last_used)) = map.get_mut(&key) {
                *last_used = tick;
                return Ok(Arc::clone(problem));
            }
        }
        // Resolve outside the lock; concurrent identical jobs may resolve
        // redundantly (bounded by the pool size) — cheaper than serializing.
        let problem = Arc::new(resolve_problem_with(job, &|_| stored.clone())?);
        let mut map = self.map.lock().expect("problem cache lock");
        map.entry(key)
            .or_insert_with(|| (Arc::clone(&problem), tick));
        evict_lru(&mut map, self.capacity, |(_, used)| *used, |_| false);
        Ok(problem)
    }
}

/// Counter snapshot of the fingerprint matrix store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixStoreStats {
    /// Matrices resident.
    pub len: usize,
    /// First-time registrations.
    pub puts: u64,
    /// Re-registrations deduplicated by fingerprint.
    pub dedups: u64,
    /// Fingerprint lookups that found a matrix.
    pub hits: u64,
    /// Fingerprint lookups that missed.
    pub misses: u64,
    /// Matrices dropped by the LRU bound.
    pub evictions: u64,
}

/// A registered matrix and its last use (a `put` or a job naming it).
struct Resident {
    matrix: StoredMatrix,
    last_used: u64,
}

struct StoreInner {
    map: HashMap<u64, Resident>,
    tick: u64,
}

/// Matrices registered by content fingerprint, so network clients upload a
/// matrix once and then submit `{"fp":"<hex>"}` jobs — the repeat-matrix
/// path moves a ~20-byte reference instead of megabytes of triplets, and
/// the [`SessionCache`]'s single-flight build keyed on the same
/// fingerprint dedups the factorization behind it.
///
/// Bounded like the session and problem caches (netd's `--cache`): a
/// `put` keeps the `capacity` most recently used matrices and drops every
/// older one, except a matrix a cached session or problem still holds (its
/// `Arc` is shared, so dropping it would free nothing). A held matrix
/// takes no place from a fresh one: a matrix just put stays until
/// `capacity` others have been used after it. A job naming an evicted
/// fingerprint is rejected; the client puts the matrix again.
pub struct MatrixStore {
    capacity: usize,
    inner: Mutex<StoreInner>,
    puts: AtomicU64,
    dedups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MatrixStore {
    /// An empty store keeping the `capacity` (min 1) most recently used
    /// matrices and any older one held elsewhere.
    pub fn new(capacity: usize) -> MatrixStore {
        MatrixStore {
            capacity: capacity.max(1),
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                tick: 0,
            }),
            puts: AtomicU64::new(0),
            dedups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Registers a matrix and returns `(fingerprint, known_before)`.
    /// Re-registering identical content is a cheap dedup (the parsed copy
    /// is dropped, the resident one stays); either way the fingerprint
    /// becomes the most recently used.
    pub fn put(&self, a: Csr) -> (u64, bool) {
        // The one pass that yields the key also yields the pattern hash;
        // both stay with the matrix so resolving a job need not hash again.
        let id = MatrixId::of(&a);
        let fp = id.fingerprint;
        let mut inner = self.inner.lock().expect("matrix store lock");
        inner.tick += 1;
        let tick = inner.tick;
        let known = match inner.map.get_mut(&fp) {
            Some(resident) => {
                resident.last_used = tick;
                self.dedups.fetch_add(1, Ordering::Relaxed);
                parapre_metrics::inc(names::NET_MATRIX_DEDUP_TOTAL, 1);
                true
            }
            None => {
                let matrix = StoredMatrix { a: Arc::new(a), id };
                inner.map.insert(
                    fp,
                    Resident {
                        matrix,
                        last_used: tick,
                    },
                );
                self.puts.fetch_add(1, Ordering::Relaxed);
                parapre_metrics::inc(names::NET_MATRIX_PUTS_TOTAL, 1);
                false
            }
        };
        let evicted = evict_lru(
            &mut inner.map,
            self.capacity,
            |r| r.last_used,
            |r| Arc::strong_count(&r.matrix.a) > 1,
        );
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        (fp, known)
    }

    /// The matrix registered under `fp` (with its hashes), if any; a hit
    /// makes `fp` the most recently used.
    pub fn get(&self, fp: u64) -> Option<StoredMatrix> {
        let mut inner = self.inner.lock().expect("matrix store lock");
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&fp).map(|resident| {
            resident.last_used = tick;
            resident.matrix.clone()
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> MatrixStoreStats {
        MatrixStoreStats {
            len: self.inner.lock().expect("matrix store lock").map.len(),
            puts: self.puts.load(Ordering::Relaxed),
            dedups: self.dedups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
    active: AtomicUsize,
    peak_active: AtomicUsize,
    cache: SessionCache,
    problems: ProblemCache,
    matrices: MatrixStore,
    /// Sessions produced by numeric-only refactorization.
    refactors: AtomicU64,
    /// Same-pattern misses that had a resident donor and were built cold
    /// anyway (all [`RefactorFallback`] reasons).
    refactor_fallbacks: AtomicU64,
    cfg: ServiceConfig,
}

impl Shared {
    fn count_refactor_fallback(&self, reason: RefactorFallback) {
        self.refactor_fallbacks.fetch_add(1, Ordering::Relaxed);
        parapre_metrics::inc(&names::refactor_fallback(reason.key()), 1);
    }

    /// Builds the session for a missed key: numerically from a resident
    /// same-pattern donor when there is one and it agrees, cold otherwise.
    /// Which path runs is a property of the input — pattern-fingerprint
    /// equality with a resident session — never a setting.
    fn build_session(
        &self,
        resolved: &ResolvedProblem,
        cfg: &crate::SessionConfig,
        key: &SessionKey,
    ) -> Result<SolverSession, crate::EngineError> {
        if let Some(donor) = self
            .cache
            .donor(&key.config, resolved.id.pattern_fingerprint)
        {
            match SolverSession::refactor_identified(&donor, &resolved.a, resolved.id, false) {
                Ok((session, _)) => {
                    self.refactors.fetch_add(1, Ordering::Relaxed);
                    parapre_metrics::inc(names::REFACTOR_TOTAL, 1);
                    return Ok(session);
                }
                Err(reason) => self.count_refactor_fallback(reason),
            }
        }
        SolverSession::build_identified(&resolved.a, resolved.owner(), cfg, resolved.id, false)
            .map(|(s, _)| s)
    }
}

/// The running service (workers live for the service's lifetime; dropping
/// it drains the queue and joins them).
pub struct SolveService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SolveService {
    /// Validates `cfg` and starts `cfg.pool_size` workers. A zero pool or
    /// queue is a typed [`ConfigError`], not a hang or a panic.
    pub fn start(cfg: ServiceConfig) -> Result<SolveService, ConfigError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            active: AtomicUsize::new(0),
            peak_active: AtomicUsize::new(0),
            cache: SessionCache::new(cfg.cache_capacity),
            problems: ProblemCache::new(cfg.cache_capacity),
            matrices: MatrixStore::new(cfg.cache_capacity),
            refactors: AtomicU64::new(0),
            refactor_fallbacks: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..cfg.pool_size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(SolveService { shared, workers })
    }

    /// Submits a job, returning its ticket — or rejecting with
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity.
    pub fn submit(&self, job: Job) -> Result<JobTicket, SubmitError> {
        let id = job.id().to_string();
        let (tx, rx) = channel();
        {
            let mut st = self.shared.state.lock().expect("service lock");
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() >= self.shared.cfg.queue_capacity {
                return Err(SubmitError::QueueFull {
                    capacity: self.shared.cfg.queue_capacity,
                });
            }
            st.queue.push_back((job, tx, Instant::now()));
        }
        self.shared.available.notify_one();
        Ok(JobTicket { id, rx })
    }

    /// Convenience: submit a solve job.
    pub fn submit_solve(&self, job: SolveJob) -> Result<JobTicket, SubmitError> {
        self.submit(Job::Solve(Box::new(job)))
    }

    /// Session-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// `(refactors, refactor_fallbacks)`: sessions produced by numeric-only
    /// refactorization, and same-pattern misses with a resident donor that
    /// were built cold anyway (rejected, dirty donor, or found stale).
    pub fn refactor_stats(&self) -> (u64, u64) {
        (
            self.shared.refactors.load(Ordering::Relaxed),
            self.shared.refactor_fallbacks.load(Ordering::Relaxed),
        )
    }

    /// The fingerprint matrix store (network ingest path).
    pub fn matrix_store(&self) -> &MatrixStore {
        &self.shared.matrices
    }

    /// Answers one of the read commands, one reply record per element
    /// (`parapre-netd` sends each as a frame):
    ///
    /// * `stats` — [`SolveService::stats_json`];
    /// * `watch` — the convergence events after `*watch_seq` (the caller's
    ///   cursor, advanced here), then `{"watch_end":<last_seq>}`;
    /// * `metrics` — the text exposition closed by `# EOF`, one record;
    /// * anything else — a structured `rejected` record naming the nearest
    ///   of [`COMMANDS`].
    pub fn read_command(&self, cmd: &str, watch_seq: &mut u64) -> Vec<String> {
        match cmd {
            "stats" => vec![self.stats_json()],
            "watch" => {
                let mut out: Vec<String> = parapre_metrics::conv_since(*watch_seq)
                    .iter()
                    .map(|ev| {
                        *watch_seq = ev.seq;
                        ev.to_json()
                    })
                    .collect();
                out.push(format!("{{\"watch_end\":{watch_seq}}}"));
                out
            }
            "metrics" => vec![format!("{}# EOF", parapre_metrics::metrics_text())],
            other => vec![format!(
                "{{\"ok\":false,\"error\":\"{}\",\"error_kind\":\"rejected\"}}",
                parapre_metrics::flatjson::escape(&format!(
                    "unknown cmd {other}; nearest valid cmd: {:?}",
                    nearest(other, COMMANDS.iter().copied())
                ))
            )],
        }
    }

    /// One flat JSON line of live statistics: job/cache/store
    /// counters plus the latency-quantile and load-gauge headline numbers.
    pub fn stats_json(&self) -> String {
        let snap = parapre_metrics::snapshot();
        let cache = self.cache_stats();
        let (refactors, refactor_fallbacks) = self.refactor_stats();
        let store = self.matrix_store().stats();
        let ms = |name: &str, q: f64| -> f64 {
            snap.hist(name).map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
        };
        let gauge = |name: &str| -> f64 {
            let v = snap.gauge(name);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        format!(
            "{{\"stats\":true,\"jobs\":{},\"jobs_failed\":{},\"solves\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_waits\":{},\"refactors\":{},\"refactor_fallbacks\":{},\
             \"store_len\":{},\"store_puts\":{},\"store_dedups\":{},\
             \"store_hits\":{},\"store_misses\":{},\"store_evictions\":{},\
             \"queue_p50_ms\":{:.3},\"queue_p99_ms\":{:.3},\
             \"build_p50_ms\":{:.3},\"build_p99_ms\":{:.3},\
             \"solve_p50_ms\":{:.3},\"solve_p99_ms\":{:.3},\
             \"e2e_p50_ms\":{:.3},\"e2e_p99_ms\":{:.3},\
             \"load_imbalance\":{:.4},\"load_comm_fraction\":{:.4},\
             \"conv_events\":{}}}",
            snap.counter(names::JOBS_TOTAL),
            snap.counter(names::JOBS_FAILED_TOTAL),
            snap.counter(names::SOLVES_TOTAL),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.waits,
            refactors,
            refactor_fallbacks,
            store.len,
            store.puts,
            store.dedups,
            store.hits,
            store.misses,
            store.evictions,
            ms(names::QUEUE_WAIT_US, 0.5),
            ms(names::QUEUE_WAIT_US, 0.99),
            ms(names::BUILD_US, 0.5),
            ms(names::BUILD_US, 0.99),
            ms(names::SOLVE_US, 0.5),
            ms(names::SOLVE_US, 0.99),
            ms(names::E2E_US, 0.5),
            ms(names::E2E_US, 0.99),
            gauge(names::LOAD_IMBALANCE),
            gauge(names::LOAD_COMM_FRACTION),
            parapre_metrics::conv_total(),
        )
    }

    /// Highest number of jobs ever running simultaneously — bounded by
    /// `pool_size` by construction; exposed so tests can assert it.
    pub fn peak_concurrency(&self) -> usize {
        self.shared.peak_active.load(Ordering::Relaxed)
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> ServiceConfig {
        self.shared.cfg
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("service lock");
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut st = shared.state.lock().expect("service lock");
            loop {
                if let Some(item) = st.queue.pop_front() {
                    break Some(item);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.available.wait(st).expect("service lock");
            }
        };
        let Some((job, tx, enqueued)) = item else {
            return;
        };
        let queued = parapre_metrics::timed_since(names::QUEUE_WAIT_US, enqueued).close();
        let e2e = parapre_metrics::timed_since(names::E2E_US, enqueued);
        let id = job.id().to_string();
        let now_active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        shared.peak_active.fetch_max(now_active, Ordering::SeqCst);
        // Per-job deadline, counted from submission. A job whose deadline
        // expired while it sat in the queue is rejected *here*, before it
        // can occupy the worker; `run_solve_job` re-checks between repeats
        // so a multi-repeat job cannot hold the slot past its deadline
        // either.
        let deadline = match &job {
            Job::Solve(j) => j.deadline_ms.map(|ms| enqueued + Duration::from_millis(ms)),
            Job::Custom { .. } => None,
        };
        let expired_in_queue = deadline.is_some_and(|dl| Instant::now() >= dl);
        let mut result = if expired_in_queue {
            let mut r = JobResult::failed(
                id,
                format!(
                    "deadline exceeded after {:.0} ms in queue",
                    queued.as_secs_f64() * 1e3
                ),
            );
            r.error_kind = Some("timeout".into());
            r
        } else {
            catch_unwind(AssertUnwindSafe(|| run_job(shared, job, deadline))).unwrap_or_else(
                |payload| {
                    let mut r = JobResult::failed(id, panic_message(payload));
                    r.error_kind = Some("panic".into());
                    r
                },
            )
        };
        result.queue_ms = queued.as_secs_f64() * 1e3;
        parapre_metrics::inc(names::JOBS_TOTAL, 1);
        if !result.ok {
            parapre_metrics::inc(names::JOBS_FAILED_TOTAL, 1);
        }
        // End-to-end = queue wait + processing: the latency a caller sees.
        e2e.close();
        shared.active.fetch_sub(1, Ordering::SeqCst);
        // A dropped ticket just means nobody is waiting for this result.
        let _ = tx.send(result);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "job panicked".to_string(),
        },
    }
}

fn run_job(shared: &Shared, job: Job, deadline: Option<Instant>) -> JobResult {
    match job {
        Job::Custom { id, run } => match run() {
            Ok(()) => JobResult {
                ok: true,
                error: None,
                ..JobResult::failed(id, "")
            },
            Err(e) => JobResult::failed(id, e),
        },
        Job::Solve(job) => run_solve_job(shared, &job, deadline),
    }
}

fn run_solve_job(shared: &Shared, job: &SolveJob, deadline: Option<Instant>) -> JobResult {
    // Resolution, cache lookup and build; read on a miss only.
    let build = parapre_metrics::timed(names::BUILD_US);
    let resolved = match shared.problems.get_or_resolve(job, &shared.matrices) {
        Ok(r) => r,
        Err(e) => {
            let mut r = JobResult::failed(&job.id, e.to_string());
            if matches!(e, crate::EngineError::BadJob(_)) {
                r.error_kind = Some("rejected".into());
            }
            return r;
        }
    };
    // Hashed once, when the problem was resolved — not per job.
    let key = SessionKey::new(resolved.id.fingerprint, &job.session);
    let (mut session, cache_hit) = match shared.cache.get_or_build(key.clone(), || {
        shared.build_session(&resolved, &job.session, &key)
    }) {
        Ok(pair) => pair,
        Err(e) => return JobResult::failed(&job.id, e.to_string()),
    };
    let mut setup_seconds = if cache_hit {
        0.0
    } else {
        build.close().as_secs_f64()
    };
    // The result line is the accumulator every repeat folds into.
    let mut res = JobResult {
        ok: true,
        error: None,
        converged: true,
        cache_hit,
        batch: job.batch,
        ..JobResult::failed(&job.id, "")
    };
    // Batched multi-RHS jobs: one universe launch per repeat serves every
    // RHS against the shared factors, in one lock-step block solve whose
    // rounds share each halo message, all-reduce and factor sweep. Every
    // RHS starts from the job's guess, so its answer is the one a single
    // solve of it gives. A batch does not descend the ladder.
    let rhss = (job.batch > 1).then(|| batch_rhs(&resolved.b, job.batch));
    // Safety net for a stale pattern: the first solve on a session this
    // job refactored runs with the preconditioner ladder held back. If it
    // does not converge, the frozen pattern is to blame before anything
    // else is: the session is discarded, the same rung is built cold once,
    // and the solve starts over — only then does the ladder see the
    // problem.
    let mut probing = !cache_hit && session.pattern_age() > 0;
    let mut done = 0;
    while done < job.repeat {
        if let Some(r) = deadline_expired(job, deadline, done) {
            return r;
        }
        // A probe that finds the pattern stale makes this attempt set-up.
        let rebuild = probing.then(|| parapre_metrics::timed(names::BUILD_US));
        // One repeat, either shape: its reports and what the ladder did (a
        // batch, or a solve held on its rung, only has its session's build
        // to report).
        let x0 = resolved.x0.as_deref();
        let attempt = if rhss.is_none() && job.fallback && !probing {
            session
                .solve_with_fallback(&resolved.b, x0)
                .map(|(rep, descent)| (vec![rep], descent))
        } else {
            let req = match &rhss {
                Some(rhss) => SolveRequest::batch(rhss),
                None => SolveRequest::new(&resolved.b),
            };
            session.run(SolveRequest { x0, ..req }).map(|out| {
                let built = Descent {
                    fallbacks: session.build_fallbacks(),
                    pivot_shifts: session.pivot_shifts(),
                    breakdown_kind: None,
                };
                (out.reports, built)
            })
        };
        let (reports, descent) = match attempt {
            Ok(attempt) => attempt,
            Err(fails) => {
                let failed = JobResult::failed(&job.id, EngineError::from(fails).to_string());
                return JobResult {
                    batch: job.batch,
                    pivot_shifts: res.pivot_shifts,
                    fallbacks: res.fallbacks,
                    breakdown_kind: res.breakdown_kind,
                    error_kind: Some("rank_failure".into()),
                    ..failed
                };
            }
        };
        let stale = probing && !reports.iter().all(|r| r.converged);
        probing = false;
        if stale {
            shared.count_refactor_fallback(RefactorFallback::Stale);
            let cold = SolverSession::build_identified(
                &resolved.a,
                resolved.owner(),
                &job.session,
                resolved.id,
                false,
            );
            session = match cold {
                Ok((cold, _)) => Arc::new(cold),
                Err(e) => return JobResult::failed(&job.id, e.to_string()),
            };
            shared.cache.insert(key.clone(), Arc::clone(&session));
            // The discarded attempt and the cold replacement were set-up.
            setup_seconds += rebuild.map_or(0.0, |s| s.close().as_secs_f64());
            continue;
        }
        absorb(&mut res, descent);
        for rep in &reports {
            res.iterations.push(rep.iterations);
            res.converged &= rep.converged;
            res.final_relres = rep.final_relres;
            res.true_relres = rep.true_relres;
            res.solve_seconds += rep.solve_seconds;
            if let Some(b) = rep.breakdown {
                res.breakdown_kind = Some(b.kind.key().to_string());
            }
        }
        done += 1;
    }
    res.setup_seconds = setup_seconds;
    res.build_ms = setup_seconds * 1e3;
    res.solve_ms = res.solve_seconds * 1e3;
    res.n_unknowns = session.n_unknowns();
    res.precond_used = Some(session.active_precond().key().to_string());
    res.refactored = session.pattern_age() > 0;
    res.pattern_age = session.pattern_age();
    res
}

/// Folds one repeat's descent into the job's result: counts add, the
/// latest breakdown kind wins.
fn absorb(res: &mut JobResult, descent: Descent) {
    res.pivot_shifts += descent.pivot_shifts;
    res.fallbacks += descent.fallbacks;
    if descent.breakdown_kind.is_some() {
        res.breakdown_kind = descent.breakdown_kind;
    }
}

/// Structured `timeout` rejection when a job's deadline has passed with
/// `done` of its repeats finished; `None` while the job may keep going.
/// The worker stays available for the next job instead of being occupied
/// by a solve whose caller already gave up on it.
fn deadline_expired(job: &SolveJob, deadline: Option<Instant>, done: usize) -> Option<JobResult> {
    let dl = deadline?;
    if Instant::now() < dl {
        return None;
    }
    let mut r = JobResult::failed(
        &job.id,
        format!("deadline exceeded after {done} of {} repeats", job.repeat),
    );
    r.error_kind = Some("timeout".into());
    r.batch = job.batch;
    Some(r)
}

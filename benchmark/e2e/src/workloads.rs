//! The four workloads and the closed-loop client that runs them.
//!
//! Every request goes through a real `parapre-netd` child over a loopback
//! TCP socket. The generator is one process with at most two connections,
//! each sending its next request only after the previous answer arrived: the
//! callers modelled here (a time stepper, a Newton loop, a service front
//! end) need the answer before they can proceed.

use crate::host::{SpeedProbe, PROBE_NOMINAL_S};
use crate::inputs::{case_matrix, Case, Matrix, MtxVariant};
use crate::json::{quote, Json};
use crate::netd::Netd;
use crate::rng::{stream, Rng};
use crate::wire::{Conn, Reply};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Ranks per job. The box has two cores; more ranks than cores would time
/// the scheduler, not the solver.
pub const RANKS: usize = 2;

/// Right-hand sides a warm workload cycles. Netd's problem cache keys on the
/// right-hand-side path and holds `--cache 8` entries, so four files stay
/// resident; nine would re-partition on every request.
pub const RHS_FILES: usize = 4;

/// Right-hand sides per `batch` job of `service_mix`.
const BATCH: usize = 8;

/// Blocks of `service_mix` each connection sends between two host-speed
/// probes: about a third of a second.
const SERVICE_BLOCKS_PER_PROBE: usize = 6;

/// Cached solves per cell and round of `cold_build`. A hit costs a tenth of
/// a miss, so a second one is cheap and halves the noise of `req_p50_ms`
/// there, which has one sample per hit.
pub const COLD_HITS_PER_CELL: usize = 2;

/// Couplings a new-pattern variant adds.
const NEW_PATTERN_PAIRS: usize = 8;

/// A true relative residual above this is a wrong answer (the solver's own
/// target is 1e-6 on the recursive residual).
pub const MAX_TRUE_RELRES: f64 = 1e-5;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ColdBuild,
    WarmKrylov,
    WarmSchur,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdBuild,
        Workload::WarmKrylov,
        Workload::WarmSchur,
        Workload::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBuild => "cold_build",
            Workload::WarmKrylov => "warm_krylov",
            Workload::WarmSchur => "warm_schur",
            Workload::ServiceMix => "service_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One matrix-and-preconditioner cell per request class of the workload.
    pub fn cells(self) -> &'static [Cell] {
        match self {
            Workload::ColdBuild => &COLD_BUILD_CELLS,
            Workload::WarmKrylov => &WARM_KRYLOV_CELLS,
            Workload::WarmSchur => &WARM_SCHUR_CELLS,
            Workload::ServiceMix => &SERVICE_MIX_CELLS,
        }
    }

    /// Fresh netd start-ups timed per run for `setup_s`: about three seconds
    /// worth, so the cheaper the start-up the more of them. `cold_build`
    /// takes its set-up time from its rounds instead.
    pub fn setups(self) -> usize {
        match self {
            Workload::ColdBuild => 1,
            Workload::WarmKrylov => 7,
            Workload::WarmSchur => 11,
            Workload::ServiceMix => 31,
        }
    }

    /// Timed requests after which netd's peak memory is read. Memory is read
    /// after a fixed amount of work, not at the end of the window, because
    /// netd keeps every uploaded matrix: read at the end, a faster build
    /// would upload more matrices in the same window and look like a leak.
    fn rss_after_requests(self) -> usize {
        match self {
            Workload::ColdBuild => 6 * 4 * (2 + COLD_HITS_PER_CELL),
            Workload::WarmKrylov => 40,
            Workload::WarmSchur => 80,
            Workload::ServiceMix => 1500,
        }
    }
}

/// Build is the fattest bar of a request. The first three cells re-send a
/// known pattern with new values, which is exactly the traffic a numeric-only
/// refactorization would serve: 3-D fill under ILUT, ARMS under Schur 2, and
/// the multilevel SchurML on an unstructured grid. The last cell changes the
/// pattern too, bypasses any such reuse, and must not move when it lands.
const COLD_BUILD_CELLS: [Cell; 4] = [
    Cell::new("tc2_block2", Case::Tc2, 25, "block2"),
    Cell::new("tc2_schur2", Case::Tc2, 25, "schur2"),
    Cell::new("tc3_schurml", Case::Tc3, 15_000, "schurml"),
    Cell {
        new_pattern: true,
        ..Cell::new("tc2_block2_newpat", Case::Tc2, 25, "block2")
    },
];

/// Block 2 applies two local triangular sweeps with no communication and no
/// inner solve, so the outer Krylov loop (SpMV, halo exchange,
/// orthogonalization, the allreduce per iteration) and the sweep kernel share
/// the time: the workload of the kernel and `dist` layers.
const WARM_KRYLOV_CELLS: [Cell; 1] = [Cell::new("tc1_block2", Case::Tc1, 201, "block2")];

/// Schur 2 runs an inner distributed GMRES on the interface system with ARMS
/// sweeps and many small messages per outer iteration: preconditioner-apply-
/// bound, SpMV minor, and the two-unknowns-per-node elasticity case that
/// block kernels target. A kernel gain on `warm_krylov` should show little
/// here, and the reverse.
const WARM_SCHUR_CELLS: [Cell; 1] = [Cell::new("tc6_schur2", Case::Tc6, 61, "schur2")];

/// Milliseconds of math per request, so frame decode, admission, queue, cache
/// lookup, universe launch and encode are most of it: the workload of the
/// `net` and `engine` layers. Hits, batches and misses share one cache and
/// one pool, so a gain for one that costs another shows.
const SERVICE_MIX_CELLS: [Cell; 1] = [Cell::new("tc1_block2", Case::Tc1, 33, "block2")];

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub label: &'static str,
    pub case: Case,
    pub extent: usize,
    pub precond: &'static str,
    pub new_pattern: bool,
}

impl Cell {
    const fn new(label: &'static str, case: Case, extent: usize, precond: &'static str) -> Cell {
        Cell {
            label,
            case,
            extent,
            precond,
            new_pattern: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Matrix upload.
    Put,
    /// First solve on an uploaded matrix: the session is built.
    Miss,
    /// Solve served by a cached session.
    Hit,
    /// `batch` job on a cached session.
    Batch,
    /// `{"cmd":"stats"}`.
    Stats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// From spawning netd to its first answer.
    Setup,
    /// Untimed: fills the caches.
    Warmup,
    Timed,
}

/// One request as the client saw it, plus what the result line says the
/// server spent on it.
#[derive(Debug, Clone)]
pub struct ReqRecord {
    pub class: Class,
    pub phase: Phase,
    pub cell: usize,
    pub conn: usize,
    /// Round (`cold_build`) or block (`service_mix`) the request belongs to.
    pub round: usize,
    pub ok: bool,
    /// Seconds since the run's epoch at which the request was sent.
    pub sent_s: f64,
    pub latency_s: f64,
    /// How much slower than nominal the host ran around this request (see
    /// [`SpeedProbe`]); filled in when the run ends.
    pub slowdown: f64,
    pub queue_ms: f64,
    pub build_ms: f64,
    pub solve_ms: f64,
    pub iterations: Vec<u64>,
}

/// Why requests failed, by kind.
pub type FailCounts = BTreeMap<&'static str, u64>;

/// Iteration counts by (fingerprint, right-hand side, batch size).
pub type IterationTable = BTreeMap<(String, usize, usize), Vec<u64>>;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Fresh netd start-ups timed for `setup_s` (the last one serves the
    /// timed window).
    pub setups: usize,
}

pub struct Env {
    pub netd_bin: PathBuf,
    /// Where right-hand-side files are written (inside the checkout).
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub workload: Workload,
    pub records: Vec<ReqRecord>,
    /// Spawn-to-first-answer times, one per netd start-up, each with the
    /// host slowdown measured around it.
    pub spawn_to_answer: Vec<StartUp>,
    /// The host-speed probe's samples: (seconds since the run's epoch,
    /// seconds the probe took).
    pub probes: Vec<(f64, f64)>,
    pub window_s: f64,
    pub peak_rss_mb: f64,
    pub fails: FailCounts,
    /// Iteration counts the result lines reported.
    pub iterations: IterationTable,
    /// The numeric members of netd's `stats` answer just before it was
    /// stopped (cache hits, misses, evictions, …).
    pub server_stats: BTreeMap<String, f64>,
}

/// One netd start-up: spawn to first correct answer, as measured, and the
/// host slowdown around it.
#[derive(Debug, Clone, Copy)]
pub struct StartUp {
    pub seconds: f64,
    pub slowdown: f64,
}

impl StartUp {
    /// The duration at nominal host speed.
    pub fn normalized(self) -> f64 {
        self.seconds / self.slowdown
    }
}

impl ReqRecord {
    /// The latency at nominal host speed.
    pub fn normalized_s(&self) -> f64 {
        self.latency_s / self.slowdown
    }
}

/// Host slowdown at time `t`: the probe time interpolated between the
/// samples before and after `t`, over the nominal probe time. `probes` is in
/// time order; outside its span the nearest sample is used.
pub fn slowdown_at(probes: &[(f64, f64)], t: f64) -> f64 {
    let after = probes.partition_point(|p| p.0 <= t);
    let probe_s = match (after.checked_sub(1).map(|i| probes[i]), probes.get(after)) {
        (Some((t0, p0)), Some(&(t1, p1))) => p0 + (p1 - p0) * (t - t0) / (t1 - t0),
        (Some((_, p)), None) | (None, Some(&(_, p))) => p,
        (None, None) => PROBE_NOMINAL_S,
    };
    probe_s / PROBE_NOMINAL_S
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.fails.values().sum()
    }
}

/// Inputs of one cell: the matrix (shared by cells on the same case and
/// extent) and the paths of its right-hand sides.
struct CellInputs {
    matrix: Arc<Matrix>,
    rhs_paths: Vec<String>,
}

fn prepare_inputs(cfg: &RunConfig, env: &Env) -> Result<Vec<CellInputs>, String> {
    let dir = env
        .out_dir
        .join("inputs")
        .join(format!("{}-{}", cfg.workload.name(), cfg.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let cells = cfg.workload.cells();
    let mut out: Vec<CellInputs> = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let same = |o: &Cell| (o.case, o.extent) == (cell.case, cell.extent);
        if let Some(first) = cells[..c].iter().position(same) {
            let shared = CellInputs {
                matrix: Arc::clone(&out[first].matrix),
                rhs_paths: out[first].rhs_paths.clone(),
            };
            out.push(shared);
            continue;
        }
        let matrix = Arc::new(case_matrix(cell.case, cell.extent));
        let mut rhs_paths = Vec::new();
        for k in 0..RHS_FILES {
            let path = dir.join(format!("{}_{}_rhs{k}.vec", cell.case.key(), cell.extent));
            let text = matrix.rhs_text(cfg.seed, k);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            rhs_paths.push(path.to_string_lossy().into_owned());
        }
        out.push(CellInputs { matrix, rhs_paths });
    }
    Ok(out)
}

/// State shared by the connections of a run.
struct Shared {
    epoch: Instant,
    /// Iteration counts seen per (fingerprint, right-hand side, batch): a
    /// repeat of the same solve must report the same counts.
    expected: Mutex<IterationTable>,
    probe: SpeedProbe,
    probes: Mutex<Vec<(f64, f64)>>,
}

impl Shared {
    /// Takes one host-speed sample. Only called while no request is in
    /// flight, so the probe measures the host, not netd.
    fn probe_now(&self) {
        let at = self.epoch.elapsed().as_secs_f64();
        let took = self.probe.sample();
        self.probes
            .lock()
            .expect("probe samples lock")
            .push((at + took / 2.0, took));
    }
}

struct Client<'a> {
    conn: Conn,
    conn_idx: usize,
    shared: &'a Shared,
    records: Vec<ReqRecord>,
    fails: FailCounts,
    next_id: u64,
}

impl<'a> Client<'a> {
    fn new(netd: &Netd, conn_idx: usize, shared: &'a Shared) -> Result<Client<'a>, String> {
        Ok(Client {
            conn: netd.connect()?,
            conn_idx,
            shared,
            records: Vec::new(),
            fails: FailCounts::new(),
            next_id: 0,
        })
    }

    fn fail(&mut self, kind: &'static str) {
        *self.fails.entry(kind).or_default() += 1;
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        class: Class,
        phase: Phase,
        cell: usize,
        round: usize,
        sent_s: f64,
        reply: Option<&Reply>,
        ok: bool,
        iterations: Vec<u64>,
    ) {
        let field = |k: &str| reply.and_then(|r| r.line.num(k)).unwrap_or(0.0);
        self.records.push(ReqRecord {
            class,
            phase,
            cell,
            conn: self.conn_idx,
            round,
            ok,
            sent_s,
            latency_s: reply.map_or(f64::NAN, |r| r.latency_s),
            slowdown: 1.0,
            queue_ms: field("queue_ms"),
            build_ms: field("build_ms"),
            solve_ms: field("solve_ms"),
            iterations,
        });
    }

    /// Uploads a variant; returns the fingerprint netd answered with.
    fn put(
        &mut self,
        phase: Phase,
        cell: usize,
        round: usize,
        matrix: &Matrix,
        variant: &MtxVariant,
    ) -> Option<String> {
        let sent_s = self.shared.epoch.elapsed().as_secs_f64();
        let reply = self
            .conn
            .put(&[&variant.head, matrix.offdiag_text(), &variant.tail]);
        let fp = match &reply {
            Err(_) => {
                self.fail("transport");
                None
            }
            Ok(r) => match (r.line.bool("put"), r.line.str("fp")) {
                (Some(true), Some(fp)) if r.line.num("n") == Some(matrix.n as f64) => {
                    Some(fp.to_string())
                }
                _ => {
                    self.fail(reject_kind(&r.line));
                    None
                }
            },
        };
        self.record(
            Class::Put,
            phase,
            cell,
            round,
            sent_s,
            reply.as_ref().ok(),
            fp.is_some(),
            Vec::new(),
        );
        fp
    }

    /// Sends a solve job and checks its result line.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        &mut self,
        class: Class,
        phase: Phase,
        cell_idx: usize,
        round: usize,
        cell: &Cell,
        fp: &str,
        rhs_idx: usize,
        rhs_path: &str,
    ) -> bool {
        let batch = if class == Class::Batch { BATCH } else { 1 };
        self.next_id += 1;
        let mut job = format!(
            "{{\"id\":\"c{}-{}\",\"fp\":{},\"rhs\":{},\"precond\":{},\"ranks\":{RANKS}",
            self.conn_idx,
            self.next_id,
            quote(fp),
            quote(rhs_path),
            quote(cell.precond),
        );
        if batch > 1 {
            job.push_str(&format!(",\"batch\":{batch}"));
        }
        job.push('}');
        let sent_s = self.shared.epoch.elapsed().as_secs_f64();
        let reply = self.conn.request_line(&job);
        let mut iterations = Vec::new();
        let verdict: Result<(), &'static str> = match &reply {
            Err(_) => Err("transport"),
            Ok(r) => check_result(&r.line, class, batch).map(|iters| iterations = iters),
        };
        let verdict = verdict.and_then(|()| {
            let mut expected = self
                .shared
                .expected
                .lock()
                .expect("expected-iterations lock");
            let seen = expected
                .entry((fp.to_string(), rhs_idx, batch))
                .or_insert_with(|| iterations.clone());
            if *seen == iterations {
                Ok(())
            } else {
                Err("iteration_mismatch")
            }
        });
        if let Err(kind) = verdict {
            self.fail(kind);
        }
        self.record(
            class,
            phase,
            cell_idx,
            round,
            sent_s,
            reply.as_ref().ok(),
            verdict.is_ok(),
            iterations,
        );
        verdict.is_ok()
    }

    fn stats(&mut self, phase: Phase, round: usize) {
        let sent_s = self.shared.epoch.elapsed().as_secs_f64();
        let reply = self.conn.request_line("{\"cmd\":\"stats\"}");
        let ok = match &reply {
            Err(_) => {
                self.fail("transport");
                false
            }
            Ok(r) if r.line.bool("stats") == Some(true) && r.line.num("jobs").is_some() => true,
            Ok(_) => {
                self.fail("not_ok");
                false
            }
        };
        self.record(
            Class::Stats,
            phase,
            0,
            round,
            sent_s,
            reply.as_ref().ok(),
            ok,
            Vec::new(),
        );
    }
}

fn reject_kind(line: &Json) -> &'static str {
    match line.str("error_kind") {
        Some("admission") | Some("rejected") => "rejected",
        _ => "not_ok",
    }
}

/// Checks a solve's result line; returns its iteration counts.
fn check_result(line: &Json, class: Class, batch: usize) -> Result<Vec<u64>, &'static str> {
    if line.bool("ok") != Some(true) {
        return Err(reject_kind(line));
    }
    if line.bool("converged") != Some(true) {
        return Err("not_converged");
    }
    match line.num("true_relres") {
        Some(r) if r.is_finite() && r <= MAX_TRUE_RELRES => {}
        _ => return Err("residual"),
    }
    let iterations: Vec<u64> = line
        .get("iterations")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_f64)
                .map(|x| x as u64)
                .collect()
        })
        .unwrap_or_default();
    if iterations.len() != batch || iterations.contains(&0) {
        return Err("not_ok");
    }
    // A request measured as a hit that built a session (or the reverse)
    // would be filed under the wrong metric.
    if line.bool("cache_hit") != Some(class != Class::Miss) {
        return Err("cache_state");
    }
    Ok(iterations)
}

/// Runs one workload once. `Err` means the run could not be carried out at
/// all (netd did not start, inputs could not be written); failed requests
/// are counted in the outcome instead.
pub fn run(cfg: &RunConfig, env: &Env) -> Result<Outcome, String> {
    let inputs = prepare_inputs(cfg, env)?;
    let cells = cfg.workload.cells();
    let shared = Shared {
        epoch: Instant::now(),
        expected: Mutex::new(IterationTable::new()),
        probe: SpeedProbe::new(),
        probes: Mutex::new(Vec::new()),
    };
    let mut records = Vec::new();
    let mut fails = FailCounts::new();
    let mut clean_exit = true;
    // (seconds since the epoch at mid-point, duration) per start-up.
    let mut start_ups: Vec<(f64, f64)> = Vec::new();

    // Start-ups: spawn netd and get one correct answer per cell. All but
    // the last server are stopped again. `cold_build` takes its set-up time
    // from its rounds, so one start-up is enough there.
    let cold = cfg.workload == Workload::ColdBuild;
    let setups = if cold { 1 } else { cfg.setups.max(1) };
    let mut live: Option<(Netd, Client, Vec<String>)> = None;
    for _ in 0..setups {
        if let Some((netd, client, _)) = live.take() {
            absorb(&mut records, &mut fails, client);
            clean_exit &= netd.shutdown();
        }
        shared.probe_now();
        let started_s = shared.epoch.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let netd = Netd::spawn(&env.netd_bin)?;
        let mut client = Client::new(&netd, 0, &shared)?;
        let mut fps = Vec::new();
        if cold {
            cold_round(&mut client, Phase::Setup, 0, cfg.seed, cells, &inputs);
        } else {
            for (c, cell) in cells.iter().enumerate() {
                let m = &inputs[c].matrix;
                let fp = client
                    .put(Phase::Setup, c, 0, m, &m.base_variant())
                    .ok_or("set-up: the matrix upload was refused")?;
                let path = &inputs[c].rhs_paths[0];
                client.solve(Class::Miss, Phase::Setup, c, 0, cell, &fp, 0, path);
                fps.push(fp);
            }
        }
        let took = t0.elapsed().as_secs_f64();
        start_ups.push((started_s + took / 2.0, took));
        live = Some((netd, client, fps));
    }
    shared.probe_now();
    let (netd, mut client, fps) = live.expect("at least one start-up");

    // Warm-up: every right-hand side once, so netd's problem cache is full
    // and the expected iteration counts are on record.
    if !cold {
        for (c, cell) in cells.iter().enumerate() {
            for (k, path) in inputs[c].rhs_paths.iter().enumerate() {
                client.solve(Class::Hit, Phase::Warmup, c, 0, cell, &fps[c], k, path);
            }
        }
    }

    let deadline = Duration::from_secs_f64(cfg.seconds);
    let rss_after = cfg.workload.rss_after_requests();
    let mut rss_mb = None;
    let window_s;
    match cfg.workload {
        Workload::ColdBuild => {
            let window_t0 = Instant::now();
            let timed_from = client.records.len();
            let mut round = 1;
            while window_t0.elapsed() < deadline {
                cold_round(&mut client, Phase::Timed, round, cfg.seed, cells, &inputs);
                round += 1;
                if rss_mb.is_none() && client.records.len() - timed_from >= rss_after {
                    rss_mb = netd.peak_rss_mb();
                }
            }
            window_s = window_t0.elapsed().as_secs_f64();
        }
        Workload::WarmKrylov | Workload::WarmSchur => {
            let window_t0 = Instant::now();
            let mut i = 0;
            while window_t0.elapsed() < deadline {
                let k = i % RHS_FILES;
                shared.probe_now();
                client.solve(
                    Class::Hit,
                    Phase::Timed,
                    0,
                    i / RHS_FILES,
                    &cells[0],
                    &fps[0],
                    k,
                    &inputs[0].rhs_paths[k],
                );
                i += 1;
                if i == rss_after {
                    rss_mb = netd.peak_rss_mb();
                }
            }
            window_s = window_t0.elapsed().as_secs_f64();
        }
        Workload::ServiceMix => {
            let mut second = Client::new(&netd, 1, &shared)?;
            // One untimed block per connection: a batch and a miss before
            // the clock starts.
            for cl in [&mut client, &mut second] {
                service_block(
                    cl,
                    Phase::Warmup,
                    0,
                    cfg.seed,
                    &cells[0],
                    &inputs[0],
                    &fps[0],
                );
            }
            let window_t0 = Instant::now();
            let netd_ref = &netd;
            let (cell, input, fp) = (&cells[0], &inputs[0], fps[0].as_str());
            let seed = cfg.seed;
            let mut rss_samples = Vec::new();
            // Every few blocks both connections meet with nothing in
            // flight; one of them samples the host's speed and decides
            // whether the window is over, so both stop after the same block.
            let meet = Barrier::new(2);
            let over = AtomicBool::new(false);
            let (meet, over, shared_ref) = (&meet, &over, &shared);
            std::thread::scope(|s| {
                let handles: Vec<_> = [&mut client, &mut second]
                    .into_iter()
                    .map(|cl| {
                        s.spawn(move || {
                            let timed_from = cl.records.len();
                            let mut rss = None;
                            let mut block = 1;
                            loop {
                                if meet.wait().is_leader() {
                                    shared_ref.probe_now();
                                    over.store(window_t0.elapsed() >= deadline, Ordering::SeqCst);
                                }
                                meet.wait();
                                if over.load(Ordering::SeqCst) {
                                    break;
                                }
                                for _ in 0..SERVICE_BLOCKS_PER_PROBE {
                                    service_block(cl, Phase::Timed, block, seed, cell, input, fp);
                                    block += 1;
                                }
                                if rss.is_none() && cl.records.len() - timed_from >= rss_after / 2 {
                                    rss = netd_ref.peak_rss_mb();
                                }
                            }
                            rss
                        })
                    })
                    .collect();
                for h in handles {
                    rss_samples.push(h.join().expect("client thread"));
                }
            });
            window_s = window_t0.elapsed().as_secs_f64();
            // The later of the two samples: both connections have then done
            // their share of the fixed work.
            rss_mb = rss_samples
                .into_iter()
                .collect::<Option<Vec<f64>>>()
                .map(|v| v.into_iter().fold(0.0, f64::max));
            absorb(&mut records, &mut fails, second);
        }
    }
    let peak_rss_mb = rss_mb
        .or_else(|| netd.peak_rss_mb())
        .ok_or("cannot read netd's VmHWM from /proc")?;
    let mut server_stats = BTreeMap::new();
    if let Ok(Reply {
        line: Json::Obj(members),
        ..
    }) = client.conn.request_line("{\"cmd\":\"stats\"}")
    {
        server_stats.extend(
            members
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?))),
        );
    }
    absorb(&mut records, &mut fails, client);
    clean_exit &= netd.shutdown();
    if !clean_exit {
        *fails.entry("unclean_exit").or_default() += 1;
    }
    let probes = shared.probes.into_inner().expect("probe samples lock");
    for r in &mut records {
        r.slowdown = slowdown_at(&probes, r.sent_s + r.latency_s.max(0.0) / 2.0);
    }
    let spawn_to_answer = start_ups
        .into_iter()
        .map(|(mid_s, seconds)| StartUp {
            seconds,
            slowdown: slowdown_at(&probes, mid_s),
        })
        .collect();
    Ok(Outcome {
        workload: cfg.workload,
        records,
        spawn_to_answer,
        probes,
        window_s,
        peak_rss_mb,
        fails,
        iterations: shared
            .expected
            .into_inner()
            .expect("expected-iterations lock"),
        server_stats,
    })
}

fn absorb(records: &mut Vec<ReqRecord>, fails: &mut FailCounts, client: Client) {
    records.extend(client.records);
    for (k, n) in client.fails {
        *fails.entry(k).or_default() += n;
    }
}

/// One `cold_build` round: per cell, upload a variant, solve (the session is
/// built), solve again (the session is cached), [`COLD_HITS_PER_CELL`] times.
fn cold_round(
    client: &mut Client,
    phase: Phase,
    round: usize,
    seed: u64,
    cells: &[Cell],
    inputs: &[CellInputs],
) {
    let k = round % RHS_FILES;
    for (c, cell) in cells.iter().enumerate() {
        let m = &inputs[c].matrix;
        let mut rng = Rng::new(seed, &[stream::COLD_VARIANT, round as u64, c as u64]);
        let variant = if cell.new_pattern {
            m.new_pattern_variant(&mut rng, NEW_PATTERN_PAIRS)
        } else {
            m.perturbed_variant(&mut rng)
        };
        client.shared.probe_now();
        let Some(fp) = client.put(phase, c, round, m, &variant) else {
            continue;
        };
        let path = &inputs[c].rhs_paths[k];
        client.shared.probe_now();
        client.solve(Class::Miss, phase, c, round, cell, &fp, k, path);
        for _ in 0..COLD_HITS_PER_CELL {
            client.shared.probe_now();
            client.solve(Class::Hit, phase, c, round, cell, &fp, k, path);
        }
    }
}

/// What one of the sixteen slots of a `service_mix` block does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Solve,
    Batch,
    PutThenMiss,
    Stats,
}

/// The seeded order of one block: twelve single solves on the hot matrix,
/// two batch jobs, one upload of a fresh-valued matrix with its first solve,
/// one `stats`.
pub fn service_order(seed: u64, conn: usize, block: usize) -> [Slot; 16] {
    let mut slots = [Slot::Solve; 16];
    slots[12] = Slot::Batch;
    slots[13] = Slot::Batch;
    slots[14] = Slot::PutThenMiss;
    slots[15] = Slot::Stats;
    Rng::new(seed, &[stream::MIX_ORDER, conn as u64, block as u64]).shuffle(&mut slots);
    slots
}

fn service_block(
    client: &mut Client,
    phase: Phase,
    block: usize,
    seed: u64,
    cell: &Cell,
    input: &CellInputs,
    hot_fp: &str,
) {
    let conn = client.conn_idx;
    for (s, slot) in service_order(seed, conn, block).into_iter().enumerate() {
        let k = (block + s + conn) % RHS_FILES;
        let path = &input.rhs_paths[k];
        match slot {
            Slot::Solve => {
                client.solve(Class::Hit, phase, 0, block, cell, hot_fp, k, path);
            }
            Slot::Batch => {
                client.solve(Class::Batch, phase, 0, block, cell, hot_fp, k, path);
            }
            Slot::PutThenMiss => {
                let mut rng = Rng::new(seed, &[stream::MIX_VARIANT, conn as u64, block as u64]);
                let variant = input.matrix.perturbed_variant(&mut rng);
                if let Some(fp) = client.put(phase, 0, block, &input.matrix, &variant) {
                    client.solve(Class::Miss, phase, 0, block, cell, &fp, k, path);
                }
            }
            Slot::Stats => client.stats(phase, block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_order_is_a_seeded_permutation_of_the_mix() {
        let a = service_order(5, 0, 3);
        assert_eq!(a, service_order(5, 0, 3));
        assert_ne!(a, service_order(6, 0, 3));
        assert_ne!(a, service_order(5, 1, 3));
        assert_ne!(a, service_order(5, 0, 4));
        let count = |s: Slot| a.iter().filter(|&&x| x == s).count();
        assert_eq!(
            [
                count(Slot::Solve),
                count(Slot::Batch),
                count(Slot::PutThenMiss),
                count(Slot::Stats)
            ],
            [12, 2, 1, 1]
        );
    }

    #[test]
    fn slowdown_is_interpolated_between_probes() {
        let n = PROBE_NOMINAL_S;
        let probes = [(1.0, n), (3.0, 2.0 * n), (4.0, 2.0 * n)];
        assert_eq!(slowdown_at(&probes, 0.0), 1.0);
        assert_eq!(slowdown_at(&probes, 1.0), 1.0);
        assert!((slowdown_at(&probes, 2.0) - 1.5).abs() < 1e-12);
        assert_eq!(slowdown_at(&probes, 3.5), 2.0);
        assert_eq!(slowdown_at(&probes, 9.0), 2.0);
        assert_eq!(slowdown_at(&[], 1.0), 1.0);
    }

    #[test]
    fn result_lines_are_checked() {
        let good = r#"{"id":"a","ok":true,"converged":true,"iterations":[41],"true_relres":9e-7,"cache_hit":true}"#;
        let line = Json::parse(good).unwrap();
        assert_eq!(check_result(&line, Class::Hit, 1), Ok(vec![41]));
        assert_eq!(check_result(&line, Class::Miss, 1), Err("cache_state"));
        assert_eq!(check_result(&line, Class::Batch, 8), Err("not_ok"));
        let bad = |patch: &str, with: &str| Json::parse(&good.replace(patch, with)).unwrap();
        assert_eq!(
            check_result(
                &bad("\"converged\":true", "\"converged\":false"),
                Class::Hit,
                1
            ),
            Err("not_converged")
        );
        assert_eq!(
            check_result(&bad("9e-7", "2e-5"), Class::Hit, 1),
            Err("residual")
        );
        assert_eq!(
            check_result(&bad("9e-7", "null"), Class::Hit, 1),
            Err("residual")
        );
        let rejected = Json::parse(r#"{"id":"a","ok":false,"error_kind":"admission"}"#).unwrap();
        assert_eq!(check_result(&rejected, Class::Hit, 1), Err("rejected"));
        let failed = Json::parse(r#"{"id":"a","ok":false,"error_kind":"rank_failure"}"#).unwrap();
        assert_eq!(check_result(&failed, Class::Hit, 1), Err("not_ok"));
    }
}

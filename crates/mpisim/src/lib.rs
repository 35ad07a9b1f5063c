//! # parapre-mpisim
//!
//! An SPMD message-passing runtime over OS threads — the workspace's MPI
//! substitute (see DESIGN.md §2).
//!
//! The paper ran on two MPI machines (a fast-Ethernet Linux cluster and an
//! SGI Origin 3800). Rust's MPI bindings are immature and no cluster is
//! available here, so the distributed algorithms run as `P` threads
//! exchanging typed messages through unbounded std `mpsc` channels:
//!
//! * [`Universe::run`] spawns `P` ranks executing the same closure (SPMD),
//!   each holding a [`Comm`];
//! * point-to-point [`Comm::send`] / [`Comm::recv`] with tag matching and
//!   out-of-order buffering, exactly the subset of MPI semantics the
//!   paper's solvers need; like MPI's, a blocking receive polls for a few
//!   microseconds before it puts its thread to sleep — while every live
//!   rank thread can have a core (DESIGN.md §4.10);
//! * collectives ([`Comm::allreduce_sum`], [`Comm::barrier`],
//!   [`Comm::gather_vec`], …) built **on top of point-to-point messages**
//!   along a binomial tree, so their cost shows up in the communication
//!   statistics just like on a real machine (`O(log P)` latency);
//! * per-rank [`CommStats`] (message and byte counts, aggregate and
//!   per-neighbor via [`Comm::peer_stats`]) feeding the α–β
//!   [`MachineModel`]s that emulate the paper's two platforms for the
//!   timing *shape* discussion; when a `parapre-metrics` recorder is
//!   installed on the rank's thread, every send/receive additionally
//!   emits a structured comm event;
//! * a schedule hook for tests: a seeded [`SchedulePlan`] installed by
//!   [`Universe::try_run_with`] delays sends, per rank and send operation,
//!   to vary how the rank threads interleave without changing any value.
//!
//! Iteration counts — the paper's primary measurement — are entirely
//! deterministic under this substitution: the algebra does not care whether
//! ranks are processes on a cluster or threads in one address space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod schedule;

pub use schedule::SchedulePlan;

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a blocking receive waits before declaring a deadlock.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a blocking receive polls its channel before it parks the rank
/// thread: about one park/unpark round trip, so a receive that polls in vain
/// costs at most twice what parking at once would have (the competitive
/// bound). Not a knob: solve time is flat from 10 µs to 100 µs
/// (EXPERIMENTS.md E19).
const POLL_BUDGET: Duration = Duration::from_micros(20);

/// How much of [`POLL_BUDGET`] is spent spinning; after that the poll loop
/// yields between looks. A message from a peer on another core is there
/// within a microsecond or two if it comes soon at all. A peer the scheduler
/// has put on *this* core cannot send while we spin: the yield hands it the
/// core, which costs it nothing if nobody is waiting (E19: two ranks on one
/// core all-reduce in 6 µs this way, in 41 µs spinning the budget out).
const SPIN_BEFORE_YIELD: Duration = Duration::from_micros(2);

/// After this many receives in a row that were satisfied only once the poll
/// loop was yielding, one receive parks at once. Such a receive means either
/// that the message was a few microseconds late or that the peer shares this
/// core and needed the yield to send it; from here the two look the same.
/// Sleeping tells them apart: a wake-up is when the scheduler moves a thread
/// to an idle core, and two ranks that hand one core back and forth never
/// sleep, so it leaves them there for hundreds of milliseconds (E19).
const LATE_HITS_BEFORE_PARK: u32 = 8;

/// Rank threads alive in this process, over all universes.
static LIVE_RANKS: AtomicUsize = AtomicUsize::new(0);

/// Counts the rank thread that holds it in [`LIVE_RANKS`]; a drop guard, so
/// a rank that panics is still counted out.
struct LiveRank;

impl LiveRank {
    fn enter() -> LiveRank {
        // Relaxed: the count publishes no data, it only gates polling.
        LIVE_RANKS.fetch_add(1, Ordering::Relaxed);
        LiveRank
    }
}

impl Drop for LiveRank {
    fn drop(&mut self) {
        LIVE_RANKS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Number of rank threads currently alive in this process, over all
/// universes. Receives poll before they park only while this does not exceed
/// the number of cores.
pub fn live_ranks() -> usize {
    LIVE_RANKS.load(Ordering::Relaxed)
}

/// Whether every live rank thread can have a core to itself. A rank that
/// polled while another was waiting for its core would spin away the time
/// slice its own message needs, so P > cores and concurrent universes park at
/// once, as every receive did before polling existed.
fn every_live_rank_has_a_core() -> bool {
    // Cached: `available_parallelism` reads the affinity mask and the cgroup
    // quota, far too slow to ask per receive.
    static CORES: OnceLock<usize> = OnceLock::new();
    live_ranks()
        <= *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A receive that timed out — the runtime's deadlock tripwire.
///
/// Carries everything a scheduler needs to report the failure without
/// re-running: the waiting rank, the peer and tag it blocked on, how long
/// it waited, and a drained summary of every envelope that *had* arrived
/// but matched nothing (the usual deadlock fingerprint: a tag or ordering
/// mismatch leaves its evidence parked in the pending queues).
///
/// [`Comm::recv`] panics with this error as the panic payload;
/// [`Universe::try_run`] catches it and hands it back as part of a
/// [`RankFailure`], so embedding layers (the `parapre-engine` scheduler)
/// can mark one job failed without poisoning the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommError {
    /// The rank whose receive timed out.
    pub rank: usize,
    /// The peer it was waiting on.
    pub peer: usize,
    /// The tag it was waiting for.
    pub tag: u64,
    /// How long it waited before giving up.
    pub waited: Duration,
    /// Human-readable summary of the pending (received-but-unmatched)
    /// envelope queues at the moment of the timeout.
    pub pending: String,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} timed out after {:?} receiving tag {:#x} from rank {} \
             (likely deadlock); queue state:{}",
            self.rank, self.waited, self.tag, self.peer, self.pending
        )
    }
}

impl std::error::Error for CommError {}

/// Why one rank of a [`Universe::try_run`] launch failed.
#[derive(Debug, Clone)]
pub struct RankFailure {
    /// The failing rank.
    pub rank: usize,
    /// Formatted panic/deadlock message.
    pub message: String,
    /// The structured receive-timeout error when the failure was a
    /// communication deadlock (`None` for ordinary panics).
    pub comm_error: Option<CommError>,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

fn failure_from_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RankFailure {
    let (message, comm_error) = match payload.downcast::<CommError>() {
        Ok(e) => (e.to_string(), Some(*e)),
        Err(payload) => match payload.downcast::<String>() {
            Ok(s) => (*s, None),
            Err(payload) => match payload.downcast::<&'static str>() {
                Ok(s) => ((*s).to_string(), None),
                Err(_) => ("rank panicked with a non-string payload".to_string(), None),
            },
        },
    };
    RankFailure {
        rank,
        message,
        comm_error,
    }
}

/// Wire size of a payload in bytes.
fn n_bytes(payload: &[f64]) -> u64 {
    8 * payload.len() as u64
}

#[derive(Debug)]
struct Envelope {
    from: usize,
    tag: u64,
    payload: Vec<f64>,
}

/// Per-rank communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub msgs_sent: u64,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Microseconds spent blocked inside receive waits (whole microseconds
    /// of a total the communicator keeps in nanoseconds, so waits shorter
    /// than 1 µs add up instead of vanishing). Only accumulated while the
    /// live metrics layer is enabled ([`parapre_metrics::enabled`]); the
    /// `LoadReport` imbalance attribution consumes it as per-rank comm-wait
    /// seconds.
    pub wait_us: u64,
}

impl CommStats {
    /// Models the communication time of this rank under `machine`:
    /// `Σ (α + bytes/β)` over sent messages.
    pub fn modeled_comm_seconds(&self, machine: &MachineModel) -> f64 {
        self.msgs_sent as f64 * machine.latency + self.bytes_sent as f64 * machine.seconds_per_byte
    }

    /// Field-wise difference `after − before` (saturating), for measuring
    /// the traffic of a code region between two [`Comm::stats`] snapshots.
    pub fn delta(after: &CommStats, before: &CommStats) -> CommStats {
        CommStats {
            msgs_sent: after.msgs_sent.saturating_sub(before.msgs_sent),
            bytes_sent: after.bytes_sent.saturating_sub(before.bytes_sent),
            msgs_recv: after.msgs_recv.saturating_sub(before.msgs_recv),
            bytes_recv: after.bytes_recv.saturating_sub(before.bytes_recv),
            wait_us: after.wait_us.saturating_sub(before.wait_us),
        }
    }
}

/// An α–β network/compute model of a parallel platform.
#[derive(Debug, Clone, Copy)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Per-message latency α in seconds.
    pub latency: f64,
    /// Inverse bandwidth β⁻¹ in seconds per byte.
    pub seconds_per_byte: f64,
    /// Relative single-core compute speed (1.0 = the paper's Pentium III
    /// cluster node).
    pub compute_scale: f64,
    /// Background-load multiplier applied to the modeled total (the paper
    /// notes the Origin 3800 was "often heavily loaded").
    pub load_factor: f64,
    /// Partitioner RNG seed tied to the platform (the paper observed the
    /// two machines' random number generators produce different partitions).
    pub partition_seed: u64,
}

impl MachineModel {
    /// The paper's low-end Linux cluster: 1 GHz Pentium III nodes on fast
    /// (100 Mbit) Ethernet, exclusive access.
    pub fn linux_cluster() -> Self {
        MachineModel {
            name: "LinuxCluster",
            latency: 60e-6,
            seconds_per_byte: 1.0 / 12.5e6,
            compute_scale: 1.0,
            load_factor: 1.0,
            partition_seed: 0x11,
        }
    }

    /// The paper's SGI Origin 3800: 500 MHz R14000, fast NUMA interconnect,
    /// but heavily loaded during the experiments.
    pub fn origin_3800() -> Self {
        MachineModel {
            name: "Origin3800",
            latency: 4e-6,
            seconds_per_byte: 1.0 / 300e6,
            compute_scale: 0.9,
            load_factor: 6.0,
            partition_seed: 0x2222,
        }
    }

    /// Modeled wall-clock for a rank that spent `compute_seconds` computing
    /// (measured on the host) and communicated per `stats`.
    pub fn modeled_total(&self, compute_seconds: f64, stats: &CommStats) -> f64 {
        self.load_factor * (compute_seconds / self.compute_scale + stats.modeled_comm_seconds(self))
    }
}

/// The SPMD launcher.
pub struct Universe;

impl Universe {
    /// Runs `f` on `n_ranks` threads, each with its own [`Comm`]; returns
    /// the per-rank results ordered by rank.
    ///
    /// The closure may borrow from the caller (scoped threads), so meshes
    /// and matrices can be shared read-only across ranks — mirroring how an
    /// MPI code would read the same input files.
    ///
    /// # Panics
    /// Panics if any rank panics or deadlocks; use [`Universe::try_run`] to
    /// contain failures instead.
    pub fn run<F, T>(n_ranks: usize, f: F) -> Vec<T>
    where
        F: Fn(&mut Comm) -> T + Sync,
        T: Send,
    {
        Self::try_run(n_ranks, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|failure| panic!("{failure}")))
            .collect()
    }

    /// Runs `f` on `n_ranks` threads, catching per-rank panics and
    /// deadlocks instead of propagating them.
    ///
    /// Every rank produces either its result or a [`RankFailure`]
    /// describing why it died (with the structured [`CommError`] attached
    /// for receive timeouts). The launch itself never panics, so an
    /// embedding scheduler can mark one job failed and keep serving others.
    pub fn try_run<F, T>(n_ranks: usize, f: F) -> Vec<Result<T, RankFailure>>
    where
        F: Fn(&mut Comm) -> T + Sync,
        T: Send,
    {
        Self::try_run_with(n_ranks, RECV_TIMEOUT, None, f)
    }

    /// [`Universe::try_run`] with an explicit deadlock-tripwire timeout for
    /// every blocking receive (tests of failure paths want milliseconds,
    /// not the default 60 s) and, optionally, a [`SchedulePlan`] installed
    /// on every rank's communicator: the same closure runs under a
    /// reproducible schedule of send delays.
    pub fn try_run_with<F, T>(
        n_ranks: usize,
        recv_timeout: Duration,
        schedule: Option<Arc<SchedulePlan>>,
        f: F,
    ) -> Vec<Result<T, RankFailure>>
    where
        F: Fn(&mut Comm) -> T + Sync,
        T: Send,
    {
        assert!(n_ranks >= 1);
        // Channel matrix: tx[dst][src] sends src → dst.
        let mut txs: Vec<Vec<Sender<Envelope>>> = Vec::with_capacity(n_ranks);
        let mut rxs: Vec<Vec<Receiver<Envelope>>> = Vec::with_capacity(n_ranks);
        for _dst in 0..n_ranks {
            let mut row_tx = Vec::with_capacity(n_ranks);
            let mut row_rx = Vec::with_capacity(n_ranks);
            for _src in 0..n_ranks {
                let (tx, rx) = channel();
                row_tx.push(tx);
                row_rx.push(rx);
            }
            txs.push(row_tx);
            rxs.push(row_rx);
        }
        // Rank r needs: senders to every dst (column r of txs) and its own
        // receiver row.
        let mut comms: Vec<Comm> = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, rx_row)| Comm {
                rank,
                size: n_ranks,
                to: txs.iter().map(|row| row[rank].clone()).collect(),
                from: rx_row,
                pending: RefCell::new((0..n_ranks).map(|_| Vec::new()).collect()),
                stats: CommStats::default(),
                peer_stats: vec![CommStats::default(); n_ranks],
                wait_ns: 0,
                peer_wait_ns: vec![0; n_ranks],
                late_hits: 0,
                recv_timeout,
                pool: RefCell::new(Vec::new()),
                schedule: schedule.clone(),
                send_ops: 0,
            })
            .collect();
        drop(txs);

        // The Comms outlive every thread (owned by this frame), so a send
        // to a rank that already failed parks harmlessly in its channel
        // instead of erroring — failures stay contained to their own rank.
        let f = &f;
        let mut out: Vec<Option<Result<T, RankFailure>>> = (0..n_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|comm| {
                    scope.spawn(move || {
                        let rank = comm.rank();
                        let _live = LiveRank::enter();
                        catch_unwind(AssertUnwindSafe(|| f(comm)))
                            .map_err(|payload| failure_from_panic(rank, payload))
                    })
                })
                .collect();
            for (rank, (slot, h)) in out.iter_mut().zip(handles).enumerate() {
                *slot = Some(
                    h.join()
                        .unwrap_or_else(|payload| Err(failure_from_panic(rank, payload))),
                );
            }
        });
        out.into_iter()
            .map(|t| t.expect("all ranks joined"))
            .collect()
    }
}

/// A rank's communicator (not shareable across threads; one per rank).
pub struct Comm {
    rank: usize,
    size: usize,
    to: Vec<Sender<Envelope>>,
    from: Vec<Receiver<Envelope>>,
    /// Out-of-order messages parked per source rank.
    pending: RefCell<Vec<Vec<Envelope>>>,
    stats: CommStats,
    /// Per-neighbor send/recv accounting (indexed by peer rank).
    peer_stats: Vec<CommStats>,
    /// Nanoseconds blocked inside receive waits, in total and per peer:
    /// what the `wait_us` fields of `stats` and `peer_stats` are cut from.
    wait_ns: u64,
    peer_wait_ns: Vec<u64>,
    /// Receives in a row that the poll loop satisfied only after it had
    /// begun to yield (see [`LATE_HITS_BEFORE_PARK`]).
    late_hits: u32,
    /// Deadlock tripwire for blocking receives (per-universe, not global,
    /// so concurrently running universes can use different settings).
    recv_timeout: Duration,
    /// Free float buffers for [`Comm::send_f64s_from`]; receivers feed
    /// delivered buffers back via [`Comm::recycle_f64s`], so steady-state
    /// halo exchanges allocate nothing per message.
    pool: RefCell<Vec<Vec<f64>>>,
    /// Schedule hook installed by [`Universe::try_run_with`] (`None` in
    /// normal launches).
    schedule: Option<Arc<SchedulePlan>>,
    /// This rank's 0-based send-operation counter — the deterministic clock
    /// schedule decisions are keyed on.
    send_ops: u64,
}

/// Upper bound on pooled free buffers per rank (beyond this, recycled
/// buffers are simply dropped).
const POOL_CAP: usize = 64;

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of the communication counters.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Per-neighbor communication counters, indexed by peer rank.
    pub fn peer_stats(&self) -> &[CommStats] {
        &self.peer_stats
    }

    /// Sends `payload` to rank `to` under `tag` (non-blocking, buffered).
    ///
    /// When a [`SchedulePlan`] is installed (see [`Universe::try_run_with`])
    /// it is consulted here, and the rank may stall before the message
    /// leaves.
    pub fn send(&mut self, to: usize, tag: u64, payload: Vec<f64>) {
        assert!(to < self.size, "send to rank {to} of {}", self.size);
        let bytes = n_bytes(&payload);
        let op = self.send_ops;
        self.send_ops += 1;
        if let Some(d) = self.schedule.as_ref().and_then(|s| s.delay(self.rank, op)) {
            std::thread::sleep(d);
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.peer_stats[to].msgs_sent += 1;
        self.peer_stats[to].bytes_sent += bytes;
        parapre_metrics::comm(parapre_metrics::CommDir::Send, to, tag, bytes);
        self.to[to]
            .send(Envelope {
                from: self.rank,
                tag,
                payload,
            })
            .expect("receiver alive for the duration of Universe::run");
    }

    /// Number of send operations this rank has performed — the
    /// deterministic per-rank clock a [`SchedulePlan`] is keyed on.
    pub fn send_ops(&self) -> u64 {
        self.send_ops
    }

    fn note_recv(&mut self, from: usize, tag: u64, bytes: u64) {
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += bytes;
        self.peer_stats[from].msgs_recv += 1;
        self.peer_stats[from].bytes_recv += bytes;
        parapre_metrics::comm(parapre_metrics::CommDir::Recv, from, tag, bytes);
    }

    /// Dumps the pending (received-but-unmatched) message queues — the
    /// deadlock diagnostic shown when a receive times out.
    fn pending_dump(&self) -> String {
        let pending = self.pending.borrow();
        let mut out = String::new();
        let mut any = false;
        for (src, queue) in pending.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            any = true;
            let tags: Vec<String> = queue
                .iter()
                .take(16)
                .map(|e| format!("tag {:#x} ({} B)", e.tag, n_bytes(&e.payload)))
                .collect();
            out.push_str(&format!(
                "\n  pending from rank {src}: {} message(s): {}{}",
                queue.len(),
                tags.join(", "),
                if queue.len() > 16 { ", …" } else { "" }
            ));
        }
        if !any {
            out.push_str("\n  (no pending messages parked on this rank)");
        }
        out
    }

    /// Receives the next message from `from` with matching `tag`, buffering
    /// any other tags that arrive first.
    ///
    /// # Panics
    /// Panics with a [`CommError`] payload after the universe's receive
    /// timeout ([`Universe::try_run_with`]) elapses without a matching
    /// message (deadlock tripwire), so
    /// [`Universe::try_run`] can recover the structured diagnostic.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        match self.recv_checked(from, tag) {
            Ok(payload) => payload,
            Err(err) => std::panic::panic_any(err),
        }
    }

    /// Like [`Comm::recv`], but reports a timeout as a structured
    /// [`CommError`] (naming rank, peer, tag, and the pending-envelope
    /// summary) instead of panicking.
    pub fn recv_checked(&mut self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        assert!(from < self.size);
        // Check the parked messages first — a parked hit is not a wait.
        if let Some(env) = self.take_parked(from, tag) {
            self.note_recv(from, tag, n_bytes(&env.payload));
            return Ok(env.payload);
        }
        // Time only the blocking portion, and only while the metrics
        // layer is on: one `Instant` pair per blocked receive.
        let t0 = parapre_metrics::enabled().then(Instant::now);
        let out = self.recv_blocking(from, tag);
        if let Some(t0) = t0 {
            self.note_wait(from, t0.elapsed());
        }
        out
    }

    /// Adds one receive's blocked time to the wait counters.
    fn note_wait(&mut self, from: usize, waited: Duration) {
        let ns = waited.as_nanos().min(u64::MAX as u128) as u64;
        self.wait_ns = self.wait_ns.saturating_add(ns);
        self.stats.wait_us = self.wait_ns / 1000;
        self.peer_wait_ns[from] = self.peer_wait_ns[from].saturating_add(ns);
        self.peer_stats[from].wait_us = self.peer_wait_ns[from] / 1000;
    }

    /// Polls the channel from `from` for the wanted tag for up to `budget`
    /// without going to sleep, parking other tags as [`Comm::try_recv`]
    /// does.
    fn poll(&mut self, from: usize, tag: u64, budget: Duration) -> Option<Vec<f64>> {
        let t0 = Instant::now();
        let mut yielded = false;
        loop {
            if let Some(payload) = self.try_recv(from, tag) {
                self.note_poll_hit(yielded);
                return Some(payload);
            }
            let polled = t0.elapsed();
            if polled >= budget {
                return None;
            }
            if polled < SPIN_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                yielded = true;
                std::thread::yield_now();
            }
        }
    }

    /// Books a receive the poll loop satisfied: one more in the run of hits
    /// that came only after the loop had begun to yield, or the end of that
    /// run (see [`LATE_HITS_BEFORE_PARK`]).
    fn note_poll_hit(&mut self, yielded: bool) {
        self.late_hits = if yielded { self.late_hits + 1 } else { 0 };
    }

    /// The blocking tail of [`Comm::recv_checked`]: polls the channel from
    /// `from` for [`POLL_BUDGET`] while every live rank has a core (and not
    /// [`LATE_HITS_BEFORE_PARK`] times in a row only just in time), then
    /// waits on it until the wanted tag arrives or the tripwire fires.
    fn recv_blocking(&mut self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        if self.late_hits < LATE_HITS_BEFORE_PARK && every_live_rank_has_a_core() {
            parapre_metrics::count(parapre_metrics::names::RECV_POLL, 1);
            if let Some(payload) = self.poll(from, tag, POLL_BUDGET) {
                return Ok(payload);
            }
        }
        self.late_hits = 0;
        loop {
            let env = match self.from[from].recv_timeout(self.recv_timeout) {
                Ok(env) => env,
                Err(_) => {
                    // Pull everything that did arrive (on any channel) into
                    // the pending queues so the diagnostic sees it…
                    self.drain_channels();
                    // …and double-check the wanted message was not simply
                    // racing the timeout.
                    if let Some(env) = self.take_parked(from, tag) {
                        self.note_recv(from, tag, n_bytes(&env.payload));
                        return Ok(env.payload);
                    }
                    return Err(CommError {
                        rank: self.rank,
                        peer: from,
                        tag,
                        waited: self.recv_timeout,
                        pending: self.pending_dump(),
                    });
                }
            };
            debug_assert_eq!(env.from, from);
            if env.tag == tag {
                self.note_recv(from, tag, n_bytes(&env.payload));
                return Ok(env.payload);
            }
            self.pending.borrow_mut()[from].push(env);
        }
    }

    /// Removes and returns the first parked envelope from `from` matching
    /// `tag`, if any.
    fn take_parked(&self, from: usize, tag: u64) -> Option<Envelope> {
        let mut pending = self.pending.borrow_mut();
        pending[from]
            .iter()
            .position(|e| e.tag == tag)
            .map(|pos| pending[from].remove(pos))
    }

    /// Moves every envelope sitting in the incoming channels into the
    /// pending queues (non-blocking) so diagnostics reflect all arrivals.
    fn drain_channels(&mut self) {
        let mut pending = self.pending.borrow_mut();
        for (src, rx) in self.from.iter().enumerate() {
            while let Ok(env) = rx.try_recv() {
                pending[src].push(env);
            }
        }
    }

    /// Non-blocking receive: returns the next message from `from` matching
    /// `tag` if one has already arrived, `None` otherwise. Messages with
    /// other tags pulled off the channel are parked for later receives,
    /// exactly as in [`Comm::recv`].
    ///
    /// This is the overlap primitive: an overlapped SpMV polls its
    /// neighbours with `try_recv` after finishing interior rows and only
    /// blocks (with the usual deadlock tripwire) on the stragglers.
    pub fn try_recv(&mut self, from: usize, tag: u64) -> Option<Vec<f64>> {
        assert!(from < self.size);
        if let Some(env) = self.take_parked(from, tag) {
            self.note_recv(from, tag, n_bytes(&env.payload));
            return Some(env.payload);
        }
        loop {
            let env = match self.from[from].try_recv() {
                Ok(env) => env,
                Err(_) => return None,
            };
            debug_assert_eq!(env.from, from);
            if env.tag == tag {
                self.note_recv(from, tag, n_bytes(&env.payload));
                return Some(env.payload);
            }
            self.pending.borrow_mut()[from].push(env);
        }
    }

    /// Sends a float slice by **copying into a pooled buffer** instead of
    /// allocating a fresh `Vec` per message — the steady-state send path of
    /// halo exchanges. Buffers come back to the pool when the application
    /// returns received vectors via [`Comm::recycle_f64s`], so buffers
    /// circulate between neighbours after a warm-up round.
    pub fn send_f64s_from(&mut self, to: usize, tag: u64, data: &[f64]) {
        let mut buf = match self.pool.borrow_mut().pop() {
            Some(b) => {
                parapre_metrics::count(parapre_metrics::names::POOL_REUSE, 1);
                b
            }
            None => {
                parapre_metrics::count(parapre_metrics::names::POOL_ALLOC, 1);
                Vec::with_capacity(data.len())
            }
        };
        buf.clear();
        buf.extend_from_slice(data);
        self.send(to, tag, buf);
    }

    /// Returns a float buffer (typically one just delivered by a receive)
    /// to this rank's send pool for reuse by [`Comm::send_f64s_from`].
    pub fn recycle_f64s(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        let mut pool = self.pool.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }

    // --- Collectives (binomial tree over point-to-point) ---------------

    /// Element-wise all-reduce (sum) of a vector, in place, identical result
    /// on all ranks. Reduction order is rank-order at every tree node, so
    /// the result is deterministic. Messages travel in pooled buffers
    /// ([`Comm::send_f64s_from`]); the broadcast walks the same tree back
    /// down, so every rank gets back as many buffers as it sends and a warm
    /// all-reduce allocates nothing.
    pub fn allreduce_sum_vec(&mut self, x: &mut [f64], tag: u64) {
        // Reduce to rank 0 up the binomial tree.
        let mut span = 1;
        while span < self.size {
            if self.rank.is_multiple_of(2 * span) {
                let partner = self.rank + span;
                if partner < self.size {
                    let data = self.recv(partner, tag);
                    assert_eq!(data.len(), x.len(), "allreduce length mismatch");
                    for (xi, di) in x.iter_mut().zip(&data) {
                        *xi += di;
                    }
                    self.recycle_f64s(data);
                }
            } else if self.rank % (2 * span) == span {
                let partner = self.rank - span;
                self.send_f64s_from(partner, tag, x);
                break;
            }
            span *= 2;
        }
        self.bcast_vec_from_zero(x, tag.wrapping_add(1));
    }

    /// Broadcast `x` from rank 0 down the binomial tree (in place): the
    /// reduce tree of [`Comm::allreduce_sum_vec`] walked the other way. A
    /// rank's parent clears its lowest set bit; its children add each
    /// smaller power of two.
    pub fn bcast_vec_from_zero(&mut self, x: &mut [f64], tag: u64) {
        let low_bit = if self.rank == 0 {
            next_pow2(self.size)
        } else {
            let low_bit = 1 << self.rank.trailing_zeros();
            let data = self.recv(self.rank - low_bit, tag);
            x.copy_from_slice(&data);
            self.recycle_f64s(data);
            low_bit
        };
        // Farthest child first: it has the deepest subtree below it.
        let mut span = low_bit / 2;
        while span >= 1 {
            let child = self.rank + span;
            if child < self.size {
                self.send_f64s_from(child, tag, x);
            }
            span /= 2;
        }
    }

    /// Scalar all-reduce (sum).
    pub fn allreduce_sum(&mut self, v: f64, tag: u64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum_vec(&mut buf, tag);
        buf[0]
    }

    /// Logical AND across ranks (e.g. "all converged").
    pub fn all_land(&mut self, v: bool, tag: u64) -> bool {
        self.allreduce_sum(if v { 0.0 } else { 1.0 }, tag) == 0.0
    }

    /// Gathers per-rank vectors to `root` (concatenated rank-by-rank);
    /// `None` on non-root ranks.
    pub fn gather_vec(&mut self, root: usize, data: &[f64], tag: u64) -> Option<Vec<f64>> {
        if self.rank == root {
            let mut out = Vec::new();
            for r in 0..self.size {
                if r == self.rank {
                    out.extend_from_slice(data);
                } else {
                    let part = self.recv(r, tag);
                    out.extend_from_slice(&part);
                    self.recycle_f64s(part);
                }
            }
            Some(out)
        } else {
            self.send_f64s_from(root, tag, data);
            None
        }
    }

    /// Synchronizes all ranks (tree reduce + broadcast of a dummy scalar).
    pub fn barrier(&mut self, tag: u64) {
        let _ = self.allreduce_sum(0.0, tag);
    }
}

/// Smallest power of two ≥ `n`.
fn next_pow2(n: usize) -> usize {
    let mut p = 1;
    while p < n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_size() {
        let out = Universe::run(4, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0, 2.0, 3.0]);
                c.recv(1, 8)
            } else {
                let got = c.recv(0, 7);
                let doubled: Vec<f64> = got.iter().map(|v| 2.0 * v).collect();
                c.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn pooled_sends_roundtrip_and_recycle() {
        let out = Universe::run(2, |c| {
            let peer = 1 - c.rank();
            let mut sum = 0.0;
            for round in 0..4 {
                let data = [round as f64, c.rank() as f64];
                c.send_f64s_from(peer, 9, &data);
                let got = c.recv(peer, 9);
                sum += got[0] + got[1];
                // Hand the delivered buffer back so later rounds reuse it.
                c.recycle_f64s(got);
            }
            (sum, c.stats().msgs_sent, c.stats().msgs_recv)
        });
        for (rank, (sum, sent, recv)) in out.into_iter().enumerate() {
            // Each round delivers [round, peer_rank].
            let peer = 1 - rank;
            assert_eq!(sum, (0.0 + 1.0 + 2.0 + 3.0) + 4.0 * peer as f64);
            assert_eq!(sent, 4);
            assert_eq!(recv, 4);
        }
    }

    #[test]
    fn try_recv_none_then_some_and_parks_other_tags() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                // Nothing sent yet: rank 1 polls tag 7 and must see None
                // before this send. Gate on an explicit handshake.
                let go = c.recv(1, 1);
                assert_eq!(go, vec![1.0]);
                c.send(1, 8, vec![-1.0]); // unmatched tag, must be parked
                c.send(1, 7, vec![42.0]);
                0.0
            } else {
                assert!(c.try_recv(0, 7).is_none(), "no message sent yet");
                c.send(0, 1, vec![1.0]);
                // Poll until the tagged message lands.
                let got = loop {
                    if let Some(v) = c.try_recv(0, 7) {
                        break v;
                    }
                    std::thread::yield_now();
                };
                // The out-of-order tag 8 message was parked, not lost.
                let parked = c.recv(0, 8);
                got[0] + parked[0]
            }
        });
        assert_eq!(out[1], 41.0);
    }

    #[test]
    fn polling_parks_other_tags_and_keeps_arrival_order() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                for (tag, v) in [(5, 1.0), (6, 2.0), (5, 3.0), (7, 4.0)] {
                    c.send(1, tag, vec![v]);
                }
                vec![]
            } else {
                // A budget no scheduler delay exhausts: the poll loop alone
                // sees all four arrivals.
                let wanted = c.poll(0, 7, Duration::from_secs(30)).expect("polled");
                assert_eq!(c.pending.borrow()[0].len(), 3, "three tags parked");
                let mut got = wanted;
                for tag in [5, 6, 5] {
                    got.push(c.recv(0, tag)[0]);
                }
                assert_eq!(c.stats().msgs_recv, 4);
                got
            }
        });
        // Tag 5 twice: in the order sent.
        assert_eq!(out[1], vec![4.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_run_of_late_hits_makes_the_next_receive_park() {
        // Whether a hit comes while the poll loop spins or only after it
        // began to yield is the scheduler's call, so the run of late hits
        // is booked through the function `poll` books it through, not
        // produced by timing replies; every receive below has one outcome
        // whatever the scheduler does.
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![3.0]);
                c.send(1, 4, vec![4.0]);
                c.recv(1, 1);
                c.send(1, 2, vec![1.0]);
                0
            } else {
                // Tag 3 is parked by the time tag 4 is in, so the poll for
                // it hits on its first look: a hit while spinning, which
                // ends a run.
                c.recv(0, 4);
                c.note_poll_hit(true);
                assert!(c.late_hits >= 1);
                c.poll(0, 3, Duration::from_secs(30)).expect("parked");
                assert_eq!(c.late_hits, 0, "a hit while spinning ends the run");
                for n in 1..=LATE_HITS_BEFORE_PARK {
                    c.note_poll_hit(true);
                    assert_eq!(c.late_hits, n);
                }
                // The reply is asked for only now and is never parked, so
                // this receive reaches `recv_blocking` — with or without
                // the reply already in the channel — and must not poll.
                parapre_metrics::install(1);
                c.send(0, 1, vec![]);
                assert_eq!(c.recv(0, 2), vec![1.0]);
                let counters = parapre_metrics::take()
                    .expect("installed")
                    .summary()
                    .counters;
                assert_eq!(counters.get(parapre_metrics::names::RECV_POLL), None);
                c.late_hits
            }
        });
        assert_eq!(out[1], 0, "parking starts the count again");
    }

    #[test]
    fn polling_gives_up_after_its_budget() {
        let out = Universe::run(1, |c| {
            let t0 = Instant::now();
            let got = c.poll(0, 1, Duration::from_millis(2));
            (got.is_none(), t0.elapsed())
        });
        assert!(out[0].0);
        assert!(out[0].1 >= Duration::from_millis(2), "{:?}", out[0].1);
    }

    #[test]
    fn starved_ranks_never_poll() {
        // As many extra live ranks as the machine has cores: whatever else
        // runs in this process, the two ranks below cannot both have one.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _others: Vec<LiveRank> = (0..cores).map(|_| LiveRank::enter()).collect();
        let out = Universe::run(2, |c| {
            parapre_metrics::install(c.rank());
            let mut sum = 0.0;
            for i in 0..200u64 {
                sum += c.allreduce_sum(1.0, 2 * i);
            }
            let counters = parapre_metrics::take()
                .expect("installed")
                .summary()
                .counters;
            (
                sum,
                counters.get(parapre_metrics::names::RECV_POLL).copied(),
            )
        });
        for (sum, polls) in out {
            assert_eq!(sum, 400.0);
            assert_eq!(polls, None, "a starved rank polled");
        }
    }

    #[test]
    fn unanswered_receive_trips_within_the_timeout() {
        let timeout = Duration::from_millis(100);
        let out = Universe::try_run_with(2, timeout, None, |c| {
            let t0 = Instant::now();
            let err = c
                .recv_checked(1 - c.rank(), 0x51)
                .expect_err("nobody sends");
            (err.waited, t0.elapsed())
        });
        for (waited, elapsed) in out.into_iter().map(|r| r.expect("rank ran")) {
            assert_eq!(waited, timeout);
            assert!(elapsed >= timeout, "{elapsed:?}");
            assert!(elapsed < timeout + Duration::from_millis(50), "{elapsed:?}");
        }
    }

    #[test]
    fn sub_microsecond_waits_add_up() {
        let out = Universe::run(2, |c| {
            for _ in 0..10_000 {
                c.note_wait(1, Duration::from_nanos(300));
            }
            c.note_wait(0, Duration::from_nanos(999));
            (
                c.stats().wait_us,
                c.peer_stats()[1].wait_us,
                c.peer_stats()[0].wait_us,
            )
        });
        // 10 000 x 300 ns = 3 ms; truncating each wait to whole microseconds
        // used to make this 0.
        assert_eq!(out[0], (3000, 3000, 0));
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 100, vec![1.0]);
                c.send(1, 200, vec![2.0]);
                vec![]
            } else {
                // Receive in reverse tag order.
                let b = c.recv(0, 200);
                let a = c.recv(0, 100);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for p in 1..=9 {
            let out = Universe::run(p, |c| c.allreduce_sum(c.rank() as f64 + 1.0, 5));
            let expect = (p * (p + 1)) as f64 / 2.0;
            assert!(out.iter().all(|&v| v == expect), "p={p}: {out:?}");
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = Universe::run(5, |c| {
            let mut x = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_vec(&mut x, 40);
            x
        });
        for v in out {
            assert_eq!(v, vec![10.0, 5.0]);
        }
    }

    #[test]
    fn allreduce_deterministic_order() {
        // Summation order is fixed by the tree: repeated runs bit-match.
        let vals = [0.1, 0.2, 0.3, 0.4, 0.7, 0.9, 1.3];
        let run = || Universe::run(7, |c| c.allreduce_sum(vals[c.rank()], 3));
        assert_eq!(run(), run());
    }

    #[test]
    fn allreduce_sums_in_reduce_tree_order() {
        // The bits are those of the binomial reduce tree, whatever path the
        // broadcast takes back down.
        let v = [0.1, 0.2, 0.3, 0.4, 0.7, 0.9, 1.3];
        let want = ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + v[6]);
        let out = Universe::run(7, |c| c.allreduce_sum(v[c.rank()], 3));
        assert!(out.iter().all(|s| s.to_bits() == want.to_bits()), "{out:?}");
    }

    #[test]
    fn warm_allreduces_allocate_no_buffers() {
        // Every tree edge carries one pooled buffer each way per all-reduce,
        // so after one warm-up round no rank's pool ever runs dry.
        for p in [2usize, 4, 7] {
            let out = Universe::run(p, |c| {
                let warm = c.allreduce_sum(1.0, 100);
                let sent_warming_up = c.stats().msgs_sent;
                parapre_metrics::install(c.rank());
                let mut sum = 0.0;
                for i in 0..1000u64 {
                    sum += c.allreduce_sum(c.rank() as f64, 200 + 2 * i);
                }
                let counters = parapre_metrics::take()
                    .expect("installed")
                    .summary()
                    .counters;
                let count = |name: &str| counters.get(name).copied().unwrap_or(0);
                (
                    warm,
                    sum,
                    count(parapre_metrics::names::POOL_ALLOC),
                    count(parapre_metrics::names::POOL_REUSE),
                    c.stats().msgs_sent - sent_warming_up,
                )
            });
            let rank_sum = (p * (p - 1) / 2) as f64;
            for (rank, &(warm, sum, allocs, reuses, sent)) in out.iter().enumerate() {
                assert_eq!(warm, p as f64);
                assert_eq!(sum, 1000.0 * rank_sum);
                assert_eq!(allocs, 0, "P={p} rank {rank} allocated after warm-up");
                // Every send of the timed rounds came out of the pool.
                assert_eq!(reuses, sent, "P={p} rank {rank}");
            }
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let out = Universe::run(4, |c| c.gather_vec(0, &[c.rank() as f64; 2], 11));
        assert_eq!(
            out[0].as_ref().unwrap(),
            &vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        );
        assert!(out[1].is_none());
    }

    #[test]
    fn bcast_from_zero() {
        let out = Universe::run(8, |c| {
            let mut x = if c.rank() == 0 {
                vec![42.0, 7.0]
            } else {
                vec![0.0, 0.0]
            };
            c.bcast_vec_from_zero(&mut x, 21);
            x
        });
        assert!(out.iter().all(|v| v == &vec![42.0, 7.0]));
    }

    #[test]
    fn land_detects_any_false() {
        let out = Universe::run(5, |c| c.all_land(c.rank() != 3, 33));
        assert!(out.iter().all(|&v| !v));
        let out = Universe::run(5, |c| c.all_land(true, 34));
        assert!(out.iter().all(|&v| v));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0.0; 10]);
            } else {
                let _ = c.recv(0, 1);
            }
            c.stats()
        });
        assert_eq!(out[0].msgs_sent, 1);
        assert_eq!(out[0].bytes_sent, 80);
        assert_eq!(out[1].msgs_recv, 1);
        assert_eq!(out[1].bytes_recv, 80);
    }

    #[test]
    fn machine_models_differ_as_expected() {
        let cluster = MachineModel::linux_cluster();
        let origin = MachineModel::origin_3800();
        let stats = CommStats {
            msgs_sent: 1000,
            bytes_sent: 8_000_000,
            ..Default::default()
        };
        // The cluster pays far more for the same traffic (latency+bandwidth).
        assert!(stats.modeled_comm_seconds(&cluster) > 10.0 * stats.modeled_comm_seconds(&origin));
        // …but the loaded Origin multiplies everything.
        assert!(origin.load_factor > cluster.load_factor);
        assert_ne!(cluster.partition_seed, origin.partition_seed);
    }

    #[test]
    fn scoped_borrowing_of_shared_data() {
        let shared: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = Universe::run(3, |c| shared[c.rank()]);
        assert_eq!(out, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn deadlock_reports_rank_peer_and_tag() {
        let out = Universe::try_run_with(2, Duration::from_millis(50), None, |c| {
            if c.rank() == 0 {
                // Nobody ever sends tag 0x42: deterministic deadlock.
                let _ = c.recv(1, 0x42);
            }
        });
        assert!(out[1].is_ok(), "rank 1 returns normally");
        let failure = out[0].as_ref().expect_err("rank 0 deadlocks");
        assert_eq!(failure.rank, 0);
        let err = failure.comm_error.as_ref().expect("structured comm error");
        assert_eq!((err.rank, err.peer, err.tag), (0, 1, 0x42));
        assert!(failure.message.contains("tag 0x42"), "{}", failure.message);
        assert!(
            failure.message.contains("from rank 1"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn deadlock_dump_includes_unmatched_arrivals() {
        let out = Universe::try_run_with(2, Duration::from_millis(50), None, |c| {
            if c.rank() == 1 {
                c.send(0, 0x7, vec![1.0, 2.0]);
            } else {
                // Waits for a tag that never comes while tag 0x7 sits queued.
                let _ = c.recv(1, 0x8);
            }
        });
        let err = out[0]
            .as_ref()
            .expect_err("rank 0 deadlocks")
            .comm_error
            .clone()
            .expect("structured comm error");
        assert!(err.pending.contains("tag 0x7"), "{}", err.pending);
        assert!(err.pending.contains("rank 1"), "{}", err.pending);
    }

    #[test]
    fn racing_arrival_beats_the_tripwire() {
        // A message that lands "late" (after the receiver started waiting on
        // a short timeout) must still be delivered, not misreported.
        let out = Universe::try_run_with(2, Duration::from_millis(400), None, |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(100));
                c.send(1, 5, vec![3.5]);
                0.0
            } else {
                c.recv(0, 5)[0]
            }
        });
        assert_eq!(out[1].as_ref().ok(), Some(&3.5));
    }

    #[test]
    fn try_run_contains_ordinary_panics() {
        let out = Universe::try_run(3, |c| {
            if c.rank() == 1 {
                panic!("boom on rank {}", c.rank());
            }
            c.rank() * 10
        });
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[2].as_ref().unwrap(), 20);
        let failure = out[1].as_ref().expect_err("rank 1 panicked");
        assert!(failure.message.contains("boom on rank 1"));
        assert!(failure.comm_error.is_none());
    }

    #[test]
    fn delays_do_not_change_results() {
        let run = |delay_us: Option<u64>| {
            let plan = delay_us.map(|us| Arc::new(SchedulePlan::delays(0, 1.0, us)));
            Universe::try_run_with(4, Duration::from_secs(5), plan, |c| {
                c.allreduce_sum((c.rank() as f64 + 1.0) * 0.1, 9)
            })
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<f64>>()
        };
        let plain = run(None);
        let delayed = run(Some(2000));
        assert_eq!(plain, delayed, "delays shift time, not values");
    }

    #[test]
    fn send_ops_counts_per_rank_sends() {
        let out = Universe::run(2, |c| {
            let peer = 1 - c.rank();
            c.send(peer, 1, vec![0.0]);
            let _ = c.recv(peer, 1);
            c.send(peer, 2, vec![0.0]);
            let _ = c.recv(peer, 2);
            c.send_ops()
        });
        assert_eq!(out, vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "boom on rank 0")]
    fn run_still_panics_when_a_rank_fails() {
        let _ = Universe::run(2, |c| {
            if c.rank() == 0 {
                panic!("boom on rank {}", c.rank());
            }
        });
    }
}

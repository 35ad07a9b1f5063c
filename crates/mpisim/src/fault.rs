//! Fault injection: the [`FaultHook`] every rank's [`Comm`] consults at each
//! send, and the seeded, deterministic [`FaultPlan`] that implements it.
//!
//! Every probabilistic decision is a pure function of
//! `(seed, rank, send-op index, decision kind)` through a SplitMix64-style
//! mixer — no shared RNG state, no lock contention on the send path, and
//! the schedule is identical however the OS interleaves the rank threads.
//! Only *send* operations advance a rank's fault clock: receive call counts
//! depend on communication/computation overlap timing and would destroy
//! replayability.

#[cfg(doc)]
use crate::{Comm, CommError, RankFailure, Universe};
use std::sync::Mutex;
use std::time::Duration;

/// What an installed fault hook does to one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message (it counts as sent, never arrives —
    /// the receiver's deadlock tripwire is the detection mechanism).
    Drop,
    /// Stall the sending rank for the given duration, then deliver.
    Delay(Duration),
}

/// What an installed fault hook does to a rank at a send-operation
/// boundary, *before* the message is considered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepFault {
    /// Proceed normally.
    Continue,
    /// Slow-rank jitter: stall for the given duration, then proceed.
    Jitter(Duration),
    /// Kill the rank: it panics with an [`InjectedFault`] payload, which
    /// [`Universe::try_run`] converts into a [`RankFailure`] whose
    /// `injected` field identifies the fault.
    Kill,
    /// Hang the rank: it stalls past every peer's receive timeout (so the
    /// peers observe [`CommError`] tripwires first), then dies like
    /// [`StepFault::Kill`].
    Hang,
}

/// Deterministic fault-injection hook consulted by every rank of a
/// [`Universe::try_run_with_faults`] launch.
///
/// Both callbacks receive the rank's 0-based **send-operation index** —
/// a counter each rank increments exactly once per [`Comm::send`] in
/// program order. Decisions keyed on `(rank, op)` are therefore
/// reproducible across runs regardless of thread scheduling; blocking or
/// polling receives do *not* advance the counter because their call counts
/// are timing-dependent under comm/compute overlap.
pub trait FaultHook: Send + Sync {
    /// Consulted at each send-operation boundary (kill/hang/jitter).
    fn on_step(&self, rank: usize, op: u64) -> StepFault;
    /// Consulted for each outgoing message surviving [`FaultHook::on_step`].
    fn on_send(&self, rank: usize, op: u64, to: usize, tag: u64, bytes: u64) -> SendFault;
}

/// The panic payload of a rank killed or hung by an installed
/// [`FaultHook`]; surfaces on [`RankFailure::injected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The rank the fault was injected into.
    pub rank: usize,
    /// The send-operation index at which it fired.
    pub op: u64,
    /// Kill or hang.
    pub kind: InjectedFaultKind,
}

/// Which terminal fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFaultKind {
    /// The rank was killed outright.
    Kill,
    /// The rank was hung past the deadlock tripwire, then terminated.
    Hang,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verb = match self.kind {
            InjectedFaultKind::Kill => "killed",
            InjectedFaultKind::Hang => "hung",
        };
        write!(
            f,
            "rank {} {} by fault injection at send op {}",
            self.rank, verb, self.op
        )
    }
}

/// A (rank, send-op) coordinate for targeted kill/hang faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankOp {
    /// Victim rank.
    pub rank: usize,
    /// 0-based send-operation index at which the fault fires.
    pub op: u64,
}

/// Declarative fault schedule parameters.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Per-send probability of silently dropping the message.
    pub drop_prob: f64,
    /// Per-send probability of delaying the message.
    pub delay_prob: f64,
    /// Delay applied to delayed messages, microseconds.
    pub delay_us: u64,
    /// Per-send compute jitter on `slow_ranks`, microseconds (max; the
    /// actual jitter is a deterministic fraction of this).
    pub jitter_us: u64,
    /// Ranks subject to jitter.
    pub slow_ranks: Vec<usize>,
    /// Kill these ranks at these send ops (panic with a structured
    /// [`InjectedFault`] payload).
    pub kill: Vec<RankOp>,
    /// Hang these ranks at these send ops (sleep past the receive timeout
    /// so peers observe a `CommError::Timeout`, then die).
    pub hang: Vec<RankOp>,
    /// When `true`, each kill/hang entry fires at most once per plan, so a
    /// retried solve through the same plan recovers. When `false` the
    /// fault is persistent and retries keep dying.
    pub once: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_us: 200,
            jitter_us: 0,
            slow_ranks: Vec::new(),
            kill: Vec::new(),
            hang: Vec::new(),
            once: true,
        }
    }
}

impl FaultConfig {
    /// A delay-only schedule: `prob` of delaying each message by
    /// `delay_us`. Never changes results, only timing.
    pub fn delays(seed: u64, prob: f64, delay_us: u64) -> Self {
        FaultConfig {
            seed,
            delay_prob: prob,
            delay_us,
            ..Default::default()
        }
    }

    /// A drop schedule: `prob` of losing each message outright.
    pub fn drops(seed: u64, prob: f64) -> Self {
        FaultConfig {
            seed,
            drop_prob: prob,
            ..Default::default()
        }
    }

    /// Kill `rank` at send op `op`, once.
    pub fn kill_once(rank: usize, op: u64) -> Self {
        FaultConfig {
            kill: vec![RankOp { rank, op }],
            ..Default::default()
        }
    }
}

/// What a plan did at one (rank, op) coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Message to `.1` silently discarded.
    Dropped,
    /// Message to `.1` delayed.
    Delayed,
    /// Rank jittered before sending.
    Jittered,
    /// Rank killed.
    Killed,
    /// Rank hung past the receive timeout.
    Hung,
}

/// One entry of the realized fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Faulting rank.
    pub rank: usize,
    /// Send-op index on that rank.
    pub op: u64,
    /// What happened.
    pub action: FaultAction,
    /// Destination rank for message faults (`usize::MAX` for step faults).
    pub to: usize,
}

/// A deterministic fault plan; implements [`FaultHook`] so it can be
/// installed into [`Universe::try_run_with_faults`].
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Realized schedule, for determinism assertions and diagnostics.
    schedule: Mutex<Vec<FaultRecord>>,
    /// Indices into `cfg.kill` / `cfg.hang` that already fired (`once`).
    fired_kill: Mutex<Vec<usize>>,
    fired_hang: Mutex<Vec<usize>>,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            schedule: Mutex::new(Vec::new()),
            fired_kill: Mutex::new(Vec::new()),
            fired_hang: Mutex::new(Vec::new()),
        }
    }

    /// The realized schedule so far, sorted by (rank, op, destination) so
    /// two runs of the same plan compare equal regardless of thread
    /// interleaving.
    pub fn schedule(&self) -> Vec<FaultRecord> {
        let mut s = self.schedule.lock().unwrap().clone();
        s.sort_by_key(|r| (r.rank, r.op, r.to));
        s
    }

    /// Ranks this plan has killed or hung so far.
    pub fn dead_ranks(&self) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .schedule()
            .iter()
            .filter(|r| matches!(r.action, FaultAction::Killed | FaultAction::Hung))
            .map(|r| r.rank)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    fn record(&self, rank: usize, op: u64, action: FaultAction, to: usize) {
        self.schedule.lock().unwrap().push(FaultRecord {
            rank,
            op,
            action,
            to,
        });
    }

    /// Returns the first not-yet-fired entry index matching `(rank, op)`,
    /// marking it fired when `once` is set.
    fn claim(&self, list: &[RankOp], fired: &Mutex<Vec<usize>>, rank: usize, op: u64) -> bool {
        for (i, e) in list.iter().enumerate() {
            if e.rank == rank && e.op == op {
                if self.cfg.once {
                    let mut f = fired.lock().unwrap();
                    if f.contains(&i) {
                        continue;
                    }
                    f.push(i);
                }
                return true;
            }
        }
        false
    }
}

impl FaultHook for FaultPlan {
    fn on_step(&self, rank: usize, op: u64) -> StepFault {
        if self.claim(&self.cfg.kill, &self.fired_kill, rank, op) {
            self.record(rank, op, FaultAction::Killed, usize::MAX);
            return StepFault::Kill;
        }
        if self.claim(&self.cfg.hang, &self.fired_hang, rank, op) {
            self.record(rank, op, FaultAction::Hung, usize::MAX);
            return StepFault::Hang;
        }
        if self.cfg.jitter_us > 0 && self.cfg.slow_ranks.contains(&rank) {
            let frac = hash01(self.cfg.seed, rank as u64, op, SALT_JITTER);
            let us = 1 + (frac * self.cfg.jitter_us as f64) as u64;
            self.record(rank, op, FaultAction::Jittered, usize::MAX);
            return StepFault::Jitter(Duration::from_micros(us));
        }
        StepFault::Continue
    }

    fn on_send(&self, rank: usize, op: u64, to: usize, _tag: u64, _bytes: u64) -> SendFault {
        if self.cfg.drop_prob > 0.0
            && hash01(self.cfg.seed, rank as u64, op, SALT_DROP) < self.cfg.drop_prob
        {
            self.record(rank, op, FaultAction::Dropped, to);
            return SendFault::Drop;
        }
        if self.cfg.delay_prob > 0.0
            && hash01(self.cfg.seed, rank as u64, op, SALT_DELAY) < self.cfg.delay_prob
        {
            self.record(rank, op, FaultAction::Delayed, to);
            return SendFault::Delay(Duration::from_micros(self.cfg.delay_us));
        }
        SendFault::Deliver
    }
}

const SALT_DROP: u64 = 0xD0;
const SALT_DELAY: u64 = 0xDE;
const SALT_JITTER: u64 = 0x31;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`, pure in its arguments.
fn hash01(seed: u64, rank: u64, op: u64, salt: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(rank ^ splitmix64(op ^ splitmix64(salt))));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash01_is_deterministic_and_uniform_ish() {
        let a = hash01(42, 3, 17, SALT_DROP);
        let b = hash01(42, 3, 17, SALT_DROP);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        // Different salt decorrelates the decision streams.
        assert_ne!(a, hash01(42, 3, 17, SALT_DELAY));
        // Crude uniformity: mean of many draws near 1/2.
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash01(7, 1, i, SALT_DROP)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn once_kill_fires_exactly_once() {
        let plan = FaultPlan::new(FaultConfig::kill_once(2, 5));
        assert!(matches!(plan.on_step(2, 5), StepFault::Kill));
        assert!(matches!(plan.on_step(2, 5), StepFault::Continue));
        assert_eq!(plan.dead_ranks(), vec![2]);
    }

    #[test]
    fn persistent_kill_keeps_firing() {
        let plan = FaultPlan::new(FaultConfig {
            once: false,
            ..FaultConfig::kill_once(0, 0)
        });
        assert!(matches!(plan.on_step(0, 0), StepFault::Kill));
        assert!(matches!(plan.on_step(0, 0), StepFault::Kill));
    }

    #[test]
    fn drop_decisions_replay_identically() {
        let run = || {
            let plan = FaultPlan::new(FaultConfig::drops(99, 0.3));
            for rank in 0..4 {
                for op in 0..50 {
                    let _ = plan.on_send(rank, op, (rank + 1) % 4, 0, 8);
                }
            }
            plan.schedule()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "0.3 drop rate over 200 sends fires");
    }
}

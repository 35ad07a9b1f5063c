//! The schedule hook: a seeded [`SchedulePlan`] every rank's [`Comm`]
//! consults at each send, so tests can vary how the rank threads interleave
//! without changing what any rank computes.
//!
//! Its one decision — delay this send or not — is a pure function of
//! `(seed, rank, send-op index)` through a SplitMix64-style mixer: no shared
//! RNG state, no lock on the decision, and the schedule is identical however
//! the OS interleaves the rank threads. Only *send* operations advance a
//! rank's clock: receive call counts depend on communication/computation
//! overlap timing and would destroy replayability.

#[cfg(doc)]
use crate::{Comm, Universe};
use std::sync::Mutex;
use std::time::Duration;

/// A seeded schedule of send delays, installed on every rank of a
/// [`Universe::try_run_with`] launch. Delays move time, never values: a
/// solve under any plan gives the bits of the undelayed solve.
#[derive(Debug)]
pub struct SchedulePlan {
    seed: u64,
    prob: f64,
    delay: Duration,
    /// `(rank, op)` of every send delayed so far.
    fired: Mutex<Vec<(usize, u64)>>,
}

impl SchedulePlan {
    /// Delays each send by `delay_us` microseconds with probability `prob`.
    pub fn delays(seed: u64, prob: f64, delay_us: u64) -> SchedulePlan {
        SchedulePlan {
            seed,
            prob,
            delay: Duration::from_micros(delay_us),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// How long rank `rank` stalls before its send number `op` (counted from
    /// 0 in program order, see [`Comm::send_ops`]), if at all.
    pub fn delay(&self, rank: usize, op: u64) -> Option<Duration> {
        let fires = hash01(self.seed, rank as u64, op) < self.prob;
        fires.then(|| {
            self.fired
                .lock()
                .expect("a delaying rank panicked mid-push")
                .push((rank, op));
            self.delay
        })
    }

    /// The `(rank, op)` of every delay fired so far, sorted, so two runs of
    /// one plan compare equal whatever the thread interleaving.
    pub fn schedule(&self) -> Vec<(usize, u64)> {
        let mut s = self
            .fired
            .lock()
            .expect("a delaying rank panicked mid-push")
            .clone();
        s.sort_unstable();
        s
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`, pure in its arguments.
fn hash01(seed: u64, rank: u64, op: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(rank ^ splitmix64(op)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash01_is_deterministic_and_uniform_ish() {
        let a = hash01(42, 3, 17);
        assert_eq!(a, hash01(42, 3, 17));
        assert!((0.0..1.0).contains(&a));
        assert_ne!(a, hash01(43, 3, 17), "the seed decorrelates schedules");
        // Crude uniformity: mean of many draws near 1/2.
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash01(7, 1, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn delay_decisions_replay_identically() {
        let run = || {
            let plan = SchedulePlan::delays(99, 0.3, 0);
            for rank in 0..4 {
                for op in 0..50 {
                    let _ = plan.delay(rank, op);
                }
            }
            plan.schedule()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty(), "0.3 delay rate over 200 sends fires");
        assert!(a.len() < 200, "and does not fire on every send");
    }
}

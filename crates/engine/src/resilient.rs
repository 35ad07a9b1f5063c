//! Resilient solves: retry with backoff, checkpoint resume, degraded
//! fallback.
//!
//! The strategy ladder, cheapest first:
//!
//! 1. **Retry** the solve up to `retry_budget` more times with exponential
//!    backoff, resuming from the newest *consistent* checkpoint (cycle
//!    boundary snapshots, see [`parapre_resilience::CheckpointStore`])
//!    instead of from zero — a kill near convergence costs one restart
//!    cycle, not the whole solve. One-shot injected faults
//!    ([`parapre_resilience::FaultConfig::once`]) are the model for
//!    transient real-world failures: the retry goes through.
//! 2. **Degrade**: when retries are exhausted and the failure names dead
//!    ranks, drop their subdomains and solve the reduced system Block
//!    1-style ([`parapre_resilience::solve_degraded`]). The report keeps
//!    the honest full-system residual; `FaultOutcome::degraded` marks the
//!    answer as partial.
//! 3. **Fail** with the structured failure list when neither works.

use crate::session::{join_failures, SessionSolveReport, SolveRequest, SolverSession};
use crate::EngineError;
use parapre_dist::CheckpointCtx;
use parapre_mpisim::FaultHook;
use parapre_resilience::{solve_degraded, CheckpointStore};
use std::sync::Arc;
use std::time::Instant;

/// What the resilience ladder is allowed to do for a job.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Extra attempts after the first failed one.
    pub retry_budget: usize,
    /// Base backoff before a retry, doubled per attempt (milliseconds).
    pub backoff_ms: u64,
    /// Permit the degraded (reduced-system) fallback.
    pub degrade: bool,
    /// Take restart-cycle checkpoints and resume retries from them.
    pub checkpoint: bool,
    /// On a typed numerical breakdown (non-finite arithmetic, stagnation,
    /// divergence), rebuild the session one rung down the preconditioner
    /// fallback ladder and re-solve — unifying numerical recovery with the
    /// process-level ladder above.
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

impl RecoveryPolicy {
    /// No retries, no checkpoints, no degradation — fail like the plain
    /// solve path.
    pub fn none() -> Self {
        RecoveryPolicy {
            retry_budget: 0,
            backoff_ms: 0,
            degrade: false,
            checkpoint: false,
            precond_fallback: false,
        }
    }
}

/// What actually happened on the resilience ladder, success or not.
#[derive(Debug, Clone, Default)]
pub struct FaultOutcome {
    /// Failed attempts before the final one.
    pub retries: usize,
    /// Iterations inherited from a checkpoint by the final attempt.
    pub resumed_iters: usize,
    /// The answer comes from the degraded (reduced-system) path.
    pub degraded: bool,
    /// Ranks declared dead (injected kills/hangs observed in failures).
    pub dead_ranks: Vec<usize>,
    /// Honest full-system residual of a degraded answer.
    pub degraded_full_relres: Option<f64>,
    /// Classification of the terminal failure, when there was one
    /// (`"rank_failure"`, `"degraded_failed"`, ...).
    pub error_kind: Option<String>,
    /// Preconditioner-ladder rungs descended, build-time and solve-time
    /// combined.
    pub fallbacks: usize,
    /// Diagonal-shift factorization retries, summed over ranks.
    pub pivot_shifts: usize,
    /// Kind key of the last typed numerical breakdown observed
    /// (`"stagnation"`, `"non_finite"`, ...), recovered-from or not.
    pub breakdown_kind: Option<String>,
}

/// Runs a solve through the resilience ladder. `faults` (optional) is the
/// deterministic injection plan; pass `None` to get plain solves with
/// retry/checkpoint/degrade armed against *real* failures.
// The Err variant carries the full FaultOutcome so callers can see what
// recovery was attempted before the failure; it is constructed once per
// failed job, never on a hot path.
#[allow(clippy::result_large_err)]
pub fn solve_resilient(
    session: &SolverSession,
    b: &[f64],
    x0: Option<&[f64]>,
    faults: Option<Arc<dyn FaultHook>>,
    policy: &RecoveryPolicy,
) -> Result<(SessionSolveReport, FaultOutcome), (EngineError, FaultOutcome)> {
    let p = session.config().n_ranks;
    let store = policy.checkpoint.then(|| CheckpointStore::new(p));
    let mut outcome = FaultOutcome::default();
    let mut guess: Option<Vec<f64>> = x0.map(|g| g.to_vec());
    let mut start_iters = 0usize;
    let mut start_cycle = 0u64;
    let t0 = Instant::now();

    let mut attempt = 0usize;
    // A numerical-fallback descent replaces the session with one built a
    // rung down the preconditioner ladder; the original stays borrowed.
    let mut rebuilt: Option<SolverSession> = None;
    let failures = loop {
        let sess: &SolverSession = rebuilt.as_ref().unwrap_or(session);
        let ckpt = store.as_ref().map(|s| CheckpointCtx {
            sink: s,
            start_iters,
            start_cycle,
        });
        let attempt_req = SolveRequest {
            x0: guess.as_deref(),
            faults: faults.clone(),
            ckpt,
            ..SolveRequest::new(b)
        };
        match sess.run(attempt_req).map(|out| out.single()) {
            Ok(mut rep) => {
                if let Some(bd) = rep.breakdown {
                    outcome.breakdown_kind = Some(bd.kind.key().to_string());
                }
                if policy.precond_fallback && !rep.converged && rep.breakdown.is_some() {
                    if let Some(next) = sess.active_precond().fallback() {
                        let mut down = sess.config().clone();
                        down.precond = next;
                        if let Ok(s2) = SolverSession::build_identified(
                            sess.matrix(),
                            sess.owner(),
                            &down,
                            sess.id(),
                        ) {
                            parapre_metrics::count(parapre_metrics::names::PRECOND_FALLBACK, 1);
                            // What the abandoned session's own build
                            // cost counts too: only the final session's is
                            // added at return.
                            outcome.fallbacks += 1 + sess.build_fallbacks();
                            outcome.pivot_shifts += sess.pivot_shifts();
                            // Warm-start the downgraded solve from the
                            // broken-down iterate only when it is usable.
                            if rep.x.iter().all(|v| v.is_finite()) {
                                guess = Some(std::mem::take(&mut rep.x));
                            }
                            rebuilt = Some(s2);
                            continue;
                        }
                    }
                }
                // The report's wall clock should cover the whole ladder,
                // failed attempts and backoff included.
                rep.solve_seconds = t0.elapsed().as_secs_f64();
                outcome.retries = attempt;
                outcome.resumed_iters = start_iters;
                outcome.fallbacks += sess.build_fallbacks();
                outcome.pivot_shifts += sess.pivot_shifts();
                return Ok((rep, outcome));
            }
            Err(fails) => {
                let injected = fails.iter().filter(|f| f.injected.is_some());
                outcome.dead_ranks.extend(injected.map(|f| f.rank));
                outcome.dead_ranks.sort_unstable();
                outcome.dead_ranks.dedup();
                if attempt >= policy.retry_budget {
                    break fails;
                }
                parapre_metrics::count(parapre_metrics::names::SOLVE_RETRY, 1);
                if policy.backoff_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(
                        policy.backoff_ms << attempt.min(10),
                    ));
                }
                if let Some(ck) = store.as_ref().and_then(|s| s.latest_consistent()) {
                    guess = Some(session.assemble_global(&ck.x));
                    start_iters = ck.iters;
                    start_cycle = ck.cycle;
                }
                attempt += 1;
            }
        }
    };

    outcome.retries = attempt;
    if policy.degrade && !outcome.dead_ranks.is_empty() && outcome.dead_ranks.len() < p {
        // Resume the survivors from the newest consistent checkpoint when
        // one exists; otherwise from the caller's guess.
        if let Some(ck) = store.as_ref().and_then(|s| s.latest_consistent()) {
            guess = Some(session.assemble_global(&ck.x));
        }
        let cfg = session.config();
        match solve_degraded(
            session.matrix(),
            session.owner(),
            p,
            b,
            guess.as_deref(),
            &outcome.dead_ranks,
            cfg.gmres,
            cfg.recv_timeout,
        ) {
            Ok(deg) => {
                outcome.degraded = true;
                outcome.degraded_full_relres = Some(deg.full_relres);
                let rep = SessionSolveReport {
                    x: deg.x,
                    iterations: deg.iterations,
                    converged: deg.converged,
                    final_relres: deg.reduced_relres,
                    // `true_relres` never lies: for a degraded answer it is
                    // the full-system residual, dead subdomain included.
                    true_relres: deg.full_relres,
                    solve_seconds: t0.elapsed().as_secs_f64(),
                    breakdown: None,
                    // Degraded solves run on survivor ranks outside the
                    // session's universe; no per-rank attribution here.
                    load: parapre_metrics::LoadReport::default(),
                };
                return Ok((rep, outcome));
            }
            Err(e) => {
                outcome.error_kind = Some("degraded_failed".into());
                return Err((
                    EngineError::Solve(format!(
                        "{}; degraded fallback: {e}",
                        join_failures(&failures)
                    )),
                    outcome,
                ));
            }
        }
    }

    outcome.error_kind = Some("rank_failure".into());
    Err((failures.into(), outcome))
}

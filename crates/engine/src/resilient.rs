//! Resilient solves: retry with backoff, checkpoint resume, degraded
//! fallback.
//!
//! The strategy ladder, cheapest first:
//!
//! 1. **Retry** the solve up to `retry_budget` more times with exponential
//!    backoff, resuming from the newest *consistent* checkpoint (cycle
//!    boundary snapshots, see [`CheckpointStore`]) instead of from zero — a
//!    kill near convergence costs one restart cycle, not the whole solve.
//!    One-shot injected faults ([`parapre_mpisim::FaultConfig::once`]) are
//!    the model for transient real-world failures: the retry goes through.
//! 2. **Degrade**: when retries are exhausted and the failure names dead
//!    ranks, drop their subdomains and solve the reduced system Block
//!    1-style ([`solve_degraded`]). The report keeps the honest full-system
//!    residual; `FaultOutcome::degraded` marks the answer as partial.
//! 3. **Fail** with the structured failure list when neither works.

use crate::session::{
    join_failures, SessionConfig, SessionSolveReport, SolveRequest, SolverSession,
};
use crate::EngineError;
use parapre_core::PrecondKind;
use parapre_dist::{CheckpointCtx, CheckpointStore};
use parapre_mpisim::FaultHook;
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
        let ckpt = store.as_ref().map(|store| CheckpointCtx {
            store,
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
                        if let Ok((s2, _)) = SolverSession::build_identified(
                            sess.shared_matrix(),
                            sess.owner(),
                            &down,
                            sess.id(),
                            false,
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
        match solve_degraded(session, b, guess.as_deref(), &outcome.dead_ranks) {
            Ok(mut rep) => {
                outcome.degraded = true;
                outcome.degraded_full_relres = Some(rep.true_relres);
                rep.solve_seconds = t0.elapsed().as_secs_f64();
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

/// Solves `A x = b` with the subdomains owned by `dead` ranks removed.
///
/// When a rank dies mid-solve its subdomain's unknowns are unreachable, but
/// the survivors' subproblem is still well posed once the couplings into the
/// lost subdomain are dropped (for the paper's diagonally-dominant FEM
/// systems the principal submatrix stays nonsingular). Survivor ranks are
/// renumbered `0..S` and the reduced system is a [`SolverSession`] of its
/// own — built and run like any other, with the simplest, most
/// fault-tolerant preconditioner in the family (Block 1: block-Jacobi
/// ILU(0), zero communication in the apply) and `session`'s solver
/// parameters. `x0` (full length) warm-starts the survivors and fills the
/// dead entries of the returned solution.
///
/// The report is the reduced solve's (its `load` is indexed by survivor
/// rank) except that `x` is full length and `true_relres` never lies: it is
/// the honest full-system `‖b − A x‖/‖b‖`, which stays large because the
/// dead subdomain was never solved. Callers decide whether a partial answer
/// is acceptable. Errors when no unknown survives or the reduced session
/// itself fails.
pub fn solve_degraded(
    session: &SolverSession,
    b: &[f64],
    x0: Option<&[f64]>,
    dead: &[usize],
) -> Result<SessionSolveReport, EngineError> {
    let (a, owner) = (session.matrix(), session.owner());
    let mut rank_map = vec![None; session.config().n_ranks];
    let mut n_survivors = 0;
    for (r, slot) in rank_map.iter_mut().enumerate() {
        if !dead.contains(&r) {
            *slot = Some(n_survivors as u32);
            n_survivors += 1;
        }
    }
    // Surviving unknowns in global order, and their renumbered owners.
    let (alive, owner_red): (Vec<usize>, Vec<u32>) = (0..a.n_rows())
        .filter_map(|i| Some((i, rank_map[owner[i] as usize]?)))
        .unzip();
    if alive.is_empty() {
        return Err(EngineError::Solve(
            "dead ranks owned every unknown: nothing to degrade to".into(),
        ));
    }
    let restrict = |v: &[f64]| -> Vec<f64> { alive.iter().map(|&i| v[i]).collect() };
    parapre_metrics::count(parapre_metrics::names::SOLVE_DEGRADED, 1);
    let cfg = SessionConfig {
        precond: PrecondKind::Block1,
        n_ranks: n_survivors,
        ..session.config().clone()
    };
    let reduced = SolverSession::build(&a.principal_submatrix(&alive), &owner_red, &cfg)?;
    let x0_red = x0.map(restrict);
    let mut rep = reduced
        .run(SolveRequest {
            x0: x0_red.as_deref(),
            ..SolveRequest::new(&restrict(b))
        })?
        .single();

    let mut x = x0.map_or_else(|| vec![0.0; a.n_rows()], <[f64]>::to_vec);
    for (&g, &v) in alive.iter().zip(&rep.x) {
        x[g] = v;
    }
    let (mut rnorm, mut bnorm) = (0.0, 0.0);
    for (ai, bi) in a.mul_vec(&x).iter().zip(b) {
        rnorm += (bi - ai) * (bi - ai);
        bnorm += bi * bi;
    }
    rep.true_relres = if bnorm > 0.0 {
        (rnorm / bnorm).sqrt()
    } else {
        rnorm.sqrt()
    };
    rep.x = x;
    Ok(rep)
}

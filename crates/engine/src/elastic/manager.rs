//! One policy instance per cached session (streaks and cooldowns survive
//! across passes) and the pass that decides, plans, migrates and swaps.

use super::{apply_decision, plan_migration, RebalanceConfig, RebalanceDecision, RebalancePolicy};
use crate::cache::{SessionCache, SessionKey};
use crate::session::{matrix_graph, SolverSession};
use parapre_partition::Partition;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// KL sweeps per online refinement. Enough for a boundary to travel
/// across a badly skewed subdomain; refinement exits early once a sweep
/// moves nothing.
const REFINE_PASSES: usize = 64;

/// What one rebalance pass did (or declined to do) to one cached session.
#[derive(Debug, Clone)]
pub struct RebalanceRecord {
    /// Matrix fingerprint of the session.
    pub fingerprint: u64,
    /// The policy's decision for this pass.
    pub decision: String,
    /// `rebalanced`, `stay`, `no_load`, `no_change`, or `abort:<why>`.
    pub outcome: String,
    /// Rank count before.
    pub old_p: usize,
    /// Rank count after (equals `old_p` unless a resize landed).
    pub new_p: usize,
    /// Subdomain factors carried over verbatim (0 when nothing migrated).
    pub reused_ranks: usize,
    /// Vertices whose owner changed (0 when nothing migrated).
    pub moved_rows: usize,
    /// Migration wall time in seconds (0 when nothing migrated).
    pub migrate_seconds: f64,
}

impl RebalanceRecord {
    /// One JSONL line for the control-plane response.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fp\":\"{:016x}\",\"decision\":\"{}\",\"outcome\":\"{}\",\"old_p\":{},\
             \"new_p\":{},\"reused_ranks\":{},\"moved_rows\":{},\"migrate_us\":{}}}",
            self.fingerprint,
            self.decision,
            self.outcome,
            self.old_p,
            self.new_p,
            self.reused_ranks,
            self.moved_rows,
            (self.migrate_seconds * 1e6) as u64
        )
    }
}

/// Per-cache rebalance state: one [`RebalancePolicy`] per resident
/// session key, so sustain streaks and cooldowns persist across passes
/// and do not bleed between sessions.
pub struct RebalanceManager {
    cfg: RebalanceConfig,
    policies: Mutex<HashMap<SessionKey, RebalancePolicy>>,
}

impl RebalanceManager {
    /// A manager applying `cfg` to every session it watches.
    pub fn new(cfg: RebalanceConfig) -> RebalanceManager {
        RebalanceManager {
            cfg,
            policies: Mutex::new(HashMap::new()),
        }
    }

    /// Runs one rebalance pass over every resident session.
    ///
    /// With `force: false` (the auto-rebalance path) each session's
    /// persistent policy ingests its latest [`SolverSession::last_load`]
    /// and only a sustained signal triggers a migration. With
    /// `force: true` (the `{"cmd":"rebalance"}` control verb) a one-shot
    /// policy with `sustain: 1, cooldown: 0` decides on the latest
    /// observation alone.
    ///
    /// A successful migration inserts the new session under its
    /// topology-tagged key and retires the old entry; any abort leaves
    /// the old entry serving and reports the reason.
    pub fn pass(&self, cache: &SessionCache, force: bool) -> Vec<RebalanceRecord> {
        let mut records = Vec::new();
        for (key, session) in cache.entries() {
            records.push(self.rebalance_one(cache, &key, &session, force));
        }
        // Drop policy state for keys no longer resident.
        let live: Vec<SessionKey> = cache.entries().into_iter().map(|(k, _)| k).collect();
        self.policies
            .lock()
            .expect("policy lock")
            .retain(|k, _| live.contains(k));
        records
    }

    fn rebalance_one(
        &self,
        cache: &SessionCache,
        key: &SessionKey,
        session: &Arc<SolverSession>,
        force: bool,
    ) -> RebalanceRecord {
        let p = session.config().n_ranks;
        let mut record = RebalanceRecord {
            fingerprint: session.fingerprint(),
            decision: "stay".into(),
            outcome: "stay".into(),
            old_p: p,
            new_p: p,
            reused_ranks: 0,
            moved_rows: 0,
            migrate_seconds: 0.0,
        };
        let Some(load) = session.last_load() else {
            record.outcome = "no_load".into();
            return record;
        };
        let decision = if force {
            let mut once = RebalancePolicy::new(RebalanceConfig {
                sustain: 1,
                cooldown: 0,
                ..self.cfg.clone()
            });
            once.observe(&load)
        } else {
            let mut policies = self.policies.lock().expect("policy lock");
            policies
                .entry(key.clone())
                .or_insert_with(|| RebalancePolicy::new(self.cfg.clone()))
                .observe(&load)
        };
        record.decision = match decision {
            RebalanceDecision::Stay => "stay".into(),
            RebalanceDecision::Refine => "refine".into(),
            RebalanceDecision::Resize(q) => format!("resize:{q}"),
        };
        if decision == RebalanceDecision::Stay {
            return record;
        }
        let adj = matrix_graph(session.matrix());
        let part = Partition {
            owner: session.owner().to_vec(),
            n_parts: p,
        };
        let seed = session.config().partition_seed;
        let Some(new_part) = apply_decision(&adj, &part, &load, decision, seed, REFINE_PASSES)
        else {
            record.outcome = "no_change".into();
            return record;
        };
        let plan = match plan_migration(
            session.matrix(),
            session.owner(),
            p,
            &new_part.owner,
            new_part.n_parts,
        ) {
            Ok(plan) => plan,
            Err(e) => {
                record.outcome = format!("abort:{e}");
                return record;
            }
        };
        if plan.is_identity() {
            record.outcome = "no_change".into();
            return record;
        }
        match session.migrate(&plan, None, None) {
            Ok((migrated, mrep)) => {
                let new_key = SessionKey::new(migrated.fingerprint(), migrated.config());
                cache.insert(new_key, Arc::new(migrated));
                cache.remove(key);
                self.policies.lock().expect("policy lock").remove(key);
                record.outcome = "rebalanced".into();
                record.new_p = plan.new_p;
                record.reused_ranks = mrep.reused_ranks;
                record.moved_rows = mrep.moved_rows;
                record.migrate_seconds = mrep.migrate_seconds;
            }
            Err(e) => {
                record.outcome = format!("abort:{e}");
            }
        }
        record
    }
}

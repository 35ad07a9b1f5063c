//! Resilience layer: deterministic fault injection, checkpoint stores, and
//! degraded-mode solves.
//!
//! The paper's preconditioners assume every subdomain rank survives the
//! whole FGMRES(20) run. This crate makes the opposite assumption testable
//! and survivable:
//!
//! - [`fault`] — a seeded, deterministic [`fault::FaultPlan`] implementing
//!   [`parapre_mpisim::FaultHook`]: message drops, message delays, slow-rank
//!   jitter, and rank kill/hang at a chosen send operation. The same seed
//!   always produces the same fault schedule, so chaos runs are replayable
//!   bug reports rather than flaky noise.
//! - [`checkpoint`] — an in-memory [`checkpoint::CheckpointStore`]
//!   implementing [`parapre_dist::CheckpointSink`]: restart-cycle boundary
//!   snapshots of each rank's iterate, from which a failed solve resumes
//!   instead of starting from zero.
//! - [`degraded`] — when a rank is declared dead, survivors drop the lost
//!   couplings and re-solve the reduced system with a Block 1-style
//!   block-Jacobi ILU(0) preconditioner, reporting both the reduced-system
//!   residual and the honest full-system residual.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod degraded;
pub mod elastic;
pub mod fault;

pub use checkpoint::{CheckpointStore, ConsistentCheckpoint};
pub use degraded::{solve_degraded, DegradedReport};
pub use elastic::{
    apply_decision, owner_tag, plan_migration, MigrationPlan, RankDisposition, RebalanceConfig,
    RebalanceDecision, RebalancePolicy,
};
pub use fault::{FaultAction, FaultConfig, FaultPlan, FaultRecord, RankOp};

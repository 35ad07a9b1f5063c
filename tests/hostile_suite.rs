//! The hostile suite: what the safety net catches. Chain matrices with
//! exact-zero, near-zero and sign-flipped diagonals
//! (`parapre::core::cases::hostile_suite`, 96 rows, 12 seeds) go through
//! each of the four paper rungs. Each of the 48 cells is also a `LEDGER.txt`
//! line (`hostile s<seed> <kind> P=4`), which pins its iterations, messages
//! and solution bits; this test pins the totals and that no solve,
//! converged or not, hands back a non-finite answer.

use parapre::core::cases::{hostile_suite, HostileCell};
use parapre::core::PrecondKind;
use parapre::engine::{SessionConfig, SolverSession};
use std::collections::BTreeMap;

#[test]
fn every_hostile_cell_converges_on_its_rung_with_finite_answers() {
    let (mut runs, mut converged, mut fallbacks, mut shifts) = (0, 0, 0, 0);
    let mut rungs: BTreeMap<&str, usize> = BTreeMap::new();
    for cell in hostile_suite() {
        for kind in PrecondKind::ALL {
            let what = format!("hostile s{} {}", cell.s, kind.key());
            let mut cfg = SessionConfig::paper(kind, HostileCell::RANKS);
            cfg.gmres.max_iters = HostileCell::MAX_ITERS;
            let session = SolverSession::build(&cell.a, &cell.owner, &cfg)
                .unwrap_or_else(|e| panic!("{what}: the ladder bottom is infallible: {e}"));
            let rep = session
                .solve(&cell.b)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(rep.x.iter().all(|v| v.is_finite()), "{what}: non-finite x");
            *rungs.entry(session.active_precond().key()).or_default() += 1;
            runs += 1;
            converged += usize::from(rep.converged);
            fallbacks += session.build_fallbacks();
            shifts += session.pivot_shifts();
        }
    }
    assert_eq!((runs, converged), (48, 48), "runs, converged");
    assert_eq!(fallbacks, 0, "ladder fallbacks");
    assert_eq!(shifts, 144, "pivot-shift retries");
    let want: BTreeMap<&str, usize> = ["block1", "block2", "schur1", "schur2"]
        .into_iter()
        .map(|k| (k, 12))
        .collect();
    assert_eq!(rungs, want, "builds per rung");
}
